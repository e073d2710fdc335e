"""Run the verifier over benchmark ports — the batch entry points.

:func:`lint_port` lints one (benchmark, model, variant) triple;
:func:`lint_suite` sweeps the paper's 13 benchmarks × the lintable
models (:data:`LINT_MODELS` — the 5 directive models plus the
OpenMP-Target compiler), producing the records the per-model
lint-density table (:mod:`repro.metrics.lintstats`) aggregates
alongside Table II.

Compilation is memoized in :func:`repro.models.cache.compile_port` —
shared with the harness sweeps and the translation validator, and
re-exported here for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.lint.engine import run_lint
from repro.lint.findings import LintReport
from repro.models import DIRECTIVE_MODELS
from repro.models.cache import clear_compile_cache, compile_port

__all__ = ["LINT_MODELS", "SuiteRecord", "compile_port",
           "clear_compile_cache", "lint_port", "lint_record", "lint_suite"]

#: the models the suite lints by default: every paper directive model
#: plus the OpenMP-Target compiler (not a 2012 Table-II column, but its
#: ports run the same directive pipeline and carry the same lint rules)
LINT_MODELS: tuple[str, ...] = tuple(DIRECTIVE_MODELS) + ("OpenMP-Target",)


@dataclass
class SuiteRecord:
    """One (benchmark, model) lint outcome with sizing context."""

    benchmark: str
    model: str
    variant: str
    regions: int
    report: LintReport

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant, "regions": self.regions,
                "findings": [f.to_dict() for f in self.report.sorted()]}


def lint_record(benchmark: str, model: str, variant: Optional[str] = None,
                device: DeviceSpec = TESLA_M2090) -> SuiteRecord:
    """Compile the named port and lint program + compilation together."""
    port, compiled, chosen = compile_port(benchmark, model, variant)
    return SuiteRecord(benchmark=benchmark, model=compiled.model,
                       variant=chosen, regions=compiled.regions_total,
                       report=run_lint(port.program, compiled,
                                       device=device))


def lint_port(benchmark: str, model: str, variant: Optional[str] = None,
              device: DeviceSpec = TESLA_M2090) -> LintReport:
    """The lint report of one port (:func:`lint_record` without sizing)."""
    return lint_record(benchmark, model, variant, device).report


def lint_suite(models: Sequence[str] = LINT_MODELS,
               benchmarks: Optional[Sequence[str]] = None,
               device: DeviceSpec = TESLA_M2090,
               jobs: int = 1) -> list[SuiteRecord]:
    """Lint every benchmark × model pair, in table order (``jobs>1``
    shards the pairs, see :func:`repro.harness.parallel.sweep_ports`)."""
    from repro.harness.parallel import suite_pairs, sweep_ports

    return sweep_ports("lint", suite_pairs(benchmarks, models), jobs,
                       device=device)
