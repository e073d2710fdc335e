"""Run the transfer analyses over benchmark ports — the batch entry points.

:func:`xfer_port` analyzes one (benchmark, model, variant) triple
against its concrete workload schedule; :func:`xfer_suite` sweeps the
paper's 13 benchmarks × the directive models, producing the records the
``repro-harness xfer`` rollup (:mod:`repro.metrics.xferstats`)
aggregates alongside Table II.

Compilation is memoized in :func:`repro.models.cache.compile_port` —
the same artifact store the lint/tv suites and the harness sweeps hit,
so a ``xfer --all`` sweep after a lint sweep compiles nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dataflow.report import XferAnalysis, analyze_compiled
from repro.models import DIRECTIVE_MODELS
from repro.models.cache import compile_port
from repro.obs import tracer as obs

__all__ = ["XferRecord", "xfer_port", "xfer_suite"]


@dataclass(frozen=True)
class XferRecord:
    """One (benchmark, model) transfer-analysis outcome."""

    benchmark: str
    model: str
    variant: str
    scale: str
    analysis: XferAnalysis

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant, "scale": self.scale,
                **self.analysis.to_dict()}


def _array_nbytes(compiled, wl) -> dict[str, int]:
    """Per-transfer byte size of every declared array at this workload."""
    sizes: dict[str, int] = {}
    for name, decl in compiled.program.arrays.items():
        try:
            sizes[name] = decl.nbytes(wl.sizes)
        except Exception:
            # a dim the workload doesn't bind — count its transfers as 0B
            sizes[name] = 0
    return sizes


def xfer_port(benchmark: str, model: str, variant: Optional[str] = None,
              scale: str = "test") -> XferRecord:
    """Compile the named port and analyze its whole-program transfers.

    The CFG is built from the benchmark's *concrete* schedule at
    ``scale`` (host driver loops recovered by run-length compression),
    the final node reads the benchmark's declared output arrays, and
    byte accounting uses the workload's array sizes.
    """
    from repro.benchmarks import get_benchmark

    port, compiled, chosen = compile_port(benchmark, model, variant)
    bench = get_benchmark(benchmark)
    wl = bench.workload(scale=scale)
    schedule = bench.schedule_for(model, chosen, wl)
    with obs.span("analysis.xfer", "analysis", kind="xfer",
                  benchmark=benchmark, model=compiled.model):
        analysis = analyze_compiled(
            compiled, schedule=schedule, outputs=bench.output_arrays(),
            nbytes=_array_nbytes(compiled, wl))
    return XferRecord(benchmark=bench.name, model=compiled.model,
                      variant=chosen, scale=scale, analysis=analysis)


def xfer_suite(models: Sequence[str] = DIRECTIVE_MODELS,
               benchmarks: Optional[Sequence[str]] = None,
               scale: str = "test",
               jobs: int = 1) -> list[XferRecord]:
    """Analyze every benchmark × model pair, in table order (``jobs>1``
    shards the pairs, see :func:`repro.harness.parallel.sweep_ports`)."""
    from repro.harness.parallel import suite_pairs, sweep_ports

    return sweep_ports("xfer", suite_pairs(benchmarks, models), jobs,
                       scale=scale)
