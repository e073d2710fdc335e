"""Evaluation runner: sweeps benchmark × model × variant.

Produces the raw material for Table II and Figure 1.  Timing sweeps run
at paper scale with functional execution off (the analytical model only
needs shapes); coverage/code-size come straight from compilation.

Compilation goes through the shared artifact store
(:mod:`repro.models.cache`), so a full evaluation lowers each registry
port once even though the coverage, code-size, and speedup sweeps all
visit it; benchmark instances that are not the registry's (test
subclasses) are content-addressed by the store itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.benchmarks.base import Benchmark, RunOutcome
from repro.benchmarks.registry import iter_suite
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.timing import TimingConfig
from repro.metrics.codesize import CodeSizeReport
from repro.metrics.coverage import CoverageReport
from repro.metrics.speedup import BenchmarkSpeedups
from repro.models import DIRECTIVE_MODELS
from repro.models.cache import compile_bench
from repro.obs import tracer as obs

#: Figure 1's model set (R-Stream excluded, as in the paper, for its
#: low coverage; its coverage still appears in Table II)
FIGURE1_MODELS: tuple[str, ...] = (
    "PGI Accelerator", "OpenACC", "HMPP", "OpenMPC", "Hand-Written CUDA",
)

TABLE2_MODELS: tuple[str, ...] = DIRECTIVE_MODELS


@dataclass
class EvaluationResults:
    """Everything a full sweep produced."""

    coverage: dict[str, CoverageReport] = field(default_factory=dict)
    codesize: dict[str, CodeSizeReport] = field(default_factory=dict)
    #: speedups[benchmark][model]
    speedups: dict[str, dict[str, BenchmarkSpeedups]] = field(
        default_factory=dict)


def run_variants(bench: Benchmark, model: str, variants: Sequence[str],
                 scale: str = "paper", device: DeviceSpec = TESLA_M2090,
                 timing: Optional[TimingConfig] = None,
                 ) -> Iterator[RunOutcome]:
    """Run each of ``variants`` of one (benchmark, model) pair once,
    timing-only, yielding the outcomes in order."""
    for variant in variants:
        _, compiled = compile_bench(bench, model, variant)
        yield bench.run(model, variant, scale=scale, execute=False,
                        validate=False, device=device, timing=timing,
                        compiled=compiled)


def run_speedups(benchmarks: Optional[Sequence[Benchmark]] = None,
                 models: Sequence[str] = FIGURE1_MODELS,
                 scale: str = "paper",
                 device: DeviceSpec = TESLA_M2090,
                 timing: Optional[TimingConfig] = None,
                 ) -> dict[str, dict[str, BenchmarkSpeedups]]:
    """Price every (benchmark, model, variant); returns Figure 1 data."""
    out: dict[str, dict[str, BenchmarkSpeedups]] = {}
    benches = list(benchmarks) if benchmarks is not None else list(iter_suite())
    for bench in benches:
        with obs.span(bench.name, "harness.bench"):
            out[bench.name] = {model: BenchmarkSpeedups(
                benchmark=bench.name, model=model, variants=[
                    outcome.speedup for outcome in run_variants(
                        bench, model, bench.variants(model), scale, device,
                        timing)])
                for model in models}
    return out


def run_evaluation(*, coverage: bool = False, speedups: bool = False,
                   profiles: bool = False, scale: str = "paper",
                   jobs: int = 1, journal: Optional[str] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   models: Sequence[str] = FIGURE1_MODELS,
                   device: DeviceSpec = TESLA_M2090,
                   timing: Optional[TimingConfig] = None):
    """Table II (``coverage``), Figure 1 (``speedups``) and per-run
    ``profiles`` over ``benchmarks`` (names; default the suite) and the
    Figure-1 ``models``.

    Builds the (benchmark, model) work-unit graph, runs it through
    :func:`~repro.harness.parallel.run_sweep` (in-process at ``jobs=1``,
    across worker processes otherwise; ``journal`` checkpoints it) and
    folds the outcomes in registry order, so the results are identical
    for any ``jobs``.  Returns ``(EvaluationResults, run_profiles,
    SweepResult)``.
    """
    from repro.harness.parallel import (SweepContext, evaluation_units,
                                        merge_evaluation, run_sweep)

    units = evaluation_units(benchmarks, figure1_models=models,
                             coverage=coverage, speedups=speedups,
                             profiles=profiles)
    sweep = run_sweep(units, jobs=jobs, journal=journal,
                      context=SweepContext(scale=scale, device=device,
                                           timing=timing))
    results, run_profiles = merge_evaluation(sweep.outcomes)
    return results, run_profiles, sweep


def run_full_evaluation(scale: str = "paper",
                        jobs: int = 1) -> EvaluationResults:
    """Coverage + code size + speedups over the whole suite, at any
    ``jobs`` (see :func:`run_evaluation`)."""
    return run_evaluation(coverage=True, speedups=True, scale=scale,
                          jobs=jobs)[0]
