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
from typing import Optional, Sequence

from repro.benchmarks.base import Benchmark
from repro.benchmarks.registry import get_benchmark, iter_suite
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


def run_coverage_and_codesize(
        benchmarks: Optional[Sequence[Benchmark]] = None,
) -> EvaluationResults:
    """Compile every port; aggregate Table II."""
    results = EvaluationResults()
    benches = list(benchmarks) if benchmarks is not None else list(iter_suite())
    for model in TABLE2_MODELS:
        cov = CoverageReport(model=model)
        size = CodeSizeReport(model=model)
        for bench in benches:
            port, compiled = compile_bench(bench, model, "best")
            cov.add(compiled)
            size.add_port(bench.program, port)
        results.coverage[model] = cov
        results.codesize[model] = size
    return results


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
            per_model: dict[str, BenchmarkSpeedups] = {}
            for model in models:
                record = BenchmarkSpeedups(benchmark=bench.name, model=model)
                for variant in bench.variants(model):
                    _, compiled = compile_bench(bench, model, variant)
                    outcome = bench.run(model, variant, scale=scale,
                                        execute=False, validate=False,
                                        device=device, timing=timing,
                                        compiled=compiled)
                    record.variants.append(outcome.speedup)
                per_model[model] = record
            out[bench.name] = per_model
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
    Figure-1 ``models``: the one place that picks serial or sharded.

    ``jobs=1`` runs the serial sweeps in-process over one materialized
    suite, so every sweep sees the same benchmark instances (and the
    same artifact-store fast keys).  ``jobs>1`` shards the (benchmark,
    model) work-unit graph across worker processes
    (:mod:`repro.harness.parallel`; ``journal`` checkpoints it) and
    merges in registry order, so the results are identical for any
    ``jobs``; if the caller has a tracer installed, the units' spans are
    absorbed into it under the open span, one lane per worker.

    Returns ``(EvaluationResults, run_profiles, SweepResult or None)``.
    """
    if jobs > 1:
        from repro.harness.parallel import (SweepContext, evaluation_units,
                                            merge_evaluation, run_sweep)
        from repro.obs.merge import absorb_payloads

        units = evaluation_units(benchmarks, figure1_models=models,
                                 coverage=coverage, speedups=speedups,
                                 profiles=profiles)
        sweep = run_sweep(units, jobs=jobs, journal=journal,
                          context=SweepContext(scale=scale, device=device,
                                               timing=timing))
        tracer = obs.current_tracer()
        if tracer is not None:
            parent = tracer.current
            absorb_payloads(tracer, sweep.span_payloads(),
                            parent_id=parent.span_id if parent else None,
                            lanes=[o.worker for o in sweep.outcomes])
        results, run_profiles = merge_evaluation(sweep.outcomes)
        return results, run_profiles, sweep
    benches = [get_benchmark(name) for name in benchmarks] \
        if benchmarks is not None else list(iter_suite())
    results = run_coverage_and_codesize(benches) if coverage \
        else EvaluationResults()
    if speedups:
        results.speedups = run_speedups(benches, models, scale=scale,
                                        device=device, timing=timing)
    run_profiles = []
    if profiles:
        from repro.obs.profile import profile_run

        for bench in benches:
            with obs.span(bench.name, "harness.bench"):
                run_profiles.extend(
                    profile_run(bench.name, model, scale=scale,
                                device=device, timing=timing)
                    for model in models)
    return results, run_profiles, None


def run_full_evaluation(scale: str = "paper",
                        jobs: int = 1) -> EvaluationResults:
    """Coverage + code size + speedups over the whole suite, at any
    ``jobs`` (see :func:`run_evaluation`)."""
    return run_evaluation(coverage=True, speedups=True, scale=scale,
                          jobs=jobs)[0]
