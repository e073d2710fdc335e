"""Per-kernel profiling runs: counters + bottleneck attribution.

``repro-harness profile BENCH MODEL`` runs one port timing-only (the
analytical model needs shapes, not values, so paper-scale inputs cost
nothing), then aggregates the runtime's per-launch simulated counters
into one row per kernel with a named bottleneck — the mechanical version
of the paper's Section V narratives.  ``profile --all`` sweeps every
benchmark x Figure-1 model under one tracer, producing the JSONL and
Chrome-trace artifacts CI uploads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.profiler import Profiler
from repro.gpusim.timing import TimingConfig
from repro.obs.bottleneck import Bottleneck, classify_kernel, classify_run
from repro.obs.counters import KernelCounters
from repro.obs.tracer import Tracer, make_manifest, tracing


@dataclass
class KernelProfile:
    """Aggregated launches of one kernel within a run."""

    kernel: str
    launches: int
    time_s: float
    counters: KernelCounters       # from the longest launch
    bottleneck: Bottleneck

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, "launches": self.launches,
                "time_s": self.time_s,
                "bottleneck": self.bottleneck.kind,
                "dominant_counter": self.bottleneck.dominant_counter,
                "detail": self.bottleneck.detail,
                **self.counters.to_dict()}


@dataclass
class RunProfile:
    """One benchmark x model x variant profiling outcome."""

    benchmark: str
    model: str
    variant: str
    scale: str
    kernels: list[KernelProfile]
    kernel_time_s: float
    transfer_time_s: float
    bytes_htod: int
    bytes_dtoh: int
    speedup: float
    host_fallback_s: float = 0.0

    @property
    def run_bound(self) -> str:
        """"transfer" when PCIe dominates the timeline, else "kernel"."""
        return classify_run(self.kernel_time_s, self.transfer_time_s)

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant, "scale": self.scale,
                "kernel_time_s": self.kernel_time_s,
                "transfer_time_s": self.transfer_time_s,
                "bytes_htod": self.bytes_htod,
                "bytes_dtoh": self.bytes_dtoh,
                "speedup": self.speedup,
                "host_fallback_s": self.host_fallback_s,
                "run_bound": self.run_bound,
                "kernels": [k.to_dict() for k in self.kernels]}


def profile_from_profiler(profiler: Profiler) -> list[KernelProfile]:
    """Collapse a simulated timeline into one row per kernel."""
    order: list[str] = []
    grouped: dict[str, list] = {}
    for rec in profiler.launches:
        if rec.kernel not in grouped:
            grouped[rec.kernel] = []
            order.append(rec.kernel)
        grouped[rec.kernel].append(rec)
    profiles: list[KernelProfile] = []
    for name in order:
        records = grouped[name]
        longest = max(records, key=lambda r: r.time_s)
        counters = longest.counters
        if counters is None:  # pragma: no cover - launches always carry them
            continue
        profiles.append(KernelProfile(
            kernel=name, launches=len(records),
            time_s=sum(r.time_s for r in records),
            counters=counters,
            bottleneck=classify_kernel(longest.timing, counters)))
    return profiles


def profile_outcome(outcome, scale: str) -> RunProfile:
    """The profile of one timing-only run (a
    :class:`~repro.benchmarks.base.RunOutcome` at ``scale``)."""
    ex = outcome.executable
    profiler = ex.rt.profiler
    return RunProfile(
        benchmark=outcome.benchmark, model=outcome.model,
        variant=outcome.variant, scale=scale,
        kernels=profile_from_profiler(profiler),
        kernel_time_s=profiler.kernel_time_s,
        transfer_time_s=profiler.transfer_time_s,
        bytes_htod=profiler.bytes_htod, bytes_dtoh=profiler.bytes_dtoh,
        speedup=outcome.speedup.speedup, host_fallback_s=ex.host_time_s)


def profile_run(benchmark: str, model: str, variant: Optional[str] = None,
                scale: str = "paper", device: DeviceSpec = TESLA_M2090,
                timing: Optional[TimingConfig] = None) -> RunProfile:
    """Profile one port: run timing-only, aggregate counters per kernel.

    Raises ``KeyError`` for unknown benchmarks/models/variants (the CLI
    maps these to exit code 2).
    """
    from repro.benchmarks import get_benchmark
    from repro.models import resolve_model
    from repro.models.cache import compile_port

    bench = get_benchmark(benchmark)
    model = resolve_model(model)
    _, compiled, chosen = compile_port(benchmark, model, variant)
    return profile_outcome(
        bench.run(model, chosen, scale=scale, execute=False, validate=False,
                  device=device, timing=timing, compiled=compiled), scale)


def profile_suite(models: Optional[Sequence[str]] = None,
                  benchmarks: Optional[Sequence[str]] = None,
                  scale: str = "paper",
                  device: DeviceSpec = TESLA_M2090,
                  timing: Optional[TimingConfig] = None,
                  jobs: int = 1,
                  ) -> tuple[list[RunProfile], Tracer]:
    """Profile every benchmark x model pair under one tracer.

    Returns the per-run profiles and the tracer whose JSONL/Chrome
    sinks hold the full span tree (harness → run → launches/transfers)
    under one ``profile.suite`` root.  ``jobs`` goes to
    :func:`~repro.harness.runner.run_evaluation`, whose sweep merges
    profiles and spans in registry order, never completion order.
    """
    from repro.benchmarks import BENCHMARK_ORDER
    from repro.harness.runner import FIGURE1_MODELS, run_evaluation

    model_list = list(models) if models is not None else list(FIGURE1_MODELS)
    bench_list = list(benchmarks) if benchmarks is not None \
        else list(BENCHMARK_ORDER)
    tracer = Tracer(manifest=make_manifest(
        device, timing or TimingConfig(), scale, models=model_list,
        benchmarks=bench_list))
    with tracing(tracer), tracer.span("profile.suite", "harness",
                                      scale=scale):
        _, profiles, _ = run_evaluation(
            profiles=True, scale=scale, jobs=jobs, benchmarks=bench_list,
            models=model_list, device=device, timing=timing)
    return profiles, tracer


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_run_profile(profile: RunProfile) -> str:
    """The per-kernel counter table for one run."""
    header = (f"{profile.benchmark} / {profile.model} "
              f"[{profile.variant}] @ {profile.scale} scale")
    lines = [header, "=" * len(header),
             f"{'kernel':<28}{'launches':>9}{'time ms':>10}{'occ':>6}"
             f"{'limit':>8}{'gld eff':>9}{'gst eff':>9}{'div':>6}"
             f"{'cfl':>5}  bottleneck",
             "-" * 110]
    for k in profile.kernels:
        c = k.counters
        lines.append(
            f"{k.kernel:<28}{k.launches:>9}{k.time_s * 1e3:>10.3f}"
            f"{c.achieved_occupancy:>6.2f}{c.occupancy_limiter:>8}"
            f"{c.gld_efficiency * 100:>8.1f}%{c.gst_efficiency * 100:>8.1f}%"
            f"{c.branch_divergence:>6.2f}{c.shared_bank_conflicts:>5.0f}"
            f"  {k.bottleneck.summary()}")
    if not profile.kernels:
        lines.append("  (no kernels launched — all regions fell back "
                     "to the host)")
    lines.append(
        f"run: {profile.run_bound}-bound — kernels "
        f"{profile.kernel_time_s * 1e3:.3f} ms, PCIe "
        f"{profile.transfer_time_s * 1e3:.3f} ms "
        f"({(profile.bytes_htod + profile.bytes_dtoh) / 1e6:.1f} MB), "
        f"speedup {profile.speedup:.2f}x")
    return "\n".join(lines)


def render_suite_profiles(profiles: Sequence[RunProfile]) -> str:
    """Compact sweep table: one line per run with its hot kernel."""
    lines = [f"{'benchmark':<10}{'model':<19}{'variant':<9}"
             f"{'kern ms':>10}{'xfer ms':>10}{'bound':>9}  hot kernel "
             f"(bottleneck)",
             "-" * 100]
    for p in profiles:
        if p.kernels:
            hot = max(p.kernels, key=lambda k: k.time_s)
            hot_txt = f"{hot.kernel} ({hot.bottleneck.kind}: " \
                      f"{hot.bottleneck.dominant_counter})"
        else:
            hot_txt = "(host fallback)"
        lines.append(
            f"{p.benchmark:<10}{p.model:<19}{p.variant:<9}"
            f"{p.kernel_time_s * 1e3:>10.3f}"
            f"{p.transfer_time_s * 1e3:>10.3f}{p.run_bound:>9}  {hot_txt}")
    return "\n".join(lines)
