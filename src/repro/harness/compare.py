"""Model-vs-model comparison explainer.

Figure 1 says *that* OpenMPC beats PGI on CG; this tool says *why*:
for one benchmark and two models it diffs region coverage, the
transformations each compiler applied, every kernel's access-pattern
mix and priced time components, and the transfer plans.  This is the
kind of insight loop the paper's tunability/debuggability discussion
(Sections VI-C/VI-D) asks the models themselves to support.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.benchmarks.base import Benchmark
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.timing import price_kernel
from repro.models.base import CompiledProgram


@dataclass
class KernelExplanation:
    """One kernel's priced behaviour."""

    name: str
    time_s: float
    bound: str
    occupancy: float
    dram_mb: float
    patterns: Mapping[str, float]  # pattern -> weighted access share


@dataclass
class ModelExplanation:
    """One model's compilation of one benchmark."""

    model: str
    translated: list[str] = field(default_factory=list)
    rejected: dict[str, str] = field(default_factory=dict)
    applied: dict[str, list[str]] = field(default_factory=dict)
    kernels: list[KernelExplanation] = field(default_factory=list)
    transfer_plan: str = ""

    @property
    def kernel_time_s(self) -> float:
        return sum(k.time_s for k in self.kernels)


def explain_model(bench: Benchmark, model: str, variant: str = "best",
                  scale: str = "paper",
                  device: DeviceSpec = TESLA_M2090) -> ModelExplanation:
    """Compile one port and price every kernel once."""
    compiled: CompiledProgram = bench.compile(model, variant)
    wl = bench.workload(scale)
    extents = bench.extents_for(model, variant, wl)
    bindings = {k: float(x) for k, x in wl.scalars.items()}

    out = ModelExplanation(model=model)
    for name, result in compiled.results.items():
        if not result.translated:
            feature = (result.diagnostics[0].feature
                       if result.diagnostics else "?")
            out.rejected[name] = feature
            continue
        out.translated.append(name)
        if result.applied:
            out.applied[name] = list(result.applied)
        for kernel in result.kernels:
            desc = kernel.describe(bindings, extents)
            timing = price_kernel(desc, device)
            weights: Counter = Counter()
            for ref, count in desc.access.refs:
                weights[ref.pattern.value] += count
            total = sum(weights.values()) or 1.0
            out.kernels.append(KernelExplanation(
                name=kernel.name, time_s=timing.time_s,
                bound=timing.bound, occupancy=timing.occupancy,
                dram_mb=timing.dram_bytes / 1e6,
                patterns={p: w / total for p, w in weights.items()}))
    if compiled.data_regions:
        dr = compiled.data_regions[0]
        out.transfer_plan = (f"data region '{dr.name}': "
                             f"copyin={list(dr.copyin)} "
                             f"copyout={list(dr.copyout)}")
    else:
        out.transfer_plan = "per-invocation transfers (no data region)"
    return out


def render_comparison(bench_name: str, a: ModelExplanation,
                      b: ModelExplanation) -> str:
    """Side-by-side textual report."""
    lines = [f"=== {bench_name}: {a.model} vs {b.model} ===", ""]

    lines.append("coverage:")
    for m in (a, b):
        rej = ", ".join(f"{r} ({f})" for r, f in m.rejected.items()) \
            or "none"
        lines.append(f"  {m.model:<20} translated "
                     f"{len(m.translated)} region(s); rejected: {rej}")
    lines.append("")

    lines.append("transformations applied:")
    regions = sorted(set(a.applied) | set(b.applied))
    if not regions:
        lines.append("  (none reported)")
    for region in regions:
        lines.append(f"  region {region}:")
        for m in (a, b):
            items = m.applied.get(region, ["-"])
            lines.append(f"    {m.model:<20} {'; '.join(items)}")
    lines.append("")

    lines.append("kernels (priced once per launch):")
    header = (f"  {'kernel':<28}{'model':<20}{'time ms':>10}"
              f"{'bound':>9}{'occ':>6}  access mix")
    lines.append(header)
    for m in (a, b):
        for k in m.kernels:
            mix = " ".join(f"{p}:{share * 100:.0f}%"
                           for p, share in sorted(k.patterns.items()))
            lines.append(f"  {k.name:<28}{m.model:<20}"
                         f"{k.time_s * 1e3:>10.3f}{k.bound:>9}"
                         f"{k.occupancy:>6.2f}  {mix}")
    lines.append("")

    lines.append("transfer plans:")
    for m in (a, b):
        lines.append(f"  {m.model:<20} {m.transfer_plan}")
    lines.append("")

    ratio = (a.kernel_time_s / b.kernel_time_s
             if b.kernel_time_s else float("inf"))
    lines.append(f"total kernel time: {a.model} "
                 f"{a.kernel_time_s * 1e3:.2f} ms vs {b.model} "
                 f"{b.kernel_time_s * 1e3:.2f} ms "
                 f"({ratio:.2f}x)")
    return "\n".join(lines)


def compare_models(bench: Benchmark, model_a: str, model_b: str,
                   variant: str = "best", scale: str = "paper") -> str:
    """One-call comparison report for two models on one benchmark."""
    a = explain_model(bench, model_a, variant, scale)
    b = explain_model(bench, model_b, variant, scale)
    return render_comparison(bench.name, a, b)
