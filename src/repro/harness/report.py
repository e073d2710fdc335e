"""Text rendering of the reproduced tables and figure."""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.benchmarks.registry import BENCHMARK_ORDER
from repro.harness.runner import FIGURE1_MODELS, EvaluationResults
from repro.metrics.speedup import BenchmarkSpeedups

#: the paper's Table II values, for side-by-side comparison
PAPER_TABLE2: Mapping[str, tuple[str, float]] = {
    "PGI Accelerator": ("98.3 (57/58)", 18.2),
    "OpenACC": ("98.3 (57/58)", 18.0),
    "HMPP": ("98.3 (57/58)", 18.5),
    "OpenMPC": ("100 (58/58)", 5.2),
    "R-Stream": ("37.9 (22/58)", 9.5),
}


def render_table2(results: EvaluationResults) -> str:
    """Table II: program coverage and normalized code-size increase."""
    lines = [
        "Table II: program coverage and normalized, average code-size "
        "increase",
        f"{'GPU Model':<18}{'Coverage (measured)':<24}"
        f"{'Coverage (paper)':<20}{'Code-size + (measured)':<24}"
        f"{'(paper)':<8}",
        "-" * 94,
    ]
    for model, cov in results.coverage.items():
        size = results.codesize[model]
        paper_cov, paper_size = PAPER_TABLE2.get(model, ("?", float("nan")))
        lines.append(
            f"{model:<18}"
            f"{cov.percent:5.1f}% ({cov.translated}/{cov.total})"
            f"{'':<6}"
            f"{paper_cov:<20}"
            f"+{size.average_percent:5.1f}%{'':<16}"
            f"+{paper_size:.1f}%")
    return "\n".join(lines)


def render_figure1(speedups: Mapping[str, Mapping[str, BenchmarkSpeedups]],
                   log_bars: bool = True) -> str:
    """Figure 1 as a text table + log-scale bars.

    Speedups are over serial CPU; per (benchmark, model) the best tuning
    variant is shown and the worst variant gives the tuning-variation
    whisker, as in the paper's 'Performance Variation By Tuning' marks.
    """
    lines = [
        "Figure 1: speedup over serial CPU (best variant; "
        "[worst variant] = tuning variation)",
        f"{'Benchmark':<10}" + "".join(f"{m:<22}" for m in FIGURE1_MODELS),
        "-" * (10 + 22 * len(FIGURE1_MODELS)),
    ]
    for name in BENCHMARK_ORDER:
        if name not in speedups:
            continue
        row = f"{name:<10}"
        for model in FIGURE1_MODELS:
            rec = speedups[name].get(model)
            if rec is None or not rec.variants:
                row += f"{'-':<22}"
                continue
            primary = rec.primary.speedup
            lo, hi = rec.worst.speedup, rec.best.speedup
            cell = f"{primary:8.2f}x"
            if len(rec.variants) > 1 and not math.isclose(lo, hi):
                cell += f" [{lo:.2f}..{hi:.2f}]"
            row += f"{cell:<22}"
        lines.append(row)
    if log_bars:
        lines.append("")
        lines.append("log-scale bars (each '#' is a factor of 10^0.25):")
        for name in BENCHMARK_ORDER:
            if name not in speedups:
                continue
            for model in FIGURE1_MODELS:
                rec = speedups[name].get(model)
                if rec is None or not rec.variants:
                    continue
                s = max(rec.primary.speedup, 1e-3)
                n = max(0, int(round((math.log10(s) + 1.0) / 0.25)))
                lines.append(f"  {name:<10}{model:<20}|{'#' * n} "
                             f"{s:.2f}x")
    return "\n".join(lines)


def render_figure1_csv(speedups: Mapping[str, Mapping[str, BenchmarkSpeedups]],
                       ) -> str:
    """Figure 1 data as CSV (benchmark, model, variant, speedup...)."""
    rows = ["benchmark,model,variant,speedup,cpu_s,gpu_s,kernel_s,"
            "transfer_s,host_fallback_s"]
    for name in BENCHMARK_ORDER:
        if name not in speedups:
            continue
        for model, rec in speedups[name].items():
            for r in rec.variants:
                rows.append(
                    f"{r.benchmark},{r.model},{r.variant},"
                    f"{r.speedup:.4f},{r.cpu_time_s:.6f},"
                    f"{r.gpu_time_s:.6f},{r.kernel_time_s:.6f},"
                    f"{r.transfer_time_s:.6f},{r.host_fallback_s:.6f}")
    return "\n".join(rows)


def render_bottleneck_section(profiles: Sequence) -> str:
    """The per-model bottleneck distribution, as a figure companion.

    ``profiles`` are :class:`~repro.obs.profile.RunProfile` rows from a
    ``profile --all`` sweep; the table explains the speedup gaps of
    Figure 1 in counter terms (which models leave kernels
    latency-bound, whose timelines PCIe dominates).
    """
    from repro.metrics.profstats import profile_stats, render_profile_stats

    return render_profile_stats(profile_stats(profiles))
