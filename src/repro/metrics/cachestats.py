"""Per-model rollup of the cache-locality suite.

Aggregates :class:`~repro.gpusim.locality.LocalityRecord` rows (one
per benchmark x model port) into a per-model table: how many kernels
were traced, how many of those carry *exact* line streams (no
data-dependent subscripts), the suite-mean simulated L1/L2 miss
ratios, the MAP-style locality degrees (spatial/temporal), the
short-reuse-interval fraction, and — the cross-validation column —
the worst absolute deviation between the static analyzer's predicted
L1 miss ratio and the replayed one over the gated kernels (exact on
both sides, at least :data:`MIN_GATED_ACCESSES` simulated accesses).
Means are weighted by simulated accesses so tiny cleanup kernels do
not drown the launches that move the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.gpusim.locality import LocalityRecord
from repro.metrics.tables import group_by, render_table

#: a kernel enters the static-vs-simulated agreement gate only when its
#: replay saw at least this many L1 accesses — below that, one or two
#: cold lines swing the ratio by tens of points and the comparison is
#: noise, not signal (mirrors ``tests/test_locality_agreement.py``)
MIN_GATED_ACCESSES = 64


@dataclass(frozen=True)
class CacheRollupRow:
    """Aggregated cache-locality metrics for one model across the suite."""

    model: str
    ports: int
    kernels: int
    exact_kernels: int
    l1_miss_ratio: float       #: access-weighted mean, simulated
    l2_miss_ratio: float       #: access-weighted mean, simulated
    spatial_locality: float    #: access-weighted mean spatial degree
    temporal_locality: float   #: access-weighted mean temporal degree
    short_mri_fraction: float  #: access-weighted mean short-MRI share
    gated_kernels: int         #: kernels in the static-vs-sim gate
    worst_static_dev: float    #: max |static - simulated| L1 miss ratio


def cache_rollup(records: Sequence[LocalityRecord]) -> list[CacheRollupRow]:
    """Aggregate suite records into one row per model, in input order."""
    rows = []
    for model, recs in group_by(records, lambda rec: rec.model):
        kernels = exact = gated = 0
        weight = 0.0
        l1 = l2 = spatial = temporal = short_mri = 0.0
        worst_dev = 0.0
        for rec in recs:
            for kl in rec.kernels:
                sim = kl.simulated
                kernels += 1
                if sim.exact:
                    exact += 1
                w = float(sim.accesses)
                weight += w
                l1 += w * sim.l1.miss_ratio
                l2 += w * sim.l2.miss_ratio
                spatial += w * sim.spatial_locality
                temporal += w * sim.temporal_locality
                short_mri += w * sim.short_mri_fraction
                if (sim.exact and kl.static.exact
                        and sim.l1.accesses >= MIN_GATED_ACCESSES):
                    gated += 1
                    dev = abs(kl.static.l1_miss_ratio - sim.l1.miss_ratio)
                    worst_dev = max(worst_dev, dev)
        scale = 1.0 / weight if weight else 0.0
        rows.append(CacheRollupRow(
            model=model, ports=len(recs), kernels=kernels,
            exact_kernels=exact,
            l1_miss_ratio=l1 * scale, l2_miss_ratio=l2 * scale,
            spatial_locality=spatial * scale,
            temporal_locality=temporal * scale,
            short_mri_fraction=short_mri * scale,
            gated_kernels=gated, worst_static_dev=worst_dev))
    return rows


def render_cache_rollup(rows: Sequence[CacheRollupRow]) -> str:
    """Aligned text table of per-model cache-locality metrics."""
    headers = ["Model", "Ports", "Kernels", "Exact", "L1miss", "L2miss",
               "Spatial", "Temporal", "ShortMRI", "Gated", "WorstDev"]
    body = [[row.model, str(row.ports), str(row.kernels),
             str(row.exact_kernels),
             f"{row.l1_miss_ratio:.3f}", f"{row.l2_miss_ratio:.3f}",
             f"{row.spatial_locality:.3f}", f"{row.temporal_locality:.3f}",
             f"{row.short_mri_fraction:.3f}", str(row.gated_kernels),
             f"{row.worst_static_dev:.3f}"]
            for row in rows]
    return render_table(headers, body)


def render_locality_port(rec: LocalityRecord) -> str:
    """One port's kernels: replayed metrics over the static prediction."""
    header = f"{rec.benchmark} / {rec.model} ({rec.variant})"
    lines = [header, "-" * len(header)]
    for kl in rec.kernels:
        sim, stat = kl.simulated, kl.static
        approx = "" if sim.exact else "  (approximate: indirect)"
        lines.append(f"{kl.region}:{kl.kernel}{approx}")
        lines.append(f"  simulated  L1 {sim.l1.miss_ratio:6.3f}  "
                     f"L2 {sim.l2.miss_ratio:6.3f}  "
                     f"spatial {sim.spatial_locality:.3f}  "
                     f"temporal {sim.temporal_locality:.3f}  "
                     f"shortMRI {sim.short_mri_fraction:.3f}")
        lines.append(f"  static     L1 {stat.l1_miss_ratio:6.3f}  "
                     f"L2 {stat.l2_miss_ratio:6.3f}  "
                     f"({len(stat.pairs)} reuse pairs, "
                     f"{len(stat.working_sets)} loop working sets)")
    return "\n".join(lines)


def cache_gate(records: Sequence[LocalityRecord]) -> list[tuple[str, str]]:
    """``(severity, line)`` per CACHE lint finding, for ``--fail-on``:
    the verifier's CACHE family rerun over the same (memoized)
    compilations the records came from."""
    from repro.lint.engine import run_lint
    from repro.models.cache import compile_port

    rows: list[tuple[str, str]] = []
    for rec in records:
        port, compiled, _ = compile_port(rec.benchmark, rec.model,
                                         rec.variant)
        report = run_lint(port.program, compiled, families=("CACHE",))
        rows.extend((str(f.severity), f"{rec.benchmark}/{rec.model}: "
                                      f"{f.rule} {f.severity} {f.message}")
                    for f in report.findings)
    return rows
