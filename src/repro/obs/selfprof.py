"""Harness self-profiling: wall-clock phase attribution over span trees.

PR 3's profiler observes the *simulated* GPU; this module observes the
harness itself.  Every instrumented layer already opens wall-clock
spans — ``pass.*`` per pipeline pass, ``analysis.*`` per verifier run,
``interpret *`` per interpreted kernel launch, ``harness.unit`` per
sweep shard — so one walk over the span tree attributes measured wall
clock to named phases:

* **compile** — the pass pipelines (per-pass breakdown from the PR 4
  ``pass.*`` spans) plus compiler orchestration;
* **analyze** — lint / tv / xfer / locality analysis time;
* **execute** — the interpreting executor, per kernel;
* **simulate** — analytical pricing and counter derivation
  (``gpu.launch`` / ``gpu.transfer`` bookkeeping);
* **merge** — the parallel engine's deterministic fold;
* **harness** — suite orchestration: benchmark setup, input
  generation, journaling, store deltas.

Attribution uses **self time** (a span's duration minus its children's)
so nothing is double-counted: summed over a tree, self times telescope
back to the root's duration exactly.  Anything unclassified lands in
``other`` — the acceptance gate asserts the named phases cover >= 95%
of measured wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.obs.tracer import Span

#: phases considered "named" by the coverage gate
NAMED_PHASES: tuple[str, ...] = (
    "compile", "analyze", "execute", "simulate", "merge", "harness",
    "loadgen",
)

SELFPROF_SCHEMA = 1


def classify_span(span: Span) -> tuple[str, str]:
    """Map one span to ``(phase, detail)``.

    ``detail`` is the sub-phase row the report breaks a phase into:
    the pass name for ``compile``, the analysis kind for ``analyze``,
    the kernel name for ``execute``.
    """
    cat = span.category
    name = span.name
    if cat == "pipeline":
        return "compile", name                      # pass.<name>
    if cat == "compile":
        return "compile", name                      # compile.program/region
    if cat == "analysis":
        return "analyze", str(span.attrs.get("kind", name))
    if cat == "executor":
        return "execute", str(span.attrs.get("kernel", name))
    if cat in ("gpu.launch", "gpu.transfer", "gpu.elide"):
        return "simulate", cat
    if cat == "harness.merge":
        return "merge", name
    if cat == "loadgen":
        return "loadgen", str(span.attrs.get("kind", name))
    if cat in ("harness", "harness.bench", "harness.unit"):
        return "harness", cat
    return "other", f"{cat or 'uncategorized'}:{name}"


@dataclass
class PhaseReport:
    """One phase's attributed wall clock, broken into detail rows."""

    phase: str
    total_s: float = 0.0
    spans: int = 0
    #: detail row → (self seconds, span count)
    details: dict[str, list] = field(default_factory=dict)

    def add(self, detail: str, self_s: float) -> None:
        self.total_s += self_s
        self.spans += 1
        row = self.details.setdefault(detail, [0.0, 0])
        row[0] += self_s
        row[1] += 1

    def top(self, n: int = 10) -> list[tuple[str, float, int]]:
        rows = sorted(((d, t, c) for d, (t, c) in self.details.items()),
                      key=lambda r: (-r[1], r[0]))
        return rows[:n]

    def to_dict(self) -> dict:
        return {"total_s": round(self.total_s, 6), "spans": self.spans,
                "details": {d: {"self_s": round(t, 6), "spans": c}
                            for d, (t, c) in sorted(self.details.items())}}


@dataclass
class Attribution:
    """The full attribution of one traced run."""

    #: true elapsed wall clock (root span duration / measured sweep time)
    wall_s: float
    #: summed span self-times == summed root durations (> wall for jobs>1)
    work_s: float
    phases: dict[str, PhaseReport]

    @property
    def named_s(self) -> float:
        return sum(rep.total_s for phase, rep in self.phases.items()
                   if phase in NAMED_PHASES)

    @property
    def coverage(self) -> float:
        """Fraction of measured work attributed to *named* phases."""
        return self.named_s / self.work_s if self.work_s > 0 else 1.0

    def phase_seconds(self) -> dict[str, float]:
        return {phase: round(rep.total_s, 6)
                for phase, rep in sorted(self.phases.items())}

    def to_dict(self) -> dict:
        return {"schema": SELFPROF_SCHEMA,
                "wall_s": round(self.wall_s, 6),
                "work_s": round(self.work_s, 6),
                "coverage": round(self.coverage, 6),
                "phases": {phase: rep.to_dict()
                           for phase, rep in sorted(self.phases.items())}}


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per-span self time: duration minus (clamped) children total."""
    child_total: dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None and sp.dur_s is not None:
            child_total[sp.parent_id] = \
                child_total.get(sp.parent_id, 0.0) + sp.dur_s
    out: dict[int, float] = {}
    for sp in spans:
        dur = sp.dur_s if sp.dur_s is not None else 0.0
        out[sp.span_id] = max(0.0, dur - child_total.get(sp.span_id, 0.0))
    return out


def attribute_spans(spans: Sequence[Span],
                    wall_s: Optional[float] = None) -> Attribution:
    """Walk one span forest and attribute self time to phases.

    ``wall_s`` overrides the derived elapsed time (the parallel engine
    measures it directly; worker-local clocks can only bound it).
    """
    selfs = self_times(spans)
    phases: dict[str, PhaseReport] = {}
    work = 0.0
    roots_dur = 0.0
    for sp in spans:
        self_s = selfs[sp.span_id]
        work += self_s
        if sp.parent_id is None and sp.dur_s is not None:
            roots_dur += sp.dur_s
        phase, detail = classify_span(sp)
        phases.setdefault(phase, PhaseReport(phase=phase)).add(
            detail, self_s)
    return Attribution(wall_s=wall_s if wall_s is not None else roots_dur,
                       work_s=work, phases=phases)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_attribution(attr: Attribution, top: int = 8,
                       worker_stats: Optional[Mapping[str, Any]] = None,
                       ) -> str:
    """The ``selfprof`` report: phase table + per-phase hot rows."""
    lines = ["harness self-profile (wall-clock attribution)",
             "=" * 46,
             f"wall clock      {attr.wall_s * 1e3:12.1f} ms",
             f"total work      {attr.work_s * 1e3:12.1f} ms"
             + ("" if attr.wall_s <= 0 else
                f"  ({attr.work_s / attr.wall_s:.2f}x wall)"),
             f"named coverage  {attr.coverage * 100:11.1f} %",
             "",
             f"{'phase':<10}{'self ms':>12}{'% work':>9}{'spans':>8}",
             "-" * 40]
    ordered = sorted(attr.phases.values(), key=lambda r: -r.total_s)
    for rep in ordered:
        pct = 100.0 * rep.total_s / attr.work_s if attr.work_s else 0.0
        lines.append(f"{rep.phase:<10}{rep.total_s * 1e3:>12.1f}"
                     f"{pct:>8.1f}%{rep.spans:>8}")
    for rep in ordered:
        if rep.phase == "other" and rep.total_s == 0.0:
            continue
        rows = rep.top(top)
        if not rows:
            continue
        lines.append("")
        lines.append(f"{rep.phase}: hottest {len(rows)} of "
                     f"{len(rep.details)} row(s)")
        for detail, total_s, count in rows:
            lines.append(f"  {detail:<38}{total_s * 1e3:>10.1f} ms"
                         f"{count:>7}x")
    if worker_stats:
        lines.append("")
        lines.append("parallel engine")
        for key, value in worker_stats.items():
            lines.append(f"  {key:<24}{value}")
    return "\n".join(lines)
