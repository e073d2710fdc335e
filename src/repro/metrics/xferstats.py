"""Table-II-style rollup of whole-program transfer verdicts.

Aggregates :class:`~repro.dataflow.suite.XferRecord` rows (one per
benchmark x model port) into a per-model table: how many transfers the
port's discipline issues, how the coherence dataflow judges them
(required / redundant / dead / deferrable), how many coherence
problems the state machine proves possible, and how many bytes the
``elide-transfers`` pass could statically remove.  The per-model view
mirrors the paper's Table II framing: the interesting spread is not
raw counts but how much provably unnecessary data movement each
model's conservative transfer placement leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.dataflow.report import DEAD, DEFERRABLE, REDUNDANT, REQUIRED
from repro.dataflow.suite import XferRecord
from repro.metrics.tables import group_by, render_table

#: verdict columns, in report order
VERDICTS = (REQUIRED, REDUNDANT, DEAD, DEFERRABLE)


@dataclass(frozen=True)
class XferRollupRow:
    """Aggregated transfer verdicts for one model across the suite."""

    model: str
    ports: int
    transfers: int
    by_verdict: dict[str, int]
    coh_errors: int
    coh_warnings: int
    bytes_total: int
    bytes_elidable: int

    @property
    def elidable_fraction(self) -> float:
        """Share of moved bytes the analysis proves removable."""
        return (self.bytes_elidable / self.bytes_total
                if self.bytes_total else 0.0)


def xfer_rollup(records: Sequence[XferRecord]) -> list[XferRollupRow]:
    """Aggregate suite records into one row per model, in input order."""
    rows = []
    for model, recs in group_by(records, lambda rec: rec.model):
        verdicts = {name: 0 for name in VERDICTS}
        errors = warnings = 0
        bytes_total = bytes_elidable = 0
        for rec in recs:
            for v in rec.analysis.verdicts:
                verdicts[v.verdict] += 1
            for p in rec.analysis.problems:
                if p.severity == "error":
                    errors += 1
                else:
                    warnings += 1
            bytes_total += rec.analysis.bytes_total()
            bytes_elidable += rec.analysis.bytes_elidable()
        rows.append(XferRollupRow(
            model=model, ports=len(recs),
            transfers=sum(verdicts.values()), by_verdict=verdicts,
            coh_errors=errors, coh_warnings=warnings,
            bytes_total=bytes_total, bytes_elidable=bytes_elidable))
    return rows


def _mib(nbytes: int) -> str:
    return f"{nbytes / (1024 * 1024):.2f}"


def render_xfer_rollup(rows: Sequence[XferRollupRow]) -> str:
    """Aligned text table of per-model transfer verdicts."""
    headers = ["Model", "Ports", "Xfers", "Req", "Redun", "Dead", "Defer",
               "CohErr", "CohWarn", "MiB", "MiB-elidable", "Elidable%"]
    body = [[row.model, str(row.ports), str(row.transfers),
             *(str(row.by_verdict[v]) for v in VERDICTS),
             str(row.coh_errors), str(row.coh_warnings),
             _mib(row.bytes_total), _mib(row.bytes_elidable),
             f"{100 * row.elidable_fraction:.1f}"]
            for row in rows]
    return render_table(headers, body)


def render_xfer_port(rec: XferRecord) -> str:
    """One port's verdict per transfer, with witnesses and problems."""
    analysis = rec.analysis
    header = (f"{rec.benchmark} / {rec.model} ({rec.variant}) — "
              f"{analysis.node_count} CFG nodes, "
              f"{analysis.iterations} solver iterations")
    lines = [header, "-" * len(header)]
    for v in analysis.verdicts:
        trips = f" x{v.trips}" if v.trips > 1 else ""
        lines.append(f"{v.verdict:<10} {v.direction} {v.array!r} "
                     f"@ {v.node}{trips} [{v.origin}]")
        lines.append(f"           {v.witness}")
    lines.extend(f"{p.rule} [{p.severity}] {p.message}"
                 for p in analysis.problems)
    lines.append(f"bytes moved: {analysis.bytes_total()}  "
                 f"statically elidable: {analysis.bytes_elidable()}")
    return "\n".join(lines)


def xfer_gate(records: Sequence[XferRecord]) -> list[tuple[str, str]]:
    """``(severity, line)`` per XFER/COH problem, for ``--fail-on``."""
    return [(p.severity, f"{rec.benchmark}/{rec.model}: {p.rule} "
                         f"{p.severity} {p.message}")
            for rec in records for p in rec.analysis.problems]


def coh_errors(records: Sequence[XferRecord]) -> list[str]:
    """One line per COH error: a stale read the state machine proves
    possible, which fails the run whatever the threshold."""
    return [f"  {rec.benchmark}/{rec.model}: {p.rule} {p.message}"
            for rec in records for p in rec.analysis.coh_errors]
