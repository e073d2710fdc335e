"""Per-model certificate matrix: what the translation validator proved.

Table II counts how many regions each model *accepted*; this table says
how many of those accepted lowerings are provably equivalent to their
source loop nests.  One row per model: regions proved / refuted /
unknown / skipped, plus the proved share of accepted (non-skipped)
regions — the paper-level claim is that a directive compiler earns
trust only for the regions it can certify, so this column sits
naturally next to the coverage counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.metrics.tables import group_by, render_table
from repro.tv.certify import CertStatus
from repro.tv.suite import TvRecord


@dataclass(frozen=True)
class TvMatrixRow:
    """Aggregated certificates for one model across the suite."""

    model: str
    ports: int
    proved: int
    refuted: int
    unknown: int
    skipped: int

    @property
    def accepted(self) -> int:
        """Regions the model translated (certificates attempted)."""
        return self.proved + self.refuted + self.unknown

    @property
    def proved_share(self) -> float:
        """Fraction of accepted regions with a PROVED certificate."""
        return self.proved / self.accepted if self.accepted else 0.0


def tv_matrix(records: Sequence[TvRecord]) -> list[TvMatrixRow]:
    """Aggregate suite certificates into one row per model."""
    rows = []
    for model, recs in group_by(records, lambda rec: rec.model):
        rows.append(TvMatrixRow(
            model=model, ports=len(recs),
            proved=sum(r.count(CertStatus.PROVED) for r in recs),
            refuted=sum(r.count(CertStatus.REFUTED) for r in recs),
            unknown=sum(r.count(CertStatus.UNKNOWN) for r in recs),
            skipped=sum(r.count(CertStatus.SKIPPED) for r in recs)))
    return rows


def render_tv_matrix(rows: Sequence[TvMatrixRow]) -> str:
    """Aligned text table of the per-model certificate matrix."""
    headers = ["Model", "Ports", "Proved", "Refuted", "Unknown", "Skipped",
               "Proved/accepted"]
    body = [[row.model, str(row.ports), str(row.proved), str(row.refuted),
             str(row.unknown), str(row.skipped),
             f"{row.proved_share:.0%}"]
            for row in rows]
    return render_table(headers, body)


def render_tv_port(rec: TvRecord) -> str:
    """One port's certificates, one line per region."""
    header = f"{rec.benchmark} / {rec.model} ({rec.variant})"
    lines = [header, "-" * len(header)]
    for c in rec.certificates:
        lines.append(f"{c.status.value:8s} {c.region}: {c.detail}")
        if c.blocking:
            lines.append(f"         blocked by: {c.blocking}")
    return "\n".join(lines)


def tv_gate(records: Sequence[TvRecord]) -> list[tuple[str, str]]:
    """``(severity, line)`` per UNKNOWN certificate (a warning), for
    ``--fail-on``."""
    return [("warning", f"{rec.benchmark}/{rec.model}:{c.region}: "
                        f"TV-UNKNOWN warning {c.detail}")
            for rec in records for c in rec.certificates
            if c.status is CertStatus.UNKNOWN]


def tv_refuted(records: Sequence[TvRecord]) -> list[str]:
    """One entry per REFUTED certificate, which fails the run."""
    return [f"  {rec.benchmark}/{rec.model}:{c.region}\n    {c.detail}"
            for rec in records for c in rec.certificates
            if c.status is CertStatus.REFUTED]
