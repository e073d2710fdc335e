"""Per-pair translation matrix: coverage via translation vs native.

The Table II companion for the cross-model translator: one row per
(source, target) pair, aggregated over the benchmark suite — how many
regions the source model accepts, how many the target accepts *through
the translated port*, how many its own native port accepts, how many
clauses the capability restriction dropped, and the certificate counts
(compute equivalence plus data-motion soundness).  The paper-level
reading: the gap between ``via`` and ``native`` prices what a
mechanical directive migration loses against a hand port, and the
``proved`` column says how much of the migrated code is certified
rather than merely compiled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.metrics.tables import group_by, render_table
from repro.translate.suite import TranslationRecord
from repro.tv.certify import CertStatus


@dataclass(frozen=True)
class TranslateMatrixRow:
    """Aggregated translation outcomes for one (source, target) pair."""

    src: str
    dst: str
    ports: int
    regions: int
    src_ok: int
    via: int
    native: int
    dropped: int
    proved: int
    refuted: int
    unknown: int

    @property
    def via_share(self) -> float:
        """Via-translation coverage relative to the native ports."""
        return self.via / self.native if self.native else 0.0


def translate_matrix(records: Sequence[TranslationRecord],
                     ) -> list[TranslateMatrixRow]:
    """Aggregate suite records into one row per pair, first-seen order."""
    rows = []
    for (src, dst), recs in group_by(records,
                                     lambda rec: (rec.src, rec.dst)):
        rows.append(TranslateMatrixRow(
            src=src, dst=dst, ports=len(recs),
            regions=sum(r.regions_total for r in recs),
            src_ok=sum(r.src_translated for r in recs),
            via=sum(r.via_translated for r in recs),
            native=sum(r.native_translated for r in recs),
            dropped=sum(r.dropped for r in recs),
            proved=sum(r.count(CertStatus.PROVED) for r in recs),
            refuted=sum(r.count(CertStatus.REFUTED) for r in recs),
            unknown=sum(r.count(CertStatus.UNKNOWN) for r in recs)))
    return rows


def render_translate_matrix(rows: Sequence[TranslateMatrixRow]) -> str:
    """Aligned text table of the per-pair translation matrix."""
    headers = ["Pair", "Ports", "Regions", "Src", "Via", "Native",
               "Dropped", "Proved", "Refuted", "Unknown", "Via/native"]
    body = [[f"{row.src} -> {row.dst}", str(row.ports), str(row.regions),
             str(row.src_ok), str(row.via), str(row.native),
             str(row.dropped), str(row.proved), str(row.refuted),
             str(row.unknown), f"{row.via_share:.0%}"]
            for row in rows]
    return render_table(headers, body)


def render_translate_port(rec: TranslationRecord) -> str:
    """One translation: its one-row matrix."""
    return render_translate_matrix(translate_matrix([rec]))


def translate_gate(records: Sequence[TranslationRecord],
                   ) -> list[tuple[str, str]]:
    """``(severity, line)`` per dropped clause and UNKNOWN certificate
    (both warnings), for ``--fail-on``."""
    rows: list[tuple[str, str]] = []
    for rec in records:
        where = f"{rec.benchmark}/{rec.src}->{rec.dst}"
        rows.extend(("warning", f"{where}: XLAT-DROP warning {note}")
                    for note in rec.notes if "dropped" in note)
        rows.extend(("warning", f"{where}:{c.region}: XLAT-UNKNOWN "
                                f"warning {c.detail}")
                    for c in rec.certificates
                    if c.status is CertStatus.UNKNOWN)
    return rows


def translate_refuted(records: Sequence[TranslationRecord]) -> list[str]:
    """One entry per REFUTED certificate, which fails the run."""
    return [f"  {rec.benchmark}/{rec.src}->{rec.dst}:{c.region}\n"
            f"    {c.detail}"
            for rec in records for c in rec.certificates
            if c.status is CertStatus.REFUTED]
