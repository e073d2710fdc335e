"""Per-model lint density: how many verifier findings each model accrues.

The paper argues (Section V) that model differences show up less in raw
speedup than in how much *work* each model leaves on the table — data
movement it over-approximates, schedules it cannot shape, parallelism it
cannot prove.  The lint suite makes that measurable: aggregating
:class:`~repro.lint.suite.SuiteRecord` rows per model gives a density
table (findings per translated region) that sits naturally next to
Table II's coverage counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.lint.findings import Severity
from repro.lint.suite import SuiteRecord
from repro.metrics.tables import group_by, render_table

#: rule-ID prefixes grouped into the table's family columns
FAMILIES = ("RACE", "DATA", "XFER", "COH", "PERF", "BNDS", "TV", "COV")


@dataclass(frozen=True)
class LintDensityRow:
    """Aggregated verifier findings for one model across the suite."""

    model: str
    ports: int
    regions: int
    errors: int
    warnings: int
    infos: int
    by_family: dict[str, int]

    @property
    def total(self) -> int:
        return self.errors + self.warnings + self.infos

    @property
    def density(self) -> float:
        """Findings per region — the headline comparability number."""
        return self.total / self.regions if self.regions else 0.0


def lint_density(records: Sequence[SuiteRecord]) -> list[LintDensityRow]:
    """Aggregate suite records into one row per model, in input order."""
    rows = []
    for model, recs in group_by(records, lambda rec: rec.model):
        sev = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
        fam = {name: 0 for name in FAMILIES}
        for rec in recs:
            for f in rec.report.findings:
                sev[f.severity] += 1
                prefix = next((p for p in FAMILIES if f.rule.startswith(p)),
                              "COV")
                fam[prefix] += 1
        rows.append(LintDensityRow(
            model=model, ports=len(recs),
            regions=sum(rec.regions for rec in recs),
            errors=sev[Severity.ERROR], warnings=sev[Severity.WARNING],
            infos=sev[Severity.INFO], by_family=fam))
    return rows


def render_lint_density(rows: Sequence[LintDensityRow]) -> str:
    """Aligned text table of per-model lint density."""
    headers = ["Model", "Ports", "Regions", "Err", "Warn", "Info",
               *FAMILIES, "Per-region"]
    body = [[row.model, str(row.ports), str(row.regions), str(row.errors),
             str(row.warnings), str(row.infos),
             *(str(row.by_family[f]) for f in FAMILIES),
             f"{row.density:.2f}"]
            for row in rows]
    return render_table(headers, body)


def render_lint_port(rec: SuiteRecord) -> str:
    """One port's findings, most severe first."""
    report = rec.report
    header = f"{report.program} / {report.model}"
    lines = [header, "-" * len(header)]
    if not report.findings:
        lines.append("no findings")
    lines.extend(f"{f.rule} {f.severity} {f.location()}: {f.message}"
                 for f in report.sorted())
    return "\n".join(lines)


def lint_gate(records: Sequence[SuiteRecord]) -> list[tuple[str, str]]:
    """``(severity, line)`` per finding, for the ``--fail-on`` listing."""
    return [(str(f.severity),
             f"{f.rule} {f.severity} {f.location()}: {f.message}")
            for rec in records for f in rec.report.findings]
