"""Structured findings emitted by the directive verifier.

Every finding carries a stable rule ID (``RACE001``, ``DATA003``,
``PERF002``, ``COV-*``), a severity, and enough location context
(program / model / region / loop / kernel / array) to be rendered for a
human or serialized for CI.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator



class Severity(enum.IntEnum):
    """Finding severities, ordered so comparisons mean what you expect."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One verifier diagnosis, anchored to a location in a port."""

    rule: str
    severity: Severity
    message: str
    program: str = ""
    model: str = ""
    region: str = ""
    array: str = ""
    loop: str = ""
    kernel: str = ""

    def location(self) -> str:
        """``program/model:region`` plus the finest anchor available."""
        head = self.program or "?"
        if self.model:
            head += f"/{self.model}"
        if self.region:
            head += f":{self.region}"
        for label, val in (("loop", self.loop), ("kernel", self.kernel),
                           ("array", self.array)):
            if val:
                head += f" [{label} {val}]"
        return head

    def to_dict(self) -> dict:
        d = asdict(self)
        d["severity"] = str(self.severity)
        d["location"] = self.location()
        return d


@dataclass
class LintReport:
    """All findings from one verifier run, with aggregate views."""

    program: str = ""
    model: str = ""
    findings: list[Finding] = field(default_factory=list)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def infos(self) -> int:
        return self.count(Severity.INFO)

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def at_or_above(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity >= severity]

    def sorted(self) -> list[Finding]:
        """Most severe first, then stable by rule and location."""
        return sorted(self.findings,
                      key=lambda f: (-int(f.severity), f.rule, f.location()))

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "model": self.model,
            "counts": {"error": self.errors, "warning": self.warnings,
                       "info": self.infos},
            "by_rule": self.by_rule(),
            "findings": [f.to_dict() for f in self.sorted()],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


#: GitHub Actions workflow-command names per severity
_GITHUB_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning",
                 Severity.INFO: "notice"}


def _github_escape(text: str, *, property: bool = False) -> str:
    """Escape per the workflow-command data encoding rules."""
    text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text


def github_annotation(finding: Finding) -> str:
    """One ``::error``/``::warning``/``::notice`` workflow command.

    Findings have no physical file locations (the source is in-memory
    IR), so the logical location rides in the annotation title.
    """
    level = _GITHUB_LEVEL[finding.severity]
    title = _github_escape(f"{finding.rule} {finding.location()}",
                           property=True)
    message = _github_escape(finding.message)
    return f"::{level} title={title}::{message}"


def github_annotations(*reports: "LintReport") -> str:
    """Annotation lines for one or more reports, most severe first."""
    return "\n".join(github_annotation(f)
                     for report in reports for f in report.sorted())
