"""SARIF 2.1.0 serialization of lint reports.

``repro-harness lint --sarif`` emits one SARIF log per run so findings
can be uploaded to GitHub code scanning (or any SARIF consumer).  Rule
metadata comes from the verifier's catalog (:data:`repro.lint.engine.
RULES`); ``COV-*`` rules are synthesized on the fly since their IDs are
derived from each model's diagnostic feature names.  Synthesized
descriptors are memoized so every run (and every run of a merged
``--all`` log, built by :func:`reports_to_sarif`) shares one descriptor
object per rule ID, and all descriptors — registered and synthesized —
carry ``shortDescription``/``fullDescription`` and a ``helpUri``
anchored into the rule catalog (``docs/lint.md``).

Findings have no physical file locations — the "source" is an in-memory
IR — so each result carries a logical location
(``program/model:region`` plus the finest anchor available), which
SARIF models as ``logicalLocations``.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.findings import Finding, LintReport, Severity

#: SARIF levels for the verifier's severities
_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning",
          Severity.INFO: "note"}

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: the rule catalog all helpUris point into
_CATALOG_URI = "https://example.invalid/repro-harness/docs/lint.md"

#: descriptor cache: one object per rule ID, shared across runs/logs
_DESCRIPTORS: dict[str, dict] = {}


def _sarif_rule(rule_id: str) -> dict:
    from repro.lint.engine import RULES
    cached = _DESCRIPTORS.get(rule_id)
    if cached is not None:
        return cached
    spec = RULES.get(rule_id)
    if spec is not None:
        summary = spec.summary
        family = rule_id.rstrip("0123456789").lower() or rule_id.lower()
        full = (f"{rule_id} ({spec.severity}): {spec.summary}. "
                f"See the {family.upper()} family in the rule catalog.")
        level = _LEVEL[spec.severity]
        anchor = rule_id.lower()
    else:  # dynamic COV-* IDs from model diagnostics
        feature = rule_id[4:].replace("-", " ").lower() \
            if rule_id.startswith("COV-") else rule_id
        summary = f"model coverage limitation: {feature}"
        full = (f"{rule_id}: the model's compiler cannot translate a "
                f"region using {feature}; the region falls back to host "
                "execution (a Table II coverage gap, not a port defect).")
        level = "note"
        anchor = "cov-model-coverage"
    descriptor = {
        "id": rule_id,
        "shortDescription": {"text": summary},
        "fullDescription": {"text": full},
        "helpUri": f"{_CATALOG_URI}#{anchor}",
        "defaultConfiguration": {"level": level},
    }
    _DESCRIPTORS[rule_id] = descriptor
    return descriptor


def _result(finding: Finding) -> dict:
    return {
        "ruleId": finding.rule,
        "level": _LEVEL[finding.severity],
        "message": {"text": finding.message},
        "locations": [{
            "logicalLocations": [{
                "fullyQualifiedName": finding.location(),
                "kind": "member",
            }],
        }],
        "properties": {
            "program": finding.program, "model": finding.model,
            "region": finding.region, "array": finding.array,
            "loop": finding.loop, "kernel": finding.kernel,
        },
    }


def _run(report: LintReport, tool_version: str) -> dict:
    rule_ids = sorted({f.rule for f in report})
    return {
        "tool": {
            "driver": {
                "name": "repro-directive-verifier",
                "informationUri":
                    "https://example.invalid/repro-harness",
                "version": tool_version,
                "rules": [_sarif_rule(r) for r in rule_ids],
            },
        },
        "results": [_result(f) for f in report.sorted()],
        "properties": {"program": report.program,
                       "model": report.model},
    }


def report_to_sarif(report: LintReport, *, tool_version: str = "0") -> dict:
    """Build the SARIF 2.1.0 log object for one lint report."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [_run(report, tool_version)],
    }


def reports_to_sarif(reports: Iterable[LintReport], *,
                     tool_version: str = "0") -> dict:
    """One merged log: one SARIF run per report, shared descriptors.

    Every run's driver lists only the rules its own results reference
    (deduplicated within the run), and identical rule IDs across runs
    resolve to the same memoized descriptor object.
    """
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [_run(report, tool_version) for report in reports],
    }
