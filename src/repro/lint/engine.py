"""The rule engine: rule catalog, checkers, context, and ``run_lint``.

The catalog and the checkers are registered separately:

* :func:`declare` records a rule ID with its default severity and a
  one-line summary (the catalog that ``docs/lint.md`` documents);
* :func:`checker` registers a function from a :class:`LintContext` to an
  iterable of :class:`~repro.lint.findings.Finding`, declaring which
  rule IDs it may emit and its scope.

Scopes:

* ``"program"`` checkers see the IR only (:class:`~repro.ir.program.Program`)
  — they run even when no model compiler is involved;
* ``"compiled"`` checkers additionally need a model's
  :class:`~repro.models.base.CompiledProgram` (kernels, transfer plans)
  and are skipped when none is supplied.

Model :class:`~repro.models.base.Diagnostic` records (the Table II
coverage limitations) are folded into the same stream as ``COV-*``
findings, so one report shows everything the verifier knows about a
port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.ir.program import Program
from repro.lint.findings import Finding, LintReport, Severity
from repro.models.base import CompiledProgram
from repro.obs import tracer as obs

CheckFn = Callable[["LintContext"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A catalog entry: stable ID, default severity, summary."""

    id: str
    severity: Severity
    summary: str


@dataclass(frozen=True)
class Checker:
    """A registered checker function and the rule IDs it may emit."""

    ids: tuple[str, ...]
    scope: str  # "program" | "compiled"
    fn: CheckFn


#: rule catalog (ID → metadata), in declaration order
RULES: dict[str, Rule] = {}
#: registered checker functions, in registration order
CHECKERS: list[Checker] = []


def declare(id: str, severity: Severity, summary: str) -> None:
    """Add a rule to the catalog."""
    if id in RULES:
        raise ValueError(f"duplicate rule ID {id!r}")
    RULES[id] = Rule(id=id, severity=severity, summary=summary)


def checker(*ids: str, scope: str = "program",
            ) -> Callable[[CheckFn], CheckFn]:
    """Register a checker emitting the declared rule IDs."""
    if scope not in ("program", "compiled"):
        raise ValueError(f"bad checker scope {scope!r}")

    def register(fn: CheckFn) -> CheckFn:
        for rule_id in ids:
            if rule_id not in RULES:
                raise ValueError(f"checker {fn.__name__} emits undeclared "
                                 f"rule {rule_id!r}")
        CHECKERS.append(Checker(ids=tuple(ids), scope=scope, fn=fn))
        return fn

    return register


@dataclass
class LintContext:
    """Everything a checker may inspect."""

    program: Program
    compiled: Optional[CompiledProgram] = None
    device: DeviceSpec = field(default_factory=lambda: TESLA_M2090)

    @property
    def model(self) -> str:
        return self.compiled.model if self.compiled is not None else ""

    def pre_transform_ir(self, region_name: str):
        """The region's work-sharing IR as the pipeline saw it *before*
        the transform stage (loop swaps, collapses, inlining).

        Rules that reason about what the programmer wrote — rather than
        what the compiler made of it — should use this instead of the
        kernels' loop nests.  Falls back to the region body when no
        compiled program (or no pipeline snapshot) is available.
        """
        if self.compiled is not None:
            result = self.compiled.results.get(region_name)
            if result is not None:
                snap = result.snapshot_before("transform")
                if snap is not None:
                    return snap
        for region in self.program.regions:
            if region.name == region_name:
                return region.body
        return None

    def finding(self, rule_id: str, message: str, *,
                severity: Optional[Severity] = None, region: str = "",
                array: str = "", loop: str = "", kernel: str = "",
                ) -> Finding:
        """Build a finding pre-filled with this context's location."""
        spec = RULES[rule_id]
        return Finding(rule=rule_id,
                       severity=severity if severity is not None
                       else spec.severity,
                       message=message,
                       program=self.program.name, model=self.model,
                       region=region, array=array, loop=loop, kernel=kernel)


def _coverage_findings(ctx: LintContext) -> list[Finding]:
    """One INFO finding per model limitation diagnostic (COV-* rules)."""
    assert ctx.compiled is not None
    out: list[Finding] = []
    for diag in ctx.compiled.diagnostics():
        out.append(Finding(
            rule=diag.rule, severity=Severity.INFO, message=diag.message,
            program=ctx.program.name, model=ctx.model, region=diag.region))
    return out


def run_lint(program: Program, compiled: Optional[CompiledProgram] = None,
             device: DeviceSpec = TESLA_M2090,
             families: Optional[Iterable[str]] = None) -> LintReport:
    """Run every applicable checker and return the combined report.

    ``families`` optionally restricts to rule-ID prefixes (``"RACE"``,
    ``"DATA"``, ``"PERF"``, ``"COV"``); coverage findings are kept
    whenever a compiled program is supplied unless filtered out.
    """
    # Importing the rule modules registers them; deferred to avoid
    # import cycles (rules import analysis + models machinery).
    from repro.lint import (bounds, cache, data, perf, race, tv,  # noqa: F401
                            xfer)

    ctx = LintContext(program=program, compiled=compiled, device=device)
    wanted = tuple(families) if families is not None else None
    report = LintReport(program=program.name, model=ctx.model)

    def keep(rule_id: str) -> bool:
        return wanted is None or rule_id.startswith(wanted)

    with obs.span("analysis.lint", "analysis", kind="lint",
                  program=program.name, model=ctx.model):
        for chk in CHECKERS:
            if chk.scope == "compiled" and compiled is None:
                continue
            if not any(keep(rule_id) for rule_id in chk.ids):
                continue
            report.extend(f for f in chk.fn(ctx) if keep(f.rule))
        if compiled is not None:
            report.extend(f for f in _coverage_findings(ctx) if keep(f.rule))
    return report
