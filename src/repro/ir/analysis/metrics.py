"""Operation-count metrics: flops and intrinsic costs per iteration.

Feeds the compute side of the kernel timing model.  Counting is static:
per-thread flop counts are the expression-tree op counts weighted by the
same sequential-trip/divergence factors the access summary uses, so the
two sides of the ``max(compute, memory)`` roofline are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.ir.analysis.access import (DEFAULT_SEQ_TRIPS, AccessSummary,
                                      AccessTerms, Columns, Factor, LoopNest,
                                      _NestBuilder, _weight_values,
                                      column_item)
from repro.ir.expr import (INTRINSIC_FLOP_COST, ArrayRef, BinOp, Call, Cast,
                           Const, Expr, Ternary, UnOp, Var)
from repro.ir.stmt import (Assign, Block, Critical, For, If, LocalDecl,
                           Stmt, While)

#: Relative cost of each scalar binary operation (double precision).
BINOP_FLOP_COST: Mapping[str, float] = {
    "+": 1, "-": 1, "*": 1, "/": 4, "//": 4, "%": 4,
    "min": 1, "max": 1,
    "<": 0.5, "<=": 0.5, ">": 0.5, ">=": 0.5, "==": 0.5, "!=": 0.5,
    "&&": 0.5, "||": 0.5, "&": 0.5, "|": 0.5, "^": 0.5, "<<": 0.5, ">>": 0.5,
}


def expr_flops(expr: Expr) -> float:
    """Weighted floating-point-operation count of one expression tree.

    Address arithmetic inside array subscripts is charged at a quarter
    rate (integer units overlap with memory latency on Fermi).
    """
    return _expr_flops_clean(expr)


def _expr_flops_clean(expr: Expr, in_subscript: bool = False) -> float:
    scale = 0.25 if in_subscript else 1.0
    if isinstance(expr, (Const, Var)):
        return 0.0
    if isinstance(expr, BinOp):
        own = BINOP_FLOP_COST.get(expr.op, 1.0) * scale
        return (own + _expr_flops_clean(expr.left, in_subscript)
                + _expr_flops_clean(expr.right, in_subscript))
    if isinstance(expr, UnOp):
        return 0.5 * scale + _expr_flops_clean(expr.operand, in_subscript)
    if isinstance(expr, Call):
        own = INTRINSIC_FLOP_COST.get(expr.func, 8) * scale
        return own + sum(_expr_flops_clean(a, in_subscript) for a in expr.args)
    if isinstance(expr, Ternary):
        return (1.0 * scale
                + _expr_flops_clean(expr.cond, in_subscript)
                + _expr_flops_clean(expr.if_true, in_subscript)
                + _expr_flops_clean(expr.if_false, in_subscript))
    if isinstance(expr, Cast):
        return _expr_flops_clean(expr.operand, in_subscript)
    if isinstance(expr, ArrayRef):
        return sum(_expr_flops_clean(i, True) for i in expr.indices)
    return 0.0


@dataclass
class WorkEstimate:
    """Per-thread work of a kernel body."""

    flops: float = 0.0
    #: worst-case fraction of warp-divergent work, in [0, 1].
    divergence: float = 0.0
    #: number of distinct conditionals encountered.
    branches: int = 0


@dataclass(frozen=True)
class WorkTerms:
    """The symbolic stage of :func:`body_work`.

    Weights are products of factors, as in
    :class:`~repro.ir.analysis.access.AccessTerms`; :meth:`evaluate`
    takes launches' trip counts and replays the sums in scan order.
    """

    nest: LoopNest
    #: the distinct weights, each a tuple of factors
    weights: tuple[tuple[Factor, ...], ...]
    #: ``(flops, loop, weight, tail)`` per flop term, in scan order: adds
    #: ``flops * weight`` (``trips * weight``, a loop's bookkeeping, when
    #: ``loop >= 0``), times ``tail`` when one is given
    flops: tuple[tuple[float, int, int, Optional[float]], ...]
    #: ``(amount, loop)`` per divergence increment, in scan order; one
    #: with ``loop >= 0`` applies only when that loop's trips are estimated
    divergence: tuple[tuple[float, int], ...]
    branches: int

    def evaluate(self, trips: Sequence, exact: Sequence,
                 ) -> WorkEstimate:
        """The work of launches with trip counts ``trips`` and
        exactness ``exact`` (columns, or values every launch shares)."""
        w = _weight_values(self.weights, trips)
        flops = 0.0
        for coef, loop, wi, tail in self.flops:
            term = (trips[loop] if loop >= 0 else coef) * w[wi]
            flops += term if tail is None else term * tail
        # capping the running sum at 1 after each (non-negative)
        # increment, as the scan did, caps the final sum at 1 exactly
        divergence = 0.0
        for amount, loop in self.divergence:
            divergence = divergence + (
                amount if loop < 0 else np.where(exact[loop], 0.0, amount))
        return WorkEstimate(flops, np.minimum(1.0, divergence), self.branches)


@dataclass(frozen=True)
class BodyTerms:
    """A body's symbolic access and work stages, priced together.

    Both scans number the body's ``For`` loops in the same order, so
    one :meth:`~repro.ir.analysis.access.LoopNest.trip_columns` call
    serves both; :meth:`evaluate` is the whole numeric stage.
    """

    access: AccessTerms
    work: WorkTerms

    def bound_key(self, bindings: Mapping[str, float]) -> tuple:
        """The only part of ``bindings`` the numeric stage reads."""
        return self.access.nest.bound_key(bindings)

    def evaluate(self, columns: Columns, rows: int,
                 ) -> tuple[WorkEstimate, AccessSummary]:
        """The work and accesses of ``rows`` launches bound by
        ``columns``: per-launch entries are columns, and entries every
        launch shares may stay single values."""
        trips, exact = self.access.nest.trip_columns(columns, rows)
        return self.work.evaluate(trips, exact), self.access.evaluate(trips)


def body_work(body: Stmt, thread_vars: Sequence[str],
              bindings: Optional[Mapping[str, float]] = None,
              symbolic: bool = False) -> Union[WorkEstimate, WorkTerms]:
    """Estimate per-thread flops and divergence for a kernel body.

    With ``symbolic=True`` no bindings are read: the result is the
    :class:`WorkTerms` that any launch's trip counts then evaluate.
    """
    nest = _NestBuilder(thread_vars)
    found: list[tuple[float, int, tuple[Factor, ...], Optional[float]]] = []
    divergence: list[tuple[float, int]] = []
    branches = 0

    def scan(stmt: Stmt, weight: tuple[Factor, ...], divergent: bool) -> None:
        nonlocal branches
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                scan(s, weight, divergent)
        elif isinstance(stmt, Assign):
            flops = _expr_flops_clean(stmt.value)
            if isinstance(stmt.target, ArrayRef):
                flops += sum(_expr_flops_clean(i, True)
                             for i in stmt.target.indices)
            if stmt.op is not None:
                flops += BINOP_FLOP_COST.get(stmt.op, 1.0)
            found.append((flops, -1, weight, None))
            if divergent:
                divergence.append((0.05, -1))
        elif isinstance(stmt, LocalDecl):
            if stmt.init is not None:
                found.append((_expr_flops_clean(stmt.init), -1, weight, None))
        elif isinstance(stmt, For):
            found.append((_expr_flops_clean(stmt.lower)
                          + _expr_flops_clean(stmt.upper), -1, weight, None))
            idx = nest.enter(stmt)
            if stmt.var in thread_vars:
                scan(stmt.body, weight, divergent)
            else:
                # data-dependent trip counts diverge across the warp
                divergence.append((0.25, idx))
                found.append((0.0, idx, weight, None))  # loop bookkeeping
                scan(stmt.body, weight + (idx,), divergent)
            nest.exit()
        elif isinstance(stmt, While):
            divergence.append((0.3, -1))
            found.append((_expr_flops_clean(stmt.cond), -1, weight,
                          DEFAULT_SEQ_TRIPS))
            scan(stmt.body, weight + (DEFAULT_SEQ_TRIPS,), True)
        elif isinstance(stmt, If):
            branches += 1
            found.append((_expr_flops_clean(stmt.cond), -1, weight, None))
            cond_thread_dep = bool(stmt.cond.free_vars() & set(thread_vars)
                                   or stmt.cond.array_names())
            if cond_thread_dep:
                divergence.append((0.15, -1))
            scan(stmt.then_body, weight + (0.5,), divergent or cond_thread_dep)
            if stmt.else_body is not None:
                scan(stmt.else_body, weight + (0.5,),
                     divergent or cond_thread_dep)
        elif isinstance(stmt, Critical):
            # serialized updates: charge heavily
            divergence.append((0.5, -1))
            scan(stmt.body, weight, True)
        else:
            for expr in stmt.exprs():
                found.append((_expr_flops_clean(expr), -1, weight, None))

    scan(body, (), False)
    index: dict[tuple[Factor, ...], int] = {}
    flops = tuple((coef, loop, index.setdefault(w, len(index)), tail)
                  for coef, loop, w, tail in found)
    terms = WorkTerms(nest.build(), tuple(index), flops, tuple(divergence),
                      branches)
    if symbolic:
        return terms
    with np.errstate(all="ignore"):
        work = terms.evaluate(*terms.nest.row_trips(bindings or {}))
    return WorkEstimate(column_item(work.flops), column_item(work.divergence),
                        work.branches)
