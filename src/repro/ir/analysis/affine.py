"""Affine-expression analysis and the extended-static-control check.

R-Stream's polyhedral front end (Section III-E) accepts only *extended
static control programs*: ``for`` loops whose bounds are integer affine
functions of enclosing loop indices and parameters, over arrays whose
subscripts are affine in the same terms.  This module implements

* :func:`affine_form` — decompose an expression into
  ``const + Σ coeff_i · var_i`` when possible,
* :func:`is_affine_in` — boolean convenience wrapper,
* :func:`region_is_affine` — the whole-region ESCoP test used both by the
  R-Stream compiler for mappability and by the test-suite to validate the
  benchmarks' ``affine_hint`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.ir.expr import (ArrayRef, BinOp, Call, Cast, Const, Expr,
                           Ternary, UnOp, Var)
from repro.ir.program import ParallelRegion
from repro.ir.stmt import (Assign, Barrier, Block, CallStmt, Critical, For,
                           If, LocalDecl, PointerArith, Return, Stmt, While)


@dataclass(frozen=True)
class AffineForm:
    """``const + Σ coeffs[name] * name`` with integer-valued coefficients.

    Coefficients may be floats if the source used float literals, but the
    polyhedral test additionally requires them to be integral.
    """

    coeffs: Mapping[str, float]
    const: float

    def coefficient(self, name: str) -> float:
        return self.coeffs.get(name, 0.0)


def _combine(a: AffineForm, b: AffineForm, sign: float) -> AffineForm:
    coeffs = dict(a.coeffs)
    for name, cb in b.coeffs.items():
        coeffs[name] = coeffs.get(name, 0.0) + sign * cb
    coeffs = {n: cv for n, cv in coeffs.items() if cv != 0}
    return AffineForm(coeffs, a.const + sign * b.const)


def affine_form(expr: Expr, index_vars: Iterable[str]) -> Optional[AffineForm]:
    """Decompose ``expr`` as affine in ``index_vars``.

    Variables *not* in ``index_vars`` are treated as symbolic parameters:
    they are allowed only where they keep the expression affine in the
    index variables (added, or multiplying a constant — a parameter
    multiplying an index variable, like ``i * n``, is still affine *in i*
    with a symbolic coefficient; we record it with the pseudo-name
    ``"i*n"`` so stride analyses can see the dependence but the polyhedral
    check can still accept it, matching R-Stream's parametric affine
    support).

    Returns ``None`` if the expression is non-affine (products of two
    index variables, division by an index variable, indirect array
    references, intrinsic calls, ternaries).
    """
    index_set = set(index_vars)

    def walk(e: Expr) -> Optional[AffineForm]:
        if isinstance(e, Const):
            return AffineForm({}, float(e.value))
        if isinstance(e, Var):
            return AffineForm({e.name: 1.0}, 0.0)
        if isinstance(e, Cast):
            return walk(e.operand)
        if isinstance(e, UnOp):
            if e.op == "-":
                inner = walk(e.operand)
                if inner is None:
                    return None
                return AffineForm({n: -cv for n, cv in inner.coeffs.items()},
                                  -inner.const)
            return None
        if isinstance(e, BinOp):
            if e.op in ("+", "-"):
                left, right = walk(e.left), walk(e.right)
                if left is None or right is None:
                    return None
                return _combine(left, right, 1.0 if e.op == "+" else -1.0)
            if e.op == "*":
                left, right = walk(e.left), walk(e.right)
                if left is None or right is None:
                    return None
                # one side must be free of index variables
                lvars = {n for n in left.coeffs if n in index_set}
                rvars = {n for n in right.coeffs if n in index_set}
                if lvars and rvars:
                    return None  # i * j: not affine
                if not lvars and not left.coeffs:
                    # pure constant * affine
                    k = left.const
                    return AffineForm({n: k * cv for n, cv in right.coeffs.items()},
                                      k * right.const)
                if not rvars and not right.coeffs:
                    k = right.const
                    return AffineForm({n: k * cv for n, cv in left.coeffs.items()},
                                      k * left.const)
                # parameter * index (e.g. i * n): parametric-affine.
                if not lvars:
                    param_side, idx_side = left, right
                else:
                    param_side, idx_side = right, left
                # encode symbolic coefficients as composite names.
                param_names = "*".join(sorted(param_side.coeffs)) or "1"
                coeffs: dict[str, float] = {}
                for n, cv in idx_side.coeffs.items():
                    key = n if param_names == "1" else f"{n}*{param_names}"
                    coeffs[key] = coeffs.get(key, 0.0) + cv
                if param_side.const:
                    for n, cv in idx_side.coeffs.items():
                        coeffs[n] = coeffs.get(n, 0.0) + cv * param_side.const
                if idx_side.const:
                    for n in param_side.coeffs:
                        coeffs[n] = coeffs.get(n, 0.0) + idx_side.const * param_side.coeffs[n]
                return AffineForm(coeffs, param_side.const * idx_side.const)
            if e.op in ("/", "//"):
                left, right = walk(e.left), walk(e.right)
                if left is None or right is None:
                    return None
                if right.coeffs:
                    return None  # division by a variable: not affine
                if right.const == 0:
                    return None
                k = 1.0 / right.const
                if e.op == "//":
                    # integer division of an index expression is not affine
                    # unless the numerator has no index variables.
                    if any(n in index_set or "*" in n for n in left.coeffs):
                        return None
                return AffineForm({n: k * cv for n, cv in left.coeffs.items()},
                                  k * left.const)
            if e.op == "%":
                return None
            if e.op in ("min", "max"):
                # Quasi-affine; the polyhedral model supports min/max in
                # bounds, so accept when both sides are affine and report
                # the union of dependencies with the more conservative
                # side's coefficients (used only for dependence pruning).
                left, right = walk(e.left), walk(e.right)
                if left is None or right is None:
                    return None
                coeffs = dict(left.coeffs)
                for n, cv in right.coeffs.items():
                    coeffs.setdefault(n, cv)
                return AffineForm(coeffs, max(left.const, right.const))
            return None
        # ArrayRef (indirect), Call, Ternary: not affine.
        return None

    return walk(expr)


def is_affine_in(expr: Expr, index_vars: Iterable[str]) -> bool:
    """True when ``expr`` is (parametric-)affine in the index variables."""
    return affine_form(expr, index_vars) is not None


@dataclass
class AffineReport:
    """Outcome of the whole-region static-control check."""

    affine: bool
    violations: list[str] = field(default_factory=list)

    def add(self, message: str) -> None:
        self.affine = False
        self.violations.append(message)


def region_is_affine(region: ParallelRegion) -> AffineReport:
    """Extended-static-control test for a parallel region.

    Checks, statement by statement, that:

    * loops are ``for`` loops with affine bounds and unit or constant step,
    * there are no ``while`` loops, critical sections, user calls,
      barriers, or pointer arithmetic,
    * every array subscript is affine in the enclosing loop indices,
    * conditionals (if present) have affine conditions (static control).
    """
    report = AffineReport(affine=True)
    #: local scalars whose defining expression is NOT affine in the loop
    #: indices — subscripts through them are data-dependent (the check a
    #: naive implementation misses: ``kx = e % n; tw[kx] = ...``)
    nonaffine_locals: set[str] = set()

    def value_is_affine(expr: Expr, loop_vars: tuple[str, ...]) -> bool:
        if expr.free_vars() & nonaffine_locals:
            return False
        return is_affine_in(expr, loop_vars)

    def track_scalar_def(name: str, value: Optional[Expr],
                         loop_vars: tuple[str, ...]) -> None:
        if value is None or not value_is_affine(value, loop_vars):
            nonaffine_locals.add(name)
        else:
            nonaffine_locals.discard(name)

    def scan(stmt: Stmt, loop_vars: tuple[str, ...]) -> None:
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                scan(s, loop_vars)
            return
        if isinstance(stmt, For):
            if not is_affine_in(stmt.lower, loop_vars):
                report.add(f"loop {stmt.var}: non-affine lower bound {stmt.lower!r}")
            if not is_affine_in(stmt.upper, loop_vars):
                report.add(f"loop {stmt.var}: non-affine upper bound {stmt.upper!r}")
            if not isinstance(stmt.step, Const):
                report.add(f"loop {stmt.var}: non-constant step {stmt.step!r}")
            scan(stmt.body, loop_vars + (stmt.var,))
            return
        if isinstance(stmt, While):
            report.add(f"while loop: {stmt.cond!r}")
            scan(stmt.body, loop_vars)
            return
        if isinstance(stmt, If):
            cond_ok = all(
                is_affine_in(part, loop_vars)
                for part in _comparison_sides(stmt.cond)
            )
            if not cond_ok:
                report.add(f"non-affine conditional {stmt.cond!r}")
            scan(stmt.then_body, loop_vars)
            if stmt.else_body is not None:
                scan(stmt.else_body, loop_vars)
            return
        if isinstance(stmt, Critical):
            report.add("critical section")
            return
        if isinstance(stmt, CallStmt):
            report.add(f"user function call {stmt.func!r}")
            return
        if isinstance(stmt, PointerArith):
            report.add(f"pointer arithmetic {stmt!r}")
            return
        if isinstance(stmt, Barrier):
            report.add("explicit barrier")
            return
        if isinstance(stmt, (Assign, LocalDecl, Return)):
            if isinstance(stmt, LocalDecl) and not stmt.shape:
                track_scalar_def(stmt.name, stmt.init, loop_vars)
            if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
                track_scalar_def(stmt.target.name, stmt.value, loop_vars)
            for expr in stmt.exprs():
                for node in expr.walk():
                    if isinstance(node, ArrayRef):
                        for index in node.indices:
                            if index.free_vars() & nonaffine_locals:
                                report.add(
                                    f"subscript {index!r} in {node!r} uses "
                                    "a data-dependent local")
                                continue
                            form = affine_form(index, loop_vars)
                            if form is None:
                                report.add(
                                    f"non-affine subscript {index!r} in {node!r}")
                            elif _has_symbolic_linearization(form, loop_vars):
                                # subscripts like i*n + j — a multi-dim
                                # array manually linearized with a
                                # *symbolic* stride.  Recovering the
                                # multi-dimensional view (delinearization)
                                # is beyond the mapper; constant-stride
                                # linearizations (i*5 + c) are fine.
                                report.add(
                                    f"symbolically linearized subscript "
                                    f"{index!r} in {node!r}")
                            elif _contains_minmax(index):
                                # quasi-affine access functions (boundary
                                # clamps like MIN(i+1, n-1)) are beyond
                                # the supported access-function class
                                report.add(
                                    f"quasi-affine (min/max) subscript "
                                    f"{index!r} in {node!r}")
                    elif isinstance(node, Ternary):
                        report.add(f"data-dependent select {node!r}")
            return
        report.add(f"unhandled construct {stmt!r}")

    scan(region.body, ())
    return report


def _has_symbolic_linearization(form: AffineForm,
                                loop_vars: Iterable[str]) -> bool:
    """Does the affine form multiply a loop index by a symbolic parameter?

    Such coefficients appear as composite names (``"i*n"``) produced by
    :func:`affine_form` for parametric-affine products.
    """
    lv = set(loop_vars)
    for name in form.coeffs:
        if "*" in name:
            parts = name.split("*")
            if any(p in lv for p in parts):
                return True
    return False


def _contains_minmax(expr: Expr) -> bool:
    from repro.ir.expr import BinOp

    return any(isinstance(node, BinOp) and node.op in ("min", "max")
               for node in expr.walk())


def _comparison_sides(cond: Expr) -> list[Expr]:
    """Split a (possibly compound) comparison into its scalar sides."""
    if isinstance(cond, BinOp) and cond.op in ("&&", "||"):
        return _comparison_sides(cond.left) + _comparison_sides(cond.right)
    if isinstance(cond, BinOp) and cond.op in ("<", "<=", ">", ">=", "==", "!="):
        return [cond.left, cond.right]
    return [cond]
