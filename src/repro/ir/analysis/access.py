"""Memory-access-pattern classification.

This analysis answers the question at the heart of Section V: *given a
parallelization (which loop indices become GPU thread indices), how does
each array reference hit global memory?*  Four classes:

``COALESCED``
    consecutive threads touch consecutive elements (thread index appears
    with coefficient 1 in the fastest-varying subscript) — one or two
    128-byte transactions per warp.
``STRIDED``
    the thread index appears with a constant stride > 1, or in a slower
    subscript dimension (stride = product of trailing extents) — up to 32
    transactions per warp.
``INDIRECT``
    the subscript goes through another array (``x[col[k]]``) — data-
    dependent gather/scatter, modeled as near-worst-case transactions.
``UNIFORM``
    the address does not depend on the thread index — one transaction,
    broadcast, and a prime candidate for constant/texture memory.

The classification is *static* and feeds both the coalescing cost model
(:mod:`repro.gpusim.coalescing`) and the optimization reasoning in the
model compilers (parallel loop-swap exists precisely to turn STRIDED into
COALESCED).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.ir.analysis.affine import affine_form
from repro.ir.analysis.ranges import (SymRange, bindings_env, estimate_trips,
                                      loop_range)
from repro.ir.expr import ArrayRef, BinOp, Cast, Const, Expr, UnOp, Var
from repro.ir.stmt import (Assign, Block, Critical, For, If, LocalDecl,
                           Stmt, While)


class AccessPattern(enum.Enum):
    """How a warp's threads spread over memory for one reference."""

    COALESCED = "coalesced"
    STRIDED = "strided"
    INDIRECT = "indirect"
    UNIFORM = "uniform"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Stride value used when the thread index appears in a non-fastest
#: subscript dimension of symbolic extent (row stride of a big matrix):
#: effectively fully uncoalesced.
SYMBOLIC_LARGE_STRIDE = 1 << 20


@dataclass(frozen=True)
class RefClass:
    """Classification of a single array reference."""

    array: str
    pattern: AccessPattern
    stride: int = 1
    is_store: bool = False
    #: True when every thread reads the same address *and* the data is
    #: read-only in the kernel — eligible for constant/texture placement.
    read_only_uniform: bool = False


def _depends_on(expr: Expr, names: set[str],
                indirect_carriers: set[str]) -> tuple[bool, bool]:
    """(depends on thread vars?, via an indirect array load?)."""
    direct = False
    indirect = False
    for node in expr.walk():
        if isinstance(node, Var) and node.name in names:
            direct = True
        if isinstance(node, ArrayRef):
            # The inner ref's own indices may depend on thread vars, or the
            # array itself may hold thread-dependent values (frontier
            # queues); either way the outer address is data-dependent.
            sub_direct, _ = _depends_on_many(node.indices, names,
                                             indirect_carriers)
            if sub_direct or node.name in indirect_carriers:
                indirect = True
    return direct, indirect


def _depends_on_many(exprs: Iterable[Expr], names: set[str],
                     indirect_carriers: set[str]) -> tuple[bool, bool]:
    direct = indirect = False
    for e in exprs:
        d, ind = _depends_on(e, names, indirect_carriers)
        direct |= d
        indirect |= ind
    return direct, indirect


def _approx_warp_deriv(expr: Expr, fastest: str) -> Optional[float]:
    """Approximate d(expr)/d(fastest) across one warp's lanes.

    Handles the division/modulo index recovery of collapsed loops:
    ``e % K`` differentiates like ``e`` (lanes stay within one K-block),
    ``e // K`` like ``e``/K — with an unknown (symbolic) K assumed to be
    at least a warp wide, so the quotient is lane-invariant.  Returns
    ``None`` when the derivative is genuinely unknown (products of two
    lane-dependent factors, lane-dependent divisors, gathers).
    """
    if isinstance(expr, Const):
        return 0.0
    if isinstance(expr, Var):
        return 1.0 if expr.name == fastest else 0.0
    if isinstance(expr, Cast):
        return _approx_warp_deriv(expr.operand, fastest)
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = _approx_warp_deriv(expr.operand, fastest)
        return -inner if inner is not None else None
    if isinstance(expr, ArrayRef):
        # a gather: unknown derivative unless lane-invariant
        sub = [_approx_warp_deriv(i, fastest) for i in expr.indices]
        if all(s == 0.0 for s in sub):
            return 0.0
        return None
    if isinstance(expr, BinOp):
        dl = _approx_warp_deriv(expr.left, fastest)
        dr = _approx_warp_deriv(expr.right, fastest)
        if expr.op in ("+", "-"):
            if dl is None or dr is None:
                return None
            return dl + dr if expr.op == "+" else dl - dr
        if expr.op == "*":
            if dl is None or dr is None:
                return None
            if dl != 0.0 and dr != 0.0:
                return None  # bilinear in the lane index
            if dl == 0.0 and dr == 0.0:
                return 0.0
            if dr == 0.0:
                scale = _const_scale(expr.right)
                return dl * scale if scale is not None else None
            scale = _const_scale(expr.left)
            return dr * scale if scale is not None else None
        if expr.op in ("//", "/"):
            if dl is None:
                return None
            if dr != 0.0:
                return None  # lane-dependent divisor
            if isinstance(expr.right, Const) and expr.right.value != 0:
                return dl / float(expr.right.value)
            # symbolic divisor: assume >= warp width
            return 0.0 if dl is not None else None
        if expr.op == "%":
            if dl is None or dr != 0.0:
                return None
            return dl  # within one modulus block the lanes are contiguous
        if expr.op in ("min", "max"):
            if dl is None or dr is None:
                return None
            return max(abs(dl), abs(dr))
    return None


def _const_scale(expr: Expr) -> Optional[float]:
    """Numeric value of a lane-invariant factor, when statically known."""
    if isinstance(expr, Const):
        return float(expr.value)
    return None


def _strip_monotone(ref: ArrayRef, monotone: set[str]) -> ArrayRef:
    """Approximate 1-D monotone index arrays by the identity map.

    ``J[iN[i]][jW[j]]`` classifies like ``J[i][j]`` (the clamping arrays
    hold i±1-style values), while the loads *of* iN/jW are still recorded
    separately by the caller.
    """
    from repro.ir.visitors import ExprTransformer

    class _Stripper(ExprTransformer):
        def visit_ArrayRef(self, e: ArrayRef):
            indices = tuple(self.visit(i) for i in e.indices)
            if e.name in monotone and len(indices) == 1:
                return indices[0]
            if all(a is b for a, b in zip(indices, e.indices)):
                return e
            return ArrayRef(e.name, indices)

    stripped = tuple(_Stripper().visit(i) for i in ref.indices)
    if all(a is b for a, b in zip(stripped, ref.indices)):
        return ref
    return ArrayRef(ref.name, stripped)


def classify_ref(ref: ArrayRef, thread_vars: Sequence[str],
                 dim_extents: Optional[Sequence[Optional[int]]] = None,
                 is_store: bool = False,
                 indirect_carriers: Iterable[str] = (),
                 monotone_carriers: Iterable[str] = ()) -> RefClass:
    """Classify one array reference against the parallelized indices.

    Parameters
    ----------
    thread_vars:
        Loop indices mapped to GPU threads, ordered outermost-first; the
        *last* one maps to ``threadIdx.x`` (fastest varying across a warp).
    dim_extents:
        Known extents of the array's dimensions (``None`` for symbolic);
        used to compute the element stride of non-fastest subscripts.
    indirect_carriers:
        Names of scalar-valued index arrays whose *content* depends on the
        thread index even though their subscript may not (e.g. a frontier
        queue); references through them are indirect.
    """
    monotone = set(monotone_carriers)
    if monotone:
        ref = _strip_monotone(ref, monotone)
    tset = set(thread_vars)
    fastest = thread_vars[-1] if thread_vars else None

    # Indirect check first: a subscript that reads another array whose
    # address depends on the *lane* index (the fastest thread variable)
    # is data-dependent across the warp.  Subscript arrays indexed only
    # by slower (block) dimensions — Rodinia's iN[i]/jW[j] clamping
    # arrays — do not break coalescing: every lane reads the same entry.
    carrier_set = set(indirect_carriers)
    lane_set = {fastest} if fastest is not None else set()
    _, any_indirect = _depends_on_many(ref.indices, lane_set, carrier_set)
    if any_indirect:
        return RefClass(ref.name, AccessPattern.INDIRECT, stride=0,
                        is_store=is_store)

    direct, _ = _depends_on_many(ref.indices, tset, carrier_set)
    if not direct:
        return RefClass(ref.name, AccessPattern.UNIFORM, stride=0,
                        is_store=is_store,
                        read_only_uniform=not is_store)

    if fastest is None:
        return RefClass(ref.name, AccessPattern.UNIFORM, stride=0,
                        is_store=is_store)

    # Compute element stride w.r.t. the fastest thread index.  Row-major:
    # flat = Σ idx_d · Π_{d'>d} extent_{d'}.
    ndim = ref.ndim
    extents: list[Optional[int]] = list(dim_extents) if dim_extents else [None] * ndim
    if len(extents) < ndim:
        extents = extents + [None] * (ndim - len(extents))

    total_stride = 0.0
    symbolic = False
    for d, index in enumerate(ref.indices):
        form = affine_form(index, [fastest])
        if form is None:
            # Non-affine in the fastest var.  Division/modulo chains from
            # manually collapsed loops (``t // cols``, ``t % cols``) have
            # a well-defined within-warp derivative: estimate it, since
            # the physical access is often perfectly coalesced.
            deriv = _approx_warp_deriv(index, fastest)
            if deriv is None:
                return RefClass(ref.name, AccessPattern.STRIDED,
                                stride=SYMBOLIC_LARGE_STRIDE,
                                is_store=is_store)
            if abs(deriv) < 1.0 / 16.0:
                continue  # effectively constant across the warp
            dim_stride = 1.0
            for ext in extents[d + 1:]:
                if ext is None:
                    symbolic = True
                    dim_stride = float(SYMBOLIC_LARGE_STRIDE)
                    break
                dim_stride *= ext
            total_stride += abs(deriv) * dim_stride
            continue
        coeff = form.coefficient(fastest)
        sym_coeff = any("*" in name and fastest in name.split("*")
                        for name in form.coeffs)
        if coeff == 0 and not sym_coeff:
            continue
        # stride of this dimension = product of trailing extents
        dim_stride = 1.0
        for e in extents[d + 1:]:
            if e is None:
                symbolic = True
                dim_stride = float(SYMBOLIC_LARGE_STRIDE)
                break
            dim_stride *= e
        if sym_coeff:
            symbolic = True
            total_stride += float(SYMBOLIC_LARGE_STRIDE)
        else:
            total_stride += abs(coeff) * dim_stride

    if total_stride == 0:
        # fastest var cancelled out (e.g. A[i - i]); other thread vars may
        # still appear — those vary per block, not per warp lane.
        return RefClass(ref.name, AccessPattern.UNIFORM, stride=0,
                        is_store=is_store)
    stride = int(min(total_stride, SYMBOLIC_LARGE_STRIDE))
    if stride == 1 and not symbolic:
        return RefClass(ref.name, AccessPattern.COALESCED, stride=1,
                        is_store=is_store)
    return RefClass(ref.name, AccessPattern.STRIDED, stride=stride,
                    is_store=is_store)


@dataclass
class AccessSummary:
    """Aggregated per-kernel access descriptors for the timing model."""

    #: (RefClass, executions-per-thread) pairs.
    refs: list[tuple[RefClass, float]] = field(default_factory=list)

    def loads(self) -> list[tuple[RefClass, float]]:
        return [(r, n) for r, n in self.refs if not r.is_store]

    def stores(self) -> list[tuple[RefClass, float]]:
        return [(r, n) for r, n in self.refs if r.is_store]

    def arrays(self) -> set[str]:
        return {r.array for r, _ in self.refs}


DEFAULT_SEQ_TRIPS = 16.0
"""Assumed trip count for sequential loops with unresolvable bounds
(e.g. CSR row loops); roughly the average nonzeros-per-row of the
evaluation inputs."""

#: One factor of a weight: a constant (0.5 per ``If`` branch,
#: ``DEFAULT_SEQ_TRIPS`` per ``While``) or the index in a
#: :class:`LoopNest` of an enclosing sequential ``For``, standing for
#: its trip count.
Factor = Union[float, int]


#: the operators :func:`_column_value` evaluates, each the IEEE operation
#: of Python floats per launch (``min`` and ``max`` keep Python's left
#: operand on ties and NaNs)
_COLUMN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "min": lambda a, b: np.where(b < a, b, a),
               "max": lambda a, b: np.where(b > a, b, a),
               "/": np.true_divide, "//": np.floor_divide, "%": np.remainder}

_UNBOUND = (np.nan, False)

#: per bound scalar, its values (one per launch) and where it is bound
#: (``True``: in every launch)
Columns = Mapping[str, tuple]


def binding_columns(bindings: Mapping[str, float]) -> dict[str, tuple]:
    """The :data:`Columns` of the one launch ``bindings``."""
    return {name: (float(value), True) for name, value in bindings.items()}


def _column_value(expr: Expr, columns: Columns) -> tuple:
    """Numeric value of a bound expression in many launches at once.

    Returns ``(values, bound)``: ``bound`` is False (everywhere, or per
    launch) where the expression reads an unbound scalar, divides by
    zero, takes a non-finite floor quotient or applies an operator
    outside :data:`_COLUMN_OPS`, and ``values`` means nothing there.
    Callers silence numpy's floating-point warnings.
    """
    if isinstance(expr, Const):
        return float(expr.value), True
    if isinstance(expr, Var):
        return columns.get(expr.name, _UNBOUND)
    if isinstance(expr, Cast):
        return _column_value(expr.operand, columns)
    if isinstance(expr, UnOp) and expr.op == "-":
        inner, bound = _column_value(expr.operand, columns)
        return -inner, bound
    if not (isinstance(expr, BinOp) and expr.op in _COLUMN_OPS):
        return _UNBOUND
    left, left_bound = _column_value(expr.left, columns)
    right, bound = _column_value(expr.right, columns)
    bound = left_bound & bound
    if expr.op in ("/", "//", "%"):
        # unbound where the divisor is zero
        bound = bound & (right != 0.0)
        right = np.where(right != 0.0, right, 1.0)
    value = _COLUMN_OPS[expr.op](left, right)
    if expr.op == "//":
        # ``float(int(q))``: unbound unless finite, and never -0.0
        return value + 0.0, bound & np.isfinite(value)
    return value, bound


def step_column(loop: For, columns: Columns):
    """``loop``'s step in many launches at once, a zero or unbound step
    counting as 1."""
    step, bound = _column_value(loop.step, columns)
    if bound is True and isinstance(step, float):
        return step or 1.0      # one step for every launch
    return np.where(bound & (step != 0.0), step, 1.0)


def estimated_trips(loop: For, env: Mapping[str, SymRange]) -> float:
    """The trip count of ``loop`` where :func:`trip_column` is not exact:
    the value-range estimate under ``env`` (the ranges inside the loop),
    or ``DEFAULT_SEQ_TRIPS`` when that is unbounded too."""
    est = estimate_trips(loop.lower, loop.upper, loop.step, env)
    return DEFAULT_SEQ_TRIPS if est is None else float(est)


def trip_column(loop: For, columns: Columns) -> tuple:
    """``(counts, exact)`` of ``loop`` for many launches at once.

    Each count is ``max(0, ceil((upper - lower) / step))`` as a float,
    a zero or unbound step counting as 1; it is exact where both bounds
    are bound and the quotient is finite, and means nothing elsewhere.
    """
    lo, lo_bound = _column_value(loop.lower, columns)
    hi, hi_bound = _column_value(loop.upper, columns)
    quotient = (hi - lo) / step_column(loop, columns)
    # ``+ 0.0`` turns a ceiling of -0.0 into the 0.0 ``max(0, ...)`` gives
    return (np.maximum(0.0, np.ceil(quotient)) + 0.0,
            lo_bound & hi_bound & np.isfinite(quotient))


def column_item(column, row: int = 0):
    """Launch ``row``'s entry of a column, or the value every launch
    shares, as a Python number."""
    if type(column) is float:
        return column
    column = np.asarray(column)
    return column.item(row) if column.ndim else column.item()


@dataclass(frozen=True)
class LoopNest:
    """Every ``For`` of a body in scan order: the numeric stage's input.

    The symbolic stages (:class:`AccessTerms` and
    :class:`~repro.ir.analysis.metrics.WorkTerms`) name a loop by its
    index here, and :meth:`trip_columns` is the only step of either
    analysis that reads launches' bindings.
    """

    loops: tuple[For, ...]
    #: index of each loop's innermost enclosing ``For`` (-1: none)
    parents: tuple[int, ...]
    #: False for loops mapped to the thread grid, which carry no factor
    sequential: tuple[bool, ...]
    #: scalars any loop's lower/upper/step reads, sorted: the only
    #: bindings :meth:`trip_columns` (and the grid extents) depend on
    bound_names: tuple[str, ...]

    def bound_key(self, bindings: Mapping[str, float]) -> tuple:
        """The bindings of :attr:`bound_names`, as floats."""
        return tuple([float(bindings[n]) if n in bindings else None
                      for n in self.bound_names])

    def key_columns(self, keys: Sequence[tuple]) -> dict[str, tuple]:
        """The :data:`Columns` of the launches whose :meth:`bound_key`
        values are ``keys``, in order."""
        columns = {}
        for name, values in zip(self.bound_names, zip(*keys)):
            if len(keys) == 1:      # one launch: its value every launch shares
                columns[name] = (_UNBOUND if values[0] is None
                                 else (values[0], True))
                continue
            bound = True
            if None in values:
                bound = np.array([v is not None for v in values])
                values = [np.nan if v is None else v for v in values]
            columns[name] = (np.array(values, dtype=np.float64), bound)
        return columns

    def trip_columns(self, columns: Columns, rows: int,
                     ) -> tuple[list, list]:
        """Each sequential loop's trip counts in ``rows`` launches, and
        where they are exact.

        Exact where :func:`trip_column` is; elsewhere
        :func:`estimated_trips` under that launch's bindings and the
        enclosing loops' ranges.  Thread-grid loops get ``None``.
        """
        trips: list = [None] * len(self.loops)
        exact: list = [True] * len(self.loops)
        envs: dict[tuple[int, int], dict[str, SymRange]] = {}

        def env(i: int, row: int) -> dict[str, SymRange]:
            """Value ranges inside loop ``i`` (-1: the bindings alone)
            in launch ``row``."""
            got = envs.get((i, row))
            if got is None:
                if i < 0:
                    got = bindings_env({
                        name: column_item(values, row)
                        for name, (values, bound) in columns.items()
                        if column_item(bound, row)})
                else:
                    got = dict(env(self.parents[i], row))
                    got[self.loops[i].var] = loop_range(self.loops[i], got)
                envs[(i, row)] = got
            return got

        for i, loop in enumerate(self.loops):
            if not self.sequential[i]:
                continue
            counts, known = trip_column(loop, columns)
            if not known.all():
                counts = np.array(np.broadcast_to(counts, (rows,)))
                known = np.broadcast_to(known, (rows,))
                for row in np.flatnonzero(~known).tolist():
                    counts[row] = estimated_trips(loop, env(i, row))
            trips[i], exact[i] = counts, known
        return trips, exact

    def row_trips(self, bindings: Mapping[str, float]) -> tuple[list, list]:
        """:meth:`trip_columns` of the one launch ``bindings``."""
        return self.trip_columns(self.key_columns([self.bound_key(bindings)]),
                                 1)


class _NestBuilder:
    """Numbers the ``For`` loops of a scan into a :class:`LoopNest`."""

    def __init__(self, thread_vars: Sequence[str]) -> None:
        self.thread_vars = set(thread_vars)
        self.loops: list[For] = []
        self.parents: list[int] = []
        self.stack = [-1]

    def enter(self, loop: For) -> int:
        self.loops.append(loop)
        self.parents.append(self.stack[-1])
        self.stack.append(len(self.loops) - 1)
        return self.stack[-1]

    def exit(self) -> None:
        self.stack.pop()

    def build(self) -> LoopNest:
        names: set[str] = set()
        for loop in self.loops:
            for expr in (loop.lower, loop.upper, loop.step):
                names |= expr.free_vars()
        return LoopNest(tuple(self.loops), tuple(self.parents),
                        tuple(l.var not in self.thread_vars
                              for l in self.loops),
                        tuple(sorted(names)))


def _weight_values(weights: Sequence[tuple[Factor, ...]],
                   trips: Sequence) -> list[float]:
    """Each weight's value, multiplied outermost factor first (the
    order a one-pass scan multiplies in, so every float matches)."""
    out = []
    for factors in weights:
        w = 1.0
        for f in factors:
            w = w * (trips[f] if type(f) is int else f)
        out.append(w)
    return out


@dataclass(frozen=True)
class AccessTerms:
    """The symbolic stage of :func:`summarize_accesses`.

    Everything about a body's accesses except the trip counts of its
    sequential loops: each reference's class, with its weight left as a
    product of factors.  :meth:`evaluate` takes launches' trip counts.
    """

    nest: LoopNest
    #: the distinct weights, each a tuple of factors
    weights: tuple[tuple[Factor, ...], ...]
    #: (class, index into ``weights``) per reference, in scan order
    refs: tuple[tuple[RefClass, int], ...]

    def evaluate(self, trips: Sequence) -> AccessSummary:
        w = _weight_values(self.weights, trips)
        return AccessSummary([(cls, w[i]) for cls, i in self.refs])


def summarize_accesses(body: Stmt, thread_vars: Sequence[str],
                       array_extents: Mapping[str, Sequence[Optional[int]]],
                       bindings: Optional[Mapping[str, float]] = None,
                       indirect_carriers: Iterable[str] = (),
                       monotone_carriers: Iterable[str] = (),
                       classify_against: str = "thread",
                       local_patterns: Optional[Mapping[str, AccessPattern]] = None,
                       pattern_overrides: Optional[Mapping[str, AccessPattern]] = None,
                       symbolic: bool = False,
                       ) -> Union[AccessSummary, AccessTerms]:
    """Walk a kernel body, producing weighted access descriptors.

    Each reference is weighted by the product of enclosing *sequential*
    loop trip counts (loops named in ``thread_vars`` are the thread grid,
    weight 1 per thread) and a 0.5 factor per enclosing data-dependent
    conditional (divergence averaging).

    ``classify_against`` selects the index the pattern is judged by:
    ``"thread"`` (GPU warp lanes spread over ``thread_vars[-1]``) or
    ``"innermost"`` (a serial CPU walker: locality relative to the
    innermost enclosing loop index — used by the host cost model).

    ``local_patterns`` assigns patterns to thread-private local arrays
    (array-expansion orientation: row-wise expansion is strided,
    column-wise coalesced; absent arrays are register-allocated, free).
    ``pattern_overrides`` forces a pattern for named global arrays — the
    hook the compilers use to record transformation effects (e.g.
    OpenMPC's loop collapsing turning indirect CSR traffic coalesced).

    Classification never reads ``bindings``; only the trip counts do.
    With ``symbolic=True`` the walk stops there and returns the
    :class:`AccessTerms`, which any launch's trip counts then evaluate.
    """
    local_patterns = dict(local_patterns or {})
    pattern_overrides = dict(pattern_overrides or {})
    found: list[tuple[RefClass, tuple[Factor, ...]]] = []
    local_arrays: set[str] = set()
    tset = set(thread_vars)
    loop_stack: list[str] = []
    nest = _NestBuilder(thread_vars)
    #: sequential loop indices whose bounds depend on the thread index
    #: (CSR row loops, frontier scans): addresses indexed by them are
    #: data-dependent across the warp — effectively indirect accesses.
    irregular_vars: set[str] = set()

    def classify(node: ArrayRef, is_store: bool) -> Optional[RefClass]:
        if node.name in local_arrays:
            pattern = local_patterns.get(node.name)
            if pattern is None:
                return None  # register-resident: no memory traffic
            stride = SYMBOLIC_LARGE_STRIDE if pattern is AccessPattern.STRIDED else 1
            return RefClass(node.name, pattern, stride=stride,
                            is_store=is_store)
        override = pattern_overrides.get(node.name)
        if override is not None:
            stride = SYMBOLIC_LARGE_STRIDE if override is AccessPattern.STRIDED else (
                1 if override is AccessPattern.COALESCED else 0)
            return RefClass(node.name, override, stride=stride,
                            is_store=is_store)
        index_vars: set[str] = set()
        for index in node.indices:
            index_vars |= index.free_vars()
        if index_vars & irregular_vars:
            return RefClass(node.name, AccessPattern.INDIRECT, stride=0,
                            is_store=is_store)
        if classify_against == "innermost":
            # pick the innermost enclosing loop index the ref depends on
            against: list[str] = []
            for var in reversed(loop_stack):
                if var in index_vars:
                    against = [var]
                    break
            if not against:
                return RefClass(node.name, AccessPattern.UNIFORM, stride=0,
                                is_store=is_store,
                                read_only_uniform=not is_store)
        else:
            against = list(thread_vars)
        return classify_ref(node, against,
                            dim_extents=array_extents.get(node.name),
                            is_store=is_store,
                            indirect_carriers=indirect_carriers,
                            monotone_carriers=monotone_carriers)

    def record(expr: Expr, weight: tuple[Factor, ...],
               store_target: Optional[ArrayRef]) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                cls = classify(
                    node,
                    is_store=(store_target is not None and node is store_target),
                )
                if cls is not None:
                    found.append((cls, weight))

    def scan(stmt: Stmt, weight: tuple[Factor, ...]) -> None:
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                scan(s, weight)
        elif isinstance(stmt, LocalDecl):
            if stmt.shape:
                local_arrays.add(stmt.name)
            if stmt.init is not None:
                record(stmt.init, weight, None)
        elif isinstance(stmt, Assign):
            record(stmt.value, weight, None)
            if isinstance(stmt.target, ArrayRef):
                # store (plus a load when augmented)
                cls = classify(stmt.target, is_store=True)
                if cls is not None:
                    found.append((cls, weight))
                    if stmt.op is not None:
                        load_cls = RefClass(cls.array, cls.pattern, cls.stride,
                                            is_store=False)
                        found.append((load_cls, weight))
                # index expressions read whatever arrays they traverse
                for index in stmt.target.indices:
                    record(index, weight, None)
        elif isinstance(stmt, For):
            loop_stack.append(stmt.var)
            idx = nest.enter(stmt)
            _scan_for(stmt, weight, idx)
            nest.exit()
            loop_stack.pop()
        elif isinstance(stmt, While):
            record(stmt.cond, weight + (DEFAULT_SEQ_TRIPS,), None)
            scan(stmt.body, weight + (DEFAULT_SEQ_TRIPS,))
        elif isinstance(stmt, If):
            record(stmt.cond, weight, None)
            scan(stmt.then_body, weight + (0.5,))
            if stmt.else_body is not None:
                scan(stmt.else_body, weight + (0.5,))
        elif isinstance(stmt, Critical):
            scan(stmt.body, weight)
        else:
            for expr in stmt.exprs():
                record(expr, weight, None)

    def _scan_for(stmt: For, weight: tuple[Factor, ...], idx: int) -> None:
        if stmt.var in tset:
            scan(stmt.body, weight)
            return
        # Bounds that depend on the thread index (directly or through
        # an array lookup like row_ptr[i]) make this an irregular
        # loop: its index produces data-dependent addresses across
        # the warp.
        bound_vars = (stmt.lower.free_vars() | stmt.upper.free_vars())
        was_irregular = stmt.var in irregular_vars
        if bound_vars & (tset | irregular_vars):
            irregular_vars.add(stmt.var)
        record(stmt.lower, weight, None)
        record(stmt.upper, weight, None)
        scan(stmt.body, weight + (idx,))
        if not was_irregular:
            irregular_vars.discard(stmt.var)

    scan(body, ())
    index: dict[tuple[Factor, ...], int] = {}
    refs = tuple((cls, index.setdefault(w, len(index))) for cls, w in found)
    terms = AccessTerms(nest.build(), tuple(index), refs)
    if symbolic:
        return terms
    with np.errstate(all="ignore"):
        summary = terms.evaluate(terms.nest.row_trips(bindings or {})[0])
    return AccessSummary([(cls, column_item(count))
                          for cls, count in summary.refs])
