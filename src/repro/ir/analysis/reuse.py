"""Static per-kernel locality analysis over the affine machinery.

The cache replay in :mod:`repro.gpusim.cache` measures locality by
executing a kernel; this module *predicts* the same quantities from the
kernel's affine access functions, the static-predicts/dynamic-audits
discipline the coalescing model already follows
(:mod:`repro.gpusim.trace`).  For every global array reference the
analyzer resolves the flattened element index to an affine form over
the thread and sequential-loop indices (concrete workload bindings make
extents and parametric coefficients numeric), then derives:

* **reuse pairs** — every reference pair classified as temporal/spatial
  x self/group reuse, with the loop that carries the reuse and an
  estimated reuse distance in cache lines;
* **per-loop working sets** — distinct bytes one iteration of each
  sequential loop touches, from trip counts and coefficient spans, with
  fits-in-L1/L2 verdicts;
* **per-array L1/L2 miss-ratio predictions** — compulsory misses are
  the distinct-line footprint; re-touches hit a level iff the carrying
  reuse distance fits inside that level's line capacity.

The predictions deliberately mirror the simulator's replay discipline
(per-event ``(warp, line)`` dedup, event-ordered streams) so the two
stay comparable; ``tests/test_reuse_static.py`` cross-validates them on
the suite kernels within :data:`STATIC_AGREEMENT_TOLERANCE`.

References that go through index arrays (CSR gathers) or sit under
data-dependent loops cannot be resolved statically; their predictions
fall back to the device's ``indirect_locality`` heuristic and the whole
kernel is flagged ``exact=False`` — the same lower-bound marker the
dynamic trace carries for such kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import LaunchError
from repro.gpusim.coalescing import transactions_per_warp
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.kernel import kernel_ir_hash
from repro.ir.analysis.access import (AccessPattern, Columns, RefClass,
                                      DEFAULT_SEQ_TRIPS, _column_value,
                                      _strip_monotone, binding_columns,
                                      classify_ref, column_item,
                                      estimated_trips, step_column,
                                      trip_column)
from repro.ir.analysis.affine import AffineForm, affine_form
from repro.ir.analysis.ranges import SymRange, bindings_env, loop_range
from repro.ir.analysis.regionmemo import memoized
from repro.ir.expr import ArrayRef, BinOp, Cast, Const, Expr, UnOp, Var
from repro.ir.stmt import (Assign, Block, Critical, For, If, LocalDecl,
                           Stmt, While)

__all__ = ["ReusePair", "LoopWorkingSet", "ArrayPrediction", "KernelReuse",
           "analyze_kernel_reuse", "memoized_reuse",
           "STATIC_AGREEMENT_TOLERANCE"]

#: Documented tolerance for static-vs-simulated L1/L2 miss-ratio
#: agreement on regular (``exact=True``) kernels: the static model
#: ignores conflict misses, partial warps and divergence masking, so
#: per-kernel aggregate predictions are compared with an absolute
#: miss-ratio band of this width (see ``tests/test_reuse_static.py``).
STATIC_AGREEMENT_TOLERANCE = 0.25


def _render(e: Expr) -> str:
    """Compact single-line rendering for witnesses."""
    if isinstance(e, Const):
        v = e.value
        return str(int(v)) if isinstance(v, float) and v.is_integer() else str(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Cast):
        return _render(e.operand)
    if isinstance(e, UnOp):
        return f"{e.op}{_render(e.operand)}"
    if isinstance(e, BinOp):
        return f"({_render(e.left)} {e.op} {_render(e.right)})"
    if isinstance(e, ArrayRef):
        return e.name + "".join(f"[{_render(i)}]" for i in e.indices)
    return type(e).__name__


@dataclass(frozen=True)
class ReusePair:
    """One classified reuse relation between two references."""

    array: str
    kind: str        #: "temporal" | "spatial"
    scope: str       #: "self" | "group"
    src: str         #: rendered source reference
    dst: str         #: rendered reusing reference (== src for self)
    loop: str        #: carrying loop variable ("" for loop-independent)
    distance_lines: float  #: estimated reuse distance, in cache lines

    def to_dict(self) -> dict:
        return {"array": self.array, "kind": self.kind, "scope": self.scope,
                "src": self.src, "dst": self.dst, "loop": self.loop,
                "distance_lines": round(self.distance_lines, 2)}


@dataclass(frozen=True)
class LoopWorkingSet:
    """Distinct bytes one iteration of a sequential loop touches."""

    loop: str
    trips: float
    bytes_per_iteration: float
    fits_l1: bool
    fits_l2: bool

    def to_dict(self) -> dict:
        return {"loop": self.loop, "trips": round(self.trips, 2),
                "bytes_per_iteration": round(self.bytes_per_iteration, 1),
                "fits_l1": self.fits_l1, "fits_l2": self.fits_l2}


@dataclass
class ArrayPrediction:
    """Predicted cache behaviour of one array's access stream."""

    array: str
    accesses: float = 0.0         #: predicted L1-level line accesses
    footprint_lines: float = 0.0  #: distinct lines (compulsory misses)
    #: distinct lines touched per event, summed — the part of the access
    #: stream that is not an always-hit within-event boundary repeat
    line_accesses: float = 0.0
    reuse_distance_lines: float = float("inf")
    #: fraction of L1 sets the dominant lane stride can reach (1.0 =
    #: conflict-free; a power-of-two line stride aliases into
    #: ``1/gcd`` of the sets and shrinks the usable capacity)
    l1_set_fraction: float = 1.0
    l1_misses: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0
    exact: bool = True            #: False for indirect/data-dependent refs

    @property
    def l1_miss_ratio(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_ratio(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    def to_dict(self) -> dict:
        dist = self.reuse_distance_lines
        return {"array": self.array,
                "accesses": round(self.accesses, 1),
                "footprint_lines": round(self.footprint_lines, 1),
                "reuse_distance_lines": (round(dist, 1)
                                         if math.isfinite(dist) else None),
                "l1_miss_ratio": round(self.l1_miss_ratio, 6),
                "l2_miss_ratio": round(self.l2_miss_ratio, 6),
                "l1_set_fraction": round(self.l1_set_fraction, 4),
                "exact": self.exact}


@dataclass
class KernelReuse:
    """The static locality report for one kernel."""

    kernel: str
    exact: bool
    warps: int
    pairs: list[ReusePair] = field(default_factory=list)
    working_sets: list[LoopWorkingSet] = field(default_factory=list)
    arrays: dict[str, ArrayPrediction] = field(default_factory=dict)

    @property
    def l1_miss_ratio(self) -> float:
        acc = sum(p.accesses for p in self.arrays.values())
        miss = sum(p.l1_misses for p in self.arrays.values())
        return miss / acc if acc else 0.0

    @property
    def l2_miss_ratio(self) -> float:
        acc = sum(p.l2_accesses for p in self.arrays.values())
        miss = sum(p.l2_misses for p in self.arrays.values())
        return miss / acc if acc else 0.0

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, "exact": self.exact,
                "warps": self.warps,
                "l1_miss_ratio": round(self.l1_miss_ratio, 6),
                "l2_miss_ratio": round(self.l2_miss_ratio, 6),
                "pairs": [p.to_dict() for p in self.pairs],
                "working_sets": [w.to_dict() for w in self.working_sets],
                "arrays": [self.arrays[a].to_dict()
                           for a in sorted(self.arrays)]}


# ---------------------------------------------------------------------------
# Reference sites: the walk
# ---------------------------------------------------------------------------

@dataclass
class _Site:
    """One global-array reference with its static context."""

    order: int
    array: str
    label: str
    is_store: bool
    weight: float                      #: events per thread-iteration space
    loops: tuple[tuple[str, float, float], ...]  #: (var, trips, step), seq
    coeffs: dict[str, float]           #: flat element-index coefficients
    const: float
    affine: bool
    refclass: RefClass


def _resolve_form(form: AffineForm, var_set: set[str],
                  bindings: Mapping[str, float]
                  ) -> Optional[tuple[dict[str, float], float]]:
    """Flatten parametric coefficients to numbers via the bindings."""
    coeffs: dict[str, float] = {}
    const = float(form.const)
    for name, cv in form.coeffs.items():
        parts = name.split("*")
        idx = [p for p in parts if p in var_set]
        params = [p for p in parts if p not in var_set]
        scale = float(cv)
        for p in params:
            val = bindings.get(p)
            if val is None:
                return None
            scale *= float(val)
        if len(idx) == 0:
            const += scale
        elif len(idx) == 1:
            coeffs[idx[0]] = coeffs.get(idx[0], 0.0) + scale
        else:
            return None  # product of two iteration variables
    return coeffs, const


def _flat_form(ref: ArrayRef, extents: Sequence[int], var_set: set[str],
               bindings: Mapping[str, float]
               ) -> Optional[tuple[dict[str, float], float]]:
    """Row-major flattened element index as numeric affine coefficients."""
    if len(extents) < len(ref.indices):
        return None
    coeffs: dict[str, float] = {}
    const = 0.0
    for d, index in enumerate(ref.indices):
        form = affine_form(index, var_set)
        if form is None:
            return None
        resolved = _resolve_form(form, var_set, bindings)
        if resolved is None:
            return None
        dim_coeffs, dim_const = resolved
        stride = 1.0
        for ext in extents[d + 1:len(ref.indices)]:
            stride *= ext
        for name, cv in dim_coeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) + cv * stride
        const += dim_const * stride
    return coeffs, const


def _collect_sites(kernel, bindings: Mapping[str, float],
                   columns: Columns,
                   array_extents: Mapping[str, Sequence[int]],
                   body: Optional[Stmt] = None
                   ) -> tuple[list["_Site"], bool,
                              list[tuple[str, float, float]],
                              dict[str, tuple[float, float]],
                              dict[str, float]]:
    """Walk the body mirroring ``summarize_accesses``.

    Returns ``(sites, data_dependent?, seq loops, var extents, var
    lower bounds)``.  ``columns`` are the one launch's
    (:func:`binding_columns` of ``bindings``): every loop's lower
    bound, step and trip count is read from them as pricing reads its
    launches'.  ``body`` overrides ``kernel.body`` (the call-inlined
    view).  Callers silence numpy's floating-point warnings.
    """
    thread_vars = list(kernel.thread_vars)
    tset = set(thread_vars)
    monotone = set(kernel.monotone_carriers)
    indirect_carriers = set(kernel.indirect_carriers)
    overrides = dict(kernel.pattern_overrides)
    local_arrays: set[str] = set()
    sites: list[_Site] = []
    seq_loops: list[tuple[str, float, float]] = []
    loop_stack: list[tuple[str, float, float]] = []  # seq loops only
    range_env: dict[str, SymRange] = bindings_env(bindings)
    irregular_vars: set[str] = set()
    data_dependent = False
    var_extents: dict[str, tuple[float, float]] = {}  # var -> (trips, step)
    var_lower: dict[str, float] = {}  # var -> resolved loop lower bound

    def classify(node: ArrayRef, is_store: bool,
                 index_vars: set[str]) -> Optional[RefClass]:
        if node.name in local_arrays:
            return None  # private arrays never reach the traced stream
        override = overrides.get(node.name)
        if override is not None:
            return RefClass(node.name, override,
                            stride=(1 if override is AccessPattern.COALESCED
                                    else 0),
                            is_store=is_store)
        if index_vars & irregular_vars:
            return RefClass(node.name, AccessPattern.INDIRECT, stride=0,
                            is_store=is_store)
        return classify_ref(node, thread_vars,
                            dim_extents=array_extents.get(node.name),
                            is_store=is_store,
                            indirect_carriers=indirect_carriers,
                            monotone_carriers=monotone)

    def add_site(node: ArrayRef, is_store: bool, weight: float) -> None:
        stripped = _strip_monotone(node, monotone) if monotone else node
        index_vars: set[str] = set()
        for index in stripped.indices:
            index_vars |= index.free_vars()
        cls = classify(node, is_store, index_vars)
        if cls is None:
            return
        extents = array_extents.get(node.name)
        var_set = tset | {v for v, _, _ in loop_stack}
        flat = None
        if extents is not None and not (index_vars & irregular_vars):
            flat = _flat_form(stripped, list(extents), var_set, bindings)
        if flat is None or cls.pattern is AccessPattern.INDIRECT:
            sites.append(_Site(order=len(sites), array=node.name,
                               label=_render(node), is_store=is_store,
                               weight=weight, loops=tuple(loop_stack),
                               coeffs={}, const=0.0, affine=False,
                               refclass=cls))
            return
        coeffs, const = flat
        sites.append(_Site(order=len(sites), array=node.name,
                           label=_render(node), is_store=is_store,
                           weight=weight, loops=tuple(loop_stack),
                           coeffs=coeffs, const=const, affine=True,
                           refclass=cls))

    def record(expr: Expr, weight: float,
               store_target: Optional[ArrayRef]) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                add_site(node, is_store=(store_target is not None
                                         and node is store_target),
                         weight=weight)

    def scan(stmt: Stmt, weight: float) -> None:
        nonlocal data_dependent
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
                # NOTE: an augmented assign reads the target too, but the
                # executor applies it as one fused update, so the traced
                # stream (and hence the replay this analysis mirrors)
                # sees a single store event; counting the read here would
                # skew the predicted miss *ratio*'s denominator
                add_site(stmt.target, True, weight)
                for index in stmt.target.indices:
                    record(index, weight, None)
        elif isinstance(stmt, For):
            _scan_for(stmt, weight)
        elif isinstance(stmt, While):
            data_dependent = True
            record(stmt.cond, weight * DEFAULT_SEQ_TRIPS, None)
            scan(stmt.body, weight * DEFAULT_SEQ_TRIPS)
        elif isinstance(stmt, If):
            record(stmt.cond, weight, None)
            scan(stmt.then_body, weight * 0.5)
            if stmt.else_body is not None:
                scan(stmt.else_body, weight * 0.5)
        elif isinstance(stmt, Critical):
            scan(stmt.body, weight)
        else:
            for expr in stmt.exprs():
                record(expr, weight, None)

    def _scan_for(stmt: For, weight: float) -> None:
        nonlocal data_dependent
        saved = range_env.get(stmt.var)
        range_env[stmt.var] = loop_range(stmt, range_env)
        try:
            counts, exact = trip_column(stmt, columns)
            trips = (column_item(counts) if column_item(exact)
                     else estimated_trips(stmt, range_env))
            step = column_item(step_column(stmt, columns))
            var_extents[stmt.var] = (trips, step)
            lo, lo_bound = _column_value(stmt.lower, columns)
            if column_item(lo_bound):
                var_lower[stmt.var] = column_item(lo)
            if stmt.var in tset:
                scan(stmt.body, weight)
                return
            bound_vars = stmt.lower.free_vars() | stmt.upper.free_vars()
            was_irregular = stmt.var in irregular_vars
            if bound_vars & (tset | irregular_vars) or any(
                    isinstance(n, ArrayRef)
                    for b in (stmt.lower, stmt.upper) for n in b.walk()):
                irregular_vars.add(stmt.var)
                data_dependent = True
            record(stmt.lower, weight, None)
            record(stmt.upper, weight, None)
            entry = (stmt.var, trips, step)
            seq_loops.append(entry)
            loop_stack.append(entry)
            try:
                scan(stmt.body, weight * trips)
            finally:
                loop_stack.pop()
            if not was_irregular:
                irregular_vars.discard(stmt.var)
        finally:
            if saved is None:
                range_env.pop(stmt.var, None)
            else:
                range_env[stmt.var] = saved

    scan(body if body is not None else kernel.body, 1.0)
    return sites, data_dependent, seq_loops, var_extents, var_lower


# ---------------------------------------------------------------------------
# Footprints and working sets
# ---------------------------------------------------------------------------

def _footprint_lines(site: _Site, varying: set[str],
                     var_extents: Mapping[str, tuple[float, float]],
                     elem: int, line_bytes: int,
                     cap_lines: Optional[float] = None) -> float:
    """Distinct lines the site touches while ``varying`` indices sweep.

    Three upper bounds, the smallest taken: the iteration-point count
    (large-stride traversals), the dense bounding-box span, and — for
    tiled accesses whose rows are short relative to the row stride —
    the run decomposition: one contiguous run per iteration of every
    non-fastest index, each run as long as the fastest index sweeps.
    """
    span_elems = 0.0
    points = 1.0
    runs = 1.0
    min_stride: Optional[tuple[float, float, float]] = None  # |cv*step|
    for var, cv in site.coeffs.items():
        if var not in varying or cv == 0:
            continue
        trips, step = var_extents.get(var, (1.0, 1.0))
        span_elems += abs(cv) * step * max(0.0, trips - 1.0)
        points *= max(1.0, trips)
        runs *= max(1.0, trips)
        stride = abs(cv) * step
        if min_stride is None or stride < min_stride[0]:
            min_stride = (stride, trips, abs(cv) * step)
    span_lines = span_elems * elem / line_bytes + 1.0
    lines = min(points, span_lines)
    if min_stride is not None:
        stride, trips, _ = min_stride
        run_lines = stride * max(0.0, trips - 1.0) * elem / line_bytes + 1.0
        lines = min(lines, (runs / max(1.0, trips)) * run_lines)
    if cap_lines is not None:
        lines = min(lines, cap_lines)
    return max(1.0, lines)


def _per_event_lines(site: _Site, tset: set[str],
                     var_extents: Mapping[str, tuple[float, float]],
                     elem: int, line_bytes: int) -> float:
    """Distinct lines one event (all threads, one iteration) touches."""
    return _footprint_lines(site, tset, var_extents, elem, line_bytes)


def _set_fraction(site: _Site, fastest: Optional[str], elem: int,
                  line_bytes: int, num_sets: int) -> float:
    """Fraction of cache sets the warp-lane stride can reach.

    Lanes ``s`` lines apart only ever index sets that are multiples of
    ``gcd(s, num_sets)`` apart — the classic power-of-two aliasing of
    diagonal/wavefront traversals.  1.0 for contiguous or non-affine
    accesses (no provable aliasing).
    """
    if not site.affine or fastest is None:
        return 1.0
    line_stride = abs(site.coeffs.get(fastest, 0.0)) * elem / line_bytes
    stride = int(round(line_stride))
    if stride < 2 or abs(line_stride - stride) > 0.05:
        return 1.0
    return 1.0 / math.gcd(stride, num_sets)


def _entries_per_warp(site: _Site, txns: float,
                      thread_vars: Sequence[str],
                      var_extents: Mapping[str, tuple[float, float]],
                      var_lower: Mapping[str, float],
                      elem: int, line_bytes: int, warp: int) -> float:
    """Expected ``(warp, line)`` stream entries one warp contributes.

    The priced transaction count assumes aligned warps; a contiguous
    warp access whose start is *not* line-aligned straddles one extra
    line, and that boundary line is shared with the adjacent warp (an
    always-hit repeat in the replay).  Expected extra entries for an
    unaligned stride-1 access: ``1 - elem/line``.  Alignment is provable
    when the fastest thread index has unit coefficient, warps never
    straddle a slower-index step (extent divisible by the warp width),
    every other coefficient is a line multiple, and the base offset —
    the constant term plus every loop's lower bound times its
    coefficient — is a line multiple too.
    """
    if site.refclass.pattern is not AccessPattern.COALESCED \
            or not site.affine or not thread_vars:
        return txns
    fastest = thread_vars[-1]
    ext_f, step_f = var_extents.get(fastest, (1.0, 1.0))
    # warps only straddle a slower-index step when there IS one: a 1-D
    # grid keeps lanes consecutive in the fastest index regardless of
    # its extent, and a multi-dimensional grid whose address is
    # *contiguous* across the wrap (each slower index advances exactly
    # one full extent of the next faster one — e.g. ``A[i][j]`` over a
    # full (rows, cols) grid) produces a single contiguous lane stream
    contiguous = all(
        site.coeffs.get(slow, 0.0)
        == site.coeffs.get(fast, 0.0) * var_extents.get(fast,
                                                        (1.0, 1.0))[0]
        for slow, fast in zip(thread_vars, thread_vars[1:]))
    no_straddle = (len(thread_vars) == 1 or ext_f % warp == 0
                   or contiguous)
    base: Optional[float] = site.const
    for v, cv in site.coeffs.items():
        if cv == 0.0:
            continue
        lo = var_lower.get(v)
        if lo is None:
            base = None  # unresolved lower bound: alignment unprovable
            break
        base += cv * lo
    aligned = (no_straddle and step_f == 1.0
               and abs(site.coeffs.get(fastest, 0.0)) == 1.0
               and base is not None
               and (base * elem) % line_bytes == 0
               and all((cv * elem) % line_bytes == 0
                       for v, cv in site.coeffs.items() if v != fastest))
    if aligned:
        return txns
    return txns + (1.0 - elem / line_bytes)


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------

def analyze_kernel_reuse(kernel, bindings: Mapping[str, float],
                         array_extents: Mapping[str, Sequence[int]],
                         spec: DeviceSpec = TESLA_M2090,
                         functions: Optional[Mapping[str, object]] = None
                         ) -> KernelReuse:
    """Predict the cache behaviour of one kernel launch statically.

    ``bindings`` and ``array_extents`` are the concrete workload values
    (the same ones :meth:`Kernel.describe` prices), so trip counts,
    parametric strides and footprints all resolve to numbers.

    ``functions`` (name → :class:`~repro.ir.program.Function`) lets the
    analyzer see through device-function calls the way the executor
    does (OpenMPC is the one model whose kernels keep ``CallStmt``s);
    without it, called-function accesses are invisible and such kernels
    come back empty.
    """
    line_bytes = spec.transaction_bytes
    elem = kernel.elem_bytes()
    l1_lines = max(1, spec.l1_bytes // line_bytes)
    l2_lines = max(1, spec.l2_bytes // line_bytes)
    l1_sets = max(1, spec.l1_bytes // (line_bytes * spec.l1_assoc))
    l2_sets = max(1, spec.l2_bytes // (line_bytes * spec.l2_assoc))
    thread_vars = list(kernel.thread_vars)
    fastest_tv = thread_vars[-1] if thread_vars else None
    tset = set(thread_vars)

    body = kernel.body
    if functions:
        from repro.ir.transforms.inline import inline_calls
        try:
            body, _ = inline_calls(body, functions=functions,
                                   require_inlinable=False)
        except Exception:
            body = kernel.body  # unknown callee: analyze what's visible

    columns = binding_columns(bindings)
    with np.errstate(all="ignore"):
        total_threads = math.prod(column_item(extent) for extent
                                  in kernel.grid_extents(columns))
        sites, data_dependent, seq_loops, var_extents, var_lower = \
            _collect_sites(kernel, bindings, columns, array_extents,
                           body=body)
    warps = max(1, -(-total_threads // spec.warp_size))
    # lane-proportional warp count: a trailing partial warp issues
    # proportionally fewer line touches, so access counts scale with
    # total lanes, not with the rounded-up warp count
    warps_f = max(total_threads / spec.warp_size, 1e-9)

    report = KernelReuse(kernel=kernel.name,
                         exact=not data_dependent, warps=warps)

    # -- per-loop working sets -------------------------------------------
    ws_bytes: dict[str, float] = {}
    for var, trips, _step in seq_loops:
        per_array: dict[str, float] = {}
        for site in sites:
            stack_vars = [v for v, _, _ in site.loops]
            if var not in stack_vars:
                continue
            inner = set(stack_vars[stack_vars.index(var) + 1:])
            varying = tset | inner
            lines = _footprint_lines(site, varying, var_extents, elem,
                                     line_bytes)
            per_array[site.array] = max(per_array.get(site.array, 0.0),
                                        lines)
        total = sum(per_array.values()) * line_bytes
        ws_bytes[var] = total
        report.working_sets.append(LoopWorkingSet(
            loop=var, trips=trips,
            bytes_per_iteration=total,
            fits_l1=total <= spec.l1_bytes,
            fits_l2=total <= spec.l2_bytes))

    # -- reuse pairs -------------------------------------------------------
    def add_pair(array: str, kind: str, scope: str, src: str, dst: str,
                 loop: str, distance: float) -> None:
        report.pairs.append(ReusePair(array=array, kind=kind, scope=scope,
                                      src=src, dst=dst, loop=loop,
                                      distance_lines=distance))

    candidates: dict[str, list[float]] = {}
    affine_sites = [s for s in sites if s.affine]
    event_lines = {s.order: _per_event_lines(s, tset, var_extents, elem,
                                             line_bytes)
                   for s in sites}
    for site in affine_sites:
        # self reuse carried by each enclosing sequential loop
        for var, trips, step in site.loops:
            if trips <= 1.0:
                continue
            cv = site.coeffs.get(var, 0.0)
            dist = ws_bytes.get(var, 0.0) / line_bytes
            if cv == 0.0:
                add_pair(site.array, "temporal", "self", site.label,
                         site.label, var, dist)
                candidates.setdefault(site.array, []).append(dist)
            elif abs(cv * step) * elem < line_bytes:
                add_pair(site.array, "spatial", "self", site.label,
                         site.label, var, dist)
                candidates.setdefault(site.array, []).append(dist)
        # self reuse *within* one event: a thread index with zero
        # coefficient means whole groups of warps re-touch each line.
        # If the fastest index drops out the repeats are warp-adjacent
        # in the replay's (warp, line) order; if only a slower index
        # drops out, the repeats are one per-event footprint apart.
        if thread_vars:
            zero_tvs = [v for v in thread_vars
                        if site.coeffs.get(v, 0.0) == 0.0
                        and var_extents.get(v, (1.0, 1.0))[0] > 1.0]
            if zero_tvs:
                if site.coeffs.get(thread_vars[-1], 0.0) == 0.0:
                    dist = 2.0
                else:
                    dist = event_lines[site.order]
                add_pair(site.array, "temporal", "self", site.label,
                         site.label, "", dist)
                candidates.setdefault(site.array, []).append(dist)

    # group reuse between distinct references to the same array
    by_array: dict[str, list[_Site]] = {}
    for site in affine_sites:
        by_array.setdefault(site.array, []).append(site)
    for array, group in by_array.items():
        for i, s1 in enumerate(group):
            for s2 in group[i + 1:]:
                if s1.coeffs != s2.coeffs:
                    continue
                delta = abs(s1.const - s2.const)
                if delta == 0.0:
                    kind = "temporal"
                elif delta * elem < line_bytes:
                    kind = "spatial"
                else:
                    continue
                lo, hi = sorted((s1.order, s2.order))
                # the replay issues every warp of an event before the
                # next event starts, so a line touched at position p of
                # the source event is re-touched after the *rest* of
                # that event plus everything in between — about one full
                # per-event footprint, not one line
                between = sum(event_lines.get(s.order, 0.0) for s in sites
                              if lo < s.order < hi)
                dist = (between + event_lines.get(lo, 1.0)
                        + delta * elem / line_bytes)
                common = [v for v, _, _ in s1.loops
                          if v in {u for u, _, _ in s2.loops}]
                add_pair(array, kind, "group", s1.label, s2.label,
                         common[-1] if common else "", dist)
                candidates.setdefault(array, []).append(dist)

    # -- per-array miss predictions ----------------------------------------
    all_vars = tset | {v for v, _, _ in seq_loops}
    for site in sites:
        pred = report.arrays.setdefault(site.array,
                                        ArrayPrediction(array=site.array))
        txns = transactions_per_warp(site.refclass, elem, spec)
        entries = _entries_per_warp(site, txns, thread_vars, var_extents,
                                    var_lower, elem, line_bytes,
                                    spec.warp_size)
        # a uniform reference costs one entry per *issued* warp, partial
        # or not; lane-scaling references cost proportionally to lanes,
        # floored at one stream entry per executed event
        w_site = (float(warps)
                  if site.refclass.pattern is AccessPattern.UNIFORM
                  else warps_f)
        ev_entries = max(entries * w_site, 1.0)
        pred.accesses += ev_entries * site.weight
        if not site.affine:
            pred.exact = False
            report.exact = False
            pred.line_accesses += ev_entries * site.weight
            continue
        # per event only the distinct lines can miss; boundary repeats
        # between adjacent warps always hit
        per_event = min(ev_entries, event_lines[site.order])
        pred.line_accesses += per_event * site.weight
        pred.l1_set_fraction = min(
            pred.l1_set_fraction,
            _set_fraction(site, fastest_tv, elem, line_bytes, l1_sets))
        extents = array_extents.get(site.array, ())
        cap = None
        if extents:
            cap = max(1.0, math.prod(extents) * elem / line_bytes)
        lines = _footprint_lines(site, all_vars, var_extents, elem,
                                 line_bytes, cap_lines=cap)
        pred.footprint_lines = max(pred.footprint_lines, lines)

    for array, pred in report.arrays.items():
        dist = min(candidates.get(array, [float("inf")]))
        pred.reuse_distance_lines = dist
        if not pred.exact:
            # indirect gathers: L1 is hopeless, L2 keeps the device's
            # assumed fraction of data-dependent locality
            pred.footprint_lines = pred.accesses
            pred.l1_misses = pred.accesses
            pred.l2_accesses = pred.l1_misses
            pred.l2_misses = pred.l2_accesses * (1.0 -
                                                 spec.indirect_locality)
            continue
        # set aliasing shrinks the capacity the reuse distance competes
        # for: a stride reaching 1/g of the sets effectively has a
        # cache 1/g the size (same rule at both levels).  The capacity
        # itself is sets*(assoc+1), not sets*assoc: LRU evicts on the
        # count of *other* same-set lines inside the reuse window, and
        # for the near-consecutive line windows affine kernels produce
        # the reused line occupies one of the window's own set slots
        frac2 = min((_set_fraction(s, fastest_tv, elem, line_bytes,
                                   l2_sets)
                     for s in sites if s.array == array and s.affine),
                    default=1.0)
        eff_l1 = l1_sets * (spec.l1_assoc + 1) * pred.l1_set_fraction
        eff_l2 = l2_sets * (spec.l2_assoc + 1) * frac2
        compulsory = min(pred.line_accesses, pred.footprint_lines)
        retouch = max(0.0, pred.line_accesses - pred.footprint_lines)
        pred.l1_misses = compulsory + (0.0 if dist <= eff_l1 else retouch)
        pred.l2_accesses = pred.l1_misses
        retouch2 = max(0.0, pred.l2_accesses - compulsory)
        pred.l2_misses = compulsory + (0.0 if dist <= eff_l2
                                       else retouch2)
    return report


def memoized_reuse(analyze, kernel, bindings: Mapping[str, float],
                   array_extents: Mapping[str, Sequence[int]],
                   spec: DeviceSpec = TESLA_M2090,
                   functions: Optional[Mapping[str, object]] = None
                   ) -> KernelReuse:
    """``analyze(kernel, ...)`` once per distinct analysis, labelled
    with ``kernel``'s name.

    ``analyze`` is the caller's binding of :func:`analyze_kernel_reuse`,
    called on a miss.  The key is everything the analysis reads: the
    kernel's content key, its body with every reachable function
    (:func:`~repro.gpusim.kernel.kernel_ir_hash`), its element size,
    the bindings, the extents and the device.  An analysis whose launch
    the bindings leave unresolved raises its :class:`LaunchError` again
    (worded for the kernel that raised it first).  Reports are shared
    between callers, so no caller may mutate one.
    """
    def run() -> KernelReuse | LaunchError:
        try:
            return analyze(kernel, bindings, array_extents, spec,
                           functions=functions)
        except LaunchError as exc:
            return exc.with_traceback(None)

    key = (kernel.content_key, kernel_ir_hash(kernel, functions),
           kernel.elem_bytes(), tuple(sorted(bindings.items())),
           tuple(sorted((name, tuple(ext))
                        for name, ext in array_extents.items())), spec)
    report = memoized("reuse", key, run)
    if isinstance(report, LaunchError):
        raise report
    if report.kernel == kernel.name:
        return report
    return replace(report, kernel=kernel.name)
