"""The scalar pricing evaluators, kept as the oracle for the columns.

Pricing has one numeric stage: numpy columns of launches
(:meth:`LoopNest.trip_columns`, :meth:`Kernel.describe_columns`,
:func:`price_columns`, :func:`price_serial_columns`), a single launch
being one row.  Two generations of scalar arithmetic are kept here to
pin it to the same floats, bit for bit:

* the staged scalar evaluation (:func:`trip_factors`,
  :func:`scalar_evaluate`, :func:`scalar_describe`,
  :func:`scalar_price_kernel`, :func:`scalar_price_serial`): one launch
  at a time, in Python floats, over the same symbolic stage;
* the one-pass scans: before pricing was staged,
  :func:`summarize_accesses` and :func:`body_work` each walked a body
  once per launch, multiplying trip counts into float weights as they
  went.

Both read loop bounds through :func:`_const_value`, the scalar
evaluator the columns' ``_column_value`` reproduces, and take a
launch's thread count from :func:`scalar_total_threads`.

:func:`fresh_describe` is the scalar descriptor built from a stage of
its own, the oracle for the content-keyed stage table.
"""

import math

from repro.cpu.host import _bytes_for
from repro.errors import LaunchError
from repro.gpusim.coalescing import transactions_per_warp
from repro.gpusim.kernel import Kernel, KernelDescriptor, _symbolic_stage
from repro.gpusim.timing import (KernelTiming, TimingConfig,
                                 _occupancy_terms, _warp_bytes)
from repro.ir.analysis.access import (DEFAULT_SEQ_TRIPS,
                                      SYMBOLIC_LARGE_STRIDE, AccessPattern,
                                      AccessSummary, RefClass,
                                      _weight_values, classify_ref)
from repro.ir.analysis.metrics import (BINOP_FLOP_COST, WorkEstimate,
                                       _expr_flops_clean)
from repro.ir.analysis.ranges import bindings_env, estimate_trips, loop_range
from repro.ir.expr import ArrayRef, BinOp, Cast, Const, UnOp, Var
from repro.ir.program import numpy_dtype
from repro.ir.stmt import Assign, Block, Critical, For, If, LocalDecl, While


def _const_value(expr, bindings):
    """Best-effort numeric evaluation of a bound expression; None where
    it reads an unbound scalar or does not evaluate."""
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Var):
        val = bindings.get(expr.name)
        return float(val) if val is not None else None
    if isinstance(expr, Cast):
        return _const_value(expr.operand, bindings)
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = _const_value(expr.operand, bindings)
        return -inner if inner is not None else None
    if isinstance(expr, BinOp):
        left = _const_value(expr.left, bindings)
        right = _const_value(expr.right, bindings)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right if right else None
            if expr.op == "//":
                return float(int(left // right)) if right else None
            if expr.op == "%":
                return float(left % right) if right else None
            if expr.op == "min":
                return min(left, right)
            if expr.op == "max":
                return max(left, right)
        except (ZeroDivisionError, OverflowError, ValueError):
            return None
    return None


def scalar_total_threads(kernel: Kernel, bindings) -> int:
    """The thread count of the one launch ``bindings``: the product of
    the grid loops' extents."""
    total = 1
    for loop in kernel.grid_loops():
        lo = _const_value(loop.lower, bindings)
        hi = _const_value(loop.upper, bindings)
        step = _const_value(loop.step, bindings) or 1.0
        if lo is None or hi is None:
            raise LaunchError(
                f"kernel {kernel.name!r}: cannot resolve extent of loop "
                f"{loop.var!r} from bindings {sorted(bindings)}")
        total *= max(0, math.ceil((hi - lo) / step))
    return total


def trip_factors(nest, bindings):
    """Each sequential loop's trip count in the one launch ``bindings``,
    and whether it is exact.

    Exact when the bounds evaluate to numbers under ``bindings``;
    otherwise the value-range estimate under the enclosing loops'
    ranges, or ``DEFAULT_SEQ_TRIPS`` when that is unbounded too.
    Thread-grid loops get ``None``.
    """
    trips = [None] * len(nest.loops)
    exact = [True] * len(nest.loops)
    envs = {}

    def env(i):
        """Value ranges inside loop ``i`` (-1: the bindings alone)."""
        got = envs.get(i)
        if got is None:
            if i < 0:
                got = bindings_env(bindings)
            else:
                outer = env(nest.parents[i])
                got = dict(outer)
                got[nest.loops[i].var] = loop_range(nest.loops[i], outer)
            envs[i] = got
        return got

    for i, loop in enumerate(nest.loops):
        if not nest.sequential[i]:
            continue
        lo = _const_value(loop.lower, bindings)
        hi = _const_value(loop.upper, bindings)
        step = _const_value(loop.step, bindings) or 1.0
        if lo is not None and hi is not None and step:
            trips[i] = max(0.0, math.ceil((hi - lo) / step))
        else:
            est = estimate_trips(loop.lower, loop.upper, loop.step, env(i))
            trips[i] = est if est is not None else DEFAULT_SEQ_TRIPS
            exact[i] = False
    return trips, exact


def scalar_work(terms, trips, exact):
    """:meth:`WorkTerms.evaluate` of one launch, in Python floats."""
    w = _weight_values(terms.weights, trips)
    flops = 0.0
    for coef, loop, wi, tail in terms.flops:
        term = (trips[loop] if loop >= 0 else coef) * w[wi]
        flops += term if tail is None else term * tail
    divergence = 0.0
    for amount, loop in terms.divergence:
        if loop < 0 or not exact[loop]:
            divergence = min(1.0, divergence + amount)
    return WorkEstimate(flops, divergence, terms.branches)


def scalar_evaluate(stage, bindings):
    """:meth:`BodyTerms.evaluate` of the one launch ``bindings``."""
    trips, exact = trip_factors(stage.access.nest, bindings)
    return scalar_work(stage.work, trips, exact), stage.access.evaluate(trips)


def scalar_descriptor(kernel: Kernel, stage, bindings) -> KernelDescriptor:
    """The numeric stage of one launch: ``stage`` under ``bindings``."""
    work, access = scalar_evaluate(stage, bindings)
    return KernelDescriptor(
        name=kernel.name,
        total_threads=max(1, scalar_total_threads(kernel, bindings)),
        block_threads=kernel.block_threads,
        flops_per_thread=work.flops,
        divergence=work.divergence,
        access=access,
        smem_per_block=sum(t.smem_bytes_per_block for t in kernel.tiling),
        regs_per_thread=kernel.regs_per_thread,
        dtype=kernel.dtype,
        placements=kernel.placements,
        tiling=kernel.tiling,
    )


def scalar_describe(kernel: Kernel, bindings, array_extents
                    ) -> KernelDescriptor:
    """:meth:`Kernel.describe` one launch at a time: the shared
    symbolic stage, evaluated in Python floats."""
    return scalar_descriptor(kernel, kernel.stage(array_extents), bindings)


def _scalar_l2_hit_rate(desc, spec, elem, warps):
    """The descriptor-level L2 hit estimate of one launch."""
    per_array_total, per_array_once = {}, {}
    for ref, count in desc.access.refs:
        txns = transactions_per_warp(ref, elem, spec)
        traversal = txns * spec.transaction_bytes * warps
        per_array_total[ref.array] = (per_array_total.get(ref.array, 0.0)
                                      + traversal * count)
        per_array_once[ref.array] = max(
            per_array_once.get(ref.array, 0.0), traversal)
    # left to right, as ``price_columns`` adds its columns (the builtin
    # ``sum`` of floats compensates from CPython 3.12 on)
    total = 0.0
    for tot in per_array_total.values():
        total += tot
    if total <= 0:
        return 0.0
    hit_bytes = 0.0
    for array, tot in per_array_total.items():
        once = min(per_array_once[array], tot)
        if once <= spec.l2_bytes:
            hit_bytes += tot - once
    return min(1.0, max(0.0, hit_bytes / total))


def scalar_price_kernel(desc, spec, config=None) -> KernelTiming:
    """:func:`price_kernel` of one launch, in Python floats."""
    config = config or TimingConfig()
    occupancy, bw, peak = _occupancy_terms(desc, desc.grid_blocks, spec,
                                           config)
    warps = max(1, -(-desc.total_threads // spec.warp_size))
    elem = numpy_dtype(desc.dtype).itemsize

    dram_bytes = 0.0
    for (_, count), bytes_per_warp in zip(
            desc.access.refs, _warp_bytes(desc, spec, config, elem)):
        dram_bytes += bytes_per_warp * count * warps

    if config.model_divergence:
        bw *= max(0.3, 1.0 - 0.4 * desc.divergence)
    l2_hit = 0.0
    if config.model_cache_hierarchy:
        l2_hit = _scalar_l2_hit_rate(desc, spec, elem, warps)
        if l2_hit > 0.0 and spec.l2_bandwidth_ratio > 0:
            bw /= (1.0 - l2_hit) + l2_hit / spec.l2_bandwidth_ratio
    t_memory = dram_bytes / bw if bw > 0 else float("inf")

    flops = desc.flops_per_thread * desc.total_threads
    if config.model_divergence:
        peak *= max(0.1, 1.0 - 0.8 * desc.divergence)
    t_compute = flops / peak if peak > 0 else float("inf")

    launch = spec.kernel_launch_us * 1e-6
    total = launch + max(t_compute, t_memory)
    return KernelTiming(
        name=desc.name, time_s=total, compute_s=t_compute,
        memory_s=t_memory, launch_s=launch, occupancy=occupancy,
        dram_bytes=dram_bytes, flops=flops,
        bound="memory" if t_memory >= t_compute else "compute",
        l2_hit_rate=l2_hit)


def scalar_price_serial(stage, iterations, bindings, dtype, spec) -> float:
    """:func:`price_serial` of one binding, in Python floats."""
    work, summary = scalar_evaluate(stage, bindings)
    elem = numpy_dtype(dtype).itemsize
    t_flops = work.flops / spec.flops_per_s
    t_bytes = _bytes_for(summary, elem, spec) / spec.mem_bandwidth
    per_pass = max(t_flops, t_bytes) + 0.25 * min(t_flops, t_bytes)
    return per_pass * iterations


def _trips(stmt, bindings, range_env):
    """(trip count, exact?) of a sequential loop, as the scans did it."""
    lo = _const_value(stmt.lower, bindings)
    hi = _const_value(stmt.upper, bindings)
    step = _const_value(stmt.step, bindings) or 1.0
    if lo is not None and hi is not None and step:
        return max(0.0, math.ceil((hi - lo) / step)), True
    est = estimate_trips(stmt.lower, stmt.upper, stmt.step, range_env)
    return (est if est is not None else DEFAULT_SEQ_TRIPS), False


def _enter(stmt, range_env):
    saved = range_env.get(stmt.var)
    range_env[stmt.var] = loop_range(stmt, range_env)
    return saved


def _leave(stmt, range_env, saved):
    if saved is None:
        range_env.pop(stmt.var, None)
    else:
        range_env[stmt.var] = saved


def legacy_summarize_accesses(body, thread_vars, array_extents, bindings,
                              indirect_carriers=(), monotone_carriers=(),
                              classify_against="thread", local_patterns=None,
                              pattern_overrides=None):
    bindings = dict(bindings or {})
    local_patterns = dict(local_patterns or {})
    pattern_overrides = dict(pattern_overrides or {})
    summary = AccessSummary()
    local_arrays, irregular_vars = set(), set()
    tset = set(thread_vars)
    loop_stack = []
    range_env = bindings_env(bindings)

    def classify(node, is_store):
        if node.name in local_arrays:
            pattern = local_patterns.get(node.name)
            if pattern is None:
                return None
            stride = (SYMBOLIC_LARGE_STRIDE
                      if pattern is AccessPattern.STRIDED else 1)
            return RefClass(node.name, pattern, stride=stride,
                            is_store=is_store)
        override = pattern_overrides.get(node.name)
        if override is not None:
            stride = SYMBOLIC_LARGE_STRIDE if override is AccessPattern.STRIDED \
                else (1 if override is AccessPattern.COALESCED else 0)
            return RefClass(node.name, override, stride=stride,
                            is_store=is_store)
        index_vars = set()
        for index in node.indices:
            index_vars |= index.free_vars()
        if index_vars & irregular_vars:
            return RefClass(node.name, AccessPattern.INDIRECT, stride=0,
                            is_store=is_store)
        if classify_against == "innermost":
            against = [v for v in reversed(loop_stack) if v in index_vars][:1]
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

    def record(expr, weight, store_target):
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                cls = classify(node, store_target is not None
                               and node is store_target)
                if cls is not None:
                    summary.refs.append((cls, weight))

    def scan(stmt, weight):
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
                cls = classify(stmt.target, True)
                if cls is not None:
                    summary.refs.append((cls, weight))
                    if stmt.op is not None:
                        summary.refs.append((RefClass(
                            cls.array, cls.pattern, cls.stride,
                            is_store=False), weight))
                for index in stmt.target.indices:
                    record(index, weight, None)
        elif isinstance(stmt, For):
            loop_stack.append(stmt.var)
            saved = _enter(stmt, range_env)
            if stmt.var in thread_vars:
                scan(stmt.body, weight)
            else:
                trips, _ = _trips(stmt, bindings, range_env)
                bound_vars = stmt.lower.free_vars() | stmt.upper.free_vars()
                was_irregular = stmt.var in irregular_vars
                if bound_vars & (tset | irregular_vars):
                    irregular_vars.add(stmt.var)
                record(stmt.lower, weight, None)
                record(stmt.upper, weight, None)
                scan(stmt.body, weight * trips)
                if not was_irregular:
                    irregular_vars.discard(stmt.var)
            _leave(stmt, range_env, saved)
            loop_stack.pop()
        elif isinstance(stmt, While):
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

    scan(body, 1.0)
    return summary


def legacy_body_work(body, thread_vars, bindings):
    bindings = dict(bindings or {})
    est = WorkEstimate()
    range_env = bindings_env(bindings)

    def diverge(amount):
        est.divergence = min(1.0, est.divergence + amount)

    def scan(stmt, weight, divergent):
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
            est.flops += flops * weight
            if divergent:
                diverge(0.05)
        elif isinstance(stmt, LocalDecl):
            if stmt.init is not None:
                est.flops += _expr_flops_clean(stmt.init) * weight
        elif isinstance(stmt, For):
            est.flops += (_expr_flops_clean(stmt.lower)
                          + _expr_flops_clean(stmt.upper)) * weight
            saved = _enter(stmt, range_env)
            if stmt.var in thread_vars:
                scan(stmt.body, weight, divergent)
            else:
                trips, exact = _trips(stmt, bindings, range_env)
                if not exact:
                    diverge(0.25)
                est.flops += trips * weight
                scan(stmt.body, weight * trips, divergent)
            _leave(stmt, range_env, saved)
        elif isinstance(stmt, While):
            diverge(0.3)
            est.flops += (_expr_flops_clean(stmt.cond) * weight
                          * DEFAULT_SEQ_TRIPS)
            scan(stmt.body, weight * DEFAULT_SEQ_TRIPS, True)
        elif isinstance(stmt, If):
            est.branches += 1
            est.flops += _expr_flops_clean(stmt.cond) * weight
            dep = bool(stmt.cond.free_vars() & set(thread_vars)
                       or stmt.cond.array_names())
            if dep:
                diverge(0.15)
            scan(stmt.then_body, weight * 0.5, divergent or dep)
            if stmt.else_body is not None:
                scan(stmt.else_body, weight * 0.5, divergent or dep)
        elif isinstance(stmt, Critical):
            diverge(0.5)
            scan(stmt.body, weight, True)
        else:
            for expr in stmt.exprs():
                est.flops += _expr_flops_clean(expr) * weight

    scan(body, 1.0, False)
    return est


def fresh_describe(kernel: Kernel, bindings, array_extents
                   ) -> KernelDescriptor:
    """:func:`scalar_describe` computed afresh: a symbolic stage of its
    own, shared with no other kernel through the stage table."""
    return scalar_descriptor(kernel, _symbolic_stage(kernel, array_extents),
                             bindings)


def legacy_describe(kernel: Kernel, bindings, array_extents
                    ) -> KernelDescriptor:
    """A launch descriptor from the one-pass scans."""
    work = legacy_body_work(kernel.body, kernel.thread_vars, bindings)
    access = legacy_summarize_accesses(
        kernel.body, kernel.thread_vars, array_extents, bindings,
        indirect_carriers=kernel.indirect_carriers,
        monotone_carriers=kernel.monotone_carriers,
        local_patterns={name: (AccessPattern.STRIDED if orient == "row"
                               else AccessPattern.COALESCED)
                        for name, orient in kernel.private_orientations.items()
                        if orient in ("row", "column")},
        pattern_overrides=kernel.pattern_overrides)
    return KernelDescriptor(
        name=kernel.name,
        total_threads=max(1, scalar_total_threads(kernel, bindings)),
        block_threads=kernel.block_threads,
        flops_per_thread=work.flops, divergence=work.divergence,
        access=access,
        smem_per_block=sum(t.smem_bytes_per_block for t in kernel.tiling),
        regs_per_thread=kernel.regs_per_thread, dtype=kernel.dtype,
        placements=kernel.placements, tiling=kernel.tiling)


def legacy_price_region_serial(region, array_extents, bindings, dtype, spec):
    """The host model's price of one region from the one-pass scans."""
    work = legacy_body_work(region.body, (), bindings)
    summary = legacy_summarize_accesses(region.body, (), array_extents,
                                        bindings,
                                        classify_against="innermost")
    elem = numpy_dtype(dtype).itemsize
    t_flops = work.flops / spec.flops_per_s
    t_bytes = _bytes_for(summary, elem, spec) / spec.mem_bandwidth
    per_pass = max(t_flops, t_bytes) + 0.25 * min(t_flops, t_bytes)
    return per_pass * float(region.invocations)
