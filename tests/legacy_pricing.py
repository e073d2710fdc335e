"""The one-pass pricing scans, kept as the oracle for the staged ones.

Before pricing was staged, :func:`summarize_accesses` and
:func:`body_work` each walked a body once per launch, multiplying trip
counts into float weights as they went.  The staged analyses split that
into a symbolic walk and a numeric evaluation; these copies of the
one-pass walks pin the split to the same floats, bit for bit.
:func:`fresh_describe` is the staged descriptor built from a stage of
its own, the oracle for the content-keyed stage table.
"""

import math

from repro.cpu.host import _bytes_for
from repro.gpusim.kernel import Kernel, KernelDescriptor, _symbolic_stage
from repro.ir.analysis.access import (DEFAULT_SEQ_TRIPS,
                                      SYMBOLIC_LARGE_STRIDE, AccessPattern,
                                      AccessSummary, RefClass, _const_value,
                                      classify_ref)
from repro.ir.analysis.metrics import (BINOP_FLOP_COST, WorkEstimate,
                                       _expr_flops_clean)
from repro.ir.analysis.ranges import bindings_env, estimate_trips, loop_range
from repro.ir.expr import ArrayRef
from repro.ir.program import numpy_dtype
from repro.ir.stmt import Assign, Block, Critical, For, If, LocalDecl, While


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
    """:meth:`Kernel.describe` computed afresh: a symbolic stage of its
    own, shared with no other kernel through the stage table."""
    return kernel._descriptor(_symbolic_stage(kernel, array_extents),
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
        total_threads=max(1, kernel.total_threads(bindings)),
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
