"""The shared pass library the model pipelines are assembled from.

Each model module (:mod:`repro.models.pgi` etc.) builds an ordered pass
list out of these building blocks, parameterized by its
:class:`~repro.models.features.ModelCapabilities` descriptor and by the
model-specific diagnostic wording the paper's Section III limitation
lists dictate.  The passes mirror the pre-pipeline ``check_region`` /
``lower_region`` logic check-for-check: legality passes run in the same
order the monolithic methods checked, so the *first* rejecting pass —
and with it the Table II diagnostic — is unchanged by construction.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import TransformError
from repro.gpusim.kernel import DEFAULT_BLOCK, Kernel
from repro.ir.analysis.features import RegionFeatures, scan_region
from repro.ir.analysis.regionmemo import (block_digest, memoized,
                                          program_digests)
from repro.ir.program import ParallelRegion, Program
from repro.ir.stmt import Block, For, LocalDecl
from repro.ir.transforms.collapse import promote_inner_parallel
from repro.ir.transforms.inline import inline_calls
from repro.ir.transforms.interchange import parallel_loop_swap
from repro.pipeline.core import PassContext, ProgramPass, RegionPass


# ---------------------------------------------------------------------------
# Region structure helpers (shared with models.base, which re-exports them)
# ---------------------------------------------------------------------------

def grid_nest(loop: For, max_dims: int = 3) -> list[str]:
    """The contiguous outermost parallel nest of ``loop`` (grid mapping)."""
    nest = [loop.var]
    node = loop
    while len(nest) < max_dims:
        inner = [s for s in node.body.stmts if isinstance(s, For) and s.parallel]
        others = [s for s in node.body.stmts
                  if not isinstance(s, (For, LocalDecl))]
        seq = [s for s in node.body.stmts
               if isinstance(s, For) and not s.parallel]
        if len(inner) == 1 and not others and not seq:
            nest.append(inner[0].var)
            node = inner[0]
        else:
            break
    return nest


def region_arrays(region: ParallelRegion,
                  program: Program) -> tuple[frozenset[str], frozenset[str]]:
    """(reads, writes) of program-level arrays for one region, derived
    from the body plus called functions' bodies; memoized by everything
    it reads: the body, the program's functions and its array names."""
    digests = program_digests(program)
    key = (digests.functions, digests.arrays, block_digest(region.body))
    return memoized("arrays", key,
                    lambda: _region_arrays(region.body, program))


def _region_arrays(body: Block, program: Program,
                   ) -> tuple[frozenset[str], frozenset[str]]:
    from repro.ir.expr import Var
    from repro.ir.stmt import CallStmt
    from repro.ir.visitors import read_arrays, written_arrays

    reads = read_arrays(body)
    writes = written_arrays(body)
    for stmt in body.walk():
        if isinstance(stmt, CallStmt) and stmt.func in program.functions:
            func = program.functions[stmt.func]
            # map param names to argument arrays
            param_map = {}
            for param, arg in zip(func.params, stmt.args):
                if param.is_array and isinstance(arg, Var):
                    param_map[param.name] = arg.name
            for name in read_arrays(func.body):
                reads.add(param_map.get(name, name))
            for name in written_arrays(func.body):
                writes.add(param_map.get(name, name))
    declared = set(program.arrays)
    return frozenset(reads & declared), frozenset(writes & declared)


# ---------------------------------------------------------------------------
# intake / scan
# ---------------------------------------------------------------------------

class Intake(RegionPass):
    """Resolve the port's options, the work-sharing loops, and the
    read/write summary; seed the decision state from the port.

    The port's per-region options are normalized into the model-neutral
    directive IR (:mod:`repro.directives`) and lowered back — every
    pipeline consumes the one normalized form, and the round trip is
    exact, so the seven compilers behave byte-identically to consuming
    the raw options (the committed Figure-1 baseline pins this).
    """

    name = "intake"
    stage = "intake"
    snapshot_always = True  # the pipeline's input IR

    def run(self, ctx: PassContext) -> None:
        from repro.directives import lower_options, normalize_options

        directive = normalize_options(ctx.region.name,
                                      ctx.port.options_for(ctx.region.name))
        ctx.opts = lower_options(directive)
        ctx.loops = ctx.region.worksharing_loops()
        ctx.reads, ctx.writes = region_arrays(ctx.region, ctx.program)
        ctx.pattern_overrides = dict(ctx.opts.pattern_overrides)
        ctx.private_orientations = dict(ctx.opts.private_orientations)
        ctx.tiling = list(ctx.opts.tiling)


class FeatureScan(RegionPass):
    """Run the structural feature scan every legality pass consumes."""

    name = "feature-scan"
    stage = "scan"

    def run(self, ctx: PassContext) -> None:
        ctx.feats = region_features(ctx.region, ctx.program)


def region_features(region: ParallelRegion,
                    program: Program) -> RegionFeatures:
    """:func:`scan_region`, memoized by everything it reads: the body,
    the region's name and privates, and the program's functions."""
    key = (program_digests(program).functions, region.name, region.private,
           block_digest(region.body))
    return memoized("features", key, lambda: scan_region(region, program))


# ---------------------------------------------------------------------------
# legality checks
# ---------------------------------------------------------------------------

class Check(RegionPass):
    """A single legality check: reject with ``feature`` when ``fn`` says
    the region violates this model limit."""

    stage = "legality"

    def __init__(self, name: str, feature: str,
                 fn: Callable[[PassContext], Optional[str]]) -> None:
        self.name = name
        self.feature = feature
        self._fn = fn

    def run(self, ctx: PassContext) -> None:
        detail = self._fn(ctx)
        if detail is not None:
            ctx.reject(self.feature, detail)


def check_construct(caps) -> Check:
    """Validate the region's compute construct against the model's
    declared construct list (:class:`ModelCapabilities.constructs`) —
    the one source of truth the compilers, the translator, and lint
    read.  Models with an empty list ignore the construct field."""
    allowed = tuple(caps.constructs)

    def fn(ctx: PassContext) -> Optional[str]:
        if allowed and ctx.opts.construct not in allowed:
            spelled = " or ".join(repr(c) for c in allowed)
            return (f"region {ctx.region.name!r}: construct must be "
                    f"{spelled}, got {ctx.opts.construct!r}")
        return None
    return Check("check-construct", "unknown-construct", fn)


def check_no_transform_directives(model: str) -> Check:
    """Models whose Table I 'loop transformations' cell is not explicit
    reject directive-requested transforms (PGI/OpenACC)."""
    def fn(ctx: PassContext) -> Optional[str]:
        if ctx.opts.request_loop_swap or ctx.opts.request_collapse:
            return (f"{model} has no directives for loop transformations; "
                    "restructure the input code instead")
        return None
    return Check("check-transform-directives",
                 "no-loop-transformation-directives", fn)


def check_worksharing(feature: str = "no-worksharing-loop",
                      template: str = "region {name!r} contains no "
                                      "parallel loop") -> Check:
    def fn(ctx: PassContext) -> Optional[str]:
        if ctx.feats.worksharing_loops == 0:
            return template.format(name=ctx.region.name)
        return None
    return Check("check-worksharing", feature, fn)


def check_loops_only(feature: str, template: str) -> Check:
    """Reject statements outside work-sharing loops (compute-region /
    codelet-purity limits)."""
    def fn(ctx: PassContext) -> Optional[str]:
        if ctx.feats.stmts_outside_worksharing:
            return template.format(name=ctx.region.name)
        return None
    return Check("check-loops-only", feature, fn)


def check_no_critical(feature: str = "critical-section",
                      template: str = "region {name!r} contains an OpenMP "
                                      "critical section, which the model "
                                      "cannot express") -> Check:
    def fn(ctx: PassContext) -> Optional[str]:
        if ctx.feats.has_critical:
            return template.format(name=ctx.region.name)
        return None
    return Check("check-critical", feature, fn)


def check_no_pointer_arith(feature: str = "pointer-arithmetic",
                           template: str = "pointer arithmetic is not "
                                           "allowed in offloaded loops",
                           ) -> Check:
    def fn(ctx: PassContext) -> Optional[str]:
        if ctx.feats.has_pointer_arith:
            return template.format(name=ctx.region.name)
        return None
    return Check("check-pointer-arith", feature, fn)


def check_calls_inlinable(template: str) -> Check:
    def fn(ctx: PassContext) -> Optional[str]:
        if ctx.feats.has_call and not ctx.feats.calls_all_inlinable:
            return template.format(name=ctx.region.name)
        return None
    return Check("check-calls-inlinable", "function-call", fn)


def check_nest_depth(limit: int, template: str,
                     feature: str = "nest-depth-limit") -> Check:
    def fn(ctx: PassContext) -> Optional[str]:
        if ctx.feats.max_nest_depth > limit:
            return template.format(depth=ctx.feats.max_nest_depth,
                                   limit=limit)
        return None
    return Check("check-nest-depth", feature, fn)


def check_contiguity(feature: str, template: str,
                     name: str = "check-contiguity") -> Check:
    """Reject references to non-contiguous arrays (data-clause /
    one-dense-layout requirements)."""
    def fn(ctx: PassContext) -> Optional[str]:
        for arr in sorted(ctx.feats.arrays_referenced):
            decl = ctx.program.arrays.get(arr)
            if decl is not None and not decl.contiguous:
                return template.format(array=arr)
        return None
    return Check(name, feature, fn)


class ReductionLegality(RegionPass):
    """The PGI-family reduction acceptance ladder, parameterized by the
    model's reduction-clause capabilities (Table I via
    :class:`~repro.models.features.ModelCapabilities`)."""

    name = "check-reductions"
    stage = "legality"

    def __init__(self, model: str, scalar_clause: bool) -> None:
        self.model = model
        self.scalar_clause = scalar_clause

    def run(self, ctx: PassContext) -> None:
        feats = ctx.feats
        if feats.explicit_array_reduction_clauses:
            ctx.reject("array-reduction-clause",
                       "reduction clauses accept scalar variables only")
        if feats.explicit_reduction_clauses and not self.scalar_clause:
            ctx.reject("reduction-clause",
                       f"{self.model} has no reduction clause; reductions "
                       "must be implicitly detectable")
        if feats.array_reductions:
            ctx.reject("array-reduction",
                       "only scalar reductions can be handled; decompose "
                       "the array reduction manually")
        clause_covered = (feats.explicit_reduction_clauses > 0
                          and self.scalar_clause)
        if feats.complex_reductions and not clause_covered:
            ctx.reject("complex-reduction",
                       "the implicit reduction detector only recognizes "
                       "simple scalar patterns")


# ---------------------------------------------------------------------------
# directive-requested and automatic loop transforms
# ---------------------------------------------------------------------------

class LoopTransform(RegionPass):
    """Base of transform passes: rewrite each work-sharing nest in turn."""

    stage = "transform"

    def run(self, ctx: PassContext) -> None:
        ctx.loops = [self.rewrite(ctx, loop) for loop in ctx.loops]

    def rewrite(self, ctx: PassContext, loop: For) -> For:
        raise NotImplementedError


class InlineCalls(LoopTransform):
    """Inline callee bodies into each nest (the inline-only call models
    apply this automatically during lowering)."""

    name = "inline-calls"

    def __init__(self, note_prefix: str = "inlined") -> None:
        self.note_prefix = note_prefix

    def rewrite(self, ctx: PassContext, loop: For) -> For:
        if not ctx.feats.has_call:
            return loop
        inlined_block, names = inline_calls(Block([loop]), ctx.program)
        inner = [s for s in inlined_block.stmts if isinstance(s, For)]
        if len(inner) == 1:
            ctx.note(f"{self.note_prefix}: {', '.join(names)}")
            return inner[0]
        return loop


class DirectiveLoopSwap(LoopTransform):
    """HMPP-style directive-requested loop permutation; an impossible
    permutation is a port error (rejected, not silently ignored)."""

    name = "directive-loop-swap"

    def rewrite(self, ctx: PassContext, loop: For) -> For:
        if not ctx.opts.request_loop_swap:
            return loop
        try:
            swapped = parallel_loop_swap(loop)
        except TransformError as exc:
            ctx.reject("loop-permute", f"cannot permute: {exc}", cause=exc)
        ctx.note("directive-driven loop permutation (hmppcg permute)")
        return swapped


class DirectiveCollapse(LoopTransform):
    """HMPP-style directive-requested gridification."""

    name = "directive-collapse"

    def rewrite(self, ctx: PassContext, loop: For) -> For:
        if not ctx.opts.request_collapse:
            return loop
        try:
            promoted = promote_inner_parallel(loop)
        except TransformError as exc:
            ctx.reject("loop-collapse", f"cannot gridify: {exc}", cause=exc)
        ctx.note("directive-driven loop gridification (hmppcg gridify)")
        return promoted


# ---------------------------------------------------------------------------
# memory placement
# ---------------------------------------------------------------------------

class DefaultPrivateOrientation(RegionPass):
    """Give every private array the model's default expansion orientation
    unless the port (or an earlier pass) placed it already."""

    name = "private-orientation"
    stage = "placement"

    def __init__(self, orientation: str) -> None:
        self.orientation = orientation

    def pick(self, ctx: PassContext) -> str:
        return self.orientation

    def run(self, ctx: PassContext) -> None:
        orientation = self.pick(ctx)
        for loop in ctx.loops:
            for stmt in loop.walk():
                if isinstance(stmt, LocalDecl) and stmt.shape:
                    ctx.private_orientations.setdefault(stmt.name,
                                                        orientation)


# ---------------------------------------------------------------------------
# codegen
# ---------------------------------------------------------------------------

class BuildKernels(RegionPass):
    """One kernel per (transformed) work-sharing nest, carrying the
    decisions every earlier stage accumulated in the context."""

    name = "codegen"
    stage = "codegen"

    def run(self, ctx: PassContext) -> None:
        if not ctx.loops:
            ctx.reject("no-worksharing-loop",
                       f"region {ctx.region.name!r} has no work-sharing "
                       "loop")
        opts = ctx.opts
        arrays = sorted(ctx.reads | ctx.writes)
        scalars = sorted(ctx.program.scalars)
        monotone = tuple(sorted(
            name for name, decl in ctx.program.arrays.items()
            if decl.monotone_content))
        for n, body in enumerate(ctx.loops):
            nest = grid_nest(body)
            ctx.kernels.append(Kernel(
                name=f"{ctx.program.name}_{ctx.region.name}_k{n}",
                body=body, thread_vars=nest, arrays=arrays, scalars=scalars,
                block_threads=opts.block_threads or DEFAULT_BLOCK,
                placements=dict(opts.placements),
                tiling=tuple(ctx.tiling),
                regs_per_thread=opts.regs_per_thread,
                indirect_carriers=opts.indirect_carriers,
                monotone_carriers=monotone,
                pattern_overrides=dict(ctx.pattern_overrides),
                private_orientations=dict(ctx.private_orientations)))


class Note(RegionPass):
    """Append a fixed provenance note to the applied list, optionally
    gated by a predicate over the context."""

    def __init__(self, name: str, stage: str, text: str,
                 when: Optional[Callable[[PassContext], bool]] = None,
                 ) -> None:
        self.name = name
        self.stage = stage
        self.text = text
        self.when = when

    def run(self, ctx: PassContext) -> None:
        if self.when is None or self.when(ctx):
            ctx.note(self.text)


class OrientationNote(RegionPass):
    """Note the private-expansion technique when any built kernel uses
    the given orientation (post-codegen provenance)."""

    name = "orientation-note"
    stage = "codegen"

    def __init__(self, orientation: str, text: str,
                 when: Optional[Callable[[PassContext], bool]] = None,
                 ) -> None:
        self.orientation = orientation
        self.text = text
        self.when = when

    def run(self, ctx: PassContext) -> None:
        if self.when is not None and not self.when(ctx):
            return
        if any(k.private_orientations.get(n) == self.orientation
               for k in ctx.kernels for n in k.private_orientations):
            ctx.note(self.text)


# ---------------------------------------------------------------------------
# transfer planning (program passes)
# ---------------------------------------------------------------------------

class AutoDataPlan(ProgramPass):
    """Synthesize a whole-program data scope from data-flow facts — the
    interprocedural (OpenMPC) / merged-region (R-Stream) transfer
    optimization.  Explicit port data regions always win."""

    name = "auto-data-plan"
    stage = "transfer"

    def __init__(self, scope_name: str,
                 require_full_coverage: bool = False) -> None:
        self.scope_name = scope_name
        self.require_full_coverage = require_full_coverage

    def run(self, compiled) -> None:
        from repro.models.base import auto_data_region

        if compiled.port.data_regions:
            return  # the port's explicit clauses win
        if self.require_full_coverage and \
                not all(res.translated for res in compiled.results.values()):
            return
        auto = auto_data_region(compiled, self.scope_name)
        if auto is not None:
            compiled.data_regions = (auto,)


class TransferElision(ProgramPass):
    """Plan provably redundant transfers away (opt-in, certified).

    Runs last in the transfer stage of every model pipeline — after
    :class:`AutoDataPlan`, so it sees the *effective* transfer
    discipline.  A no-op unless the port sets
    :attr:`~repro.models.base.PortSpec.elide_transfers`; when it does,
    the whole-program coherence analysis (:mod:`repro.dataflow`) selects
    the per-invocation copyins that re-ship device-valid data and the
    copyouts nothing consumes before scope exit, and records them as a
    :class:`~repro.models.base.TransferElisionPlan` on the compiled
    program.  The runtime applies the plan under dynamic validity
    guards, so kernels, region results, and data regions are untouched —
    which is what lets the tv layer certify the variant (PROVED counts
    unchanged, 0 REFUTED) and the validation harness check it
    numerically.
    """

    name = "elide-transfers"
    stage = "transfer"

    def run(self, compiled) -> None:
        if not compiled.port.elide_transfers:
            return
        from repro.dataflow.report import plan_elisions

        compiled.elisions = plan_elisions(compiled)
        if compiled.elisions.empty:
            compiled.elisions = None
