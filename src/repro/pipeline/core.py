"""Pass, PassContext, PassManager: the pipeline machinery.

A *region pass* transforms one :class:`PassContext` — the mutable state
of one parallel region's compilation (the work-sharing loop nests plus
the accumulated lowering decisions).  A *program pass* (the ``transfer``
stage) runs once per program over the finished
:class:`~repro.models.base.CompiledProgram` — transfer planning needs
every region's read/write summary at once.

Rejection is exception-driven, exactly as in the pre-pipeline
compilers: a pass calls :meth:`PassContext.reject`, which raises
:class:`~repro.errors.UnsupportedFeatureError`; the manager stops the
region's pipeline there and reports which pass rejected it, so the
Table II coverage diagnostics carry a pass attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, TYPE_CHECKING

from repro.errors import CompileError, UnsupportedFeatureError
from repro.gpusim.kernel import Kernel
from repro.ir.program import ParallelRegion, Program
from repro.ir.stmt import Block, For
from repro.ir.transforms.tiling import TilingDecision
from repro.obs import tracer as obs
from repro.pipeline.render import render_state

if TYPE_CHECKING:  # avoid the import cycle with repro.models.base
    from repro.ir.analysis.features import RegionFeatures
    from repro.models.base import CompiledProgram, PortSpec, RegionOptions

#: the canonical stage order every pipeline must respect
STAGES: tuple[str, ...] = (
    "intake", "scan", "legality", "transform", "placement", "tiling",
    "codegen", "transfer",
)


def stage_index(stage: str) -> int:
    try:
        return STAGES.index(stage)
    except ValueError:
        raise CompileError(f"unknown pipeline stage {stage!r}; "
                           f"stages: {STAGES}") from None


class RegionPass:
    """Base class of per-region passes.

    Subclasses set :attr:`name` and :attr:`stage` and implement
    :meth:`run`.  ``snapshot_always`` forces a state snapshot even when
    the pass changed nothing (the intake pass uses it to record the
    pipeline's input IR).
    """

    name: str = "abstract"
    stage: str = "intake"
    snapshot_always: bool = False

    def run(self, ctx: "PassContext") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.stage}:{self.name}>"


class ProgramPass:
    """Base class of whole-program passes (the ``transfer`` stage)."""

    name: str = "abstract"
    stage: str = "transfer"

    def run(self, compiled: "CompiledProgram") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.stage}:{self.name}>"


@dataclass
class PassRecord:
    """What one pass did to one region — the provenance trail.

    ``ir`` and ``decisions`` are kept only when the pass changed the
    region state (or for ``snapshot_always`` passes): ``ir`` is the live
    loop-nest IR for downstream analyses (the translation validator's
    divergence localization), ``decisions`` the
    :meth:`PassContext.decisions_key` after the pass.  ``state_text``,
    the rendered IR + lowering decisions the ``passes`` CLI diffs, is
    rendered from those two on first read (``None`` without a
    snapshot), so a compile nobody reports on renders nothing.
    """

    name: str
    stage: str
    changed: bool = False
    rejected: bool = False
    notes: tuple[str, ...] = ()
    ir: Optional[Block] = None
    decisions: tuple = ((), (), (), ())

    @cached_property
    def state_text(self) -> Optional[str]:
        if self.ir is None:
            return None
        return render_state(self.ir, self.decisions)


@dataclass
class PassContext:
    """Mutable state of one region's trip through the pipeline."""

    region: ParallelRegion
    program: Program
    port: "PortSpec"
    #: the region's options from the port (set by the intake pass)
    opts: Optional["RegionOptions"] = None
    #: structural fact sheet (set by the feature-scan pass)
    feats: Optional["RegionFeatures"] = None
    #: the work-sharing loop nests being lowered; transform passes
    #: rewrite entries in place (IR nodes are immutable — a rewrite
    #: replaces the list element)
    loops: list[For] = field(default_factory=list)
    #: program-level arrays the region reads / writes
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    #: human-readable record of transformations applied
    applied: list[str] = field(default_factory=list)
    # -- accumulated lowering decisions (codegen consumes these) --------
    pattern_overrides: dict = field(default_factory=dict)
    private_orientations: dict[str, str] = field(default_factory=dict)
    tiling: list[TilingDecision] = field(default_factory=list)
    #: the kernels the codegen stage built
    kernels: list[Kernel] = field(default_factory=list)

    # -- rejection -------------------------------------------------------
    def reject(self, feature: str, detail: str,
               cause: Optional[BaseException] = None) -> None:
        """Reject this region: raise the model-limit error every pass
        funnels through, tagged with the region name so the resulting
        :class:`~repro.models.base.Diagnostic` (and its ``COV-*`` lint
        rule ID) is built in exactly one place."""
        exc = UnsupportedFeatureError(feature, detail,
                                      region=self.region.name)
        if cause is not None:
            raise exc from cause
        raise exc

    def note(self, message: str) -> None:
        self.applied.append(message)

    # -- change tracking -------------------------------------------------
    def ir_key(self) -> tuple:
        """Identity key of the current loop nests (transforms rebuild
        nodes, so object identity detects rewrites)."""
        return tuple(id(loop) for loop in self.loops)

    def decisions_key(self) -> tuple:
        """Value key of the accumulated lowering decisions.  Kernels
        count: building them is the codegen stage's state change, so
        every translated region snapshots at least twice (after intake
        and after codegen) and the ``passes`` report always has a diff."""
        return (tuple(self.tiling),
                tuple(sorted(self.pattern_overrides.items())),
                tuple(sorted(self.private_orientations.items())),
                tuple((k.name, tuple(k.thread_vars), k.block_threads)
                      for k in self.kernels))

    def current_ir(self) -> Block:
        return Block(tuple(self.loops))


@dataclass
class RegionCompilation:
    """The pipeline's verdict on one region."""

    translated: bool
    kernels: list[Kernel] = field(default_factory=list)
    applied: list[str] = field(default_factory=list)
    records: list[PassRecord] = field(default_factory=list)
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    error: Optional[UnsupportedFeatureError] = None
    failed_pass: str = ""
    failed_stage: str = ""


class PassManager:
    """Runs an ordered pass list over a region (and program passes over
    the compiled program), enforcing the canonical stage order."""

    def __init__(self, model: str,
                 passes: Sequence[RegionPass | ProgramPass]) -> None:
        self.model = model
        self.region_passes: list[RegionPass] = []
        self.program_passes: list[ProgramPass] = []
        last = -1
        for p in passes:
            idx = stage_index(p.stage)
            if idx < last:
                raise CompileError(
                    f"{model}: pass {p.name!r} (stage {p.stage!r}) is out "
                    f"of order; stages must follow {STAGES}")
            last = idx
            if isinstance(p, ProgramPass):
                if p.stage != "transfer":
                    raise CompileError(
                        f"{model}: program pass {p.name!r} must be in the "
                        "'transfer' stage")
                self.program_passes.append(p)
            elif isinstance(p, RegionPass):
                if p.stage == "transfer":
                    raise CompileError(
                        f"{model}: region pass {p.name!r} cannot be in the "
                        "'transfer' stage")
                self.region_passes.append(p)
            else:
                raise CompileError(f"{model}: {p!r} is not a pass")
        if not any(p.stage == "codegen" for p in self.region_passes):
            raise CompileError(f"{model}: pipeline has no codegen stage")

    # -- introspection ---------------------------------------------------
    @property
    def passes(self) -> tuple:
        return tuple(self.region_passes) + tuple(self.program_passes)

    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def stage_list(self) -> tuple[tuple[str, str], ...]:
        """(stage, pass-name) pairs, in execution order."""
        return tuple((p.stage, p.name) for p in self.passes)

    # -- execution -------------------------------------------------------
    def run_region(self, region: ParallelRegion, program: Program,
                   port: "PortSpec") -> RegionCompilation:
        ctx = PassContext(region=region, program=program, port=port)
        records: list[PassRecord] = []
        ir_key, decisions = ctx.ir_key(), ctx.decisions_key()
        for p in self.region_passes:
            rec = PassRecord(name=p.name, stage=p.stage)
            notes_before = len(ctx.applied)
            try:
                with obs.span(f"pass.{p.name}", category="pipeline",
                              model=self.model, stage=p.stage,
                              region=region.name):
                    p.run(ctx)
            except UnsupportedFeatureError as exc:
                rec.rejected = True
                records.append(rec)
                return RegionCompilation(
                    translated=False, records=records,
                    reads=ctx.reads, writes=ctx.writes,
                    error=exc, failed_pass=p.name, failed_stage=p.stage)
            ir_before, dec_before = ir_key, decisions
            ir_key, decisions = ctx.ir_key(), ctx.decisions_key()
            rec.changed = ir_key != ir_before or decisions != dec_before
            rec.notes = tuple(ctx.applied[notes_before:])
            if rec.changed or p.snapshot_always:
                rec.ir = ctx.current_ir()
                rec.decisions = decisions
            records.append(rec)
        return RegionCompilation(
            translated=True, kernels=ctx.kernels, applied=ctx.applied,
            records=records, reads=ctx.reads, writes=ctx.writes)

    def run_program(self, compiled: "CompiledProgram") -> None:
        for p in self.program_passes:
            with obs.span(f"pass.{p.name}", category="pipeline",
                          model=self.model, stage=p.stage):
                p.run(compiled)
