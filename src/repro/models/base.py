"""Shared machinery for the directive-model compilers.

Each of the five evaluated models (plus the hand-written-CUDA baseline)
is a :class:`DirectiveCompiler` subclass.  Compilation consumes

* an input :class:`~repro.ir.program.Program` — possibly *restructured*
  by the port (the paper's "code structures of the input programs were
  also modified to meet the requirements and suggestions of each model"),
* a :class:`PortSpec` — the per-model annotations the programmer added:
  data regions, explicit clauses, loop-transformation directives, launch
  configuration hints, and the code-size accounting for Table II,

and produces a :class:`CompiledProgram`: per-region kernels (or an
:class:`UnsupportedFeature` diagnostic — the coverage misses of Table II),
plus a data-transfer plan.  :class:`ExecutableProgram` then drives a
:class:`~repro.gpusim.runtime.CudaRuntime` through the benchmark's
region schedule, executing translated regions on the simulated GPU and
failed regions on the host, accumulating the simulated wall time that
Figure 1's speedups are computed from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.cpu.host import KEENELAND_HOST, HostSpec, price_serial, serial_stage
from repro.cpu.openmp import run_region_host
from repro.errors import CompileError, UnsupportedFeatureError
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.kernel import DEFAULT_BLOCK, Kernel
from repro.gpusim.memory import MemorySpace
from repro.gpusim.runtime import CudaRuntime, _PricingPass
from repro.ir.analysis.metrics import BodyTerms
from repro.ir.program import ParallelRegion, Program
from repro.ir.stmt import Block, For, LocalDecl, Stmt
from repro.ir.transforms.tiling import TilingDecision
from repro.obs import tracer as obs
from repro.pipeline.core import PassManager, PassRecord, ProgramPass, RegionPass
from repro.pipeline.passes import TransferElision, grid_nest, region_arrays

Value = Union[int, float]


# ---------------------------------------------------------------------------
# Port specifications (what the programmer wrote for each model)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataRegionSpec:
    """A data-scope annotation enclosing several compute regions.

    In PGI Accelerator/OpenACC this is a ``data`` region; in HMPP, a
    codelet *group* with ``advancedload``/``delegatedstore``; in OpenMPC,
    the implicit whole-program/function boundary driven by environment
    variables.  Arrays in ``copyin`` move host→device once at entry,
    ``copyout`` device→host once at exit, ``create`` live device-only.
    """

    name: str
    regions: tuple[str, ...]
    copyin: tuple[str, ...] = ()
    copyout: tuple[str, ...] = ()
    create: tuple[str, ...] = ()


@dataclass(frozen=True)
class TransferElisionPlan:
    """Arrays the ``elide-transfers`` pass may keep off the PCIe bus.

    Produced by :func:`repro.dataflow.report.plan_elisions` from the
    whole-program coherence analysis; consumed by
    :class:`ExecutableProgram` as *dynamic guards*, so the plan is safe
    even where the static CFG mispredicts the concrete schedule:

    * ``skip_htod`` — a per-invocation host→device copy of these arrays
      is skipped whenever the device copy is already valid (tracked at
      runtime; a cold or invalidated copy still ships).
    * ``defer_dtoh`` — per-invocation device→host copies of these
      arrays are deferred; the pending copy flushes at data-scope exit
      and before any host-fallback touch.  Every deferred array must
      also be in ``skip_htod``, or a later copyin could re-ship the
      stale host copy over the only valid data.
    """

    skip_htod: tuple[str, ...] = ()
    defer_dtoh: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        missing = set(self.defer_dtoh) - set(self.skip_htod)
        if missing:
            raise CompileError(
                "defer_dtoh must be a subset of skip_htod (a deferred "
                "copyout with a live copyin would ship stale host data): "
                f"{sorted(missing)}")

    @property
    def empty(self) -> bool:
        return not self.skip_htod and not self.defer_dtoh


@dataclass(frozen=True)
class RegionOptions:
    """Per-region tuning/porting knobs a model port may carry."""

    block_threads: Optional[int] = None
    #: memory-space placements the port requests (HMPP/OpenMPC explicit;
    #: PGI/OpenACC can only get these from the compiler, see the models)
    placements: Mapping[str, MemorySpace] = field(default_factory=dict)
    #: shared-memory tilings (explicit in HMPP/OpenMPC/manual)
    tiling: tuple[TilingDecision, ...] = ()
    #: arrays whose contents are thread-dependent indices
    indirect_carriers: tuple[str, ...] = ()
    #: directive-requested loop transformations (only models whose Table I
    #: 'loop transformations' cell is *explicit* may honor these — HMPP
    #: and OpenMPC; requesting them of PGI/OpenACC is a port error)
    request_loop_swap: bool = False
    request_collapse: bool = False
    #: request automatic-transform suppression (ablation hook)
    disable_auto_transforms: bool = False
    #: registers per thread (manual CUDA versions tune this)
    regs_per_thread: int = 24
    #: access-pattern facts the port establishes by restructuring that the
    #: structural analysis cannot see (e.g. the CFD layout change making
    #: matrix accesses coalesced)
    pattern_overrides: Mapping[str, "AccessPattern"] = field(default_factory=dict)
    #: expansion orientation for private arrays ("row"/"column"/"register")
    private_orientations: Mapping[str, str] = field(default_factory=dict)
    #: OpenACC compute construct for this region: "kernels" (each loop
    #: nest becomes one kernel, the PGI compute-region behaviour) or
    #: "parallel" (the whole region is a single kernel, OpenMP-style —
    #: Section III-B).  Only OpenACC consults it.
    construct: str = "kernels"


@dataclass(frozen=True)
class PortSpec:
    """One benchmark's port to one model (Table II's raw material)."""

    model: str
    program: Program
    #: directive lines the programmer added
    directive_lines: int = 0
    #: input source lines restructured/added beyond directives
    restructured_lines: int = 0
    data_regions: tuple[DataRegionSpec, ...] = ()
    region_options: Mapping[str, RegionOptions] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    #: opt in to the certified transfer-elision pass: the pipeline's
    #: transfer stage plans skips/deferrals from the whole-program
    #: coherence analysis and the runtime honors them under dynamic
    #: validity guards.  Off by default — the shipped Figure-1 baseline
    #: must stay byte-identical.
    elide_transfers: bool = False

    def options_for(self, region: str) -> RegionOptions:
        return self.region_options.get(region, RegionOptions())


# ---------------------------------------------------------------------------
# Compile results
# ---------------------------------------------------------------------------

@dataclass
class Diagnostic:
    """Why a region could not be translated.

    ``rule`` is the stable lint rule ID for this limitation — derived
    from the feature name (``"non-affine"`` → ``"COV-NON-AFFINE"``) so
    coverage accounting (Table II) and ``repro.lint`` consume one
    format.  ``pass_name`` attributes the rejection to the pipeline pass
    that raised it (empty for diagnostics minted outside a pipeline).
    """

    region: str
    feature: str
    message: str
    rule: str = ""
    pass_name: str = ""

    def __post_init__(self) -> None:
        if not self.rule:
            self.rule = "COV-" + self.feature.upper()

    @classmethod
    def from_unsupported(cls, region: str, exc: UnsupportedFeatureError,
                         pass_name: str = "") -> "Diagnostic":
        """The one constructor every compiler's rejection path uses."""
        return cls(getattr(exc, "region", "") or region,
                   exc.feature, str(exc), pass_name=pass_name)


@dataclass
class RegionResult:
    """Outcome of compiling one parallel region."""

    region: str
    translated: bool
    kernels: list[Kernel] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: human-readable record of transformations the compiler applied
    applied: list[str] = field(default_factory=list)
    #: arrays this region reads / writes (for the transfer planner)
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    #: per-pass provenance records from the pipeline (what ran, what
    #: changed, state snapshots) — consumed by lint, tv, and the
    #: ``repro-harness passes`` report
    passes: list[PassRecord] = field(default_factory=list)

    def record(self, pass_name: str) -> Optional[PassRecord]:
        """The record of the named pass, if it ran for this region."""
        for rec in self.passes:
            if rec.name == pass_name:
                return rec
        return None

    def snapshot_before(self, stage: str) -> Optional[Block]:
        """The region IR as it stood before the first pass of ``stage``
        — e.g. ``snapshot_before("transform")`` is the pre-transform IR
        lint rules may want to inspect.
        """
        from repro.pipeline.core import stage_index

        limit = stage_index(stage)
        best: Optional[Block] = None
        for rec in self.passes:
            if stage_index(rec.stage) >= limit:
                break
            if rec.ir is not None:
                best = rec.ir
        return best


@dataclass
class CompiledProgram:
    """A whole program, compiled by one model.

    ``data_regions`` is the *effective* transfer discipline: the port's
    explicit data regions, possibly augmented by the compiler (OpenMPC's
    interprocedural analysis and R-Stream's automatic management
    synthesize a whole-program data scope without user directives).
    """

    model: str
    program: Program
    port: PortSpec
    results: dict[str, RegionResult]
    data_regions: tuple[DataRegionSpec, ...] = ()
    #: the transfer-elision plan (set by the ``elide-transfers`` program
    #: pass when the port opts in via ``PortSpec.elide_transfers``)
    elisions: Optional[TransferElisionPlan] = None

    @property
    def regions_total(self) -> int:
        return len(self.results)

    @property
    def regions_translated(self) -> int:
        return sum(1 for r in self.results.values() if r.translated)

    @property
    def coverage(self) -> float:
        if not self.results:
            return 0.0
        return self.regions_translated / self.regions_total

    def result(self, region: str) -> RegionResult:
        return self.results[region]

    def diagnostics(self) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for r in self.results.values():
            out.extend(r.diagnostics)
        return out


# ---------------------------------------------------------------------------
# The compiler interface
# ---------------------------------------------------------------------------

class DirectiveCompiler(abc.ABC):
    """Base class of the model compilers.

    Each compiler is an ordered pass list: subclasses implement
    :meth:`build_pipeline`, assembling passes from
    :mod:`repro.pipeline.passes` (plus their own model-specific passes)
    into the canonical stage order.  The shared
    :class:`~repro.pipeline.core.PassManager` runs the list per region,
    recording per-pass provenance; a pass that rejects the region raises
    :class:`UnsupportedFeatureError` and becomes a pass-attributed
    :class:`Diagnostic` (the coverage misses of Table II).
    """

    #: model name as it appears in the paper's tables
    name: str = "abstract"

    @abc.abstractmethod
    def build_pipeline(self) -> Sequence[Union[RegionPass, ProgramPass]]:
        """Assemble this model's ordered pass list."""

    @property
    def pipeline(self) -> PassManager:
        """The model's pass manager (built once, then cached).

        Every model's pipeline ends with the opt-in
        :class:`~repro.pipeline.passes.TransferElision` program pass —
        appended here rather than in each :meth:`build_pipeline` so the
        certified-elision contract is uniform across models (the pass
        no-ops unless the port sets ``elide_transfers``).
        """
        mgr = self.__dict__.get("_pipeline")
        if mgr is None:
            mgr = PassManager(self.name, list(self.build_pipeline())
                              + [TransferElision()])
            self.__dict__["_pipeline"] = mgr
        return mgr

    def compile_program(self, port: PortSpec) -> CompiledProgram:
        """Compile every parallel region of the port's program."""
        if port.model != self.name:
            raise CompileError(
                f"port targets model {port.model!r}, compiler is {self.name!r}")
        program = port.program
        with obs.span("compile.program", category="compile",
                      model=self.name, program=program.name):
            results: dict[str, RegionResult] = {}
            for region in program.regions:
                results[region.name] = self.compile_region(region, program,
                                                           port)
            compiled = CompiledProgram(model=self.name, program=program,
                                       port=port, results=results,
                                       data_regions=tuple(port.data_regions))
            self.pipeline.run_program(compiled)
            obs.set_attr("regions_total", compiled.regions_total)
            obs.set_attr("regions_translated", compiled.regions_translated)
        return compiled

    def compile_region(self, region: ParallelRegion, program: Program,
                       port: PortSpec) -> RegionResult:
        """Run the region pipeline; never raises on model limits."""
        with obs.span("compile.region", category="compile",
                      model=self.name, region=region.name):
            comp = self.pipeline.run_region(region, program, port)
            if not comp.translated:
                diag = Diagnostic.from_unsupported(
                    region.name, comp.error, pass_name=comp.failed_pass)
                obs.set_attr("translated", False)
                obs.set_attr("feature", diag.feature)
                obs.set_attr("rule", diag.rule)
                obs.set_attr("message", diag.message)
                obs.set_attr("failed_pass", comp.failed_pass)
                return RegionResult(
                    region=region.name, translated=False,
                    diagnostics=[diag],
                    reads=comp.reads, writes=comp.writes,
                    passes=comp.records)
            obs.set_attr("translated", True)
            obs.set_attr("kernels", len(comp.kernels))
            if comp.applied:
                obs.set_attr("applied", list(comp.applied))
        return RegionResult(region=region.name, translated=True,
                            kernels=comp.kernels, applied=comp.applied,
                            reads=comp.reads, writes=comp.writes,
                            passes=comp.records)


def auto_data_region(compiled: CompiledProgram, name: str) -> Optional[DataRegionSpec]:
    """Synthesize a whole-program data scope from data-flow facts.

    Copy in each array read before its first write (in program region
    order — the driver's invocation order); copy out every written array
    whose declaration says its final value escapes (intent out/inout).
    Temp arrays live device-only.  Only translated regions participate.
    """
    translated = [r.name for r in compiled.program.regions
                  if compiled.results[r.name].translated]
    if not translated:
        return None
    written: set[str] = set()
    copyin: set[str] = set()
    touched: set[str] = set()
    for region in compiled.program.regions:
        res = compiled.results[region.name]
        if not res.translated:
            continue
        copyin |= (set(res.reads) - written)
        written |= set(res.writes)
        touched |= set(res.reads) | set(res.writes)
    copyout = {nm for nm in written
               if compiled.program.arrays[nm].intent in ("out", "inout")}
    create = touched - copyin - copyout
    return DataRegionSpec(name=name, regions=tuple(translated),
                          copyin=tuple(sorted(copyin)),
                          copyout=tuple(sorted(copyout)),
                          create=tuple(sorted(create)))


# ---------------------------------------------------------------------------
# Execution: driving the runtime through a region schedule
# ---------------------------------------------------------------------------

@dataclass
class ScheduleStep:
    """One host-driver step: invoke a region (``times`` may be > 1 for
    tight loops whose per-iteration host work is negligible).

    ``scalars`` override/extend the workload's scalar bindings for this
    step — iteration counters, per-pass constants.
    """

    region: str
    times: int = 1
    scalars: Mapping[str, Value] = field(default_factory=dict)


@dataclass(frozen=True)
class _RegionPlan:
    """What every invocation of one region reads of the program.

    Arrays its data region covers are resident from the moment the
    region is entered, so only the others move per invocation.
    """

    region: ParallelRegion
    result: RegionResult
    dr: Optional[DataRegionSpec]
    #: uncovered arrays the kernels touch, sorted: allocated and, when
    #: read, copied in before each invocation
    staged: tuple[str, ...]
    #: uncovered arrays the kernels write, sorted: copied out after it
    copied_out: tuple[str, ...]


class ExecutableProgram:
    """Runs a compiled program on a simulated device.

    The transfer discipline comes from the port's data regions: arrays
    covered by a data region move only at its boundaries; everything else
    moves per region invocation (copy-in reads, copy-out writes) — the
    naive pattern the paper's untuned ports exhibit.
    A schedule runs in one :meth:`CudaRuntime.pricing_pass`, which
    prices and records every launch, transfer and elision.
    """

    def __init__(self, compiled: CompiledProgram,
                 runtime: Optional[CudaRuntime] = None,
                 host: HostSpec = KEENELAND_HOST) -> None:
        self.compiled = compiled
        self.rt = runtime or CudaRuntime()
        self.host = host
        self.host_time_s = 0.0
        self._data_region_of: dict[str, DataRegionSpec] = {}
        for dr in compiled.data_regions:
            for rname in dr.regions:
                self._data_region_of[rname] = dr
        self._entered_dr: set[str] = set()
        self._resident: set[str] = set()
        # -- transfer elision (opt-in; the default path must stay
        #    byte-identical to the shipped Figure-1 baseline) ------------
        plan = compiled.elisions if compiled.port.elide_transfers else None
        self._elide = plan is not None and not plan.empty
        self._skip_htod = frozenset(plan.skip_htod) if plan else frozenset()
        self._defer_dtoh = frozenset(plan.defer_dtoh) if plan else frozenset()
        #: arrays whose device buffer provably holds the latest values
        self._dev_valid: set[str] = set()
        #: arrays with a device→host copy pending (deferred)
        self._deferred: set[str] = set()
        self.elided_transfers = 0
        self.elided_bytes = 0
        self._plans: dict[str, _RegionPlan] = {}
        #: host-fallback prices: per region its serial stage and the
        #: price of each loop-bound key
        self._host_prices: dict[str, tuple[BodyTerms, dict]] = {}

    # -- setup -------------------------------------------------------------
    def bind_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        for name, arr in arrays.items():
            self.rt.bind_host(name, arr)

    # -- data-region management --------------------------------------------
    def _enter_data_region(self, dr: DataRegionSpec,
                           scalars: Mapping[str, Value]) -> None:
        if dr.name in self._entered_dr:
            return
        self._entered_dr.add(dr.name)
        for name in dr.copyin:
            self._ensure_alloc(name)
            self.rt.htod(name)
            if self._elide:
                self._dev_valid.add(name)
            self._resident.add(name)
        for name in dr.create + dr.copyout:
            self._ensure_alloc(name)
            self._resident.add(name)

    def _ensure_alloc(self, name: str) -> None:
        if name not in self.rt.buffers:
            self.rt.malloc(name)

    # -- transfer elision --------------------------------------------------
    def _note_elided(self, name: str, direction: str,
                     batch: _PricingPass) -> None:
        arr = self.rt.host_arrays.get(name)
        nbytes = int(arr.nbytes) if arr is not None else 0
        self.elided_transfers += 1
        self.elided_bytes += nbytes
        batch.elide(name, direction, nbytes)

    def _flush_deferred(self, names: Optional[set[str]] = None) -> None:
        """Perform pending deferred copyouts (all, or just ``names``)."""
        pending = self._deferred if names is None \
            else self._deferred & names
        for name in sorted(pending):
            self.rt.dtoh(name)
        self._deferred -= set(pending)

    def close_data_regions(self) -> None:
        """Exit all data regions: copy out their results."""
        if self._elide:
            self._flush_deferred()
        for dr in self.compiled.data_regions:
            if dr.name in self._entered_dr:
                for name in dr.copyout:
                    self.rt.dtoh(name)
                self._entered_dr.discard(dr.name)
        for name in list(self._resident):
            self._resident.discard(name)

    # -- region invocation ---------------------------------------------------
    def run_region(self, name: str, scalars: Mapping[str, Value],
                   times: int = 1) -> None:
        """A one-step :meth:`run_schedule`."""
        self.run_schedule([ScheduleStep(name, times)], scalars)

    def run_schedule(self, schedule: Sequence[ScheduleStep],
                     scalars: Mapping[str, Value]) -> None:
        """Run each step of a host-driver schedule under ``scalars``
        overridden by the step's own.

        The schedule is one :meth:`CudaRuntime.pricing_pass`: kernels
        execute and data moves as the steps go; the records, the clock
        and the ``gpu.*`` spans are written when the pass closes.
        """
        with self.rt.pricing_pass() as batch:
            for step in schedule:
                self._invoke(self._plan(step.region),
                             {**scalars, **step.scalars}, step.times,
                             batch)

    def _plan(self, name: str) -> _RegionPlan:
        plan = self._plans.get(name)
        if plan is None:
            result = self.compiled.result(name)
            dr = self._data_region_of.get(name)
            covered = (set(dr.copyin + dr.copyout + dr.create)
                       if dr is not None else set())
            plan = self._plans[name] = _RegionPlan(
                region=self.compiled.program.region(name), result=result,
                dr=dr,
                staged=tuple(sorted((result.reads | result.writes)
                                    - covered)),
                copied_out=tuple(sorted(result.writes - covered)))
        return plan

    def _invoke(self, plan: _RegionPlan, scalars: Mapping[str, Value],
                times: int, batch: _PricingPass) -> None:
        if not plan.result.translated:
            self._run_on_host(plan.region, scalars, times)
            return
        if plan.dr is not None and plan.dr.name not in self._entered_dr:
            self._enter_data_region(plan.dr, scalars)
        functions = self.compiled.program.functions
        for _ in range(times):
            self._transfers_in(plan, batch)
            for kernel in plan.result.kernels:
                batch.launch(kernel, scalars, functions)
            self._transfers_out(plan, batch)

    def _transfers_in(self, plan: _RegionPlan, batch: _PricingPass) -> None:
        reads, buffers = plan.result.reads, self.rt.buffers
        for name in plan.staged:
            if name not in buffers:
                self.rt.malloc(name)
            if name in reads:
                if (self._elide and name in self._skip_htod
                        and name in self._dev_valid):
                    # the device copy already holds the latest values;
                    # shipping the host copy would be a no-op (or, with
                    # a copyout deferred, an outright clobber)
                    self._note_elided(name, "htod", batch)
                    continue
                self.rt.htod(name)
                if self._elide:
                    self._dev_valid.add(name)

    def _transfers_out(self, plan: _RegionPlan, batch: _PricingPass) -> None:
        if self._elide:
            # the kernels just produced the latest values on device
            self._dev_valid |= plan.result.writes
        for name in plan.copied_out:
            if self._elide and name in self._defer_dtoh:
                if name in self._deferred:
                    # a pending copy is superseded before ever flushing:
                    # that transfer is genuinely saved
                    self._note_elided(name, "dtoh", batch)
                else:
                    self._deferred.add(name)
                continue
            self.rt.dtoh(name)

    def _run_on_host(self, region: ParallelRegion,
                     scalars: Mapping[str, Value], times: int) -> None:
        """A region the model failed to translate runs serially on host."""
        # the price covers region.invocations; here the driver controls
        # repetition explicitly
        t = self._host_price(region, scalars) / max(1, region.invocations) \
            * times
        self.host_time_s += t
        reads: frozenset[str] = frozenset()
        writes: frozenset[str] = frozenset()
        if self.rt.execute or self._elide:
            reads, writes = region_arrays(region, self.compiled.program)
        if self.rt.execute:
            # host data must be current: flush any deferred copyouts the
            # region touches, copy back any resident arrays it touches,
            # then re-stage them
            if self._elide:
                self._flush_deferred(set(reads) | set(writes))
            for name in sorted((reads | writes)):
                if name in self.rt.buffers and name in self._resident:
                    self.rt.dtoh(name)
            for _ in range(times):
                run_region_host(region, self.rt.host_arrays, scalars,
                                self.compiled.program.functions,
                                self.rt.memo)
            for name in sorted(reads | writes):
                if name in self.rt.buffers and name in self._resident:
                    self.rt.htod(name)
        if self._elide:
            # host writes invalidate device copies not staged back above
            staged = {name for name in writes
                      if self.rt.execute and name in self.rt.buffers
                      and name in self._resident}
            self._dev_valid |= staged
            self._dev_valid -= set(writes) - staged

    def _host_price(self, region: ParallelRegion,
                    scalars: Mapping[str, Value]) -> float:
        """Serial time of ``region`` across its invocations: its stage
        is built once, and priced once per binding of the scalars its
        loop bounds read."""
        entry = self._host_prices.get(region.name)
        if entry is None:
            extents = {name: list(arr.shape)
                       for name, arr in self.rt.host_arrays.items()}
            entry = self._host_prices[region.name] = (
                serial_stage(region.body, extents), {})
        stage, prices = entry
        key = stage.bound_key(scalars)
        if key not in prices:
            prices[key] = price_serial(stage, float(region.invocations),
                                       scalars, spec=self.host)
        return prices[key]

    # -- results ---------------------------------------------------------
    @property
    def gpu_time_s(self) -> float:
        """Simulated end-to-end time: device timeline + host fallbacks."""
        return self.rt.clock_s + self.host_time_s
