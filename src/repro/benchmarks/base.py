"""Benchmark framework: the thirteen applications plug in here.

Each benchmark provides:

* the **OpenMP input program** (IR) — the single source of truth the
  paper's methodology starts from;
* a **workload** (array shapes + scalars + a region schedule, with the
  array data built on first use) at two scales: ``test`` (small,
  functionally executed and validated) and ``paper`` (evaluation-sized,
  priced analytically with ``execute=False`` from the shapes alone);
* a **NumPy reference** implementation for validation;
* **ports** to each model, possibly with restructured input programs,
  directives, data regions, and tuning variants — the raw material of
  Table II and Figure 1.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.cpu.host import (KEENELAND_HOST, HostSpec, price_serial_columns,
                            serial_stage)
from repro.errors import BenchmarkError
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.memo import LaunchMemo
from repro.gpusim.runtime import CudaRuntime
from repro.gpusim.timing import TimingConfig
from repro.ir.analysis.metrics import BodyTerms
from repro.ir.program import Program
from repro.metrics.speedup import SpeedupResult
from repro.models.base import (CompiledProgram, ExecutableProgram, PortSpec,
                               ScheduleStep)
from repro.models import get_compiler
from repro.obs import tracer as obs

Value = Union[int, float]

#: canonical model list every benchmark must port to
ALL_MODELS: tuple[str, ...] = (
    "PGI Accelerator", "OpenACC", "HMPP", "OpenMPC", "R-Stream",
    "Hand-Written CUDA",
)


#: an array's declared ``(shape, dtype)``
ArraySpec = tuple[tuple[int, ...], np.dtype]

#: serializes first builds, so a workload shared by threads builds once
_BUILD_LOCK = threading.Lock()


@dataclass
class Workload:
    """One problem instance: array shapes, sizes, scalars and the
    host-driver schedule, with the array data built on first use.

    ``shapes`` declares every array's ``(shape, dtype)`` in binding
    order; the analytical model needs nothing more.  ``build`` makes the
    data the first time :attr:`arrays` is read, at most once; an array
    it leaves out is zeros.  The built arrays are read-only and must
    match their declarations.
    """

    sizes: Mapping[str, int]
    shapes: Mapping[str, ArraySpec]
    build: Callable[[], Mapping[str, np.ndarray]]
    scalars: dict[str, Value]
    schedule: list[ScheduleStep]
    _arrays: Optional[dict[str, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.shapes = {name: (tuple(int(d) for d in shape), np.dtype(dtype))
                       for name, (shape, dtype) in self.shapes.items()}

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """The array data, built on first access."""
        if self._arrays is None:
            with _BUILD_LOCK:
                if self._arrays is None:
                    self._arrays = self._materialize()
        return self._arrays

    def _materialize(self) -> dict[str, np.ndarray]:
        made = dict(self.build())
        extra = sorted(made.keys() - self.shapes.keys())
        if extra:
            raise BenchmarkError(f"workload built undeclared array(s) "
                                 f"{', '.join(extra)}")
        arrays: dict[str, np.ndarray] = {}
        for name, (shape, dtype) in self.shapes.items():
            arr = made.get(name)
            if arr is None:
                arr = np.zeros(shape, dtype)
            elif arr.shape != shape or arr.dtype != dtype:
                raise BenchmarkError(
                    f"workload array {name!r} was built as {arr.dtype} "
                    f"{arr.shape}, declared {dtype} {shape}")
            arr.setflags(write=False)
            arrays[name] = arr
        return arrays

    def stand_ins(self) -> dict[str, np.ndarray]:
        """Read-only zero-stride arrays with the declared shapes, dtypes
        and ``nbytes``, occupying no memory; builds nothing."""
        return {name: np.broadcast_to(np.zeros((), dtype), shape)
                for name, (shape, dtype) in self.shapes.items()}


def shapes_of(arrays: Mapping[str, np.ndarray]) -> dict[str, ArraySpec]:
    """The declarations of already-built arrays (benchmarks whose sizes
    or schedule depend on their data build it in ``workload()``)."""
    return {name: (arr.shape, arr.dtype) for name, arr in arrays.items()}


#: the last workload a run built: ``((benchmark class, scale, seed),
#: workload, {host: cpu seconds}, launch memo)``.  Replaced as one
#: tuple and read into a local, so a thread never sees another
#: benchmark's workload; one slot keeps a bench-major sweep's memory to
#: one workload and the launches run on it.
_WORKLOAD_SLOT: tuple = (None, None, None, None)


class Benchmark(abc.ABC):
    """Base class of the thirteen applications."""

    #: short name as used in Figure 1 ("JACOBI", "EP", ...)
    name: str = "abstract"
    #: application domain label
    domain: str = ""
    #: element dtype of the dominant arrays
    dtype: str = "double"
    #: validation tolerance against the NumPy reference
    rtol: float = 1e-8
    atol: float = 1e-10

    def __init__(self) -> None:
        self._program: Optional[Program] = None

    # -- the OpenMP input --------------------------------------------------
    @abc.abstractmethod
    def build_program(self) -> Program:
        """Construct the original OpenMP input program."""

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = self.build_program()
        return self._program

    # -- workloads --------------------------------------------------------
    @abc.abstractmethod
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        """Build a problem instance at ``scale`` in {"test", "paper"}."""

    @abc.abstractmethod
    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        """Expected final contents of :meth:`output_arrays` (NumPy)."""

    @abc.abstractmethod
    def output_arrays(self) -> tuple[str, ...]:
        """Arrays whose final values validation compares."""

    # -- ports -----------------------------------------------------------
    @abc.abstractmethod
    def port(self, model: str, variant: str = "best") -> PortSpec:
        """The port of this benchmark to ``model``.

        ``variant`` selects a tuning point; every benchmark supports at
        least ``"best"``.  Untuned/naive points (``"naive"``) feed the
        'performance variation by tuning' whiskers of Figure 1.
        """

    def variants(self, model: str) -> tuple[str, ...]:
        """Tuning variants available for ``model``."""
        return ("best",)

    def derived_port(self, model: str, variant: str = "best") -> PortSpec:
        """Ports derived through the directive IR, not hand-written.

        ``port`` implementations fall through here for models they have
        no hand-written annotations for.  Currently the OpenMP-target
        model is derivable (from the benchmark's OpenMPC annotations via
        :func:`repro.directives.derive_port`); any other model keeps the
        historical ``KeyError``.
        """
        from repro.directives import derive_port
        return derive_port(self, model, variant)

    # -- execution ---------------------------------------------------------
    def compile(self, model: str, variant: str = "best",
                elide_transfers: bool = False) -> CompiledProgram:
        port = self.port(model, variant)
        if elide_transfers:
            from dataclasses import replace
            port = replace(port, elide_transfers=True)
        return get_compiler(model).compile_program(port)

    def run(self, model: str, variant: str = "best", scale: str = "test",
            seed: int = 0, execute: bool = True,
            device: DeviceSpec = TESLA_M2090,
            timing: Optional[TimingConfig] = None,
            host: HostSpec = KEENELAND_HOST,
            validate: Optional[bool] = None,
            compiled: Optional[CompiledProgram] = None,
            elide_transfers: bool = False) -> "RunOutcome":
        """Compile, execute (optionally functionally), and price a run.

        ``compiled`` lets callers that memoize compilation (the harness
        sweeps, the profiler) pass the lowered program in instead of
        recompiling; it must come from this benchmark's
        ``port(model, variant)``.  ``elide_transfers`` compiles (when
        ``compiled`` is not supplied) the elide-transfers flavour of the
        port, whose runtime guards skip provably redundant transfers.

        Consecutive runs at the same (benchmark, scale, seed) share one
        workload, whose data is built once and read-only, and one CPU
        baseline per host.  Executing runs get private writable copies;
        timing-only runs bind zero-byte stand-ins and never build data.
        """
        with obs.span("bench.run", category="harness", benchmark=self.name,
                      model=model, variant=variant, scale=scale):
            outcome = self._run(model, variant, scale, seed, execute, device,
                                timing, host, validate, compiled,
                                elide_transfers)
            obs.set_attr("speedup", round(outcome.speedup.speedup, 4))
            obs.set_attr("gpu_time_s", outcome.speedup.gpu_time_s)
            if outcome.validated is not None:
                obs.set_attr("validated", outcome.validated)
            return outcome

    def _run(self, model: str, variant: str, scale: str, seed: int,
             execute: bool, device: DeviceSpec,
             timing: Optional[TimingConfig], host: HostSpec,
             validate: Optional[bool],
             compiled: Optional[CompiledProgram],
             elide_transfers: bool = False) -> "RunOutcome":
        global _WORKLOAD_SLOT
        if compiled is None:
            compiled = self.compile(model, variant,
                                    elide_transfers=elide_transfers)
        key = (type(self), scale, seed)
        slot_key, wl, cpu_times, memo = _WORKLOAD_SLOT
        if slot_key != key:
            wl, cpu_times = self.workload(scale=scale, seed=seed), {}
            memo = LaunchMemo()
            _WORKLOAD_SLOT = (key, wl, cpu_times, memo)
        rt = CudaRuntime(spec=device, timing=timing, execute=execute,
                         memo=memo)
        ex = ExecutableProgram(compiled, runtime=rt, host=host)
        if execute:
            arrays = self.arrays_for(model, variant, wl)
        else:
            # the analytical model needs sizes, not values
            arrays = self.layout(model, variant, wl.stand_ins())
        ex.bind_arrays(arrays)
        ex.run_schedule(self.schedule_for(model, variant, wl), wl.scalars)
        ex.close_data_regions()

        validated: Optional[bool] = None
        errors: list[str] = []
        if validate is None:
            validate = execute
        if validate:
            if not execute:
                raise BenchmarkError("cannot validate a timing-only run")
            expected = self.reference(wl)
            validated = True
            for name in self.output_arrays():
                got = self.canonical_output(name, arrays[name], model,
                                            variant, wl)
                want = expected[name]
                if not np.allclose(got, want, rtol=self.rtol, atol=self.atol):
                    validated = False
                    bad = np.max(np.abs(np.asarray(got, dtype=float)
                                        - np.asarray(want, dtype=float)))
                    errors.append(f"{name}: max abs err {bad:.3e}")

        cpu_s = cpu_times.get(host)
        if cpu_s is None:
            cpu_s = cpu_times[host] = self.cpu_time(wl, host=host)
        result = SpeedupResult(
            benchmark=self.name, model=model, variant=variant,
            cpu_time_s=cpu_s, gpu_time_s=ex.gpu_time_s,
            kernel_time_s=rt.profiler.kernel_time_s,
            transfer_time_s=rt.profiler.transfer_time_s,
            host_fallback_s=ex.host_time_s)
        return RunOutcome(benchmark=self.name, model=model, variant=variant,
                          compiled=compiled, executable=ex, arrays=arrays,
                          speedup=result, validated=validated,
                          validation_errors=errors)

    def layout(self, model: str, variant: str,
               arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Views of ``arrays`` in the layout the port's program expects.

        The one relayout hook, applied alike to real data and to
        stand-ins.  Defaults to the canonical layout; ports that re-lay
        data out (transposed BACKPROP weights) override this.
        """
        return arrays

    def arrays_for(self, model: str, variant: str,
                   wl: Workload) -> dict[str, np.ndarray]:
        """Private writable C-ordered copies of the workload arrays in the
        port's :meth:`layout`."""
        return {name: np.array(arr, order="C") for name, arr
                in self.layout(model, variant, dict(wl.arrays)).items()}

    def extents_for(self, model: str, variant: str,
                    wl: Workload) -> dict[str, list[int]]:
        """Array extents in the port's layout, from the shapes alone."""
        return {name: list(arr.shape) for name, arr
                in self.layout(model, variant, wl.stand_ins()).items()}

    def schedule_for(self, model: str, variant: str,
                     wl: Workload) -> list[ScheduleStep]:
        """The region schedule a given port's host driver runs.

        Defaults to the workload's canonical schedule; ports whose manual
        restructuring changes the host loop structure (blocked NW/LUD)
        override this.  The CPU baseline always prices the canonical
        schedule.
        """
        return wl.schedule

    def canonical_output(self, name: str, array: np.ndarray, model: str,
                         variant: str, wl: Workload) -> np.ndarray:
        """Convert a port's output array to the reference layout.

        Ports that restructure data layouts (the CFD SoA change) override
        this so validation compares like with like.
        """
        return array

    def cpu_time(self, wl: Workload, host: HostSpec = KEENELAND_HOST) -> float:
        """Analytical serial-CPU time of the workload's schedule.

        Each region's symbolic stage is built once, and priced as one
        column over the distinct bindings of the scalars its loop bounds
        read, the only bindings the host model depends on; the steps
        then add up in schedule order.
        """
        program = self.program
        extents = {name: list(shape) for name, (shape, _) in wl.shapes.items()}
        bindings = {k: float(v) for k, v in wl.scalars.items()}
        stages: dict[str, BodyTerms] = {}
        steps = []
        for step in wl.schedule:
            stage = stages.get(step.region)
            if stage is None:
                stage = stages[step.region] = serial_stage(
                    program.region(step.region).body, extents)
            key = stage.bound_key({**bindings, **{
                k: float(x) for k, x in step.scalars.items()}})
            steps.append((step.region, key, step.times))
        prices: dict[tuple, float] = {}
        for name, stage in stages.items():
            invocations = program.region(name).invocations
            keys = list(dict.fromkeys(k for n, k, _ in steps if n == name))
            for key, t in zip(keys, price_serial_columns(
                    stage, float(invocations), keys, self.dtype, host)):
                prices[name, key] = t / max(1, invocations)
        total = 0.0
        for name, key, times in steps:
            total += prices[name, key] * times
        return total


@dataclass
class RunOutcome:
    """Everything one benchmark run produced."""

    benchmark: str
    model: str
    variant: str
    compiled: CompiledProgram
    executable: ExecutableProgram
    arrays: dict[str, np.ndarray]
    speedup: SpeedupResult
    validated: Optional[bool]
    validation_errors: list[str] = field(default_factory=list)

    def require_valid(self) -> None:
        if self.validated is False:
            raise BenchmarkError(
                f"{self.benchmark}/{self.model}[{self.variant}] failed "
                f"validation: {'; '.join(self.validation_errors)}")
