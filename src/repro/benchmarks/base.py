"""Benchmark framework: the thirteen applications plug in here.

Each benchmark provides:

* the **OpenMP input program** (IR) — the single source of truth the
  paper's methodology starts from;
* a **workload** (arrays + scalars + a region schedule) at two scales:
  ``test`` (small, functionally executed and validated) and ``paper``
  (evaluation-sized, priced analytically with ``execute=False``);
* a **NumPy reference** implementation for validation;
* **ports** to each model, possibly with restructured input programs,
  directives, data regions, and tuning variants — the raw material of
  Table II and Figure 1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.cpu.host import (KEENELAND_HOST, HostSpec, price_serial,
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


@dataclass
class Workload:
    """One problem instance: inputs, sizes, and the host-driver schedule."""

    sizes: Mapping[str, int]
    arrays: dict[str, np.ndarray]
    scalars: dict[str, Value]
    schedule: list[ScheduleStep]

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.arrays.items()}


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
        workload, with its arrays read-only, and one CPU baseline per
        host.  Executing runs get private writable copies; timing-only
        runs bind the shared arrays unless the port re-lays them out.
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
            for arr in wl.arrays.values():
                arr.setflags(write=False)
            memo = LaunchMemo()
            _WORKLOAD_SLOT = (key, wl, cpu_times, memo)
        rt = CudaRuntime(spec=device, timing=timing, execute=execute,
                         memo=memo)
        ex = ExecutableProgram(compiled, runtime=rt, host=host)
        if execute or type(self).arrays_for is not Benchmark.arrays_for:
            arrays = self.arrays_for(model, variant, wl)
        else:
            # timing-only runs never write host arrays: bind the shared
            # read-only ones instead of private copies
            arrays = dict(wl.arrays)
        ex.bind_arrays(arrays)
        schedule = self.schedule_for(model, variant, wl)
        for step in schedule:
            bindings = dict(wl.scalars)
            bindings.update(step.scalars)
            ex.run_region(step.region, bindings, times=step.times)
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

    def arrays_for(self, model: str, variant: str,
                   wl: Workload) -> dict[str, np.ndarray]:
        """Host arrays in the layout the port's program expects.

        Defaults to private copies of the canonical workload arrays;
        ports that re-lay data out (transposed BACKPROP weights) override
        this and return re-laid copies.
        """
        return wl.copy_arrays()

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

        Each region's symbolic stage is built once, and its price once
        per binding of the scalars its loop bounds read, the only
        bindings the host model depends on.
        """
        program = self.program
        extents = {name: list(arr.shape) for name, arr in wl.arrays.items()}
        bindings = {k: float(v) for k, v in wl.scalars.items()}
        total = 0.0
        stages: dict[str, BodyTerms] = {}
        cache: dict[tuple, float] = {}
        for step in wl.schedule:
            region = program.region(step.region)
            stage = stages.get(step.region)
            if stage is None:
                stage = stages[step.region] = serial_stage(region.body,
                                                           extents)
            step_bindings = dict(bindings)
            step_bindings.update({k: float(x)
                                  for k, x in step.scalars.items()})
            key = (step.region, stage.bound_key(step_bindings))
            if key not in cache:
                per_invocation = price_serial(
                    stage, float(region.invocations), step_bindings,
                    dtype=self.dtype, spec=host)
                cache[key] = per_invocation / max(1, region.invocations)
            total += cache[key] * step.times
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
