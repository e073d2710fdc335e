"""Launch-at-a-time pricing, kept as the oracle for the pricing pass.

Every run prices and records through :meth:`CudaRuntime.pricing_pass`,
which describes and prices each distinct launch once, evaluates a
kernel's later loop-bound keys as numpy columns, and writes the records,
the clock and the ``gpu.*`` spans when it closes.  Before that, a run
went a launch at a time: each launch was described, priced, executed,
recorded and spanned at once, each transfer and elision likewise.  This
module keeps that loop as a reference only:

* :class:`LaunchAtATime` stands in for a pass in
  ``ExecutableProgram._invoke``;
* :class:`OracleRuntime` records each transfer at once;
* :func:`run_schedule` drives a program's schedule through both, and
  can stand in for :meth:`ExecutableProgram.run_schedule`.
"""

from typing import Mapping, Optional

import repro.gpusim.runtime as runtime_mod
from repro.gpusim.executor import execute_kernel
from repro.gpusim.kernel import Kernel
from repro.gpusim.profiler import TransferRecord
from repro.gpusim.runtime import CudaRuntime, _Price
from repro.gpusim.timing import KernelTiming, price_transfer
from repro.ir.program import Function
from repro.obs import tracer as obs
from repro.obs.counters import transfer_counters


class OracleRuntime(CudaRuntime):
    """A runtime whose transfers are priced, recorded and spanned at
    once, never queued in a pass."""

    def _record_transfer(self, name: str, nbytes: int,
                         direction: str) -> float:
        t = price_transfer(nbytes, self.spec)
        self.profiler.record_transfer(TransferRecord(
            array=name, nbytes=nbytes, direction=direction,
            time_s=t, start_s=self.clock_s))
        if obs.current_tracer() is not None:
            with obs.span(f"{direction} {name}", "gpu.transfer",
                          array=name, sim_start_s=self.clock_s,
                          sim_time_s=t):
                obs.add_counters(transfer_counters(
                    nbytes, direction, t, self.spec).to_dict())
        self.clock_s += t
        return t


class LaunchAtATime:
    """Describe → price → execute → record → span, one launch at a time.

    ``described`` keeps each launch's descriptor, in launch order.
    """

    def __init__(self, rt: CudaRuntime) -> None:
        self.rt = rt
        self.described: list = []

    def launch(self, kernel: Kernel, scalars: Mapping,
               functions: Optional[Mapping[str, Function]] = None,
               ) -> KernelTiming:
        rt = self.rt
        views, extents = {}, {}
        for name in kernel.arrays:
            buf = rt.device(name)
            buf.check_alive()
            views[name] = buf.data
            extents[name] = list(buf.data.shape)
        bindings = {k: float(v) for k, v in scalars.items()}
        desc = kernel.describe(bindings, extents)
        self.described.append(desc)
        rt._check_private(kernel, desc)
        # the runtime's binding, so a test's patch of it reaches the
        # oracle as it reaches a pass
        timing = runtime_mod.price_kernel(desc, rt.spec, rt.timing)
        if rt.execute:
            execute_kernel(kernel, views, dict(scalars), functions, rt.memo)
            for name in kernel.arrays:
                if views[name] is not rt.buffers[name].data:
                    rt.buffers[name].data = views[name]
        source = _Price(kernel.name, rt.spec, desc, timing)
        rt.profiler.add_launches([kernel.name], [timing.time_s],
                                 [rt.clock_s], [source])
        if obs.current_tracer() is not None:
            with obs.span(kernel.name, "gpu.launch", kernel=kernel.name,
                          sim_start_s=rt.clock_s,
                          sim_time_s=timing.time_s, bound=timing.bound):
                obs.add_counters(source.counters.to_dict())
        rt.clock_s += timing.time_s
        return timing

    def elide(self, name: str, direction: str, nbytes: int) -> None:
        if obs.current_tracer() is not None:
            with obs.span(f"elide {direction} {name}", "gpu.elide",
                          array=name, direction=direction,
                          sim_start_s=self.rt.clock_s):
                obs.add_counters({"transfers_elided": 1.0,
                                  "pcie_bytes_saved": float(nbytes)})


def run_schedule(ex, schedule, scalars) -> LaunchAtATime:
    """Run ``schedule`` on ``ex`` a launch at a time; returns the
    stand-in, whose ``described`` lists every launch's descriptor.
    Transfers record at once when ``ex.rt`` is an
    :class:`OracleRuntime`, through one-event passes otherwise."""
    at_a_time = LaunchAtATime(ex.rt)
    for step in schedule:
        ex._invoke(ex._plan(step.region), {**scalars, **step.scalars},
                   step.times, at_a_time)
    return at_a_time
