"""The CUDA-like runtime: buffers, transfers, launches, a timeline.

:class:`CudaRuntime` is what compiled programs run against.  It owns

* a :class:`MemoryManager` enforcing device capacity,
* host-array bindings (the benchmark's NumPy arrays),
* device buffers keyed by array name,
* the simulated clock, advanced by every transfer and launch,
* a :class:`Profiler` trace.

Functional execution can be disabled (``execute=False``) for timing-only
sweeps at paper-scale problem sizes: the analytical model needs sizes,
not values, so Figure 1's large inputs cost nothing to "run".
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import GpuSimError
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.executor import execute_kernel
from repro.gpusim.kernel import Kernel
from repro.gpusim.memo import LaunchMemo
from repro.gpusim.memory import DeviceBuffer, MemoryManager, MemorySpace
from repro.gpusim.profiler import LaunchRecord, Profiler, TransferRecord
from repro.gpusim.timing import (KernelTiming, TimingConfig, price_kernel,
                                 price_transfer)
from repro.ir.program import Function
from repro.obs import tracer as obs

# NOTE: repro.obs.counters is imported lazily inside launch()/
# _record_transfer() — counters itself imports gpusim analysis modules,
# so a module-level import here would be circular when repro.obs is
# imported before repro.gpusim.  repro.obs.tracer is dependency-free
# and always safe.

Value = Union[int, float]


class CudaRuntime:
    """A simulated device context."""

    def __init__(self, spec: DeviceSpec = TESLA_M2090,
                 timing: Optional[TimingConfig] = None,
                 execute: bool = True,
                 memo: Optional[LaunchMemo] = None) -> None:
        self.spec = spec
        self.timing = timing or TimingConfig()
        self.execute = execute
        #: launches seen before on the same inputs replay from here
        #: (None: every launch is interpreted)
        self.memo = memo
        self.mem = MemoryManager(spec)
        self.profiler = Profiler(device_name=spec.name)
        self.clock_s = 0.0
        self.host_arrays: dict[str, np.ndarray] = {}
        self.buffers: dict[str, DeviceBuffer] = {}

    # -- host bindings ---------------------------------------------------
    def bind_host(self, name: str, array: np.ndarray) -> None:
        """Register a host array under ``name``."""
        self.host_arrays[name] = array

    def host(self, name: str) -> np.ndarray:
        try:
            return self.host_arrays[name]
        except KeyError:
            raise GpuSimError(f"no host array bound for {name!r}") from None

    # -- device memory ----------------------------------------------------
    def malloc(self, name: str, shape: Optional[tuple[int, ...]] = None,
               dtype: Optional[np.dtype] = None,
               space: MemorySpace = MemorySpace.GLOBAL) -> DeviceBuffer:
        """Allocate a device buffer (shape/dtype default to the host array)."""
        if name in self.buffers:
            raise GpuSimError(f"device buffer {name!r} already allocated")
        if shape is None or dtype is None:
            host = self.host(name)
            shape = shape or tuple(host.shape)
            dtype = dtype or host.dtype
        buf = self.mem.alloc(name, tuple(shape), np.dtype(dtype), space)
        self.buffers[name] = buf
        return buf

    def free(self, name: str) -> None:
        buf = self.buffers.pop(name, None)
        if buf is None:
            raise GpuSimError(f"no device buffer {name!r} to free")
        self.mem.free(buf)

    def device(self, name: str) -> DeviceBuffer:
        try:
            return self.buffers[name]
        except KeyError:
            raise GpuSimError(f"no device buffer {name!r}") from None

    # -- transfers ----------------------------------------------------------
    def htod(self, name: str) -> float:
        """Copy host → device; returns the simulated transfer time."""
        buf = self.device(name)
        buf.check_alive()
        host = self.host(name)
        if self.execute:
            if host.shape != buf.data.shape:
                raise GpuSimError(
                    f"htod {name!r}: host shape {host.shape} != device "
                    f"shape {buf.data.shape}")
            np.copyto(buf.data, host)
        return self._record_transfer(name, buf.nbytes, "htod")

    def dtoh(self, name: str) -> float:
        """Copy device → host; returns the simulated transfer time."""
        buf = self.device(name)
        buf.check_alive()
        host = self.host(name)
        if self.execute:
            np.copyto(host, buf.data)
        return self._record_transfer(name, buf.nbytes, "dtoh")

    def _record_transfer(self, name: str, nbytes: int,
                         direction: str) -> float:
        t = price_transfer(nbytes, self.spec)
        self.profiler.record_transfer(TransferRecord(
            array=name, nbytes=nbytes, direction=direction,
            time_s=t, start_s=self.clock_s))
        if obs.current_tracer() is not None:
            from repro.obs.counters import transfer_counters
            with obs.span(f"{direction} {name}", "gpu.transfer",
                          array=name, sim_start_s=self.clock_s,
                          sim_time_s=t):
                obs.add_counters(transfer_counters(
                    nbytes, direction, t, self.spec).to_dict())
        self.clock_s += t
        return t

    # -- kernel launch ---------------------------------------------------
    def launch(self, kernel: Kernel, scalars: Mapping[str, Value],
               functions: Optional[Mapping[str, Function]] = None,
               ) -> KernelTiming:
        """Execute a kernel against the device buffers and price it."""
        device_views: dict[str, np.ndarray] = {}
        extents: dict[str, Sequence[Optional[int]]] = {}
        for name in kernel.arrays:
            buf = self.device(name)
            buf.check_alive()
            device_views[name] = buf.data
            extents[name] = list(buf.data.shape)
        bindings = {k: float(v) for k, v in scalars.items()}
        desc = kernel.describe(bindings, extents)
        # expanded private arrays are a real device allocation: one slot
        # per thread; too many threads overflow global memory (the EP
        # porting story, Section V-A of the paper)
        private_bytes = (kernel.private_global_bytes_per_thread()
                         * desc.total_threads)
        if private_bytes:
            free = self.spec.global_mem_bytes - self.mem.global_used
            if private_bytes > free:
                from repro.errors import DeviceMemoryError
                raise DeviceMemoryError(
                    f"kernel {kernel.name!r}: expanded private arrays need "
                    f"{private_bytes} B for {desc.total_threads} threads; "
                    f"{free} B free on device — strip-mine the parallel "
                    f"loop to reduce the iteration space")
        from repro.obs.counters import derive_counters
        # a price is a pure function of (descriptor, spec, config), so
        # each memoized descriptor is priced once per pair; the key
        # holds the pricing functions too, so a replaced one is never
        # answered from another's results
        key = (price_kernel, derive_counters, self.spec, self.timing)
        priced = desc.priced.get(key)
        if priced is None:
            priced = desc.priced[key] = (
                price_kernel(desc, self.spec, self.timing),
                derive_counters(desc, self.spec))
        timing, counters = priced
        if self.execute:
            execute_kernel(kernel, device_views, dict(scalars), functions,
                           self.memo)
            # pointer swaps may have replaced entries: write back
            for name in kernel.arrays:
                if device_views[name] is not self.buffers[name].data:
                    self.buffers[name].data = device_views[name]
        self.profiler.record_launch(LaunchRecord(
            kernel=kernel.name, timing=timing, start_s=self.clock_s,
            counters=counters))
        if obs.current_tracer() is not None:
            with obs.span(kernel.name, "gpu.launch", kernel=kernel.name,
                          sim_start_s=self.clock_s,
                          sim_time_s=timing.time_s, bound=timing.bound):
                obs.add_counters(counters.to_dict())
        self.clock_s += timing.time_s
        return timing

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Device reset: free all buffers, clear trace and clock."""
        self.buffers.clear()
        self.mem.reset()
        self.profiler.reset()
        self.clock_s = 0.0

    @property
    def elapsed_s(self) -> float:
        return self.clock_s
