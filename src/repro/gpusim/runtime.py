"""The CUDA-like runtime: buffers, transfers, launches, a timeline.

:class:`CudaRuntime` is what compiled programs run against.  It owns

* a :class:`MemoryManager` enforcing device capacity,
* host-array bindings (the benchmark's NumPy arrays),
* device buffers keyed by array name,
* the simulated clock, advanced by every transfer and launch,
* a :class:`Profiler` trace.

Functional execution can be disabled (``execute=False``) for timing-only
sweeps at paper-scale problem sizes: the analytical model needs sizes,
not values, so Figure 1's large inputs cost nothing to "run".  Every
launch and transfer goes through a :meth:`CudaRuntime.pricing_pass`,
which describes and prices each distinct launch once (a kernel's other
launches as numpy columns), executes kernels as they come, and writes
the records, the clock and the ``gpu.*`` spans when it closes.
"""

from __future__ import annotations

import contextlib
import inspect
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import GpuSimError
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.executor import execute_kernel
from repro.gpusim.kernel import Kernel, KernelDescriptor
from repro.gpusim.memo import LaunchMemo
from repro.gpusim.memory import DeviceBuffer, MemoryManager, MemorySpace
from repro.gpusim.profiler import Profiler, TransferRecord
from repro.gpusim.timing import (KernelTiming, TimingConfig, price_columns,
                                 price_kernel, price_transfer)
from repro.ir.program import Function
from repro.obs import tracer as obs

# NOTE: repro.obs.counters is imported lazily inside _Price.counters and
# _PricingPass.close() — counters itself imports gpusim analysis modules,
# so a module-level import here would be circular when repro.obs is
# imported before repro.gpusim.  repro.obs.tracer is dependency-free
# and always safe.

Value = Union[int, float]

#: the numeric stage and price :meth:`Kernel.describe_columns` and
#: :func:`price_columns` reproduce; while either name is bound to
#: something else (not a ``functools.wraps`` wrapper of it), a pricing
#: pass calls it for every distinct launch instead
_DESCRIBE = Kernel.describe
_PRICE = price_kernel


def _marker(name: str, category: str, counters: Mapping[str, float],
            **attrs) -> None:
    """A ``gpu.*`` span: simulated-time attributes and counters."""
    with obs.span(name, category, **attrs):
        obs.add_counters(counters)


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
        #: the open pricing pass, which takes the records until it ends
        self._pass: Optional[_PricingPass] = None

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
        with self.pricing_pass() as batch:
            batch.events.append((name, nbytes, direction, t))
        return t

    # -- kernel launch ---------------------------------------------------
    def launch(self, kernel: Kernel, scalars: Mapping[str, Value],
               functions: Optional[Mapping[str, Function]] = None,
               ) -> KernelTiming:
        """Price a kernel, execute it when the runtime executes, and
        record it: a one-launch :meth:`pricing_pass`."""
        if self._pass is not None:
            raise GpuSimError(f"launch {kernel.name!r} through the open "
                              f"pricing pass")
        with self.pricing_pass() as batch:
            price = batch.launch(kernel, scalars, functions)
        return price.timing

    def _check_private(self, kernel: Kernel, desc: KernelDescriptor) -> None:
        """Expanded private arrays are a real device allocation: one slot
        per thread; too many threads overflow global memory (the EP
        porting story, Section V-A of the paper)."""
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

    @contextlib.contextmanager
    def pricing_pass(self) -> Iterator["_PricingPass"]:
        """Price and record launches and transfers in one pass.

        Inside the ``with`` block, :meth:`_PricingPass.launch` launches,
        and transfers and elisions are queued; a nested ``with`` joins
        the open pass.  On a normal exit the
        profiler, the clock and, under a tracer, the ``gpu.*`` spans get
        every event, in order, the clock advanced by one addition per
        event.  Ends without records when the block raises.
        """
        if self._pass is not None:
            yield self._pass
            return
        batch = self._pass = _PricingPass(self)
        try:
            yield batch
        finally:
            self._pass = None
        batch.close()

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


class _Price:
    """One distinct launch: its :class:`KernelTiming` (None until a
    pricing pass prices its group's columns) and, derived on first read,
    its counters."""

    __slots__ = ("kernel", "spec", "desc", "timing", "group", "key",
                 "_counters")

    def __init__(self, kernel: str, spec: DeviceSpec,
                 desc: Optional[KernelDescriptor] = None,
                 timing: Optional[KernelTiming] = None,
                 group: Optional["_Group"] = None, key: tuple = ()) -> None:
        self.kernel = kernel
        self.spec = spec
        self.desc = desc
        self.timing = timing
        self.group = group
        self.key = key
        self._counters = None

    @property
    def counters(self):
        if self._counters is None:
            from repro.obs.counters import derive_counters
            if self.desc is None:
                self.desc = self.group.describe(self.key)
            self._counters = derive_counters(self.desc, self.spec)
        return self._counters


class _Group:
    """The launches of one kernel in a pricing pass."""

    def __init__(self, rt: CudaRuntime, kernel: Kernel,
                 columnar: bool) -> None:
        self.rt = rt
        self.kernel = kernel
        self.extents: dict[str, list[int]] = {}
        for name in kernel.arrays:
            buf = rt.device(name)
            buf.check_alive()
            self.extents[name] = list(buf.data.shape)
        self.stage = kernel.stage(self.extents)
        #: the scalars a launch's key binds (:meth:`BodyTerms.bound_key`)
        self.names = self.stage.access.nest.bound_names
        self.private = kernel.private_global_bytes_per_thread()
        #: the distinct launches, by loop-bound key
        self.prices: dict[tuple, _Price] = {}
        #: the first launch's key and descriptor
        self.anchor: Optional[tuple] = None
        #: whether later keys are priced as columns (None: not known
        #: before a second distinct launch); expanded private arrays
        #: are checked against free memory launch by launch
        self.columnar: Optional[bool] = (None if columnar and not self.private
                                         else False)
        #: the launches priced as columns when the pass ends
        self.deferred: list[_Price] = []

    def key_columns(self, keys: Sequence[tuple]) -> dict[str, np.ndarray]:
        return {name: np.array(values, dtype=np.float64)
                for name, values in zip(self.names, zip(*keys))}

    def takes_columns(self, key: tuple) -> bool:
        """Whether ``key`` can wait for the columns: not the first key,
        and the kernel's numeric stage evaluates as columns."""
        if self.anchor is None:
            return False
        if self.columnar is None:
            probe = self.kernel.describe_columns(
                self.stage, self.key_columns([self.anchor[0]]))
            self.columnar = probe is not None
        return self.columnar and None not in key

    def describe(self, key: tuple) -> KernelDescriptor:
        """The descriptor of the launch with loop-bound key ``key``."""
        bindings = dict(zip(self.names, key))
        return self.kernel.describe(bindings, self.extents)

    def resolve(self) -> None:
        """Price the deferred launches as columns."""
        rt = self.rt
        got = self.kernel.describe_columns(
            self.stage, self.key_columns([p.key for p in self.deferred]))
        if got is None:
            # a count overflowed: the scalar path decides, as it would
            # have at the launch
            for price in self.deferred:
                price.desc = self.describe(price.key)
                price.timing = price_kernel(price.desc, rt.spec, rt.timing)
            return
        total, flops, divergence, counts = got
        total = np.broadcast_to(total, (len(self.deferred),))
        timings = price_columns(self.anchor[1], total, flops, divergence,
                                counts, rt.spec, rt.timing)
        for price, timing in zip(self.deferred, timings):
            price.timing = timing


class _PricingPass:
    """The events of one :meth:`CudaRuntime.pricing_pass`.

    Launches are grouped by kernel (the extents are fixed: a pass never
    frees or reallocates a buffer, and a pointer swap exchanges buffers
    of one shape).  The first launch of each distinct loop-bound key is
    described and priced by the scalar path at once, in launch order,
    so every error fires at its launch; when a kernel's numeric stage
    evaluates as columns, its later keys wait for one numpy evaluation
    at the end.
    """

    def __init__(self, rt: CudaRuntime) -> None:
        self.rt = rt
        #: per launch its :class:`_Price`, per transfer ``(array,
        #: nbytes, direction, seconds)``, with ``None`` seconds for an
        #: elided one, in order
        self.events: list = []
        self.groups: dict[Kernel, _Group] = {}
        self.columnar = (inspect.unwrap(Kernel.describe) is _DESCRIBE
                         and inspect.unwrap(price_kernel) is _PRICE
                         and not rt.timing.model_cache_hierarchy)

    def launch(self, kernel: Kernel, scalars: Mapping[str, Value],
               functions: Optional[Mapping[str, Function]] = None,
               ) -> _Price:
        """Price one launch of ``kernel`` and queue it; an executing
        runtime then runs it against the device buffers."""
        rt = self.rt
        group = self.groups.get(kernel)
        if group is None:
            group = self.groups[kernel] = _Group(rt, kernel, self.columnar)
        key = tuple([float(scalars[n]) if n in scalars else None
                     for n in group.names])
        price = group.prices.get(key)
        if price is None:
            price = group.prices[key] = self._price(group, key, scalars)
        elif group.private:
            rt._check_private(kernel, price.desc)
        self.events.append(price)
        if rt.execute:
            # the group checked the buffers when the pass first saw them
            views = {name: rt.buffers[name].data for name in kernel.arrays}
            execute_kernel(kernel, views, dict(scalars), functions, rt.memo)
            for name, data in views.items():   # pointer swaps write back
                rt.buffers[name].data = data
        return price

    def elide(self, name: str, direction: str, nbytes: int) -> None:
        """Queue a transfer the program skipped: a span, no record."""
        self.events.append((name, nbytes, direction, None))

    def _price(self, group: _Group, key: tuple,
               scalars: Mapping[str, Value]) -> _Price:
        if group.takes_columns(key):
            price = _Price(group.kernel.name, self.rt.spec, group=group,
                           key=key)
            group.deferred.append(price)
            return price
        bindings = {k: float(v) for k, v in scalars.items()}
        desc = group.kernel.describe(bindings, group.extents)
        self.rt._check_private(group.kernel, desc)
        if group.anchor is None:
            group.anchor = (key, desc)
        return _Price(group.kernel.name, self.rt.spec, desc,
                      price_kernel(desc, self.rt.spec, self.rt.timing))

    def close(self) -> None:
        """Price the deferred launches and write every record and, under
        a tracer, every span."""
        from repro.obs.counters import transfer_counters

        for group in self.groups.values():
            if group.deferred:
                group.resolve()
        rt, clock = self.rt, self.rt.clock_s
        traced = obs.current_tracer() is not None
        kernels, times, starts, prices = [], [], [], []
        for event in self.events:
            if type(event) is tuple:
                name, nbytes, direction, t = event
                if t is None:
                    if traced:
                        _marker(f"elide {direction} {name}", "gpu.elide",
                                {"transfers_elided": 1.0,
                                 "pcie_bytes_saved": float(nbytes)},
                                array=name, direction=direction,
                                sim_start_s=clock)
                    continue
                rt.profiler.record_transfer(TransferRecord(
                    array=name, nbytes=nbytes, direction=direction,
                    time_s=t, start_s=clock))
                if traced:
                    _marker(f"{direction} {name}", "gpu.transfer",
                            transfer_counters(nbytes, direction, t,
                                              rt.spec).to_dict(),
                            array=name, sim_start_s=clock, sim_time_s=t)
            else:
                t = event.timing.time_s
                kernels.append(event.kernel)
                times.append(t)
                starts.append(clock)
                prices.append(event)
                if traced:
                    _marker(event.kernel, "gpu.launch",
                            event.counters.to_dict(), kernel=event.kernel,
                            sim_start_s=clock, sim_time_s=t,
                            bound=event.timing.bound)
            clock += t
        rt.profiler.add_launches(kernels, times, starts, prices)
        rt.clock_s = clock
