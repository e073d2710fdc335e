"""Cache-locality suite: replay + static analysis over benchmark ports.

:func:`locality_port` compiles one (benchmark, model, variant) triple,
executes every translated region's kernels once under the tracing
executor, replays the recorded address streams through the vectorized
L1/L2 model (:mod:`repro.gpusim.cache`), and runs the static reuse
analyzer (:mod:`repro.ir.analysis.reuse`) on the same launches — so
every kernel carries the *measured* and the *predicted* locality side
by side.  :func:`locality_suite` sweeps benchmarks × models, producing
the records the ``repro-harness locality`` rollup
(:mod:`repro.metrics.cachestats`) aggregates.

Regions are traced at their first occurrence in the port's schedule
(repeat invocations re-run the same launches on evolved data; the line
streams are structurally identical), with array state threaded through
in schedule order so later regions see realistic inputs.  Compilation
is memoized in :func:`repro.models.cache.compile_port` — the shared
artifact store the lint/xfer/tv suites hit.

Many models lower a region to the same kernel body, so most launches
repeat one another exactly.  Each replay goes through the launch memo
(:mod:`repro.gpusim.memo`) with the element size and device as extra
key fields and the cache report as payload; a repeat gets the stored
report under its own kernel name and the elements the launch changed,
without tracing again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, MutableMapping, Optional, Sequence

import numpy as np

from repro.gpusim.cache import CacheReport, simulate_cache
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.kernel import Kernel
from repro.gpusim.memo import LaunchMemo
from repro.gpusim.trace import TracingExecutor
from repro.ir.analysis.reuse import (KernelReuse, analyze_kernel_reuse,
                                     memoized_reuse)
from repro.models.cache import compile_port
from repro.obs import tracer as obs

__all__ = ["KernelLocality", "LocalityRecord", "locality_port",
           "locality_suite"]


@dataclass(frozen=True)
class KernelLocality:
    """Measured and predicted locality of one kernel launch."""

    region: str
    kernel: str
    simulated: CacheReport
    static: KernelReuse

    def to_dict(self) -> dict:
        return {"region": self.region, "kernel": self.kernel,
                "simulated": self.simulated.to_dict(),
                "static": self.static.to_dict()}


@dataclass(frozen=True)
class LocalityRecord:
    """One (benchmark, model) locality-suite outcome."""

    benchmark: str
    model: str
    variant: str
    scale: str
    kernels: tuple[KernelLocality, ...]

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant, "scale": self.scale,
                "kernels": [k.to_dict() for k in self.kernels]}


#: the launch memo of the last (benchmark, scale) analyzed, as
#: ``((benchmark, scale), memo)``.  Replaced as one tuple and read into
#: a local; one slot bounds memory to one benchmark's launches in a
#: benchmark-major sweep.
_REPLAY_SLOT: tuple = (None, None)


def _replays(benchmark: str, scale: str) -> LaunchMemo:
    """The launch memo for ``(benchmark, scale)``, swapping the slot."""
    global _REPLAY_SLOT
    key = (benchmark, scale)
    slot_key, replays = _REPLAY_SLOT
    if slot_key != key:
        replays = LaunchMemo()
        _REPLAY_SLOT = (key, replays)
    return replays


def _replay(kern: Kernel, arrays: MutableMapping[str, np.ndarray],
            scalars: dict, functions: Mapping, spec: DeviceSpec,
            replays: LaunchMemo) -> CacheReport:
    """Trace and replay one launch, or repeat a memoized one.

    Either way ``arrays`` ends in the launch's post-state.
    """
    def trace() -> CacheReport:
        executor = TracingExecutor(kern, arrays, scalars, functions)
        executor.run()
        return simulate_cache(executor.trace, kern.elem_bytes(), spec,
                              kernel=kern.name)

    report = replays.launch(trace, kern, arrays, scalars, functions,
                            TracingExecutor, kern.elem_bytes(), spec)
    return dataclasses.replace(report, kernel=kern.name)


def locality_port(benchmark: str, model: str, variant: Optional[str] = None,
                  scale: str = "test",
                  spec: DeviceSpec = TESLA_M2090) -> LocalityRecord:
    """Trace, replay, and statically analyze one port's kernels."""
    from repro.benchmarks import get_benchmark

    port, compiled, chosen = compile_port(benchmark, model, variant)
    bench = get_benchmark(benchmark)
    replays = _replays(bench.name, scale)
    wl = bench.workload(scale=scale)
    arrays = bench.arrays_for(model, chosen, wl)
    extents = {name: list(a.shape) for name, a in arrays.items()}
    functions = compiled.program.functions

    kernels: list[KernelLocality] = []
    seen: set[str] = set()
    with obs.span("analysis.locality", "analysis", kind="locality",
                  benchmark=benchmark, model=compiled.model):
        for step in bench.schedule_for(model, chosen, wl):
            if step.region in seen:
                continue
            seen.add(step.region)
            result = compiled.results.get(step.region)
            if result is None or not result.translated:
                continue
            scalars = dict(wl.scalars)
            scalars.update(step.scalars)
            bindings = {k: float(v) for k, v in scalars.items()
                        if isinstance(v, (int, float))}
            for kern in result.kernels:
                simulated = _replay(kern, arrays, scalars, functions, spec,
                                    replays)
                static = memoized_reuse(analyze_kernel_reuse, kern,
                                        bindings, extents, spec, functions)
                kernels.append(KernelLocality(region=step.region,
                                              kernel=kern.name,
                                              simulated=simulated,
                                              static=static))
    return LocalityRecord(benchmark=bench.name, model=compiled.model,
                          variant=chosen, scale=scale,
                          kernels=tuple(kernels))


def locality_suite(models: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   scale: str = "test",
                   jobs: int = 1) -> list[LocalityRecord]:
    """Analyze every benchmark × model pair, in table order.

    Defaults to all six models — the five directive compilers *and*
    the hand-written CUDA baseline, whose locality is the reference
    point the paper's Figure 1 normalizes against.  ``jobs>1`` shards
    the pairs (see :func:`repro.harness.parallel.sweep_ports`).
    """
    from repro.benchmarks.base import ALL_MODELS
    from repro.harness.parallel import suite_pairs, sweep_ports

    pairs = suite_pairs(benchmarks,
                        models if models is not None else ALL_MODELS)
    return sweep_ports("locality", pairs, jobs, scale=scale)
