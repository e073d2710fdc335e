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
repeat one another exactly.  Each replay is memoized on everything that
determines it (see :func:`_launch_key`); a repeat gets the stored
report under its own kernel name and the stored post-launch array
contents, without tracing again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import Mapping, MutableMapping, Optional, Sequence

import numpy as np

from repro.gpusim.cache import CacheReport, simulate_cache
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.kernel import Kernel, kernel_ir_hash
from repro.gpusim.trace import TracingExecutor
from repro.ir.analysis.reuse import KernelReuse, analyze_kernel_reuse
from repro.models import resolve_model
from repro.models.cache import compile_port
from repro.obs import metrics
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


#: the replay memo of the last (benchmark, scale) analyzed:
#: ``((benchmark, scale), {launch key: (report, {array: (contents,
#: digest)})})``.  Replaced as one tuple and read into a local; one slot
#: bounds memory to one benchmark's launches in a benchmark-major sweep.
_REPLAY_SLOT: tuple = (None, None)


def _replays(benchmark: str, scale: str) -> dict:
    """The replay memo for ``(benchmark, scale)``, swapping the slot."""
    global _REPLAY_SLOT
    key = (benchmark, scale)
    slot_key, replays = _REPLAY_SLOT
    if slot_key != key:
        replays = {}
        _REPLAY_SLOT = (key, replays)
    return replays


def _digest(arr: np.ndarray) -> bytes:
    """sha256 of an array's dtype, shape and C-order bytes."""
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr))
    return h.digest()


def _launch_key(kern: Kernel, functions: Mapping, spec: DeviceSpec,
                digests: Mapping[str, bytes],
                scalars: Mapping[str, object]) -> tuple:
    """Everything a launch's trace and replay depend on.

    The trace is a function of the body, thread variables and reachable
    functions (:func:`kernel_ir_hash`), the contents of the arrays it
    reads (all of them, by name) and the scalars (compared by type and
    ``repr``, so ``0``, ``0.0`` and ``-0.0`` stay apart); the replay
    adds the element size and the device's cache geometry.  The kernel
    name only labels the report.
    """
    return (kernel_ir_hash(kern, functions), kern.elem_bytes(), spec,
            tuple(sorted(digests.items())),
            tuple(sorted((name, type(v).__name__, repr(v))
                         for name, v in scalars.items())))


def _replay(kern: Kernel, arrays: MutableMapping[str, np.ndarray],
            scalars: dict, functions: Mapping, spec: DeviceSpec,
            digests: dict[str, bytes], replays: dict) -> CacheReport:
    """Trace and replay one launch, or repeat a memoized one.

    Either way ``arrays`` ends in the launch's post-state and
    ``digests`` describes it.
    """
    key = _launch_key(kern, functions, spec, digests, scalars)
    hit = replays.get(key)
    if hit is not None:
        report, changed = hit
        for name, (contents, digest) in changed.items():
            np.copyto(arrays[name], contents)
            digests[name] = digest
        return dataclasses.replace(report, kernel=kern.name)
    executor = TracingExecutor(kern, arrays, scalars, functions)
    executor.run()
    report = simulate_cache(executor.trace, kern.elem_bytes(), spec,
                            kernel=kern.name)
    changed = {}
    for name, arr in arrays.items():
        digest = _digest(arr)
        if digest != digests.get(name):
            contents = arr.copy()
            contents.setflags(write=False)
            changed[name] = (contents, digest)
            digests[name] = digest
    replays[key] = (report, changed)
    return report


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
    digests = {name: _digest(a) for name, a in arrays.items()}
    functions = compiled.program.functions

    kernels: list[KernelLocality] = []
    seen: set[str] = set()
    t0 = time.perf_counter()
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
                                    digests, replays)
                static = analyze_kernel_reuse(kern, bindings, extents, spec,
                                              functions=functions)
                kernels.append(KernelLocality(region=step.region,
                                              kernel=kern.name,
                                              simulated=simulated,
                                              static=static))
    metrics.inc("analysis_runs", labels={"kind": "locality"},
                help="analysis passes executed", deterministic=True)
    metrics.observe("analysis_seconds", time.perf_counter() - t0,
                    labels={"kind": "locality"},
                    help="wall-clock per analysis run")
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
    the pair list across worker processes
    (:mod:`repro.harness.parallel`); the records come back merged in
    the same table order the serial path produces.
    """
    from repro.benchmarks import BENCHMARK_ORDER
    from repro.benchmarks.base import ALL_MODELS

    if models is None:
        models = ALL_MODELS

    bench_list = list(benchmarks) if benchmarks is not None \
        else list(BENCHMARK_ORDER)
    model_list = [resolve_model(m) for m in models]
    if jobs > 1:
        from repro.harness.parallel import (SweepContext, pair_units,
                                            run_sweep)
        units = pair_units("locality", [(b, m) for b in bench_list
                                        for m in model_list])
        sweep = run_sweep(units, jobs=jobs,
                          context=SweepContext(scale=scale, trace=False))
        return sweep.results()
    return [locality_port(bench_name, model, scale=scale)
            for bench_name in bench_list
            for model in model_list]
