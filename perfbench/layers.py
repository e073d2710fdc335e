"""Per-layer tracing, installed from outside the program.

Each layer is one public function or method of ``repro``.  A traced run
replaces it at the call sites listed below with a wrapper that counts
calls, times them and records a span (name, start, end, parent).
Nothing under ``src/`` knows about this module, and an untraced run
installs nothing, so its timings are the program's own.

A site is ``"module:attr"`` for a module-level binding (the name a
caller looks up at call time) or ``"module:Class.method"`` for a method.
A function imported with ``from m import f`` at the top of a module is
bound in that module, so that module is the call site that gets patched.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

_MISSING = object()


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric prefix and where it is patched."""

    name: str
    sites: tuple[str, ...]
    #: also report busy time minus time in wrapped child calls
    self_time: bool = False
    #: also report per-call p50/p90 latency
    quantiles: bool = False


#: ``workload`` of every registered benchmark class (each class is its
#: module's name, capitalized)
WORKLOAD_SITES = tuple(
    f"repro.benchmarks.{m}:{m.capitalize()}.workload"
    for m in ("jacobi", "ep", "spmul", "cg", "ft", "srad", "cfd", "bfs",
              "hotspot", "backprop", "kmeans", "nw", "lud"))

#: the traced layers, outermost first
LAYERS: tuple[Layer, ...] = (
    Layer("harness.unit", ("repro.benchmarks.base:Benchmark.run",),
          quantiles=True),
    Layer("benchmarks.workload", WORKLOAD_SITES),
    Layer("benchmarks.arrays", ("repro.benchmarks.base:Benchmark.arrays_for",
                                "repro.benchmarks.backprop:"
                                "Backprop.arrays_for")),
    Layer("gpusim.describe", ("repro.gpusim.kernel:Kernel.describe",),
          self_time=True),
    Layer("ir.analysis.access", ("repro.gpusim.kernel:summarize_accesses",
                                 "repro.cpu.host:summarize_accesses")),
    Layer("ir.analysis.work", ("repro.gpusim.kernel:body_work",
                               "repro.cpu.host:body_work")),
    Layer("cpu.price", ("repro.benchmarks.base:Benchmark.cpu_time",),
          self_time=True),
    Layer("gpusim.price", ("repro.gpusim.runtime:price_kernel",)),
    Layer("gpusim.execute", ("repro.gpusim.runtime:execute_kernel",)),
    Layer("models.compile",
          ("repro.models.base:DirectiveCompiler.compile_program",)),
    Layer("gpusim.trace", ("repro.gpusim.trace:TracingExecutor.run",)),
    Layer("gpusim.cache", ("repro.gpusim.locality:simulate_cache",)),
    Layer("ir.analysis.reuse",
          ("repro.gpusim.locality:analyze_kernel_reuse",
           "repro.lint.cache:analyze_kernel_reuse")),
    Layer("lint", ("repro.lint.suite:run_lint",)),
    Layer("tv", ("repro.tv.suite:validate_port",)),
    Layer("dataflow", ("repro.dataflow.suite:xfer_port",)),
    Layer("translate", ("repro.translate.suite:translate_pair",)),
    Layer("harness.merge", ("repro.harness.parallel:merge_evaluation",
                            "repro.models.cache:ArtifactStore.absorb")),
)


def resolve(site: str) -> tuple[Any, str]:
    """``(owner, attribute)`` of a site; raises LookupError if absent."""
    module_name, _, path = site.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{site}: {exc}") from None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            raise LookupError(f"{site}: no {part!r} in {module_name}")
    if getattr(owner, attr, _MISSING) is _MISSING:
        raise LookupError(f"{site}: no attribute {attr!r}")
    return owner, attr


def current(site: str) -> Any:
    """The object a site's callers see right now."""
    owner, attr = resolve(site)
    return getattr(owner, attr)


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values`` by nearest rank (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class LayerStats:
    calls: int = 0
    #: time inside the layer's outermost calls (recursion counted once)
    busy_s: float = 0.0
    #: busy time minus time covered by wrapped child calls
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Recorder:
    """Counts, times and spans for every traced layer of one process.

    The program is single-threaded in the process that installs the
    recorder; pool workers forked from it inherit the wrappers but their
    records stay in the worker and are not reported.
    """

    def __init__(self, traced: Iterable[Layer] = LAYERS) -> None:
        self.layers = tuple(traced)
        self.stats = {layer.name: LayerStats() for layer in self.layers}
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._active = {layer.name: 0 for layer in self.layers}
        self._ids = itertools.count(1)
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Patch every site; a site that no longer exists is skipped and
        listed in :attr:`missing` (its layer then reports 0 calls)."""
        for layer in self.layers:
            for site in layer.sites:
                try:
                    owner, attr = resolve(site)
                except LookupError as exc:
                    self.missing.append(str(exc))
                    continue
                raw = vars(owner).get(attr, _MISSING)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(layer.name,
                                                getattr(owner, attr)))

    def uninstall(self) -> None:
        """Put every original object back, in reverse order."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)      # the original was inherited
            else:
                setattr(owner, attr, raw)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        stack, spans, active, ids = (self._stack, self.spans, self._active,
                                     self._ids)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            outermost = active[name] == 0
            active[name] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                took = end - start
                stats.calls += 1
                stats.durations.append(took)
                stats.self_s += took - frame[1]
                if outermost:
                    stats.busy_s += took
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += took
                spans.append((frame[0], name, start, end,
                              parent[0] if parent else None))

        return traced

    def report(self) -> dict[str, dict[str, float]]:
        """Per-layer numbers for one repeat."""
        out: dict[str, dict[str, float]] = {}
        for layer in self.layers:
            s = self.stats[layer.name]
            row = {"calls": s.calls, "busy_s": s.busy_s}
            if layer.self_time:
                row["self_s"] = s.self_s
            if layer.quantiles:
                row["p50_ms"] = nearest_rank(s.durations, 0.5) * 1e3
                row["p90_ms"] = nearest_rank(s.durations, 0.9) * 1e3
            out[layer.name] = row
        return out

    def write_spans(self, path: str) -> None:
        """The spans as JSONL, one object per finished call."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
