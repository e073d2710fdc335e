"""The content-addressed compile-artifact store, shared by every sweep.

Introduced for the lint/tv suites (PR 2) as a plain memo table and since
grown into an artifact store: the harness sweeps (``figure1``,
``table2``, ``profile --all``, the baseline gate), the linter, the
translation validator, and the ``passes`` report all touch every
(benchmark, model) pair, and a port compiles identically every time, so
each pair is lowered once per process.  Each artifact carries the full
:class:`~repro.models.base.CompiledProgram` — including the per-pass
records, whose state snapshots render on first read — keyed by

    ``(bench, model, variant, config_hash)``

where ``config_hash`` digests the input program (composed from the
cached per-object digests of :mod:`repro.ir.analysis.regionmemo`, so a
program several ports share is serialized once), the port's
annotations, and the compiler's pass list.  Registry benchmarks take a
fast-key path (name triple → key, no re-hashing per call); non-registry
instances (test subclasses, ablation clones) are content-addressed, so
two instances carrying identical programs and ports share one artifact
while a subclass that overrides the port hashes differently and gets
its own.  :func:`clear_compile_cache` resets the table (tests that
monkeypatch compilers need it).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

from repro.ir.analysis.regionmemo import (block_digest, clear_region_memo,
                                          program_digests)
from repro.models import get_compiler, resolve_model

if TYPE_CHECKING:
    from repro.benchmarks.base import Benchmark
    from repro.models.base import CompiledProgram, PortSpec

# NOTE: repro.benchmarks is imported inside the functions below —
# benchmarks itself imports repro.models, so a module-level import
# would be circular.


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one compile artifact."""

    bench: str
    model: str
    variant: str
    config_hash: str


@dataclass
class Artifact:
    """One cached compilation: the port and its compiled program (whose
    region results carry the per-pass provenance records)."""

    key: ArtifactKey
    port: "PortSpec"
    compiled: "CompiledProgram"


def _config_hash(model: str, variant: str, port: "PortSpec",
                 compiler) -> str:
    """Digest everything that determines the compilation's output: the
    input program, the port's annotations, and the compiler's pass
    list (a monkeypatched or subclassed compiler hashes differently).

    The program enters through its cached per-object digests
    (:func:`program_digests` and each region body's
    :func:`block_digest`) plus the declaration fields those leave out,
    so a program shared by several ports is serialized once."""
    program = port.program
    h = hashlib.sha256()
    h.update(model.encode())
    h.update(variant.encode())
    h.update(repr((tuple(program_digests(program)), program.name,
                   program.domain, program.driver_lines,
                   list(program.scalars.values()))).encode())
    for region in program.regions:
        h.update(repr((region.name, region.private, region.affine_hint,
                       region.invocations,
                       block_digest(region.body))).encode())
    h.update(repr((port.directive_lines, port.restructured_lines,
                   port.data_regions, sorted(port.region_options.items()),
                   port.notes, port.elide_transfers)).encode())
    h.update(type(compiler).__qualname__.encode())
    h.update(repr(compiler.pipeline.pass_names()).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class StoreView:
    """A picklable snapshot (or delta) of an :class:`ArtifactStore`.

    The parallel sweep engine ships these across process boundaries:
    each worker exports the keys it compiled with the artifacts
    themselves, and the parent absorbs them, so a port
    lowered in one worker is never lowered again anywhere else, and the
    merged hit/miss accounting still sums to the request count.
    """

    keys: tuple[ArtifactKey, ...] = ()
    #: registry fast-path mappings covered by ``keys``
    fast: tuple[tuple[tuple[str, str, str], ArtifactKey], ...] = ()
    hits: int = 0
    misses: int = 0
    #: the artifacts of ``keys`` in a delta view; none in a full view
    artifacts: tuple[Artifact, ...] = ()

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self.keys)}


def merge_view_stats(views: Iterable[StoreView]) -> dict:
    """Fold per-worker store views into one stats dict.

    ``duplicates`` lists any :class:`ArtifactKey` compiled by more than
    one worker — always empty when the work-unit graph partitions the
    port set correctly (the determinism tests assert exactly that).
    """
    hits = misses = 0
    seen: dict[ArtifactKey, int] = {}
    duplicates: list[ArtifactKey] = []
    for view in views:
        hits += view.hits
        misses += view.misses
        for key in view.keys:
            seen[key] = seen.get(key, 0) + 1
            if seen[key] == 2:
                duplicates.append(key)
    return {"hits": hits, "misses": misses, "entries": len(seen),
            "duplicates": duplicates}


class ArtifactStore:
    """In-process artifact store with hit/miss accounting.

    Thread-safe: a reentrant lock serializes lookup-or-compile, so
    concurrent :func:`compile_bench` calls can never lower the same key
    twice (the second caller blocks, then hits).
    """

    def __init__(self) -> None:
        self._artifacts: dict[ArtifactKey, Artifact] = {}
        #: registry fast path: (bench, model, variant) → ArtifactKey,
        #: valid because a registry benchmark's port is deterministic
        #: per (model, variant) within a process
        self._fast: dict[tuple[str, str, str], ArtifactKey] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    # -- core ------------------------------------------------------------
    def _compile(self, key: ArtifactKey, port: "PortSpec",
                 compiler) -> Artifact:
        artifact = self._artifacts.get(key)
        if artifact is not None:
            self.hits += 1
            return artifact
        self.misses += 1
        artifact = Artifact(key=key, port=port,
                            compiled=compiler.compile_program(port))
        self._artifacts[key] = artifact
        return artifact

    def registry_artifact(self, bench: "Benchmark", model: str,
                          variant: str, elide: bool = False) -> Artifact:
        """The fast-key path: hash once, then hit by name triple.

        ``elide`` compiles the elide-transfers flavour of the port; it
        extends the fast key (and the config hash, via the port flag)
        so the two flavours never alias one artifact."""
        with self._lock:
            fast = (bench.name, model,
                    variant + "+elide" if elide else variant)
            key = self._fast.get(fast)
            if key is not None:
                self.hits += 1
                return self._artifacts[key]
            port = bench.port(model, variant)
            if elide:
                port = replace(port, elide_transfers=True)
            compiler = get_compiler(model)
            key = ArtifactKey(bench.name, model, variant,
                              _config_hash(model, variant, port, compiler))
            artifact = self._compile(key, port, compiler)
            self._fast[fast] = key
            return artifact

    def instance_artifact(self, bench: "Benchmark", model: str,
                          variant: str, elide: bool = False) -> Artifact:
        """The content-hash path for non-registry benchmark instances:
        identical content shares the registry's artifact; divergent
        content (an overridden port) gets its own entry."""
        with self._lock:
            port = bench.port(model, variant)
            if elide:
                port = replace(port, elide_transfers=True)
            compiler = get_compiler(model)
            key = ArtifactKey(bench.name, model, variant,
                              _config_hash(model, variant, port, compiler))
            return self._compile(key, port, compiler)

    # -- cross-process views ---------------------------------------------
    def view(self) -> StoreView:
        """Snapshot the whole store, without its artifacts, as a
        picklable :class:`StoreView`."""
        with self._lock:
            return StoreView(keys=tuple(self._artifacts),
                             fast=tuple(self._fast.items()),
                             hits=self.hits, misses=self.misses)

    def delta_view(self, since: StoreView) -> StoreView:
        """What happened after ``since``: new keys and their artifacts
        plus the hit/miss increments."""
        with self._lock:
            before = set(since.keys)
            before_fast = set(since.fast)
            keys = tuple(k for k in self._artifacts if k not in before)
            return StoreView(
                keys=keys,
                fast=tuple(item for item in self._fast.items()
                           if item not in before_fast),
                hits=self.hits - since.hits,
                misses=self.misses - since.misses,
                artifacts=tuple(self._artifacts[k] for k in keys))

    def absorb(self, view: StoreView) -> int:
        """Install a view's shipped artifacts (idempotent; returns the
        number actually added).  Absorption is free — it does not count
        as hits or misses — but every absorbed key serves later requests
        from memory, so a port lowered in a worker process is never
        lowered again in the parent."""
        added = 0
        with self._lock:
            for artifact in view.artifacts:
                if artifact.key not in self._artifacts:
                    self._artifacts[artifact.key] = artifact
                    added += 1
            for fast, key in view.fast:
                if key in self._artifacts:
                    self._fast.setdefault(fast, key)
        return added

    # -- bookkeeping -----------------------------------------------------
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._artifacts)}

    def clear(self) -> None:
        with self._lock:
            self._artifacts.clear()
            self._fast.clear()
            self.hits = 0
            self.misses = 0


#: the process-wide store every consumer shares
STORE = ArtifactStore()


def compile_port(benchmark: str, model: str, variant: Optional[str] = None,
                 elide: bool = False):
    """Resolve, compile, and cache one registry port.

    Returns ``(port, compiled, chosen_variant)``.  Raises KeyError for
    unknown benchmarks, models, variants, or missing ports — the CLI
    maps these to exit code 2.  ``elide`` selects the elide-transfers
    flavour (the port recompiles with ``elide_transfers=True``, so the
    transfer pipeline's elision pass attaches its plan).
    """
    from repro.benchmarks import get_benchmark

    bench = get_benchmark(benchmark)
    model = resolve_model(model)
    chosen = variant or bench.variants(model)[0]
    if chosen not in bench.variants(model):
        raise KeyError(
            f"unknown variant {chosen!r} for {bench.name}/{model}; "
            f"known: {bench.variants(model)}")
    artifact = STORE.registry_artifact(bench, model, chosen, elide=elide)
    return artifact.port, artifact.compiled, chosen


def compile_bench(bench: "Benchmark", model: str, variant: str,
                  elide: bool = False):
    """``(port, compiled)`` for an in-hand benchmark *instance*.

    Registry instances route through the fast-key path; anything else
    (test subclasses, ablation clones) is content-addressed, so repeat
    compilations of an identical instance still hit the store.
    """
    from repro.benchmarks import get_benchmark

    model = resolve_model(model)
    try:
        registered = get_benchmark(bench.name)
    except KeyError:
        registered = None
    if registered is not None and type(registered) is type(bench):
        if variant not in bench.variants(model):
            raise KeyError(
                f"unknown variant {variant!r} for {bench.name}/{model}; "
                f"known: {bench.variants(model)}")
        artifact = STORE.registry_artifact(bench, model, variant,
                                           elide=elide)
    else:
        artifact = STORE.instance_artifact(bench, model, variant,
                                           elide=elide)
    return artifact.port, artifact.compiled


def cache_stats() -> dict[str, int]:
    """Hit/miss/entry counts for the shared store (harness rollup)."""
    return STORE.stats()


def clear_compile_cache() -> None:
    """Drop every memoized compilation and region analysis (for tests)."""
    STORE.clear()
    clear_region_memo()
