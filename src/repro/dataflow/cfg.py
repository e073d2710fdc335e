"""Region-sequence CFG construction for the transfer analyses.

A compiled port executes as a *sequence* of offload-region invocations
driven by host code — including host loops that re-enter the same
regions (the Jacobi/CG sweep pattern).  This module rebuilds that shape
as a CFG whose nodes carry the exact transfer/access *events* the
runtime (:class:`~repro.models.base.ExecutableProgram`) would perform,
so the lattice analyses replay the shipped transfer discipline rather
than an idealization of it:

* region nodes replay ``_transfers_in`` / kernel access / ``_transfers_out``;
* host-fallback nodes replay ``_run_on_host``'s resident round-trip;
* data-scope entry/exit nodes replay ``_enter_data_region`` /
  ``close_data_regions`` (entry is emitted *lazily*, at the first
  covered translated region, exactly as the runtime does);
* a final node reads the program outputs (the validation consumer).

Host driver loops become back edges.  The builder *peels the first
iteration* of every loop: the peeled copy carries the one-time effects
(data-scope entry, the cold first copyin) while the steady-state copy
sees only the loop's own dataflow — without peeling, the must-analysis
would meet the cold entry state into every iteration and hide exactly
the redundant steady-state transfers this analysis exists to find.

The loop structure itself comes from either the benchmark's concrete
schedule (run-length compressed, smallest period first) or, for
schedule-less consumers like lint, from program order with consecutive
equal-``invocations`` regions grouped into one loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro.ir.analysis.dataflow import Cfg, DataflowError
from repro.ir.analysis.liveness import array_upward_exposed_reads
from repro.ir.analysis.regionmemo import (block_digest, memoized,
                                          program_digests)

if TYPE_CHECKING:
    from repro.models.base import (CompiledProgram, DataRegionSpec,
                                   RegionResult)

#: event kinds, in the vocabulary of the coherence state machine
HTOD = "htod"
DTOH = "dtoh"
ALLOC = "alloc"
DEV_READ = "dev_read"
DEV_WRITE = "dev_write"
HOST_READ = "host_read"
HOST_WRITE = "host_write"

_KINDS = (HTOD, DTOH, ALLOC, DEV_READ, DEV_WRITE, HOST_READ, HOST_WRITE)


@dataclass(frozen=True)
class Event:
    """One transfer or access the runtime performs, at name granularity.

    ``origin`` records *why* the event happens — which verdicts may
    apply to it:

    ========== ==========================================================
    origin      meaning
    ========== ==========================================================
    copyin      scope-entry htod (``_enter_data_region``)
    alloc       scope-entry allocation of a create/copyout array — the
                simulated runtime zero-fills device allocations
                (``MemoryManager.alloc``), so for the shipped ports
                (whose accumulator arrays start as host zeros too) the
                allocation *defines* the device copy
    close       scope-exit dtoh (``close_data_regions``)
    invocation  per-invocation htod/dtoh of an uncovered array
    fallback    host-fallback resident round-trip (``_run_on_host``)
    plain       kernel read of incoming data (upward-exposed, plain)
    accum       kernel read by a reduction accumulator (seeded in-region)
    kernel      kernel write
    host        host-fallback execution read/write
    final       the program-exit consumer (validation / output use)
    ========== ==========================================================
    """

    kind: str
    array: str
    origin: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DataflowError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class XferNode:
    """One CFG node: a region invocation, host fallback, scope edge,
    or the entry/final pseudo-node.

    ``trips`` is how many times this node executes in the modeled run
    (enclosing loop trip counts multiplied through, first iterations
    peeled off) — the weight for bytes accounting.
    """

    uid: str
    kind: str  # entry | region | host | scope_enter | scope_exit | final
    region: str
    trips: int
    events: tuple[Event, ...]

    def __hash__(self) -> int:  # O(1): never rehash the ``events`` tuple
        return hash((self.uid, self.kind))

    def __repr__(self) -> str:  # compact — nodes appear in solver errors
        return f"<{self.kind} {self.uid} x{self.trips}>"


@dataclass(frozen=True)
class XferCfg:
    """The built CFG plus the facts every analysis needs alongside it."""

    cfg: Cfg
    universe: frozenset[str]
    outputs: tuple[str, ...]

    @property
    def nodes(self) -> tuple[XferNode, ...]:
        return self.cfg.nodes


# ---------------------------------------------------------------------------
# loop-structure recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Leaf:
    region: str


@dataclass(frozen=True)
class _Loop:
    body: tuple
    trips: int


def _key(item) -> tuple:
    if isinstance(item, _Leaf):
        return ("leaf", item.region)
    return ("loop", item.trips, tuple(_key(b) for b in item.body))


def _compress(items: list) -> list:
    """Run-length compression with smallest-period detection.

    ``[a, b, a, b, ...] * 50`` becomes ``Loop((a, b), 50)`` — the host
    driver loop recovered from the flat schedule.  Greedy smallest
    period, maximal repetition, recursing into the chosen body.
    """
    out: list = []
    keys = [_key(it) for it in items]
    i, n = 0, len(items)
    while i < n:
        matched = False
        for period in range(1, (n - i) // 2 + 1):
            reps = 1
            while (i + (reps + 1) * period <= n
                   and keys[i + reps * period:i + (reps + 1) * period]
                   == keys[i:i + period]):
                reps += 1
            if reps >= 2:
                body = _compress(items[i:i + period])
                out.append(_Loop(tuple(body), reps))
                i += reps * period
                matched = True
                break
        if not matched:
            out.append(items[i])
            i += 1
    return out


def _items_from_schedule(compiled: "CompiledProgram",
                         schedule: Sequence) -> list:
    """Leaf/Loop items from concrete :class:`ScheduleStep`s.

    A translated step with ``times > 1`` repeats its transfers inside
    ``run_region`` — a self-loop.  An *untranslated* step round-trips
    resident data once per call regardless of ``times``, so it stays a
    single leaf.
    """
    known = {r.name for r in compiled.program.regions}
    items: list = []
    for step in schedule:
        if step.region not in known:
            raise DataflowError(f"schedule step names unknown region "
                                f"{step.region!r}")
        result = compiled.results.get(step.region)
        translated = result is not None and result.translated
        times = int(getattr(step, "times", 1))
        if times > 1 and translated:
            items.append(_Loop((_Leaf(step.region),), times))
        else:
            items.append(_Leaf(step.region))
    return _compress(items)


def _items_from_program(compiled: "CompiledProgram") -> list:
    """Program-order fallback: consecutive regions sharing the same
    ``invocations > 1`` count form one host driver loop (the declared
    outer-iteration structure, when no concrete schedule is at hand)."""
    regions = compiled.program.regions
    items: list = []
    i = 0
    while i < len(regions):
        inv = regions[i].invocations
        j = i
        while j < len(regions) and regions[j].invocations == inv:
            j += 1
        leaves = [_Leaf(r.name) for r in regions[i:j]]
        if inv > 1:
            items.append(_Loop(tuple(leaves), inv))
        else:
            items.extend(leaves)
        i = j
    return items


# ---------------------------------------------------------------------------
# expansion into event-carrying nodes
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self, compiled: "CompiledProgram") -> None:
        self.compiled = compiled
        self.program = compiled.program
        self.nodes: list[XferNode] = []
        self.edges: list[tuple[XferNode, XferNode]] = []
        self.entered: set[str] = set()
        self.resident: set[str] = set()
        self._occ: dict[str, int] = {}
        self._dr_of: dict[str, "DataRegionSpec"] = {}
        for dr in compiled.data_regions:
            for rname in dr.regions:
                self._dr_of[rname] = dr

    # -- helpers -----------------------------------------------------------
    def _add(self, node: XferNode, prev: Optional[XferNode]) -> XferNode:
        self.nodes.append(node)
        if prev is not None:
            self.edges.append((prev, node))
        return node

    def _uid(self, name: str) -> str:
        n = self._occ.get(name, 0)
        self._occ[name] = n + 1
        return f"{name}#{n}"

    def _exposed(self, region, augmented: bool) -> frozenset[str]:
        digests = program_digests(self.program)
        key = (digests.arrays, digests.functions, block_digest(region.body),
               augmented)
        return memoized("exposed", key, lambda: frozenset(
            array_upward_exposed_reads(
                region.body, self.program.functions,
                include_augmented_targets=augmented,
                arrays=self.program.arrays)))

    # -- node makers -------------------------------------------------------
    def _scope_enter(self, dr: "DataRegionSpec", trips: int,
                     prev: XferNode) -> XferNode:
        events = tuple(Event(HTOD, name, "copyin") for name in dr.copyin) \
            + tuple(Event(ALLOC, name, "alloc")
                    for name in sorted(set(dr.create + dr.copyout)
                                       - set(dr.copyin)))
        self.entered.add(dr.name)
        self.resident.update(dr.copyin + dr.create + dr.copyout)
        node = XferNode(uid=f"enter:{dr.name}", kind="scope_enter",
                        region=dr.name, trips=trips, events=events)
        return self._add(node, prev)

    def _region_node(self, region, result: "RegionResult",
                     dr: Optional["DataRegionSpec"], trips: int,
                     prev: XferNode) -> XferNode:
        covered = (frozenset(dr.copyin) | frozenset(dr.copyout)
                   | frozenset(dr.create)) if dr is not None else frozenset()
        reads, writes = set(result.reads), set(result.writes)
        exposed = self._exposed(region, augmented=True) & reads
        plain = self._exposed(region, augmented=False) & reads
        events: list[Event] = []
        # _transfers_in: uncovered read arrays ship every invocation
        for name in sorted(reads | writes):
            if name in covered:
                continue
            if name in reads:
                events.append(Event(HTOD, name, "invocation"))
        # kernel access: only upward-exposed reads consume *incoming*
        # device data; reads the region's own stores feed are internal
        for name in sorted(exposed):
            events.append(Event(DEV_READ, name,
                                "plain" if name in plain else "accum"))
        for name in sorted(writes):
            events.append(Event(DEV_WRITE, name, "kernel"))
        # _transfers_out: uncovered written arrays ship back; covered
        # ones just go dirty (the scope-exit dtoh returns them)
        for name in sorted(writes):
            if name not in covered:
                events.append(Event(DTOH, name, "invocation"))
        node = XferNode(uid=self._uid(region.name), kind="region",
                        region=region.name, trips=trips,
                        events=tuple(events))
        return self._add(node, prev)

    def _host_node(self, region, trips: int, prev: XferNode) -> XferNode:
        from repro.pipeline.passes import region_arrays

        reads, writes = region_arrays(region, self.program)
        touched = sorted((set(reads) | set(writes)) & self.resident)
        exposed = self._exposed(region, augmented=True) & set(reads)
        events: list[Event] = []
        for name in touched:
            events.append(Event(DTOH, name, "fallback"))
        for name in sorted(exposed):
            events.append(Event(HOST_READ, name, "host"))
        for name in sorted(writes):
            events.append(Event(HOST_WRITE, name, "host"))
        for name in touched:
            events.append(Event(HTOD, name, "fallback"))
        node = XferNode(uid=self._uid(region.name), kind="host",
                        region=region.name, trips=trips,
                        events=tuple(events))
        return self._add(node, prev)

    def _step(self, name: str, trips: int, prev: XferNode) -> XferNode:
        result = self.compiled.results.get(name)
        region = self.program.region(name)
        if result is None or not result.translated:
            return self._host_node(region, trips, prev)
        dr = self._dr_of.get(name)
        if dr is not None and dr.name not in self.entered:
            prev = self._scope_enter(dr, trips, prev)
        return self._region_node(region, result, dr, trips, prev)

    # -- tree walk ---------------------------------------------------------
    def expand(self, items: Iterable, mult: int,
               prev: XferNode) -> XferNode:
        for item in items:
            if isinstance(item, _Leaf):
                prev = self._step(item.region, mult, prev)
            else:
                # peel the first trip: one-time effects (scope entry,
                # cold copyin) land here, outside the cycle
                prev = self.expand(item.body, mult, prev)
                if item.trips > 1:
                    start = len(self.nodes)
                    last = self.expand(item.body,
                                       mult * (item.trips - 1), prev)
                    self.edges.append((last, self.nodes[start]))
                    prev = last
        return prev


def default_outputs(compiled: "CompiledProgram") -> tuple[str, ...]:
    """The arrays the host provably consumes after the run when no
    benchmark-level output list is available: ``intent "out"`` arrays.
    (``inout`` work arrays may deliberately stay device-resident —
    DATA002/XFER rules warn about those; they are not a hard COH error.)
    """
    return tuple(sorted(name for name, decl in compiled.program.arrays.items()
                        if decl.intent == "out"))


def build_xfer_cfg(compiled: "CompiledProgram",
                   schedule: Optional[Sequence] = None,
                   outputs: Optional[Iterable[str]] = None) -> XferCfg:
    """Build the region-sequence CFG for one compiled port.

    ``schedule`` is the benchmark's concrete :class:`ScheduleStep`
    sequence (preferred); without it the program's declared region order
    and ``invocations`` counts shape the graph.  ``outputs`` are the
    arrays the final node reads (default: ``intent "out"`` arrays).
    """
    builder = _Builder(compiled)
    entry = XferNode(uid="@entry", kind="entry", region="", trips=1,
                     events=())
    builder._add(entry, None)
    items = (_items_from_schedule(compiled, schedule)
             if schedule is not None else _items_from_program(compiled))
    prev = builder.expand(items, 1, entry)
    # close_data_regions: every entered scope copies its copyout set back
    for dr in compiled.data_regions:
        if dr.name in builder.entered and dr.copyout:
            node = XferNode(
                uid=f"exit:{dr.name}", kind="scope_exit", region=dr.name,
                trips=1,
                events=tuple(Event(DTOH, name, "close")
                             for name in dr.copyout))
            prev = builder._add(node, prev)
    if outputs is None:
        out_names = default_outputs(compiled)
    else:
        out_names = tuple(sorted(set(outputs)
                                 & set(compiled.program.arrays)))
    final = XferNode(uid="@final", kind="final", region="", trips=1,
                     events=tuple(Event(HOST_READ, name, "final")
                                  for name in out_names))
    builder._add(final, prev)
    universe = frozenset(compiled.program.arrays) | frozenset(
        ev.array for node in builder.nodes for ev in node.events)
    return XferCfg(cfg=Cfg(tuple(builder.nodes), tuple(builder.edges)),
                   universe=universe, outputs=out_names)
