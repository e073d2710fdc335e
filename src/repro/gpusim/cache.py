"""Vectorized set-associative L1/L2 cache replay over a memory trace.

The timing model prices DRAM traffic from coalescing alone; Figure 1's
shape for the irregular benchmarks (SPMUL/CG/BFS) is decided by what
the cache hierarchy *keeps*, not by how wide each warp access is.  This
module replays a recorded :class:`~repro.gpusim.trace.MemoryTrace`
through an exact LRU set-associative model of the Fermi L1/L2 (geometry
on :class:`~repro.gpusim.device.DeviceSpec`) and emits the
MAP-analyzer-style locality metric suite per kernel:

* **miss ratio** per level and per array (compulsory misses split out);
* **spatial locality degree** — fraction of consecutive line accesses
  that stay within one line of the previous access (streaming-ness);
* **temporal locality degree** — fraction of accesses that re-touch a
  line while fewer than :data:`TLD_WINDOW_LINES` distinct lines have
  intervened (a geometry-independent reuse-distance window);
* **cache utilization ratio** — fraction of (set, way) frames the
  kernel's distinct footprint can actually occupy;
* **aliasing density** — fraction of the distinct footprint that
  oversubscribes its sets (lines beyond ``assoc`` per set);
* **memory-roundtrip-interval (MRI)** distribution — for every refetch
  miss, the access-stream distance back to the previous touch of the
  same line; short intervals are misses a same-size fully-associative
  cache would have kept (conflict/thrash misses).

Everything is vectorized: the only Python loops are over recorded
*events* (one per executed reference statement) and over the
``log2(N)`` levels of a merge-sort tree — never over individual
accesses.  The LRU hit test is exact, not sampled: an access hits iff
the number of distinct same-set lines touched since the previous access
to its line is below the associativity.  That count is one 2D
dominance query per reuse, answered offline for all reuses at once (see
:func:`_range_distinct`); a window holding fewer accesses than the
associativity (or, for the temporal locality degree, at most
:data:`TLD_WINDOW_LINES`) is decided by its length and never queried.

Traces from data-dependent kernels (CSR-style masked iteration) carry
``exact=False`` (see :mod:`repro.gpusim.trace`); the report propagates
the flag so consumers label those miss ratios as lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.trace import MemoryTrace

__all__ = ["CacheGeometry", "ReplayResult", "LevelStats", "ArrayCacheStats",
           "CacheReport", "l1_geometry", "l2_geometry", "replay_lru",
           "line_stream", "simulate_cache", "TLD_WINDOW_LINES"]

#: reuse-distance window (distinct lines) under which a re-touch counts
#: toward the temporal locality degree — independent of cache geometry
TLD_WINDOW_LINES = 64


@dataclass(frozen=True)
class CacheGeometry:
    """One cache level: ``num_sets`` sets of ``assoc`` lines each."""

    line_bytes: int
    num_sets: int
    assoc: int

    @property
    def lines(self) -> int:
        return self.num_sets * self.assoc

    @property
    def total_bytes(self) -> int:
        return self.lines * self.line_bytes

    @staticmethod
    def of(size_bytes: int, line_bytes: int, assoc: int) -> "CacheGeometry":
        sets = max(1, size_bytes // (line_bytes * max(1, assoc)))
        return CacheGeometry(line_bytes=line_bytes, num_sets=sets,
                             assoc=max(1, assoc))


def l1_geometry(spec: DeviceSpec = TESLA_M2090) -> CacheGeometry:
    return CacheGeometry.of(spec.l1_bytes, spec.transaction_bytes,
                            spec.l1_assoc)


def l2_geometry(spec: DeviceSpec = TESLA_M2090) -> CacheGeometry:
    return CacheGeometry.of(spec.l2_bytes, spec.transaction_bytes,
                            spec.l2_assoc)


# ---------------------------------------------------------------------------
# Offline dominance counting (the vectorized LRU stack-distance core)
# ---------------------------------------------------------------------------

def _prefix_less_count(vals: np.ndarray, X: np.ndarray,
                       V: np.ndarray) -> np.ndarray:
    """``out[q] = #{ r < X[q] : vals[r] < V[q] }`` for all queries at once.

    A merge-sort tree evaluated level by level: level ``k`` holds the
    array cut into sorted blocks of ``2**k``; a prefix ``[0, X)``
    decomposes into one block per set bit of ``X``.  Counting inside a
    block is one ``np.searchsorted`` against the whole level, made
    globally sorted by offsetting each block's values into a disjoint
    integer range.  Work: ``O(N log^2 N)`` build, ``O(Q log N)`` query,
    zero per-access Python loops.
    """
    n = int(vals.size)
    out = np.zeros(X.size, dtype=np.int64)
    if n == 0 or X.size == 0:
        return out
    levels = max(1, (n - 1).bit_length()) if n > 1 else 1
    m = 1 << levels
    shifted = vals.astype(np.int64) + 1          # -1 sentinel -> 0
    sentinel = np.int64(n + 2)
    data = np.concatenate([shifted, np.full(m - n, sentinel, np.int64)])
    radix = np.int64(n + 4)                      # > any shifted value
    vq = V.astype(np.int64) + 1
    xq = X.astype(np.int64)
    for k in range(levels + 1):
        sel = ((xq >> k) & 1).astype(bool)
        if not sel.any():
            continue
        bs = 1 << k
        blocks = data.reshape(m // bs, bs)
        if k:
            blocks = np.sort(blocks, axis=1)
        offs = np.arange(m // bs, dtype=np.int64)[:, None] * radix
        flat = (blocks + offs).ravel()
        blk = (xq[sel] >> (k + 1)) * 2
        pos = np.searchsorted(flat, blk * radix + vq[sel], side="left")
        out[sel] += pos - blk * bs
    return out


def _range_distinct(pr: np.ndarray, a: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Distinct lines touched strictly between positions ``a`` and ``b``.

    ``pr[r]`` is the position of the previous access to position ``r``'s
    line (``-1`` if none).  A position ``r`` in ``(a, b)`` is the *first*
    in-window touch of its line iff ``pr[r] < a`` — counting those
    counts each distinct line once:

        d = #{ r : a < r < b, pr[r] < a }
          = #{ r < b : pr[r] < a } - (a + 1)

    since every ``r <= a`` has ``pr[r] < r <= a`` (a previous access
    comes earlier), so one dominance query per window suffices.
    """
    return _prefix_less_count(pr, b, a) - (a + 1)


@dataclass
class ReplayResult:
    """Exact per-access outcome of one LRU set-associative replay."""

    geometry: CacheGeometry
    hits: np.ndarray        #: bool (N,)
    compulsory: np.ndarray  #: bool (N,) — first-ever touch of the line
    prev: np.ndarray        #: int64 (N,) — previous same-line access, -1

    @property
    def accesses(self) -> int:
        return int(self.hits.size)

    @property
    def misses(self) -> int:
        return int(self.accesses - np.count_nonzero(self.hits))

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def replay_lru(lines: np.ndarray,
               geometry: CacheGeometry) -> ReplayResult:
    """Replay a line-id stream through an LRU set-associative cache.

    An access to line ``L`` hits iff fewer than ``assoc`` distinct lines
    mapping to ``L``'s set were touched since the previous access to
    ``L`` (the classic LRU stack-distance criterion).  Computed for all
    accesses at once: accesses are re-ranked into per-set contiguous
    blocks (stable sort by set keeps time order inside each set), so
    every same-set window is one contiguous rank interval and all
    windows longer than ``assoc - 1`` accesses are answered with a
    single offline dominance count; shorter ones are hits.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = lines.size
    if n == 0:
        empty_b = np.zeros(0, dtype=bool)
        return ReplayResult(geometry=geometry, hits=empty_b.copy(),
                            compulsory=empty_b.copy(),
                            prev=np.zeros(0, dtype=np.int64))
    sets = lines % geometry.num_sets

    # previous access to the same line, in stream order
    order = np.argsort(lines, kind="stable")
    sl = lines[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = sl[1:] == sl[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    compulsory = prev < 0

    # rank space: stable sort by set — each set a contiguous, time-ordered
    # block, so same-set windows never cross block boundaries
    by_set = np.argsort(sets, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_set] = np.arange(n, dtype=np.int64)

    pr = np.full(n, -1, dtype=np.int64)
    reused = prev >= 0
    pr[rank[reused]] = rank[prev[reused]]

    hits = np.zeros(n, dtype=bool)
    if reused.any():
        a = rank[prev[reused]]
        b = rank[reused]
        # d <= b - a - 1, the same-set accesses in between, so a window
        # shorter than ``assoc`` hits without a query
        hit = b - a - 1 < geometry.assoc
        far = ~hit
        hit[far] = _range_distinct(pr, a[far], b[far]) < geometry.assoc
        hits[reused] = hit
    return ReplayResult(geometry=geometry, hits=hits,
                        compulsory=compulsory, prev=prev)


# ---------------------------------------------------------------------------
# Trace -> line-access stream
# ---------------------------------------------------------------------------

@dataclass
class LineStream:
    """The deduplicated transaction stream a trace generates.

    One entry per distinct ``(warp, line)`` pair per event — the same
    dedup :meth:`MemoryTrace.transactions` counts — ordered by event,
    then ``(warp, line)`` inside each event (deterministic).
    """

    lines: np.ndarray      #: int64 global line ids
    array_ids: np.ndarray  #: int32 index into :attr:`names`
    names: list[str]
    line_bytes: int
    exact: bool

    @property
    def accesses(self) -> int:
        return int(self.lines.size)


def _drop_repeats(key: np.ndarray) -> np.ndarray:
    """``key`` without the entries equal to their predecessor."""
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    return key[keep]


def line_stream(trace: MemoryTrace, elem_bytes: int,
                spec: DeviceSpec = TESLA_M2090) -> LineStream:
    """Lay the traced arrays out in a synthetic line-address space.

    Arrays get disjoint line-aligned base offsets in sorted-name order
    (sizes from the largest flat index each trace touched), then every
    event's lane addresses collapse to distinct ``(warp, line)`` pairs.
    All events are deduplicated at once: each lane gets one combined
    (event, ``warp * span + line``) key, and a drop of adjacent repeats,
    one sort and a second drop leave each key once, in order — instead
    of one ``np.unique`` per event.
    """
    line_bytes = spec.transaction_bytes
    names = sorted(trace.arrays())
    aid = {name: i for i, name in enumerate(names)}
    events = [ev for ev in trace.events if ev.lanes.size]
    if not events:
        return LineStream(lines=np.zeros(0, dtype=np.int64),
                          array_ids=np.zeros(0, dtype=np.int32),
                          names=names, line_bytes=line_bytes,
                          exact=trace.exact)
    sizes = np.array([ev.lanes.size for ev in events], dtype=np.int64)
    ev_aid = np.array([aid[ev.array] for ev in events], dtype=np.int32)
    lanes = np.concatenate([ev.lanes for ev in events])
    lane_ids = np.concatenate([ev.lane_ids for ev in events])

    max_elem = np.zeros(len(names), dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    np.maximum.at(max_elem, ev_aid, np.maximum.reduceat(lanes, starts))
    size_lines = np.maximum(
        1, -(-(max_elem + 1) * elem_bytes // line_bytes))
    base = np.concatenate([[0], np.cumsum(size_lines[:-1])])
    span = int(size_lines.sum())

    # one combined (event, warp * span + line) key per lane: repeats
    # inside an event become equal keys, and sorted keys are in event
    # order, then (warp, line) order inside each event
    width = (int(lane_ids.max()) // spec.warp_size + 1) * span
    if len(events) * width >= 2 ** 63:
        raise OverflowError(f"line stream key space of {len(events)} "
                            f"events x {width} exceeds int64")
    key = (lane_ids // spec.warp_size) * span
    key += (lanes * elem_bytes) // line_bytes
    key += np.repeat(base[ev_aid] + np.arange(len(events), dtype=np.int64)
                     * width, sizes)
    # neighbouring lanes mostly share a line: dropping adjacent repeats
    # first leaves the sort a fraction of the lanes, and dropping them
    # again after it leaves each key once
    key = np.sort(_drop_repeats(key))
    key = _drop_repeats(key)
    return LineStream(lines=key % width % span,
                      array_ids=ev_aid[key // width], names=names,
                      line_bytes=line_bytes, exact=trace.exact)


# ---------------------------------------------------------------------------
# Metric aggregation
# ---------------------------------------------------------------------------

@dataclass
class ArrayCacheStats:
    """Per-array miss accounting at both levels."""

    array: str
    l1_accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0

    @property
    def l1_miss_ratio(self) -> float:
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_miss_ratio(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    def to_dict(self) -> dict:
        return {"array": self.array,
                "l1_accesses": self.l1_accesses,
                "l1_misses": self.l1_misses,
                "l1_miss_ratio": round(self.l1_miss_ratio, 6),
                "l2_accesses": self.l2_accesses,
                "l2_misses": self.l2_misses,
                "l2_miss_ratio": round(self.l2_miss_ratio, 6)}


@dataclass
class LevelStats:
    """One cache level's aggregate outcome."""

    level: str
    geometry: CacheGeometry
    accesses: int = 0
    misses: int = 0
    compulsory: int = 0
    cache_utilization: float = 0.0
    aliasing_density: float = 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def to_dict(self) -> dict:
        return {"level": self.level,
                "sets": self.geometry.num_sets,
                "assoc": self.geometry.assoc,
                "line_bytes": self.geometry.line_bytes,
                "accesses": self.accesses, "misses": self.misses,
                "compulsory": self.compulsory,
                "miss_ratio": round(self.miss_ratio, 6),
                "cache_utilization": round(self.cache_utilization, 6),
                "aliasing_density": round(self.aliasing_density, 6)}


def _occupancy_metrics(distinct: np.ndarray,
                       geometry: CacheGeometry) -> tuple[float, float]:
    """(cache-utilization ratio, aliasing density) of a stream's
    ``distinct`` lines (in any order)."""
    if distinct.size == 0:
        return 0.0, 0.0
    per_set = np.bincount((distinct % geometry.num_sets).astype(np.int64),
                          minlength=geometry.num_sets)
    used = np.minimum(per_set, geometry.assoc).sum()
    aliased = np.maximum(per_set - geometry.assoc, 0).sum()
    return (float(used) / geometry.lines,
            float(aliased) / float(distinct.size))


@dataclass
class CacheReport:
    """The full MAP-style locality metric suite for one kernel."""

    kernel: str
    exact: bool
    accesses: int
    l1: LevelStats
    l2: LevelStats
    spatial_locality: float
    temporal_locality: float
    mri_p50: float
    mri_p90: float
    short_mri_fraction: float
    per_array: dict[str, ArrayCacheStats] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, "exact": self.exact,
                "accesses": self.accesses,
                "l1": self.l1.to_dict(), "l2": self.l2.to_dict(),
                "spatial_locality": round(self.spatial_locality, 6),
                "temporal_locality": round(self.temporal_locality, 6),
                "mri_p50": round(self.mri_p50, 3),
                "mri_p90": round(self.mri_p90, 3),
                "short_mri_fraction": round(self.short_mri_fraction, 6),
                "arrays": [self.per_array[name].to_dict()
                           for name in sorted(self.per_array)]}


def _per_array(stats: dict[str, ArrayCacheStats], names: list[str],
               ids: np.ndarray, hits: np.ndarray, level: str) -> None:
    if ids.size == 0:
        return
    acc = np.bincount(ids, minlength=len(names))
    miss = np.bincount(ids[~hits], minlength=len(names))
    for i, name in enumerate(names):
        if not acc[i]:
            continue
        row = stats.setdefault(name, ArrayCacheStats(array=name))
        if level == "l1":
            row.l1_accesses, row.l1_misses = int(acc[i]), int(miss[i])
        else:
            row.l2_accesses, row.l2_misses = int(acc[i]), int(miss[i])


def simulate_cache(trace: MemoryTrace, elem_bytes: int,
                   spec: DeviceSpec = TESLA_M2090,
                   kernel: str = "") -> CacheReport:
    """Replay a kernel's trace through L1 then L2 and score locality.

    L2 sees exactly the L1 miss subsequence (write-allocate, inclusive
    of reads and stores — the Fermi L2 services every L1 miss).  MRI is
    measured at L1: for each non-compulsory miss, the access-stream
    distance back to the previous touch of the same line.  A *short*
    interval is one below the L1's total line count — those misses would
    have hit in a fully-associative cache of the same size, i.e. pure
    conflict/thrash traffic.
    """
    stream = line_stream(trace, elem_bytes, spec)
    g1, g2 = l1_geometry(spec), l2_geometry(spec)
    r1 = replay_lru(stream.lines, g1)
    cur1, ad1 = _occupancy_metrics(stream.lines[r1.compulsory], g1)
    l1 = LevelStats(level="L1", geometry=g1, accesses=r1.accesses,
                    misses=r1.misses,
                    compulsory=int(np.count_nonzero(r1.compulsory)),
                    cache_utilization=cur1, aliasing_density=ad1)

    miss_mask = ~r1.hits
    l2_lines = stream.lines[miss_mask]
    l2_ids = stream.array_ids[miss_mask]
    r2 = replay_lru(l2_lines, g2)
    cur2, ad2 = _occupancy_metrics(l2_lines[r2.compulsory], g2)
    l2 = LevelStats(level="L2", geometry=g2, accesses=r2.accesses,
                    misses=r2.misses,
                    compulsory=int(np.count_nonzero(r2.compulsory)),
                    cache_utilization=cur2, aliasing_density=ad2)

    n = stream.accesses
    if n > 1:
        sld = float(np.count_nonzero(
            np.abs(np.diff(stream.lines)) <= 1)) / (n - 1)
    else:
        sld = 0.0

    # temporal locality: re-touches within a fixed reuse-distance window,
    # measured against a fully-associative single-set "cache" so the
    # number is geometry-independent
    tld = 0.0
    reused = r1.prev >= 0
    if reused.any():
        pr = r1.prev  # rank space == stream order for a single set
        a = pr[reused]
        b = np.flatnonzero(reused).astype(np.int64)
        # a window of at most TLD_WINDOW_LINES accesses counts unqueried
        near = b - a - 1 <= TLD_WINDOW_LINES
        far = ~near
        d_far = _range_distinct(pr, a[far], b[far])
        tld = float(np.count_nonzero(near)
                    + np.count_nonzero(d_far <= TLD_WINDOW_LINES)) / n

    refetch = miss_mask & ~r1.compulsory
    if refetch.any():
        idx = np.flatnonzero(refetch).astype(np.int64)
        intervals = (idx - r1.prev[idx]).astype(np.float64)
        mri_p50 = float(np.percentile(intervals, 50))
        mri_p90 = float(np.percentile(intervals, 90))
        short = float(np.count_nonzero(intervals < g1.lines))
        short_fraction = short / intervals.size
    else:
        mri_p50 = mri_p90 = 0.0
        short_fraction = 0.0

    stats: dict[str, ArrayCacheStats] = {}
    _per_array(stats, stream.names, stream.array_ids, r1.hits, "l1")
    _per_array(stats, stream.names, l2_ids, r2.hits, "l2")

    return CacheReport(kernel=kernel, exact=stream.exact, accesses=n,
                       l1=l1, l2=l2, spatial_locality=sld,
                       temporal_locality=tld, mri_p50=mri_p50,
                       mri_p90=mri_p90, short_mri_fraction=short_fraction,
                       per_array=stats)
