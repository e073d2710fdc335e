"""The whole cache replay against a naive per-access oracle.

:func:`repro.gpusim.cache.simulate_cache` lays a trace out as one line
stream, replays it through L1 and L2 with one offline dominance query
per reuse (none for windows too short to matter), and scores the
MAP-style metrics.  The oracle here does everything one access at a
time: a per-event set of ``(warp, line)`` pairs, one Python LRU list
per set, an explicit set of the distinct lines inside every TLD
window, and MRI percentiles by linear interpolation.  Every field of
``to_dict()`` must agree exactly on random multi-array traces with
masked lanes, partial warps and stores.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import cache
from repro.gpusim.cache import (TLD_WINDOW_LINES, CacheGeometry,
                                line_stream, replay_lru, simulate_cache)
from repro.gpusim.device import TESLA_M2090
from repro.gpusim.trace import MemoryTrace

LINE = TESLA_M2090.transaction_bytes
WARP = TESLA_M2090.warp_size


# -- the oracle --------------------------------------------------------------

def _sets(size_bytes, assoc):
    return max(1, size_bytes // (LINE * max(1, assoc)))


def oracle_stream(trace, elem_bytes):
    """``[(global line, array)]`` in stream order."""
    names = sorted({ev.array for ev in trace.events})
    top = {name: 0 for name in names}
    for ev in trace.events:
        for i in ev.lanes.tolist():
            top[ev.array] = max(top[ev.array], i)
    base, offset = {}, 0
    for name in names:
        base[name] = offset
        offset += max(1, math.ceil((top[name] + 1) * elem_bytes / LINE))
    stream = []
    for ev in trace.events:
        pairs = {(lane // WARP, base[ev.array] + i * elem_bytes // LINE)
                 for i, lane in zip(ev.lanes.tolist(),
                                    ev.lane_ids.tolist())}
        stream += [(line, ev.array) for _, line in sorted(pairs)]
    return stream


def oracle_lru(lines, num_sets, assoc):
    """Hit per access: one most-recent-first list per set."""
    ways, hits = {}, []
    for line in lines:
        stack = ways.setdefault(line % num_sets, [])
        hits.append(line in stack)
        if line in stack:
            stack.remove(line)
        stack.insert(0, line)
        del stack[assoc:]
    return hits


def oracle_level(name, lines, num_sets, assoc):
    hits = oracle_lru(lines, num_sets, assoc)
    distinct = set(lines)
    per_set = {}
    for line in distinct:
        per_set[line % num_sets] = per_set.get(line % num_sets, 0) + 1
    used = sum(min(c, assoc) for c in per_set.values())
    aliased = sum(max(c - assoc, 0) for c in per_set.values())
    misses = hits.count(False)
    return hits, {
        "level": name, "sets": num_sets, "assoc": assoc, "line_bytes": LINE,
        "accesses": len(lines), "misses": misses,
        "compulsory": len(distinct),
        "miss_ratio": round(misses / len(lines) if lines else 0.0, 6),
        "cache_utilization": round(used / (num_sets * assoc), 6),
        "aliasing_density": round(aliased / len(distinct)
                                  if distinct else 0.0, 6)}


def percentile(values, p):
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def oracle_report(trace, elem_bytes, spec, kernel):
    stream = oracle_stream(trace, elem_bytes)
    lines = [line for line, _ in stream]
    n = len(lines)
    s1, s2 = _sets(spec.l1_bytes, spec.l1_assoc), _sets(spec.l2_bytes,
                                                       spec.l2_assoc)
    hits1, l1 = oracle_level("L1", lines, s1, spec.l1_assoc)
    missed = [i for i in range(n) if not hits1[i]]
    hits2, l2 = oracle_level("L2", [lines[i] for i in missed], s2,
                             spec.l2_assoc)

    prev, last = [], {}
    for i, line in enumerate(lines):
        prev.append(last.get(line, -1))
        last[line] = i
    near = sum(1 for i in range(n) if prev[i] >= 0 and
               len(set(lines[prev[i] + 1:i])) <= TLD_WINDOW_LINES)
    intervals = [i - prev[i] for i in missed if prev[i] >= 0]
    spatial = sum(abs(lines[i] - lines[i - 1]) <= 1 for i in range(1, n))

    arrays = {}
    for (line, name), hit in zip(stream, hits1):
        row = arrays.setdefault(name, [0, 0, 0, 0])
        row[0] += 1
        row[1] += not hit
    for i, hit in zip(missed, hits2):
        row = arrays[stream[i][1]]
        row[2] += 1
        row[3] += not hit
    return {
        "kernel": kernel, "exact": trace.exact, "accesses": n,
        "l1": l1, "l2": l2,
        "spatial_locality": round(spatial / (n - 1) if n > 1 else 0.0, 6),
        "temporal_locality": round(near / n if n else 0.0, 6),
        "mri_p50": round(percentile(intervals, 50) if intervals else 0.0, 3),
        "mri_p90": round(percentile(intervals, 90) if intervals else 0.0, 3),
        "short_mri_fraction": round(
            sum(v < s1 * spec.l1_assoc for v in intervals) / len(intervals)
            if intervals else 0.0, 6),
        "arrays": [{"array": name,
                    "l1_accesses": a1, "l1_misses": m1,
                    "l1_miss_ratio": round(m1 / a1 if a1 else 0.0, 6),
                    "l2_accesses": a2, "l2_misses": m2,
                    "l2_miss_ratio": round(m2 / a2 if a2 else 0.0, 6)}
                   for name, (a1, m1, a2, m2) in sorted(arrays.items())]}


# -- random traces ---------------------------------------------------------

@st.composite
def traces(draw):
    """Multi-array traces: each event a sorted subset of a launch's lanes
    (masked lanes, partial warps), a load or a store, with coalesced,
    strided, uniform or scattered indices."""
    threads = draw(st.integers(1, 3 * WARP))
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3,
                          unique=True))
    space = draw(st.integers(1, 6000))
    trace = MemoryTrace()
    for _ in range(draw(st.integers(0, 30))):
        lane_ids = np.array(sorted(draw(st.sets(
            st.integers(0, threads - 1), max_size=threads))), dtype=np.int64)
        pattern = draw(st.sampled_from(["unit", "stride", "uniform",
                                        "scatter"]))
        start = draw(st.integers(0, space - 1))
        if pattern == "unit":
            idx = start + lane_ids
        elif pattern == "stride":
            idx = start + lane_ids * draw(st.integers(2, 40))
        elif pattern == "uniform":
            idx = np.full(lane_ids.size, start, dtype=np.int64)
        else:
            idx = np.array(draw(st.lists(st.integers(0, space - 1),
                                         min_size=lane_ids.size,
                                         max_size=lane_ids.size)),
                           dtype=np.int64)
        trace.record(draw(st.sampled_from(names)), draw(st.booleans()),
                     idx, lane_ids)
    trace.exact = draw(st.booleans())
    return trace


def _spec(l1_sets, l1_assoc, l2_sets, l2_assoc):
    return dataclasses.replace(
        TESLA_M2090, l1_bytes=LINE * l1_sets * l1_assoc, l1_assoc=l1_assoc,
        l2_bytes=LINE * l2_sets * l2_assoc, l2_assoc=l2_assoc)


#: small geometries make conflicts, refetches and L2 traffic common;
#: ``None`` is the Fermi default
SPECS = st.one_of(
    st.just(None),
    st.builds(_spec, st.sampled_from([1, 2, 4, 8]),
              st.sampled_from([1, 2, 4]), st.sampled_from([1, 4, 16]),
              st.sampled_from([2, 4, 8])))


@given(traces(), st.sampled_from([4, 8]), SPECS)
@settings(max_examples=150, deadline=None)
def test_simulate_cache_matches_oracle(trace, elem_bytes, spec):
    spec = spec or TESLA_M2090
    stream = line_stream(trace, elem_bytes, spec)
    want = oracle_stream(trace, elem_bytes)
    assert stream.lines.tolist() == [line for line, _ in want]
    assert [stream.names[i] for i in stream.array_ids.tolist()] == \
        [name for _, name in want]
    got = simulate_cache(trace, elem_bytes, spec, kernel="k").to_dict()
    assert got == oracle_report(trace, elem_bytes, spec, "k")


# -- the one-query window count ---------------------------------------------

def _prev(lines):
    prev, last = [], {}
    for i, line in enumerate(lines):
        prev.append(last.get(line, -1))
        last[line] = i
    return np.array(prev, dtype=np.int64)


@given(st.lists(st.integers(0, 40), min_size=2, max_size=120))
@settings(max_examples=150, deadline=None)
def test_range_distinct_brute_force(lines):
    """``d = #{r < b : pr[r] < a} - (a + 1)`` counts the distinct lines
    strictly inside ``(a, b)`` other than ``a``'s own, for every pair
    ``a < b``; the replay asks only ``a = pr[b]``, where ``a``'s line is
    not inside the window."""
    n = len(lines)
    a, b = np.triu_indices(n, k=1)
    got = cache._range_distinct(_prev(lines), a.astype(np.int64),
                                b.astype(np.int64))
    want = [len(set(lines[i + 1:j]) - {lines[i]}) for i, j in zip(a, b)]
    assert got.tolist() == want


# -- short windows: answered without a query, exactly at the boundary -------

@pytest.fixture
def queries(monkeypatch):
    """The number of windows handed to ``_range_distinct``."""
    asked = []
    real = cache._range_distinct

    def counting(pr, a, b):
        asked.append(int(a.size))
        return real(pr, a, b)

    monkeypatch.setattr(cache, "_range_distinct", counting)
    return asked


ASSOC = 4


@pytest.mark.parametrize("stream, hit, asked", [
    # w = assoc - 1 in-between accesses: a hit, never queried
    ([0, 1, 2, 3, 0], True, 0),
    # w = assoc with assoc distinct lines between: queried, a miss
    ([0, 1, 2, 3, 4, 0], False, 1),
    # w = assoc but one distinct line between: queried, a hit
    ([0, 1, 1, 1, 1, 0], True, 1),
])
def test_lru_window_boundary(queries, stream, hit, asked):
    geo = CacheGeometry(line_bytes=LINE, num_sets=1, assoc=ASSOC)
    res = replay_lru(np.array(stream, dtype=np.int64), geo)
    assert bool(res.hits[-1]) is hit
    assert res.hits.tolist() == oracle_lru(stream, 1, ASSOC)
    # the repeats of line 1 are windows of 0 accesses: never queried
    assert sum(queries) == asked


def _line_trace(lines):
    """One single-lane event per line id (elements are 4 bytes)."""
    trace = MemoryTrace()
    for line in lines:
        trace.record("a", False, np.array([line * LINE // 4]),
                     np.array([0]))
    return trace


W = TLD_WINDOW_LINES


@pytest.mark.parametrize("lines, counted, tld_queries", [
    # w = 64 accesses between the touches of line 0: counted unqueried
    ([0, *range(1, W + 1), 0], 1, 0),
    # w = 65 distinct lines between: queried, not counted
    ([0, *range(1, W + 2), 0], 0, 1),
    # w = 65 accesses but 64 distinct lines: queried, counted
    ([0, *range(1, W + 1), W, 0], 2, 1),
])
def test_tld_window_boundary(queries, lines, counted, tld_queries):
    trace = _line_trace(lines)
    report = simulate_cache(trace, 4, kernel="k")
    assert report.temporal_locality == counted / len(lines)
    assert report.to_dict() == oracle_report(trace, 4, TESLA_M2090, "k")
    # the last query batch is the TLD's; the L1 and L2 replays come first
    assert queries[-1] == tld_queries


def test_line_stream_key_space_overflow():
    """A combined (event, warp, line) key that would leave int64 is an
    error, never a silently wrapped stream."""
    trace = MemoryTrace()
    trace.record("a", False, np.array([0, 64 * LINE // 4]),
                 np.array([0, 2 ** 62]))
    with pytest.raises(OverflowError):
        line_stream(trace, 4)
