"""Replay each distinct launch once: the locality suite's launch memo.

The locality suite replays through the shared launch memo
(:mod:`repro.gpusim.memo`), which must be invisible: every port's
record and every array it leaves behind equal a run that uses a fresh
memo for every launch.  Its key rests on :func:`kernel_ir_hash`, so a
copied kernel must not keep its original's hash; and the batched
:func:`repro.gpusim.cache.line_stream` must equal the per-event stream
it replaced, byte for byte.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import ALL_MODELS
from repro.benchmarks.registry import BENCHMARK_ORDER, get_benchmark
from repro.gpusim import locality, memo, trace
from repro.gpusim.cache import LineStream, line_stream
from repro.gpusim.device import TESLA_M2090
from repro.gpusim.kernel import Kernel, kernel_ir_hash
from repro.gpusim.memo import LaunchMemo
from repro.gpusim.trace import MemoryTrace, TracingExecutor
from repro.ir.builder import aref, assign, call, pfor, v
from repro.ir.program import Function, Param
from repro.ir.stmt import Block
from repro.models.cache import compile_port

DIFFERENTIAL_BENCHMARKS = ("JACOBI", "BFS", "KMEANS", "NW", "LUD")


def _kernel(bench="JACOBI", model="OpenACC", region="stencil"):
    _, compiled, _ = compile_port(bench, model)
    return compiled.result(region).kernels[0], compiled.program.functions


class TestContentHash:
    def test_deepcopy_then_new_body_rehashes(self):
        kernel, functions = _kernel()
        original = kernel_ir_hash(kernel, functions)
        clone = copy.deepcopy(kernel)
        assert not {"_ir_hash_memo", "_body_digest"} & set(vars(clone))
        assert kernel_ir_hash(copy.deepcopy(kernel), functions) == original
        clone.body = Block(())
        assert kernel_ir_hash(clone, functions) != original
        assert kernel_ir_hash(kernel, functions) == original

    def test_a_freed_function_lends_no_hash(self):
        # only the Function objects are built and dropped in turn, so
        # the next one usually takes the last one's id: the hash must
        # still follow the body
        parts = {index: ([Param("dst", is_array=True), Param("i")],
                         assign(aref("dst", v(index)), 1.0))
                 for index in ("i", "n")}
        kernel = Kernel("k", pfor("i", 0, 4, call("f", v("y"), v("i"))),
                        ["i"], arrays=("y",))
        want = {index: kernel_ir_hash(copy.deepcopy(kernel),
                                      {"f": Function("f", *parts[index])})
                for index in parts}
        assert want["i"] != want["n"]
        for index in ("i", "n") * 50:
            assert kernel_ir_hash(
                kernel, {"f": Function("f", *parts[index])}) == want[index]


# ---------------------------------------------------------------------------
# Batched line stream vs the per-event reference
# ---------------------------------------------------------------------------

def _line_stream_per_event(trace_: MemoryTrace, elem_bytes: int,
                           spec=TESLA_M2090) -> LineStream:
    """The original one-``np.unique``-per-event stream, kept as the oracle."""
    line_bytes = spec.transaction_bytes
    names = sorted(trace_.arrays())
    max_elem = {name: 0 for name in names}
    for ev in trace_.events:
        if ev.lanes.size:
            max_elem[ev.array] = max(max_elem[ev.array], int(ev.lanes.max()))
    base, total_lines = {}, 0
    for name in names:
        base[name] = total_lines
        total_lines += max(1, math.ceil((max_elem[name] + 1) * elem_bytes
                                        / line_bytes))
    aid = {name: i for i, name in enumerate(names)}
    parts, ids = [], []
    span = max(1, total_lines)
    for ev in trace_.events:
        if ev.lanes.size == 0:
            continue
        gl = (ev.lanes * elem_bytes) // line_bytes + base[ev.array]
        uniq = np.unique((ev.lane_ids // spec.warp_size) * span + gl)
        parts.append(uniq % span)
        ids.append(np.full(uniq.size, aid[ev.array], dtype=np.int32))
    if parts:
        lines, array_ids = np.concatenate(parts), np.concatenate(ids)
    else:
        lines = np.zeros(0, dtype=np.int64)
        array_ids = np.zeros(0, dtype=np.int32)
    return LineStream(lines=lines, array_ids=array_ids, names=names,
                      line_bytes=line_bytes, exact=trace_.exact)


@st.composite
def traces(draw):
    """Multi-array traces with empty events, and with small address and
    lane ranges so neighbouring events often share ``(warp, line)``."""
    t = MemoryTrace()
    for _ in range(draw(st.integers(0, 12))):
        if t.events and draw(st.booleans()):
            prev = t.events[-1]
            t.record(prev.array, prev.is_store, prev.lanes, prev.lane_ids)
            continue
        n = draw(st.integers(0, 80))
        hi = draw(st.sampled_from([3, 40, 5000]))
        lane_hi = draw(st.sampled_from([0, 40, 300]))
        lanes = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
        lane_ids = draw(st.lists(st.integers(0, lane_hi), min_size=n,
                                 max_size=n))
        t.record(draw(st.sampled_from("abcd")), draw(st.booleans()),
                 np.array(lanes, dtype=np.int64),
                 np.array(lane_ids, dtype=np.int64))
    t.exact = draw(st.booleans())
    return t


@given(traces(), st.sampled_from([1, 4, 8]))
@settings(max_examples=200, deadline=None)
def test_line_stream_matches_per_event_reference(trace_, elem_bytes):
    got = line_stream(trace_, elem_bytes)
    want = _line_stream_per_event(trace_, elem_bytes)
    assert got.names == want.names
    assert (got.line_bytes, got.exact) == (want.line_bytes, want.exact)
    for field in ("lines", "array_ids"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_line_stream_empty_events_only():
    t = MemoryTrace()
    t.record("x", False, np.zeros(0, np.int64), np.zeros(0, np.int64))
    got, want = line_stream(t, 8), _line_stream_per_event(t, 8)
    assert got.names == want.names == ["x"]
    assert got.accesses == want.accesses == 0


# ---------------------------------------------------------------------------
# The memo against a run that never reuses a replay
# ---------------------------------------------------------------------------

def _count_traces(monkeypatch) -> list:
    """A list that grows by one per ``TracingExecutor.run`` call."""
    runs = []
    traced = trace.TracingExecutor.run
    monkeypatch.setattr(trace.TracingExecutor, "run",
                        lambda self: runs.append(1) or traced(self))
    return runs


def _run_ports(monkeypatch, benchmarks, fresh: bool):
    """Every model's record of each benchmark, the arrays each port
    ended with, and the launches traced; ``fresh`` hands every launch
    a new memo."""
    monkeypatch.setattr(locality, "_REPLAY_SLOT", (None, None))
    runs = _count_traces(monkeypatch)
    if fresh:
        replay = locality._replay

        def cleared(*args):
            return replay(*args[:-1], LaunchMemo())

        monkeypatch.setattr(locality, "_replay", cleared)
    records, arrays = [], []
    for name in benchmarks:
        cls = type(get_benchmark(name))
        made = cls.arrays_for

        def capture(self, *args, _made=made, **kwargs):
            arrays.append(_made(self, *args, **kwargs))
            return arrays[-1]

        monkeypatch.setattr(cls, "arrays_for", capture)
        for model in ALL_MODELS:
            records.append(locality.locality_port(name, model).to_dict())
    monkeypatch.undo()
    return records, arrays, len(runs)


def _assert_same_runs(monkeypatch, benchmarks):
    memo_records, memo_arrays, memo_runs = _run_ports(monkeypatch,
                                                      benchmarks, False)
    fresh_records, fresh_arrays, fresh_runs = _run_ports(monkeypatch,
                                                         benchmarks, True)
    assert memo_runs < fresh_runs
    assert memo_records == fresh_records
    assert len(memo_arrays) == len(fresh_arrays) == len(memo_records)
    for got, want in zip(memo_arrays, fresh_arrays):
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes(), name
    return memo_records


def test_memo_matches_fresh_replays(monkeypatch):
    records = _assert_same_runs(monkeypatch, DIFFERENTIAL_BENCHMARKS)
    # BFS's frontier loops put data-dependent traces in the comparison
    assert False in {k["simulated"]["exact"] for r in records
                     for k in r["kernels"]}


@pytest.mark.slow
def test_memo_matches_fresh_replays_full_suite(monkeypatch):
    _assert_same_runs(monkeypatch, BENCHMARK_ORDER)


def _launch(bench="JACOBI", model="OpenACC", region="stencil"):
    kernel, functions = _kernel(bench, model, region)
    b = get_benchmark(bench)
    wl = b.workload("test")
    arrays = b.arrays_for(model, "best", wl)
    return kernel, functions, arrays, dict(wl.scalars)


def _replay(kern, state, scalars, functions, replays):
    return locality._replay(kern, state, scalars, functions, TESLA_M2090,
                            replays)


class TestReplay:
    def test_hit_carries_the_callers_kernel_name(self, monkeypatch):
        kernel, functions, arrays, scalars = _launch()
        renamed = copy.deepcopy(kernel)
        renamed.name = "renamed_k0"
        runs = _count_traces(monkeypatch)
        replays = LaunchMemo()
        first, second = (copy.deepcopy(arrays) for _ in range(2))
        reports = [_replay(kern, state, scalars, functions, replays)
                   for kern, state in ((kernel, first), (renamed, second))]
        assert len(runs) == 1 and len(replays) == 1
        assert reports[0].kernel == kernel.name
        assert reports[1].kernel == "renamed_k0"
        assert reports[1].to_dict() == {**reports[0].to_dict(),
                                        "kernel": "renamed_k0"}
        changed = [n for n in arrays
                   if arrays[n].tobytes() != first[n].tobytes()]
        assert changed
        for name in arrays:
            assert first[name].tobytes() == second[name].tobytes()
            assert second[name].flags.writeable

    def test_array_contents_split_the_key(self, monkeypatch):
        kernel, functions, arrays, scalars = _launch()
        runs = _count_traces(monkeypatch)
        replays = LaunchMemo()
        name = next(n for n in kernel.arrays if arrays[n].size > 1)
        changed = copy.deepcopy(arrays)
        changed[name].flat[0] += 1.0
        for state in (copy.deepcopy(arrays), changed):
            _replay(kernel, state, scalars, functions, replays)
        assert len(runs) == 2 and len(replays) == 2

    def test_digest_sees_dtype_and_shape(self):
        digests = {memo.digest(a) for a in (
            np.zeros(4, np.int64), np.zeros(4, np.float64),
            np.zeros((2, 2), np.float64), np.zeros((2, 2)).T)}
        assert len(digests) == 3

    def test_scalars_split_the_key(self):
        kernel, functions, arrays, scalars = _launch()

        def key(**extra):
            return memo.launch_key(kernel, arrays, {**scalars, **extra},
                                   functions, TracingExecutor,
                                   (kernel.elem_bytes(), TESLA_M2090))

        keys = {key(s=v) for v in (0, 0.0, -0.0, 1, True)}
        assert len(keys) == 5 and key() not in keys
        assert key(s=0.0) == key(s=0.0)

    def test_switching_benchmark_swaps_the_slot(self, monkeypatch):
        monkeypatch.setattr(locality, "_REPLAY_SLOT", (None, None))
        locality.locality_port("JACOBI", "OpenACC")
        key, jacobi = locality._REPLAY_SLOT
        assert key == ("JACOBI", "test") and jacobi
        locality.locality_port("JACOBI", "HMPP")
        assert locality._REPLAY_SLOT[1] is jacobi
        locality.locality_port("NW", "OpenACC")
        key, nw = locality._REPLAY_SLOT
        assert key == ("NW", "test") and nw is not jacobi
        assert not nw._entries.keys() & jacobi._entries.keys()

    def test_locality_replays_through_the_shared_memo(self, monkeypatch):
        monkeypatch.setattr(locality, "_REPLAY_SLOT", (None, None))
        locality.locality_port("JACOBI", "OpenACC")
        assert type(locality._REPLAY_SLOT[1]) is memo.LaunchMemo
        assert locality.LaunchMemo is memo.LaunchMemo
        for retired in ("_launch_key", "_digest", "hashlib"):
            assert not hasattr(locality, retired)
        # the locality key is the shared one plus (element size, device)
        keys = list(locality._REPLAY_SLOT[1]._entries)
        assert keys and all(k[1] is TracingExecutor
                            and k[-1] == (8, TESLA_M2090) for k in keys)
