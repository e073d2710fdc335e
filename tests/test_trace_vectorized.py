"""MemoryTrace.transactions: grouped counting vs the per-warp loop.

The vectorized implementation counts distinct (warp, segment) pairs with
one ``np.unique`` per event; this file pins its equivalence to the
original per-warp Python loop — exactly, since both are ratios of
integer counts — on synthetic traces and on a benchmark-sized kernel
execution.
"""

import numpy as np
import pytest

from repro.gpusim.device import TESLA_M2090
from repro.gpusim.trace import MemoryTrace, TracingExecutor


def reference_transactions(trace, array, elem_bytes, spec=TESLA_M2090,
                           stores=None):
    """The original implementation: Python loop over warps."""
    per_warp = []
    seg = spec.transaction_bytes
    w = spec.warp_size
    for ev in trace.events:
        if ev.array != array:
            continue
        if stores is not None and ev.is_store != stores:
            continue
        if ev.lanes.size == 0:
            continue
        warps = ev.lane_ids // w
        segments = (ev.lanes * elem_bytes) // seg
        for wid in np.unique(warps):
            per_warp.append(float(np.unique(segments[warps == wid]).size))
    if not per_warp:
        return 0.0
    return float(np.mean(per_warp))


def synthetic_trace(rng, events=50, lanes=4096, space=1 << 20):
    trace = MemoryTrace()
    for i in range(events):
        n = int(rng.integers(1, lanes))
        lane_ids = np.sort(rng.choice(lanes, size=n, replace=False))
        kind = i % 3
        if kind == 0:        # coalesced
            idx = lane_ids.copy()
        elif kind == 1:      # strided
            idx = lane_ids * int(rng.integers(2, 33))
        else:                # indirect
            idx = rng.integers(0, space, size=n)
        trace.record("a", is_store=bool(i % 2), lanes=idx,
                     lane_ids=lane_ids)
    return trace


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("elem_bytes", [4, 8])
    def test_synthetic_traces(self, seed, elem_bytes):
        trace = synthetic_trace(np.random.default_rng(seed))
        for stores in (None, True, False):
            got = trace.transactions("a", elem_bytes, stores=stores)
            want = reference_transactions(trace, "a", elem_bytes,
                                          stores=stores)
            assert got == want

    def test_empty_and_unknown_array(self):
        trace = MemoryTrace()
        assert trace.transactions("a", 8) == 0.0
        trace.record("a", False, np.arange(4), np.arange(4))
        assert trace.transactions("b", 8) == 0.0
        assert trace.transactions("a", 8) == \
            reference_transactions(trace, "a", 8)

    def test_single_partial_warp(self):
        trace = MemoryTrace()
        # 3 lanes of warp 0 touching 2 segments
        trace.record("a", False, np.array([0, 1, 16]),
                     np.array([0, 1, 2]))
        assert trace.transactions("a", 8) == 2.0

    def test_benchmark_sized_execution(self):
        """Trace a real kernel at benchmark size; compare implementations."""
        from repro.benchmarks import get_benchmark

        bench = get_benchmark("JACOBI")
        wl = bench.workload(scale="test")
        port = bench.port("Hand-Written CUDA", "best")
        from repro.models import get_compiler
        compiled = get_compiler("Hand-Written CUDA").compile_program(port)
        result = next(r for r in compiled.results.values() if r.translated)
        kernel = result.kernels[0]
        arrays = {k: np.array(v, copy=True) for k, v in wl.arrays.items()}
        ex = TracingExecutor(kernel, arrays, dict(wl.scalars))
        ex.run()
        trace = ex.trace
        assert trace.events, "tracing produced no events"
        elem = kernel.elem_bytes()
        for array in sorted(trace.arrays()):
            for stores in (None, True, False):
                got = trace.transactions(array, elem, stores=stores)
                want = reference_transactions(trace, array, elem,
                                              stores=stores)
                assert got == want, (array, stores)


class TestRecording:
    """A traced access records its flat indices by stride arithmetic on
    the bounded subscripts: the same values ``np.ravel_multi_index``
    gives over the broadcast subscripts, for the active lanes only."""

    @staticmethod
    def _executor(threads, mask):
        from repro.gpusim.kernel import Kernel
        from repro.ir.builder import aref, assign, pfor, v

        kern = Kernel("k", pfor("i", 0, threads,
                                assign(aref("b", v("i")), 1.0)),
                      ["i"], arrays=["b"], scalars=[])
        ex = TracingExecutor(kern, {"b": np.zeros(1)}, {})
        ex.T = threads
        if mask is not None:
            ex._push_mask(mask)
        return ex

    @pytest.mark.parametrize("seed", range(12))
    def test_flat_indices_match_ravel(self, seed):
        rng = np.random.default_rng(seed)
        threads = int(rng.integers(1, 70))
        shape = tuple(int(d) for d in rng.integers(1, 9, size=seed % 3 + 1))
        mask = None if seed % 2 else rng.random(threads) < 0.6
        ex = self._executor(threads, mask)
        idx = tuple(
            int(rng.integers(0, dim)) if rng.random() < 0.4 else
            rng.integers(0, dim, size=threads).astype(
                np.int32 if rng.random() < 0.5 else np.int64)
            for dim in shape)
        active = None if mask is None else np.flatnonzero(mask)
        got = ex._flat_indices(shape, idx, active)
        want = np.ravel_multi_index(
            tuple(np.broadcast_to(i, (threads,)) for i in idx), shape)
        if mask is not None:
            want = want[mask]
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        # a fresh array, never one of the executor's subscript vectors
        assert not any(got is i for i in idx)

    def test_unmasked_events_share_one_lane_vector(self):
        from repro.ir.builder import aref, v

        ex = self._executor(40, None)
        ex.arrays["b"] = np.zeros(40)
        ex.env["i"] = np.arange(40)
        for _ in range(2):
            ex._load(aref("b", v("i")))
        first, second = ex.trace.events
        assert first.lane_ids is second.lane_ids
        assert not first.lane_ids.flags.writeable
        np.testing.assert_array_equal(first.lanes, np.arange(40))
