"""Cross-validation: vectorizing executor vs the tracing executor vs the
scalar reference interpreter, through the shared differential harness
(:mod:`tests.difftest`) — one helper for all three engines instead of a
per-file ``both()`` clone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.difftest import affine_programs, assert_same_result
from repro.ir.builder import (accum, aref, assign, block, iff, intrinsic,
                              pfor, sfor, v)


def both(body, tvars, arrays, scalars=None, rtol=1e-12):
    """Run all three engines; assert all arrays agree (bitwise between
    the vectorized engines, within tolerance against the reference)."""
    return assert_same_result((body, tvars), arrays, scalars=scalars,
                              rtol=rtol, atol=1e-12)


class TestDirected:
    def test_stencil(self):
        body = pfor("i", 1, 7, sfor("j", 1, 5, assign(
            aref("b", v("i"), v("j")),
            0.25 * (aref("a", v("i") - 1, v("j"))
                    + aref("a", v("i") + 1, v("j"))
                    + aref("a", v("i"), v("j") - 1)
                    + aref("a", v("i"), v("j") + 1)))))
        rng = np.random.default_rng(3)
        both(body, ["i"], {"a": rng.random((8, 6)), "b": np.zeros((8, 6))})

    def test_reduction_tolerates_reassociation(self):
        body = pfor("i", 0, 64, accum(aref("s", 0), aref("a", v("i"))))
        rng = np.random.default_rng(4)
        both(body, ["i"], {"a": rng.random(64), "s": np.zeros(1)},
             rtol=1e-9)

    def test_divergent_branches(self):
        body = pfor("i", 0, 16, iff(
            (v("i") % 3).eq(0),
            assign(aref("b", v("i")), intrinsic("exp", v("i") / 16.0)),
            accum(aref("b", v("i")), -1.0)))
        both(body, ["i"], {"b": np.zeros(16)})

    def test_csr_style_gather(self):
        rowstr = np.array([0, 2, 2, 5, 6], dtype=np.int64)
        col = np.array([0, 3, 1, 2, 0, 3], dtype=np.int64)
        val = np.arange(1.0, 7.0)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        body = pfor("i", 0, 4, block(
            assign(aref("y", v("i")), 0.0),
            sfor("k", aref("rowstr", v("i")), aref("rowstr", v("i") + 1),
                 accum(aref("y", v("i")),
                       aref("val", v("k"))
                       * aref("x", aref("col", v("k"))))),
        ))
        out = both(body, ["i"], {"rowstr": rowstr, "col": col, "val": val,
                                 "x": x, "y": np.zeros(4)})
        assert out["y"][1] == 0.0  # empty row


@st.composite
def stencil_cases(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    m = draw(st.integers(min_value=3, max_value=8))
    di = draw(st.integers(min_value=-1, max_value=1))
    dj = draw(st.integers(min_value=-1, max_value=1))
    scale = draw(st.floats(min_value=-2, max_value=2,
                           allow_nan=False, allow_infinity=False))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return n, m, di, dj, scale, seed


class TestPropertyBased:
    @given(stencil_cases())
    @settings(max_examples=40, deadline=None)
    def test_random_affine_stencils_agree(self, case):
        n, m, di, dj, scale, seed = case
        body = pfor("i", 1, n - 1,
                    sfor("j", 1, m - 1,
                         assign(aref("b", v("i"), v("j")),
                                aref("a", v("i") + di, v("j") + dj)
                                * scale)))
        rng = np.random.default_rng(seed)
        both(body, ["i"], {"a": rng.random((n, m)),
                           "b": np.zeros((n, m))})

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=40),
           st.sampled_from(["+", "max", "min"]))
    @settings(max_examples=40, deadline=None)
    def test_random_histograms_agree(self, indices, op):
        idx = np.array(indices, dtype=np.int64)
        body = pfor("i", 0, len(idx),
                    accum(aref("h", aref("idx", v("i"))),
                          aref("w", v("i")), op=op))
        rng = np.random.default_rng(len(indices))
        init = np.zeros(8) if op == "+" else (
            np.full(8, -1e30) if op == "max" else np.full(8, 1e30))
        both(body, ["i"], {"idx": idx, "w": rng.random(len(idx)),
                           "h": init}, rtol=1e-9)

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_random_variable_trip_loops_agree(self, n, maxtrips, seed):
        rng = np.random.default_rng(seed)
        trips = rng.integers(0, maxtrips + 1, size=n).astype(np.int64)
        body = pfor("i", 0, n,
                    sfor("k", 0, aref("trips", v("i")),
                         accum(aref("s", v("i")), v("k") + 1.0)))
        out = both(body, ["i"], {"trips": trips, "s": np.zeros(n)})
        expected = np.array([t * (t + 1) / 2 for t in trips], dtype=float)
        np.testing.assert_allclose(out["s"], expected)

    @given(affine_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_affine_programs_agree(self, case):
        body, tvars, arrays = case
        assert_same_result((body, tvars), arrays)


@pytest.mark.slow
class TestPropertyBasedSlow:
    @given(affine_programs())
    @settings(max_examples=200, deadline=None)
    def test_many_random_affine_programs_agree(self, case):
        body, tvars, arrays = case
        assert_same_result((body, tvars), arrays)
