"""Tests for memory-access-pattern classification."""

from repro.ir.analysis.access import (AccessPattern, classify_ref,
                                      summarize_accesses)
from repro.ir.builder import (accum, aref, assign, block, iff, local,
                              maximum, pfor, sfor, v)


class TestClassifyRef:
    def test_fastest_dim_unit_stride(self):
        cls = classify_ref(aref("a", v("i"), v("j")), ["i", "j"],
                           dim_extents=[None, None])
        assert cls.pattern is AccessPattern.COALESCED

    def test_offset_preserves_coalescing(self):
        cls = classify_ref(aref("a", v("i") - 1, v("j") + 1), ["i", "j"],
                           dim_extents=[None, None])
        assert cls.pattern is AccessPattern.COALESCED

    def test_thread_in_slow_dim_is_strided(self):
        cls = classify_ref(aref("a", v("i"), v("j")), ["i"],
                           dim_extents=[None, None])
        assert cls.pattern is AccessPattern.STRIDED
        assert cls.stride > 32

    def test_constant_stride(self):
        cls = classify_ref(aref("a", v("i") * 5), ["i"])
        assert cls.pattern is AccessPattern.STRIDED
        assert cls.stride == 5

    def test_known_extent_stride(self):
        cls = classify_ref(aref("a", v("i"), 0), ["i"],
                           dim_extents=[1024, 16])
        assert cls.pattern is AccessPattern.STRIDED
        assert cls.stride == 16

    def test_uniform(self):
        cls = classify_ref(aref("a", v("k")), ["i"])
        assert cls.pattern is AccessPattern.UNIFORM
        assert cls.read_only_uniform

    def test_indirect_through_lane_gather(self):
        cls = classify_ref(aref("x", aref("col", v("i"))), ["i"])
        assert cls.pattern is AccessPattern.INDIRECT

    def test_block_dim_gather_not_indirect(self):
        # iN[i] with i a *block* index: every lane reads the same entry,
        # so warp coalescing is governed by the fast dimension alone
        cls = classify_ref(aref("J", aref("iN", v("i")), v("j")),
                           ["i", "j"], dim_extents=[None, None])
        assert cls.pattern is AccessPattern.COALESCED

    def test_lane_gather_is_indirect(self):
        cls = classify_ref(aref("J", v("i"), aref("jW", v("j"))),
                           ["i", "j"], dim_extents=[None, None])
        assert cls.pattern is AccessPattern.INDIRECT

    def test_monotone_carrier_sees_through(self):
        cls = classify_ref(aref("J", aref("iN", v("i")), v("j")),
                           ["i", "j"], dim_extents=[None, None],
                           monotone_carriers=["iN"])
        assert cls.pattern is AccessPattern.COALESCED

    def test_monotone_carrier_in_fast_dim(self):
        cls = classify_ref(aref("J", v("i"), aref("jW", v("j"))),
                           ["i", "j"], dim_extents=[None, None],
                           monotone_carriers=["jW"])
        assert cls.pattern is AccessPattern.COALESCED

    def test_divmod_collapse_recovery_is_coalesced(self):
        # temp[(t // cols)][(t % cols)]: lanes walk the fast dim
        ref = aref("temp", v("t") // v("cols"), v("t") % v("cols"))
        cls = classify_ref(ref, ["t"], dim_extents=[None, None])
        assert cls.pattern is AccessPattern.COALESCED

    def test_flat_divmod_linearized(self):
        ref = aref("temp", (v("t") // v("cols")) * v("cols")
                   + v("t") % v("cols"))
        cls = classify_ref(ref, ["t"])
        assert cls.pattern is AccessPattern.COALESCED

    def test_indirect_carrier_contents(self):
        cls = classify_ref(aref("cost", aref("frontier", v("k"))), ["i"],
                           indirect_carriers=["frontier"])
        assert cls.pattern is AccessPattern.INDIRECT


class TestSummaries:
    def test_sequential_trip_weighting(self):
        body = pfor("i", 0, v("n"),
                    sfor("j", 0, v("m"),
                         assign(aref("b", v("i"), v("j")), 1.0)))
        summary = summarize_accesses(body, ["i"], {"b": [None, None]},
                                     {"n": 8, "m": 16})
        (ref, count), = summary.refs
        assert count == 16
        assert ref.is_store

    def test_divergence_halves_weights(self):
        body = pfor("i", 0, v("n"),
                    iff(v("i").gt(0), assign(aref("b", v("i")), 1.0)))
        summary = summarize_accesses(body, ["i"], {"b": [None]}, {"n": 8})
        stores = summary.stores()
        assert stores[0][1] == 0.5

    def test_irregular_inner_loop_marks_indirect(self):
        body = pfor("i", 0, v("n"),
                    sfor("k", aref("rowstr", v("i")),
                         aref("rowstr", v("i") + 1),
                         accum(aref("y", v("i")),
                               aref("val", v("k")))))
        summary = summarize_accesses(body, ["i"],
                                     {"y": [None], "val": [None],
                                      "rowstr": [None]}, {"n": 8})
        patterns = {ref.array: ref.pattern for ref, _ in summary.refs}
        assert patterns["val"] is AccessPattern.INDIRECT

    def test_register_locals_produce_no_traffic(self):
        body = pfor("i", 0, v("n"), block(
            local("q", shape=(4,)),
            accum(aref("q", 0), 1.0),
        ))
        summary = summarize_accesses(body, ["i"], {}, {"n": 8})
        assert not summary.refs

    def test_local_pattern_row_vs_column(self):
        body = pfor("i", 0, v("n"), block(
            local("q", shape=(4,)),
            accum(aref("q", 1), 1.0),
        ))
        row = summarize_accesses(body, ["i"], {}, {"n": 8},
                                 local_patterns={"q": AccessPattern.STRIDED})
        col = summarize_accesses(
            body, ["i"], {}, {"n": 8},
            local_patterns={"q": AccessPattern.COALESCED})
        assert row.refs[0][0].pattern is AccessPattern.STRIDED
        assert col.refs[0][0].pattern is AccessPattern.COALESCED

    def test_pattern_overrides(self):
        body = pfor("i", 0, v("n"),
                    sfor("k", aref("rowstr", v("i")),
                         aref("rowstr", v("i") + 1),
                         accum(aref("y", v("i")), aref("val", v("k")))))
        summary = summarize_accesses(
            body, ["i"], {"y": [None], "val": [None], "rowstr": [None]},
            {"n": 8}, pattern_overrides={"val": AccessPattern.COALESCED})
        patterns = {ref.array: ref.pattern for ref, _ in summary.refs
                    if ref.array == "val"}
        assert patterns["val"] is AccessPattern.COALESCED

    def test_innermost_mode_for_cpu(self):
        body = pfor("i", 0, v("n"),
                    sfor("j", 0, v("m"),
                         assign(aref("b", v("i"), v("j")),
                                aref("a", v("j"), v("i")))))
        summary = summarize_accesses(body, (), {"a": [None, None],
                                                "b": [None, None]},
                                     {"n": 4, "m": 4},
                                     classify_against="innermost")
        patterns = {(r.array, r.is_store): r.pattern
                    for r, _ in summary.refs}
        assert patterns[("b", True)] is AccessPattern.COALESCED
        assert patterns[("a", False)] is AccessPattern.STRIDED


# ---------------------------------------------------------------------------
# The numeric stage: columns against the scalar evaluation
# ---------------------------------------------------------------------------

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ir.analysis.access import LoopNest, _column_value, trip_column
from repro.ir.expr import BinOp, Cast, Const, UnOp, Var
from repro.ir.stmt import For
from tests.legacy_pricing import _const_value

_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, 3.0, -5.0, 0.5, 2.5, 1e300,
                -1e300, 5e-324, math.inf, -math.inf, math.nan]
_values = (st.sampled_from(_EDGE_VALUES)
           | st.integers(-50, 50).map(float)
           | st.floats(allow_nan=True, allow_infinity=True))
#: ``m`` is never bound; the others are bound in some launches
_NAMES = ("a", "b", "c", "m")
_exprs = st.recursive(
    _values.map(Const) | st.sampled_from(_NAMES).map(Var),
    lambda inner: (
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "//", "%",
                                          "min", "max"]), inner, inner)
        | st.builds(Cast, st.sampled_from(["int", "double"]), inner)
        | inner.map(lambda e: UnOp("-", e))),
    max_leaves=8)
#: one to three launches, each binding a subset of a, b and c
_launches = st.lists(
    st.dictionaries(st.sampled_from(_NAMES[:3]), _values),
    min_size=1, max_size=3)


def _columns(launches):
    nest = LoopNest((), (), (), _NAMES)
    return nest.key_columns([nest.bound_key(b) for b in launches])


def _same(column, bound, rows, row, want) -> bool:
    """Whether launch ``row`` of ``rows`` in ``(column, bound)`` is
    ``want`` (None: unbound), bit for bit (any NaN equals any NaN)."""
    if not np.broadcast_to(bound, (rows,))[row]:
        return want is None
    got = np.broadcast_to(column, (rows,))[row].item()
    if want is None:
        return False
    if math.isnan(want):
        return math.isnan(got)
    return float(got).hex() == float(want).hex()


def _scalar_trips(loop, bindings):
    """The scalar trip count of ``loop``; None when inexact (a bound
    does not evaluate, or the count is not finite)."""
    lo = _const_value(loop.lower, bindings)
    hi = _const_value(loop.upper, bindings)
    step = _const_value(loop.step, bindings) or 1.0
    if lo is None or hi is None:
        return None
    try:
        return max(0.0, math.ceil((hi - lo) / step))
    except (OverflowError, ValueError):
        return None


class TestColumnParity:
    @settings(max_examples=300)
    @given(_exprs, _launches)
    # Python's min/max keep the left operand on a NaN or a tie of zeros
    @example(BinOp("min", Const(1.0), Const(math.nan)), [{}])
    @example(BinOp("max", Var("a"), Const(-0.0)), [{"a": 0.0}, {}])
    # float(int(-0.0 // 5)) is 0.0; a non-finite quotient is unbound
    @example(BinOp("//", Var("a"), Const(5.0)), [{"a": -0.0}])
    @example(BinOp("//", Const(1e300), Var("a")), [{"a": 1e-300}])
    # a zero divisor unbinds its own launch only
    @example(BinOp("%", Const(7.0), Var("a")),
             [{"a": 0.0}, {"a": -2.0}, {}])
    def test_column_value_matches_const_value(self, expr, launches):
        columns = _columns(launches)
        with np.errstate(all="ignore"):
            values, bound = _column_value(expr, columns)
        for row, bindings in enumerate(launches):
            want = _const_value(expr, bindings)
            assert _same(values, bound, len(launches), row, want), \
                (expr, bindings)

    @settings(max_examples=300)
    @given(_exprs, _exprs, _exprs, _launches)
    # zero, NaN and unbound steps; an infinite span is inexact
    @example(Const(0.0), Var("a"), Var("b"),
             [{"a": 10.0, "b": 0.0}, {"a": 10.0, "b": math.nan},
              {"a": 10.0}, {"a": -3.0, "b": 2.0}])
    @example(Const(0.0), Var("a"), Const(1.0), [{"a": math.inf}, {}])
    def test_trip_column_matches_scalar_count(self, lower, upper, step,
                                              launches):
        loop = For("k", lower, upper, [], step=step)
        with np.errstate(all="ignore"):
            counts, exact = trip_column(loop, _columns(launches))
        for row, bindings in enumerate(launches):
            want = _scalar_trips(loop, bindings)
            assert _same(counts, exact, len(launches), row, want), \
                (loop.lower, loop.upper, loop.step, bindings)
