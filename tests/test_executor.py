"""Semantics tests for the vectorizing kernel interpreter."""

import numpy as np
import pytest

from repro.errors import ExecutionError, IRError, LaunchError
from repro.gpusim.executor import (KernelExecutor, _all_distinct,
                                   execute_kernel)
from repro.gpusim.kernel import Kernel
from repro.ir.builder import (accum, aref, assign, block, call, cast,
                              critical, iff, intrinsic, local, maximum,
                              pfor, ptr_swap, sfor, ternary, v, wloop)
from repro.ir.program import Function, Param


def run(body, tvars, arrays, scalars=None, functions=None):
    data = {k: np.array(a, dtype=a.dtype if hasattr(a, "dtype") else float)
            for k, a in arrays.items()}
    kern = Kernel("k", body, tvars, arrays=sorted(arrays),
                  scalars=sorted(scalars or {}))
    execute_kernel(kern, data, scalars or {}, functions)
    return data


class TestElementwise:
    def test_1d_map(self):
        out = run(pfor("i", 0, v("n"),
                       assign(aref("b", v("i")), aref("a", v("i")) * 2.0)),
                  ["i"], {"a": np.arange(8.0), "b": np.zeros(8)},
                  {"n": 8})
        np.testing.assert_allclose(out["b"], np.arange(8.0) * 2)

    def test_2d_grid(self):
        body = assign(aref("b", v("i"), v("j")), v("i") * 10 + v("j"))
        out = run(pfor("i", 0, 3, pfor("j", 0, 4, body)), ["i", "j"],
                  {"b": np.zeros((3, 4))})
        expected = np.arange(3)[:, None] * 10 + np.arange(4)[None, :]
        np.testing.assert_allclose(out["b"], expected)

    def test_3d_grid(self):
        body = assign(aref("b", v("i"), v("j"), v("k")), 1.0)
        out = run(pfor("i", 0, 2, pfor("j", 0, 3, pfor("k", 0, 4, body))),
                  ["i", "j", "k"], {"b": np.zeros((2, 3, 4))})
        assert out["b"].sum() == 24

    def test_nonzero_lower_bound_and_step(self):
        loop = pfor("i", 2, 10, assign(aref("b", v("i")), 1.0), step=3)
        out = run(loop, ["i"], {"b": np.zeros(12)})
        assert list(np.nonzero(out["b"])[0]) == [2, 5, 8]

    def test_empty_grid_is_noop(self):
        out = run(pfor("i", 0, 0, assign(aref("b", v("i")), 1.0)), ["i"],
                  {"b": np.zeros(4)})
        assert out["b"].sum() == 0

    def test_intrinsics(self):
        body = assign(aref("b", v("i")),
                      intrinsic("sqrt", aref("a", v("i"))))
        out = run(pfor("i", 0, 4, body), ["i"],
                  {"a": np.array([1.0, 4.0, 9.0, 16.0]), "b": np.zeros(4)})
        np.testing.assert_allclose(out["b"], [1, 2, 3, 4])

    def test_cast_and_ternary(self):
        body = assign(aref("b", v("i")),
                      ternary(v("i").gt(1), cast("int", 2.9), 0))
        out = run(pfor("i", 0, 4, body), ["i"], {"b": np.zeros(4)})
        np.testing.assert_allclose(out["b"], [0, 0, 2, 2])


class TestReductions:
    def test_scalar_slot_sum(self):
        out = run(pfor("i", 0, 100, accum(aref("s", 0), v("i"))), ["i"],
                  {"s": np.zeros(1)})
        assert out["s"][0] == 4950

    def test_min_max_reductions(self):
        a = np.array([5.0, -2.0, 7.0, 0.0])
        body = block(accum(aref("lo", 0), aref("a", v("i")), op="min"),
                     accum(aref("hi", 0), aref("a", v("i")), op="max"))
        out = run(pfor("i", 0, 4, body), ["i"],
                  {"a": a, "lo": np.full(1, 1e30), "hi": np.full(1, -1e30)})
        assert out["lo"][0] == -2.0 and out["hi"][0] == 7.0

    def test_histogram_scatter_with_duplicates(self):
        idx = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)
        out = run(pfor("i", 0, 6,
                       accum(aref("h", aref("idx", v("i"))), 1.0)),
                  ["i"], {"idx": idx, "h": np.zeros(3)})
        np.testing.assert_allclose(out["h"], [1, 2, 3])

    def test_masked_count(self):
        # delta[0] += 1 under a condition: one contribution per active lane
        body = iff(aref("a", v("i")).gt(0.0), accum(aref("d", 0), 1.0))
        a = np.array([1.0, -1.0, 2.0, -2.0, 3.0])
        out = run(pfor("i", 0, 5, body), ["i"],
                  {"a": a, "d": np.zeros(1)})
        assert out["d"][0] == 3

    def test_thread_owned_augmented(self):
        out = run(pfor("i", 0, 4, accum(aref("b", v("i")), 2.0)), ["i"],
                  {"b": np.ones(4)})
        np.testing.assert_allclose(out["b"], 3.0)


class TestStoreChecks:
    """An augmented vector store updates in one fancy-index pass when no
    two lanes share a subscript, and through ``ufunc.at`` otherwise."""

    def test_distinct_decision(self):
        assert _all_distinct(np.arange(5))
        # non-monotone but unique: decided by np.unique, still distinct
        assert _all_distinct(np.array([3, 0, 4, 1, 2]))
        # non-decreasing with a repeat is not strictly increasing
        assert not _all_distinct(np.array([0, 1, 1, 2]))
        assert not _all_distinct(np.array([2, 0, 2, 1]))

    def test_non_monotone_unique_subscript(self):
        perm = np.array([3, 0, 4, 1, 2], dtype=np.int64)
        vals = np.array([1.5, 2.5, 3.5, 4.5, 5.5])
        out = run(pfor("i", 0, 5, accum(aref("h", aref("p", v("i"))),
                                        aref("x", v("i")))),
                  ["i"], {"p": perm, "x": vals, "h": np.ones(5)})
        want = np.ones(5)
        want[perm] += vals
        np.testing.assert_array_equal(out["h"], want)

    def test_colliding_subscript(self):
        idx = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
        vals = np.arange(6, dtype=np.float64)
        out = run(pfor("i", 0, 6, accum(aref("h", aref("idx", v("i"))),
                                        aref("x", v("i")))),
                  ["i"], {"idx": idx, "x": vals, "h": np.zeros(3)})
        want = np.zeros(3)
        np.add.at(want, idx, vals)
        np.testing.assert_array_equal(out["h"], want)

    def test_masked_clip(self):
        """Under a mask, out-of-range subscripts clip into the extent and
        keep their integer dtype."""
        kern = Kernel("k", pfor("i", 0, 5, assign(aref("b", v("i")), 1.0)),
                      ["i"], arrays=["b"], scalars=[])
        ex = KernelExecutor(kern, {"b": np.zeros(4)}, {})
        ex.T = 5
        ex.env["x"] = np.array([-3, 0, 2, 4, 9], dtype=np.int32)
        ex._push_mask(np.array([False, True, True, False, False]))
        (idx,) = ex._indices(aref("b", v("x")), (4,))
        assert idx.dtype == np.int32
        np.testing.assert_array_equal(idx, [0, 0, 2, 3, 3])
        (idx,) = ex._indices(aref("b", 7), (4,))
        assert idx == 3


class TestControlFlow:
    def test_if_else_masks(self):
        body = iff(v("i") % 2 == 0 if False else (v("i") % 2).eq(0),
                   assign(aref("b", v("i")), 1.0),
                   assign(aref("b", v("i")), -1.0))
        out = run(pfor("i", 0, 6, body), ["i"], {"b": np.zeros(6)})
        np.testing.assert_allclose(out["b"], [1, -1, 1, -1, 1, -1])

    def test_nested_masks(self):
        body = iff(v("i").gt(1),
                   iff(v("i").lt(4), assign(aref("b", v("i")), 1.0)))
        out = run(pfor("i", 0, 6, body), ["i"], {"b": np.zeros(6)})
        np.testing.assert_allclose(out["b"], [0, 0, 1, 1, 0, 0])

    def test_vector_bounds_inner_loop(self):
        # per-thread trip counts from an array (CSR-style)
        lo = np.array([0, 2, 3], dtype=np.int64)
        hi = np.array([2, 3, 6], dtype=np.int64)
        body = sfor("k", aref("lo", v("i")), aref("hi", v("i")),
                    accum(aref("s", v("i")), aref("val", v("k"))))
        val = np.arange(6.0)
        out = run(pfor("i", 0, 3, body), ["i"],
                  {"lo": lo, "hi": hi, "val": val, "s": np.zeros(3)})
        np.testing.assert_allclose(out["s"], [0 + 1, 2, 3 + 4 + 5])

    def test_vector_while(self):
        # iterate x halving until below 1, counting steps per lane
        body = block(
            local("x", init=aref("a", v("i"))),
            wloop(v("x").ge(1.0), block(
                assign(v("x"), v("x") / 2.0),
                accum(aref("c", v("i")), 1.0),
            )),
        )
        a = np.array([1.0, 4.0, 0.5])
        out = run(pfor("i", 0, 3, body), ["i"],
                  {"a": a, "c": np.zeros(3)})
        np.testing.assert_allclose(out["c"], [1, 3, 0])

    def test_scalar_ternary_short_circuits(self):
        # j == 0 branch must not read hidden[-1]
        body = sfor("j", 0, 2,
                    accum(aref("s", v("i")),
                          ternary(v("j").eq(0), 1.0,
                                  aref("h", v("j") - 1))))
        out = run(pfor("i", 0, 2, body), ["i"],
                  {"h": np.array([5.0]), "s": np.zeros(2)})
        np.testing.assert_allclose(out["s"], [6.0, 6.0])


class TestLocals:
    def test_local_scalar_per_thread(self):
        body = block(
            local("t", init=v("i") * 2.0),
            assign(aref("b", v("i")), v("t") + 1.0),
        )
        out = run(pfor("i", 0, 4, body), ["i"], {"b": np.zeros(4)})
        np.testing.assert_allclose(out["b"], [1, 3, 5, 7])

    def test_local_array_per_thread(self):
        body = block(
            local("q", shape=(3,)),
            sfor("k", 0, 3, accum(aref("q", v("k")), v("i") + 1.0)),
            sfor("k", 0, 3, accum(aref("b", v("i")), aref("q", v("k")))),
        )
        out = run(pfor("i", 0, 4, body), ["i"], {"b": np.zeros(4)})
        np.testing.assert_allclose(out["b"], 3.0 * (np.arange(4) + 1))

    def test_int_local_arithmetic(self):
        body = block(
            local("s", dtype="int", init=v("i") * 7 + 3),
            assign(v("s"), (v("s") * 1103515245 + 12345) % 2147483648),
            assign(aref("b", v("i")), v("s") / 2147483648.0),
        )
        out = run(pfor("i", 0, 4, body), ["i"], {"b": np.zeros(4)})
        s = (np.arange(4, dtype=np.int64) * 7 + 3)
        s = (s * 1103515245 + 12345) % 2147483648
        np.testing.assert_allclose(out["b"], s / 2147483648.0)


class TestCallsAndMisc:
    def test_user_function_call(self):
        f = Function("axpy1", [Param("dst", is_array=True), Param("idx"),
                               Param("scale")],
                     accum(aref("dst", v("idx")), v("scale")))
        body = call("axpy1", v("b"), v("i"), v("i") * 1.0)
        out = run(pfor("i", 0, 4, body), ["i"], {"b": np.zeros(4)},
                  functions={"axpy1": f})
        np.testing.assert_allclose(out["b"], [0, 1, 2, 3])

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            run(pfor("i", 0, 2, call("nope")), ["i"], {"b": np.zeros(2)})

    def test_critical_executes_body(self):
        body = critical(accum(aref("s", 0), 1.0))
        out = run(pfor("i", 0, 5, body), ["i"], {"s": np.zeros(1)})
        assert out["s"][0] == 5

    def test_pointer_swap(self):
        body = block(assign(aref("a", v("i")), 1.0))
        kern = Kernel("k", pfor("i", 0, 2, body), ["i"],
                      arrays=["a", "b"])
        data = {"a": np.zeros(2), "b": np.full(2, 7.0)}
        # swap happens at kernel level via a host wrapper region
        from repro.ir.stmt import PointerArith
        body2 = block(PointerArith("swap", ("a", "b")),
                      assign(aref("a", v("i")), 1.0))
        kern2 = Kernel("k2", pfor("i", 0, 1, body2), ["i"],
                       arrays=["a", "b"])
        execute_kernel(kern2, data, {})
        # after the swap, "a" is the old b and was overwritten at [0]
        assert data["a"][0] == 1.0 and data["a"][1] == 7.0
        assert data["b"].tolist() == [0.0, 0.0]


class TestErrors:
    def test_out_of_bounds_raises_unmasked(self):
        with pytest.raises(ExecutionError):
            run(pfor("i", 0, 4, assign(aref("b", v("i") + 10), 1.0)),
                ["i"], {"b": np.zeros(4)})

    def test_masked_oob_is_clipped(self):
        body = iff(v("i").lt(3), assign(aref("b", v("i")), 1.0),
                   assign(aref("c", 0), aref("b", v("i") + 100)))
        out = run(pfor("i", 0, 4, body), ["i"],
                  {"b": np.zeros(4), "c": np.zeros(1)})
        np.testing.assert_allclose(out["b"], [1, 1, 1, 0])

    def test_unbound_variable(self):
        with pytest.raises(ExecutionError):
            run(pfor("i", 0, 2, assign(aref("b", v("i")), v("ghost"))),
                ["i"], {"b": np.zeros(2)})

    def test_unknown_array(self):
        with pytest.raises(ExecutionError):
            run(pfor("i", 0, 2, assign(aref("ghost", v("i")), 1.0)),
                ["i"], {"b": np.zeros(2)})

    def test_rank_mismatch(self):
        with pytest.raises(ExecutionError):
            run(pfor("i", 0, 2, assign(aref("b", v("i"), 0), 1.0)),
                ["i"], {"b": np.zeros(4)})

    def test_thread_dependent_grid_bound_rejected(self):
        body = pfor("i", 0, v("n"),
                    pfor("j", 0, aref("lens", v("i")),
                         assign(aref("b", v("j")), 1.0)))
        with pytest.raises(LaunchError):
            run(body, ["i", "j"],
                {"lens": np.ones(4, dtype=np.int64), "b": np.zeros(4)},
                {"n": 4})

    def test_kernel_thread_vars_must_match_nest(self):
        with pytest.raises(IRError):
            Kernel("k", pfor("i", 0, 4, assign(v("x"), 1.0)), ["i", "j"],
                   arrays=[])
