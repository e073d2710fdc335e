"""Directed kernel shapes and error fidelity across the execution engines.

The module name is historical: these cases were first written against
the JIT tier, since retired.  Their subjects remain: each directed
shape runs through the interpreter, the tracer (bitwise) and the
scalar reference (within tolerance), and each error case must raise
the same exception, with the same message, from the interpreter and
the tracer.  The random-program sweeps live in
``test_executor_cross_validation.py`` and ``test_divergent_loops.py``.
"""

import numpy as np
import pytest

from tests.difftest import assert_same_result, make_kernel
from repro.gpusim.executor import ExecutionError, LaunchError, execute_kernel
from repro.gpusim.kernel import Kernel
from tests.scalar_reference import execute_kernel_scalar
from repro.gpusim.trace import TracingExecutor
from repro.ir.builder import (accum, aref, assign, block, call, iff,
                              intrinsic, local, pfor, ternary, v, wloop)
from repro.ir.expr import Const
from repro.ir.program import Function, Param


class TestErrorFidelity:
    def _both_errors(self, kern, arrays, scalars=None, exc=ExecutionError):
        """The exception message from the interpreter and the tracer."""
        runs = (lambda a: execute_kernel(kern, a, scalars or {}),
                lambda a: TracingExecutor(kern, a, scalars or {}).run())
        messages = []
        for run in runs:
            copies = {k: a.copy() for k, a in arrays.items()}
            with pytest.raises(exc) as err:
                run(copies)
            messages.append(str(err.value))
        return messages

    def test_unbound_variable_message_matches(self):
        body = pfor("i", 0, 4, assign(aref("b", v("i")), v("z")))
        kern = make_kernel(body, ["i"], {"b": None})
        interp, traced = self._both_errors(kern, {"b": np.zeros(4)})
        assert interp == traced
        assert "unbound variable 'z'" in interp
        with pytest.raises(ExecutionError, match="unbound variable 'z'"):
            execute_kernel_scalar(kern, {"b": np.zeros(4)}, {})

    def test_thread_dependent_grid_bound_matches(self):
        body = pfor("i", 0, aref("lim", v("i")),
                    assign(aref("b", v("i")), 1.0))
        kern = make_kernel(body, ["i"], {"b": None, "lim": None})
        arrays = {"b": np.zeros(4), "lim": np.full(4, 4, dtype=np.int64)}
        interp, traced = self._both_errors(kern, arrays, exc=LaunchError)
        assert interp == traced

    def test_zero_extent_grid_is_a_no_op_in_both(self):
        body = pfor("i", 3, 3, assign(aref("b", v("i")), 1.0))
        kern = make_kernel(body, ["i"], {"b": None})
        out = assert_same_result(kern, {"b": np.zeros(4)})
        assert not out["b"].any()


class TestDirectedKernels:
    """Directed shapes through all three engines (bitwise interpreter
    vs tracer, tolerance vs the scalar reference)."""

    def test_masked_scalar_promotion(self):
        body = pfor("i", 0, 8, block(
            local("t", dtype="double", init=Const(0.0)),
            iff((v("i") % 2).eq(0), assign(v("t"), aref("a", v("i")))),
            assign(aref("b", v("i")), v("t"))))
        rng = np.random.default_rng(7)
        assert_same_result((body, ["i"]),
                           {"a": rng.random(8), "b": np.zeros(8)})

    def test_while_loop(self):
        body = pfor("i", 0, 6, block(
            local("x", dtype="double", init=v("i") + 1.0),
            local("steps", dtype="double", init=Const(0.0)),
            wloop(v("x").gt(1.0), block(
                assign(v("x"), v("x") / 2.0),
                accum(v("steps"), 1.0))),
            assign(aref("b", v("i")), v("steps"))))
        assert_same_result((body, ["i"]), {"b": np.zeros(6)})

    def test_intrinsics_and_ternary(self):
        body = pfor("i", 0, 8, assign(
            aref("b", v("i")),
            ternary(v("i").gt(3), intrinsic("sqrt", aref("a", v("i"))),
                    intrinsic("exp", -aref("a", v("i"))))))
        rng = np.random.default_rng(11)
        assert_same_result((body, ["i"]),
                           {"a": rng.random(8) + 0.5, "b": np.zeros(8)})

    def test_device_function_call_is_inlined(self):
        fn = Function("axpy", (Param("alpha"), Param("x"), Param("yv")),
                      assign(v("yv"), v("alpha") * v("x") + v("yv")))
        body = pfor("i", 0, 8, block(
            local("acc", dtype="double", init=aref("b", v("i"))),
            call("axpy", 2.0, aref("a", v("i")), v("acc")),
            assign(aref("b", v("i")), v("acc"))))
        rng = np.random.default_rng(13)
        kern = make_kernel(body, ["i"], {"a": None, "b": None})
        assert_same_result(kern, {"a": rng.random(8), "b": rng.random(8)},
                           functions={"axpy": fn})

    def test_collapse_style_2d_grid(self):
        body = pfor("i", 0, 5, pfor("j", 0, 4, assign(
            aref("b", v("i"), v("j")),
            aref("a", v("i"), v("j")) * (v("i") + v("j")))))
        rng = np.random.default_rng(17)
        kern = Kernel("k", body, ["i", "j"], arrays=["a", "b"])
        assert_same_result(kern, {"a": rng.random((5, 4)),
                                  "b": np.zeros((5, 4))})

    def test_scatter_collisions_bitwise(self):
        idx = np.array([0, 1, 0, 2, 1, 0], dtype=np.int64)
        body = pfor("i", 0, 6,
                    accum(aref("h", aref("idx", v("i"))),
                          aref("w", v("i"))))
        rng = np.random.default_rng(19)
        out = assert_same_result(
            (body, ["i"]),
            {"idx": idx, "w": rng.random(6), "h": np.zeros(4)},
            engines=("interpreter", "tracer"))
        assert out["h"][3] == 0.0
