"""Scalar (per-thread) reference interpreter, kept as a test oracle.

Executes a kernel one logical GPU thread at a time with plain Python
semantics — no masks, no vectorization.  Orders of magnitude slower than
:mod:`repro.gpusim.executor`, but its semantics are trivially auditable;
the test-suite cross-validates the vectorizing executor against it on
small grids (including property-based tests over random stencils).
Nothing in ``src/`` runs it.

Augmented stores accumulate in thread order, which for the supported
reduction operators (+, *, min, max) matches the vectorized result up to
floating-point reassociation; tests compare with tolerances.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, MutableMapping, Optional, Union

import numpy as np

from repro.errors import ExecutionError
from repro.gpusim.kernel import Kernel
from repro.ir.expr import (ArrayRef, BinOp, Call, Cast, Const, Expr,
                           Ternary, UnOp, Var)
from repro.ir.program import Function
from repro.ir.stmt import (Assign, Barrier, Block, CallStmt, Critical, For,
                           If, LocalDecl, PointerArith, Return, Stmt, While)

Value = Union[int, float, bool]

_INTRINSICS: Mapping[str, Callable[..., float]] = {
    "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
    "pow": math.pow, "fabs": abs, "floor": math.floor, "ceil": math.ceil,
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "rsqrt": lambda x: 1.0 / math.sqrt(x),
    "fmin": min, "fmax": max, "round": round,
    "sign": lambda x: (x > 0) - (x < 0),
}


class _ReturnSignal(Exception):
    pass


class ScalarExecutor:
    """Executes one kernel thread-by-thread."""

    def __init__(self, kernel: Kernel,
                 arrays: MutableMapping[str, np.ndarray],
                 scalars: Mapping[str, Value],
                 functions: Optional[Mapping[str, Function]] = None) -> None:
        self.kernel = kernel
        self.arrays = arrays
        self.base_env = dict(scalars)
        self.functions = dict(functions or {})
        self.env: dict[str, Value] = {}
        self.local_arrays: dict[str, np.ndarray] = {}

    def run(self) -> None:
        loops = self.kernel.grid_loops()
        self.env = dict(self.base_env)
        ranges = []
        for loop in loops:
            lo = int(self._eval(loop.lower))
            hi = int(self._eval(loop.upper))
            st = int(self._eval(loop.step))
            ranges.append(range(lo, hi, st))
        body = loops[-1].body

        def recurse(d: int) -> None:
            if d == len(ranges):
                self.local_arrays = {}
                self._exec(body)
                return
            for val in ranges[d]:
                self.env[loops[d].var] = val
                recurse(d + 1)

        recurse(0)

    # -- expressions -----------------------------------------------------
    def _eval(self, expr: Expr) -> Value:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return self.env[expr.name]
            except KeyError:
                raise ExecutionError(f"unbound variable {expr.name!r}") from None
        if isinstance(expr, BinOp):
            a, b = self._eval(expr.left), self._eval(expr.right)
            op = expr.op
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return a / b
            if op == "//":
                return a // b
            if op == "%":
                return a % b
            if op == "min":
                return min(a, b)
            if op == "max":
                return max(a, b)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            if op == ">=":
                return a >= b
            if op == "==":
                return a == b
            if op == "!=":
                return a != b
            if op == "&&":
                return bool(a) and bool(b)
            if op == "||":
                return bool(a) or bool(b)
            if op == "&":
                return int(a) & int(b)
            if op == "|":
                return int(a) | int(b)
            if op == "^":
                return int(a) ^ int(b)
            if op == "<<":
                return int(a) << int(b)
            if op == ">>":
                return int(a) >> int(b)
            raise ExecutionError(f"unknown op {op!r}")
        if isinstance(expr, UnOp):
            val = self._eval(expr.operand)
            if expr.op == "-":
                return -val
            if expr.op == "!":
                return not val
            if expr.op == "~":
                return ~int(val)
        if isinstance(expr, Call):
            args = [self._eval(a) for a in expr.args]
            return _INTRINSICS[expr.func](*args)
        if isinstance(expr, Ternary):
            return (self._eval(expr.if_true) if self._eval(expr.cond)
                    else self._eval(expr.if_false))
        if isinstance(expr, Cast):
            val = self._eval(expr.operand)
            return int(val) if expr.dtype == "int" else float(val)
        if isinstance(expr, ArrayRef):
            arr, idx = self._resolve(expr)
            return arr[idx]
        raise ExecutionError(f"cannot evaluate {expr!r}")

    def _resolve(self, ref: ArrayRef) -> tuple[np.ndarray, tuple[int, ...]]:
        if ref.name in self.local_arrays:
            arr = self.local_arrays[ref.name]
        else:
            try:
                arr = self.arrays[ref.name]
            except KeyError:
                raise ExecutionError(f"unknown array {ref.name!r}") from None
        idx = tuple(int(self._eval(i)) for i in ref.indices)
        for d, (i, dim) in enumerate(zip(idx, arr.shape)):
            if i < 0 or i >= dim:
                raise ExecutionError(
                    f"index {i} out of bounds for {ref.name!r} dim {d} "
                    f"(extent {dim})")
        return arr, idx

    # -- statements --------------------------------------------------------
    def _exec(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                self._exec(s)
        elif isinstance(stmt, Assign):
            value = self._eval(stmt.value)
            if isinstance(stmt.target, ArrayRef):
                arr, idx = self._resolve(stmt.target)
                if stmt.op is None:
                    arr[idx] = value
                elif stmt.op == "+":
                    arr[idx] += value
                elif stmt.op == "*":
                    arr[idx] *= value
                elif stmt.op == "min":
                    arr[idx] = min(arr[idx], value)
                elif stmt.op == "max":
                    arr[idx] = max(arr[idx], value)
            else:
                name = stmt.target.name
                if stmt.op is None:
                    self.env[name] = value
                elif stmt.op == "+":
                    self.env[name] += value  # type: ignore[operator]
                elif stmt.op == "*":
                    self.env[name] *= value  # type: ignore[operator]
                elif stmt.op == "min":
                    self.env[name] = min(self.env[name], value)
                elif stmt.op == "max":
                    self.env[name] = max(self.env[name], value)
        elif isinstance(stmt, LocalDecl):
            dtype = np.int64 if stmt.dtype == "int" else (
                np.float32 if stmt.dtype == "float" else np.float64)
            if stmt.shape:
                self.local_arrays[stmt.name] = np.zeros(stmt.shape, dtype=dtype)
            else:
                init = self._eval(stmt.init) if stmt.init is not None else 0
                self.env[stmt.name] = (int(init) if stmt.dtype == "int"
                                       else float(init))
        elif isinstance(stmt, For):
            lo = int(self._eval(stmt.lower))
            hi = int(self._eval(stmt.upper))
            st = int(self._eval(stmt.step))
            for k in range(lo, hi, st):
                self.env[stmt.var] = k
                self._exec(stmt.body)
        elif isinstance(stmt, While):
            guard = 0
            while self._eval(stmt.cond):
                self._exec(stmt.body)
                guard += 1
                if guard > 10_000_000:
                    raise ExecutionError("while loop exceeded iteration guard")
        elif isinstance(stmt, If):
            if self._eval(stmt.cond):
                self._exec(stmt.then_body)
            elif stmt.else_body is not None:
                self._exec(stmt.else_body)
        elif isinstance(stmt, Critical):
            self._exec(stmt.body)
        elif isinstance(stmt, Barrier):
            pass
        elif isinstance(stmt, CallStmt):
            self._exec_call(stmt)
        elif isinstance(stmt, Return):
            raise _ReturnSignal()
        elif isinstance(stmt, PointerArith):
            if stmt.kind == "swap" and len(stmt.operands) == 2:
                a, b = stmt.operands
                self.arrays[a], self.arrays[b] = self.arrays[b], self.arrays[a]
        else:
            raise ExecutionError(f"cannot execute {stmt!r}")

    def _exec_call(self, stmt: CallStmt) -> None:
        func = self.functions.get(stmt.func)
        if func is None:
            raise ExecutionError(f"unknown function {stmt.func!r}")
        saved_env: dict[str, tuple[bool, Value]] = {}
        saved_arr: dict[str, tuple[bool, Optional[np.ndarray]]] = {}
        for param, arg in zip(func.params, stmt.args):
            if param.is_array:
                assert isinstance(arg, Var)
                saved_arr[param.name] = (param.name in self.arrays,
                                         self.arrays.get(param.name))
                self.arrays[param.name] = self.arrays[arg.name]
            else:
                saved_env[param.name] = (param.name in self.env,
                                         self.env.get(param.name))
                self.env[param.name] = self._eval(arg)
        try:
            self._exec(func.body)
        except _ReturnSignal:
            pass
        finally:
            for name, (existed, value) in saved_env.items():
                if existed:
                    self.env[name] = value  # type: ignore[assignment]
                else:
                    self.env.pop(name, None)
            for name, (existed, arr) in saved_arr.items():
                if existed and arr is not None:
                    self.arrays[name] = arr
                else:
                    self.arrays.pop(name, None)


def execute_kernel_scalar(kernel: Kernel,
                          arrays: MutableMapping[str, np.ndarray],
                          scalars: Mapping[str, Value],
                          functions: Optional[Mapping[str, Function]] = None,
                          ) -> None:
    """Run ``kernel`` with the scalar reference interpreter."""
    ScalarExecutor(kernel, arrays, scalars, functions).run()
