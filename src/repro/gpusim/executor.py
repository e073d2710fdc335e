"""Vectorizing kernel interpreter.

Executes a :class:`repro.gpusim.kernel.Kernel` *functionally*: the grid's
flattened thread index space becomes a NumPy axis, expressions evaluate to
either scalars or ``(T,)`` vectors, and control flow is handled with an
active-lane mask stack (the same trick real SIMT hardware uses).  This
keeps full-size benchmark runs fast (per the hpc-parallel guides: the
inner dimension is vectorized, Python loops only over short sequential
dimensions) while remaining an *interpreter* of the IR — every model
compiler's output is executed by the same machinery and validated against
the NumPy reference implementations.

Semantics notes:

* **Augmented array stores** (``A[f(i)] op= v``) use duplicate-safe
  ``ufunc.at`` updates when lanes may collide, so reductions and
  critical-section updates produce exact (order-independent for +/min/max,
  and deterministic) results.
* **Inactive lanes** never write; their *reads* are clipped to valid
  addresses (the values are discarded).  With no mask active, an
  out-of-bounds subscript raises :class:`ExecutionError`.
* **Sequential loops with thread-dependent bounds** (CSR row loops)
  walk each lane's own trip count: step ``j`` binds the loop variable
  to the lane vector ``lo + j*step`` under the mask ``j < trips``, so a
  launch takes as many steps as its longest row, not the union of all
  rows (see :meth:`KernelExecutor._divergent_steps`).
"""

from __future__ import annotations

import math
from typing import (Callable, Iterator, Mapping, MutableMapping, Optional,
                    Sequence, Union)

import numpy as np

from repro.errors import ExecutionError, LaunchError
from repro.gpusim.kernel import Kernel
from repro.gpusim.memo import LaunchMemo
from repro.ir.expr import (ArrayRef, BinOp, Call, Cast, Const, Expr,
                           Ternary, UnOp, Var)
from repro.ir.program import Function
from repro.ir.stmt import (Assign, Barrier, Block, CallStmt, Critical, For,
                           If, LocalDecl, PointerArith, Return, Stmt, While)

Value = Union[int, float, bool, np.ndarray]

_INTRINSIC_FUNCS: Mapping[str, Callable[..., np.ndarray]] = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "pow": np.power,
    "fabs": np.abs, "floor": np.floor, "ceil": np.ceil, "sin": np.sin,
    "cos": np.cos, "tan": np.tan, "rsqrt": lambda x: 1.0 / np.sqrt(x),
    "fmin": np.minimum, "fmax": np.maximum, "round": np.round,
    "sign": np.sign,
}

_REDUCE_UFUNC = {"+": np.add, "*": np.multiply,
                 "min": np.minimum, "max": np.maximum}

_REDUCE_FOLD = {"+": np.sum, "*": np.prod, "min": np.min, "max": np.max}


class _ReturnSignal(Exception):
    """Unwinds a user-function body on ``return``."""


def _is_vector(v: Value) -> bool:
    return isinstance(v, np.ndarray) and v.ndim > 0


def _all_distinct(flat: np.ndarray) -> bool:
    """Whether no two lanes share a subscript: one compare decides the
    common strictly increasing case (``A[i] += v``), ``np.unique`` the
    rest."""
    if (flat[1:] > flat[:-1]).all():
        return True
    return np.unique(flat).size == flat.size


class KernelExecutor:
    """Interprets one kernel launch over its flattened thread space."""

    def __init__(self, kernel: Kernel,
                 arrays: MutableMapping[str, np.ndarray],
                 scalars: Mapping[str, Value],
                 functions: Optional[Mapping[str, Function]] = None) -> None:
        self.kernel = kernel
        self.arrays = arrays
        self.env: dict[str, Value] = dict(scalars)
        self.local_arrays: dict[str, np.ndarray] = {}
        self.functions = dict(functions or {})
        self.mask_stack: list[Optional[np.ndarray]] = [None]
        self.T = 0
        #: set once any loop with thread-dependent bounds executes
        #: (CSR-style masked iteration) — memory traces recorded under
        #: it undercount real per-warp issue width (see
        #: :mod:`repro.gpusim.trace`)
        self.data_dependent = False

    # -- mask helpers ---------------------------------------------------
    @property
    def mask(self) -> Optional[np.ndarray]:
        return self.mask_stack[-1]

    def _push_mask(self, cond: np.ndarray) -> None:
        current = self.mask
        combined = cond if current is None else (current & cond)
        self.mask_stack.append(combined)

    def _pop_mask(self) -> None:
        self.mask_stack.pop()

    # -- launch ---------------------------------------------------------
    def run(self) -> None:
        """Execute the kernel body over the full grid.

        Floating-point warnings are silenced for the whole launch:
        inactive lanes compute on values that are discarded (0/0, NaN
        casts), and a launch's results never depend on the warnings.
        """
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            self._run()

    def _run(self) -> None:
        loops = self.kernel.grid_loops()
        extents: list[int] = []
        lowers: list[int] = []
        steps: list[int] = []
        for loop in loops:
            try:
                lo = self._expect_scalar_int(
                    self._eval(loop.lower),
                    f"grid lower bound of {loop.var}")
                hi = self._expect_scalar_int(
                    self._eval(loop.upper),
                    f"grid upper bound of {loop.var}")
                st = self._expect_scalar_int(
                    self._eval(loop.step), f"grid step of {loop.var}")
            except ExecutionError as exc:
                raise LaunchError(
                    f"kernel {self.kernel.name!r}: grid bounds of "
                    f"{loop.var!r} are not launch-resolvable ({exc})"
                ) from exc
            if st <= 0:
                raise LaunchError(f"grid loop {loop.var}: step must be positive")
            extents.append(max(0, math.ceil((hi - lo) / st)))
            lowers.append(lo)
            steps.append(st)
        total = 1
        for e in extents:
            total *= e
        self.T = total
        if total == 0:
            return
        flat = np.arange(total, dtype=np.int64)
        remainder = flat
        for d, (loop, extent) in enumerate(zip(loops, extents)):
            inner = 1
            for e in extents[d + 1:]:
                inner *= e
            coord = (remainder // inner) % extent if inner > 0 else remainder
            self.env[loop.var] = lowers[d] + coord * steps[d]
        innermost_body = loops[-1].body
        self._exec(innermost_body)

    @staticmethod
    def _expect_scalar_int(v: Value, what: str) -> int:
        if _is_vector(v):
            raise LaunchError(f"{what} must be thread-independent")
        return int(v)

    # -- expression evaluation ------------------------------------------
    def _eval(self, expr: Expr) -> Value:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return self.env[expr.name]
            except KeyError:
                raise ExecutionError(
                    f"kernel {self.kernel.name!r}: unbound variable "
                    f"{expr.name!r}") from None
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, UnOp):
            operand = self._eval(expr.operand)
            if expr.op == "-":
                return -operand  # type: ignore[operator]
            if expr.op == "!":
                return np.logical_not(operand)
            if expr.op == "~":
                return ~np.asarray(operand)
        if isinstance(expr, Call):
            func = _INTRINSIC_FUNCS[expr.func]
            return func(*[self._eval(a) for a in expr.args])
        if isinstance(expr, Ternary):
            cond = self._eval(expr.cond)
            if not _is_vector(cond):
                # short-circuit: only the taken branch is evaluated
                return (self._eval(expr.if_true) if cond
                        else self._eval(expr.if_false))
            cond_b = cond.astype(bool)
            self._push_mask(cond_b)
            try:
                t = self._eval(expr.if_true)
            finally:
                self._pop_mask()
            self._push_mask(~cond_b)
            try:
                f = self._eval(expr.if_false)
            finally:
                self._pop_mask()
            return np.where(cond_b, t, f)
        if isinstance(expr, Cast):
            operand = self._eval(expr.operand)
            if expr.dtype == "int":
                if _is_vector(operand):
                    if operand.dtype.kind == "f":
                        # inactive lanes may hold NaN/inf; their values
                        # are discarded, so cast them to 0
                        safe = np.nan_to_num(operand, nan=0.0, posinf=0.0,
                                             neginf=0.0)
                        return np.trunc(safe).astype(np.int64)
                    return operand.astype(np.int64)
                return int(operand)
            target = np.float32 if expr.dtype == "float" else np.float64
            if _is_vector(operand):
                return operand.astype(target)
            return float(operand)
        if isinstance(expr, ArrayRef):
            return self._load(expr)
        raise ExecutionError(f"cannot evaluate expression {expr!r}")

    def _eval_binop(self, expr: BinOp) -> Value:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        op = expr.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return np.true_divide(left, right)
        if op == "//":
            return np.floor_divide(left, right)
        if op == "%":
            return np.mod(left, right)
        if op == "min":
            return np.minimum(left, right)
        if op == "max":
            return np.maximum(left, right)
        if op == "<":
            return np.less(left, right)
        if op == "<=":
            return np.less_equal(left, right)
        if op == ">":
            return np.greater(left, right)
        if op == ">=":
            return np.greater_equal(left, right)
        if op == "==":
            return np.equal(left, right)
        if op == "!=":
            return np.not_equal(left, right)
        if op == "&&":
            return np.logical_and(left, right)
        if op == "||":
            return np.logical_or(left, right)
        if op == "&":
            return np.bitwise_and(left, right)
        if op == "|":
            return np.bitwise_or(left, right)
        if op == "^":
            return np.bitwise_xor(left, right)
        if op == "<<":
            return np.left_shift(left, right)
        if op == ">>":
            return np.right_shift(left, right)
        raise ExecutionError(f"unknown binary op {op!r}")

    # -- array addressing -------------------------------------------------
    def _indices(self, ref: ArrayRef, shape: tuple[int, ...],
                 skip_axes: int = 0) -> tuple[Value, ...]:
        """Evaluate and validate/clip the index tuple for ``ref``."""
        idx: list[Value] = []
        masked = self.mask is not None
        for d, index_expr in enumerate(ref.indices):
            val = self._eval(index_expr)
            dim = shape[d + skip_axes]
            if _is_vector(val):
                ival = val.astype(np.int64) if val.dtype.kind == "f" else val
                if masked:
                    ival = np.minimum(np.maximum(ival, 0), dim - 1)
                else:
                    lo, hi = int(ival.min(initial=0)), int(ival.max(initial=0))
                    if lo < 0 or hi >= dim:
                        raise ExecutionError(
                            f"kernel {self.kernel.name!r}: index {lo}..{hi} "
                            f"out of bounds for {ref.name!r} dim {d} "
                            f"(extent {dim})")
                idx.append(ival)
            else:
                ival = int(val)
                if ival < 0 or ival >= dim:
                    if masked:
                        ival = min(max(ival, 0), dim - 1)
                    else:
                        raise ExecutionError(
                            f"kernel {self.kernel.name!r}: index {ival} out "
                            f"of bounds for {ref.name!r} dim {d} "
                            f"(extent {dim})")
                idx.append(ival)
        return tuple(idx)

    def _load(self, ref: ArrayRef) -> Value:
        if ref.name in self.local_arrays:
            arr = self.local_arrays[ref.name]
            idx = self._indices(ref, arr.shape, skip_axes=1)
            lane = np.arange(self.T, dtype=np.int64)
            return arr[(lane,) + idx]
        try:
            arr = self.arrays[ref.name]
        except KeyError:
            raise ExecutionError(
                f"kernel {self.kernel.name!r}: unknown array {ref.name!r}"
            ) from None
        if len(ref.indices) != arr.ndim:
            raise ExecutionError(
                f"kernel {self.kernel.name!r}: {ref.name!r} has {arr.ndim} "
                f"dims, subscripted with {len(ref.indices)}")
        idx = self._indices(ref, arr.shape)
        self._global_access(ref, arr, idx, False)
        return arr[idx]

    def _global_access(self, ref: ArrayRef, arr: np.ndarray, idx: tuple,
                       is_store: bool) -> None:
        """Called once per access of a global array, with the index
        tuple :meth:`_indices` evaluated for it (a tracer records it)."""

    def _store(self, ref: ArrayRef, value: Value, op: Optional[str]) -> None:
        mask = self.mask
        if ref.name in self.local_arrays:
            arr = self.local_arrays[ref.name]
            idx = self._indices(ref, arr.shape, skip_axes=1)
            lane = np.arange(self.T, dtype=np.int64)
            if mask is not None:
                sel = mask
                lane = lane[sel]
                idx = tuple(i[sel] if _is_vector(i) else i for i in idx)
                value = value[sel] if _is_vector(value) else value
            full = (lane,) + idx
            if op is None:
                arr[full] = value
            else:
                # one store per lane: no collisions within a lane's row
                _REDUCE_UFUNC[op].at(arr, full, value)
            return

        try:
            arr = self.arrays[ref.name]
        except KeyError:
            raise ExecutionError(
                f"kernel {self.kernel.name!r}: unknown array {ref.name!r}"
            ) from None
        if len(ref.indices) != arr.ndim:
            raise ExecutionError(
                f"kernel {self.kernel.name!r}: {ref.name!r} has {arr.ndim} "
                f"dims, subscripted with {len(ref.indices)}")
        idx = self._indices(ref, arr.shape)
        self._global_access(ref, arr, idx, True)
        vector_idx = any(_is_vector(i) for i in idx)
        if op is not None and not _is_vector(value) and not vector_idx:
            # reduction of a lane-invariant value onto one shared slot:
            # every (active) lane contributes once (e.g. counting via
            # ``delta[t] += 1``) — materialize per-lane values
            value = np.broadcast_to(value, (self.T,))
        if mask is not None and (vector_idx or _is_vector(value)):
            sel = mask
            idx = tuple(np.broadcast_to(i, (self.T,))[sel]
                        if not _is_vector(i) else i[sel] for i in idx)
            value = (np.broadcast_to(value, (self.T,))[sel]
                     if not _is_vector(value) else value[sel])
            vector_idx = any(_is_vector(i) for i in idx)
        elif mask is not None and not mask.all():
            # scalar address, plain store, partial mask: write only if
            # any lane is active (shared-scalar store semantics)
            if not mask.any():
                return
        if op is None:
            arr[idx] = value
            return
        ufunc = _REDUCE_UFUNC[op]
        if not vector_idx:
            # single shared element updated by all lanes: fold first
            folded = (_REDUCE_FOLD[op](value) if _is_vector(value) else value)
            arr[idx] = ufunc(arr[idx], folded)
            return
        # element-wise update; collisions possible when the subscript is
        # not injective in the lane index — detect and use ufunc.at.
        flat = np.ravel_multi_index(
            tuple(np.broadcast_arrays(*idx)), arr.shape) if len(idx) > 1 \
            else np.asarray(idx[0])
        if flat.size and _all_distinct(flat):
            arr[idx] = ufunc(arr[idx], value)
        else:
            ufunc.at(arr, idx, value)

    # -- statements -------------------------------------------------------
    def _exec(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                self._exec(s)
        elif isinstance(stmt, Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, LocalDecl):
            self._exec_decl(stmt)
        elif isinstance(stmt, For):
            self._exec_for(stmt)
        elif isinstance(stmt, While):
            self._exec_while(stmt)
        elif isinstance(stmt, If):
            self._exec_if(stmt)
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
                raise ExecutionError(f"unsupported pointer op {stmt!r}")
        else:
            raise ExecutionError(f"cannot execute statement {stmt!r}")

    def _exec_decl(self, stmt: LocalDecl) -> None:
        dtype = np.int64 if stmt.dtype == "int" else (
            np.float32 if stmt.dtype == "float" else np.float64)
        if stmt.shape:
            self.local_arrays[stmt.name] = np.zeros((self.T,) + stmt.shape,
                                                    dtype=dtype)
            return
        if stmt.init is not None:
            init = self._eval(stmt.init)
            if _is_vector(init):
                self.env[stmt.name] = init.astype(dtype, copy=True)
            else:
                self.env[stmt.name] = np.full(self.T, init, dtype=dtype)
        else:
            self.env[stmt.name] = np.zeros(self.T, dtype=dtype)

    def _exec_assign(self, stmt: Assign) -> None:
        value = self._eval(stmt.value)
        if isinstance(stmt.target, ArrayRef):
            self._store(stmt.target, value, stmt.op)
            return
        name = stmt.target.name
        mask = self.mask
        old = self.env.get(name)
        if stmt.op is not None:
            if old is None:
                raise ExecutionError(
                    f"augmented assignment to unbound scalar {name!r}")
            combined = self._apply_op(stmt.op, old, value)
        else:
            combined = value
        if mask is None:
            self.env[name] = combined
            return
        # masked scalar assignment: promote to a lane vector
        if old is None:
            old_vec = np.zeros(self.T, dtype=np.asarray(combined).dtype)
        elif _is_vector(old):
            old_vec = old
        else:
            old_vec = np.full(self.T, old)
        self.env[name] = np.where(mask, combined, old_vec)

    @staticmethod
    def _apply_op(op: str, old: Value, value: Value) -> Value:
        if op == "+":
            return old + value
        if op == "*":
            return old * value
        if op == "min":
            return np.minimum(old, value)
        if op == "max":
            return np.maximum(old, value)
        raise ExecutionError(f"unknown augmented op {op!r}")

    def _exec_for(self, stmt: For) -> None:
        lo = self._eval(stmt.lower)
        hi = self._eval(stmt.upper)
        step = self._eval(stmt.step)
        if _is_vector(step):
            raise ExecutionError("loop step must be thread-independent")
        step_i = int(step)
        if step_i <= 0:
            raise ExecutionError("loop step must be positive")
        if not _is_vector(lo) and not _is_vector(hi):
            for k in range(int(lo), int(hi), step_i):
                self.env[stmt.var] = k
                self._exec(stmt.body)
            return
        self.data_dependent = True
        lo_v = np.broadcast_to(np.asarray(lo), (self.T,))
        hi_v = np.broadcast_to(np.asarray(hi), (self.T,))
        for k, active in self._divergent_steps(lo_v, hi_v, step_i):
            self._push_mask(active)
            self.env[stmt.var] = k
            try:
                self._exec(stmt.body)
            finally:
                self._pop_mask()

    def _divergent_steps(self, lo_v: np.ndarray, hi_v: np.ndarray,
                         step: int) -> Iterator[tuple[Value, np.ndarray]]:
        """The ``(loop value, active lanes)`` steps of a divergent loop.

        Each lane runs its own ``range(lo, hi, step)``, as a GPU thread
        does: step ``j`` binds the loop variable to ``lo + j*step`` on
        the lanes with ``j < trips``.  Lanes the enclosing mask has
        turned off get zero trips, so every step has an active lane.
        """
        lo_i = lo_v.astype(np.int64)
        hi_i = hi_v.astype(np.int64)
        trips = np.maximum(0, -((lo_i - hi_i) // step))
        if self.mask is not None:
            trips = np.where(self.mask, trips, 0)
        for j in range(int(trips.max(initial=0))):
            yield lo_i + j * step, j < trips

    def _exec_while(self, stmt: While) -> None:
        guard = 0
        limit = 10_000_000
        while True:
            cond = self._eval(stmt.cond)
            if not _is_vector(cond):
                if not cond:
                    return
                self._exec(stmt.body)
            else:
                base = self.mask
                alive = cond if base is None else (cond & base)
                if not alive.any():
                    return
                self.data_dependent = True
                self._push_mask(cond.astype(bool))
                try:
                    self._exec(stmt.body)
                finally:
                    self._pop_mask()
            guard += 1
            if guard > limit:
                raise ExecutionError("while loop exceeded iteration guard")

    def _exec_if(self, stmt: If) -> None:
        cond = self._eval(stmt.cond)
        if not _is_vector(cond):
            if cond:
                self._exec(stmt.then_body)
            elif stmt.else_body is not None:
                self._exec(stmt.else_body)
            return
        cond_b = cond.astype(bool)
        base = self.mask
        then_active = cond_b if base is None else (cond_b & base)
        if then_active.any():
            self._push_mask(cond_b)
            try:
                self._exec(stmt.then_body)
            finally:
                self._pop_mask()
        if stmt.else_body is not None:
            not_cond = ~cond_b
            else_active = not_cond if base is None else (not_cond & base)
            if else_active.any():
                self._push_mask(not_cond)
                try:
                    self._exec(stmt.else_body)
                finally:
                    self._pop_mask()

    def _exec_call(self, stmt: CallStmt) -> None:
        func = self.functions.get(stmt.func)
        if func is None:
            raise ExecutionError(
                f"kernel {self.kernel.name!r} calls unknown function "
                f"{stmt.func!r}")
        if len(stmt.args) != len(func.params):
            raise ExecutionError(
                f"call to {func.name!r}: expected {len(func.params)} args, "
                f"got {len(stmt.args)}")
        saved_env: dict[str, tuple[bool, Value]] = {}
        saved_arrays: dict[str, tuple[bool, Optional[np.ndarray]]] = {}
        for param, arg in zip(func.params, stmt.args):
            if param.is_array:
                if not isinstance(arg, Var):
                    raise ExecutionError(
                        f"array argument to {func.name!r} must be a name")
                saved_arrays[param.name] = (param.name in self.arrays,
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
            for name, (existed, arr) in saved_arrays.items():
                if existed and arr is not None:
                    self.arrays[name] = arr
                else:
                    self.arrays.pop(name, None)


def execute_kernel(kernel: Kernel, arrays: MutableMapping[str, np.ndarray],
                   scalars: Mapping[str, Value],
                   functions: Optional[Mapping[str, Function]] = None,
                   memo: Optional[LaunchMemo] = None) -> None:
    """Run ``kernel`` in place over ``arrays``, timed when observed.

    With a ``memo``, a launch the memo has seen before on the same
    inputs writes back the elements it changed instead of being
    interpreted again (see :mod:`repro.gpusim.memo`); it is still
    counted and timed as a launch.  The tests check the interpreter
    against a scalar per-thread reference (``tests/scalar_reference.py``)
    — see ``docs/architecture.md``.
    """
    from repro.obs import tracer as obs

    def interpret() -> None:
        KernelExecutor(kernel, arrays, scalars, functions).run()

    def launch() -> None:
        if memo is None:
            interpret()
        else:
            memo.launch(interpret, kernel, arrays, scalars, functions,
                        KernelExecutor)

    if obs.current_tracer() is None:
        launch()
        return
    with obs.span(f"interpret {kernel.name}", "executor",
                  kernel=kernel.name):
        launch()
