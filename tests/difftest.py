"""The shared differential-testing harness for kernel execution engines.

Three engines can run a kernel:

* ``reference``   — the scalar statement-at-a-time interpreter
  (:mod:`tests.scalar_reference`), the always-available oracle;
* ``interpreter`` — the vectorizing executor
  (:mod:`repro.gpusim.executor`), which walks each lane's own trip
  count through a divergent loop;
* ``tracer``      — :class:`repro.gpusim.trace.TracingExecutor`, the
  same interpreter with the union walk over divergent loops (global
  loop values ``min(lo)..max(hi)`` under a per-lane mask).

:func:`assert_same_result` runs one kernel through each requested
engine on private copies of the input arrays and asserts the outputs
agree — **byte-for-byte** between ``interpreter`` and ``tracer``
(both walks visit each lane's iterations in the same order), within
tolerance against ``reference`` (whose scalar reduction order may
legally differ in the last ulp).

The module also exports two hypothesis strategies:
:func:`affine_programs` draws random affine loop nests (grid loops
over padded arrays, gathers, scatters with collisions, guarded
branches, sequential inner reductions), and
:func:`divergent_programs` draws CSR-style loops whose bounds differ
per lane.

:func:`serial_evaluation` is the sweep-level oracle: the full
evaluation aggregated by plain serial loops (model-major Table II
fold, benchmark-major Figure 1, one ``profile_run`` per pair), against
which the work-unit sweep is checked at any ``jobs``;
:func:`counter_totals` sums span counters, the figure a merged trace
must reproduce for any ``jobs``.
"""

import numpy as np
from hypothesis import strategies as st

from repro.benchmarks.registry import get_benchmark, iter_suite
from repro.gpusim.executor import KernelExecutor, execute_kernel
from repro.gpusim.kernel import Kernel
from tests.scalar_reference import execute_kernel_scalar
from repro.gpusim.trace import TracingExecutor
from repro.harness.runner import (FIGURE1_MODELS, TABLE2_MODELS,
                                  EvaluationResults, run_speedups)
from repro.ir.builder import (accum, aref, assign, block, iff, local, pfor,
                              sfor, ternary, v)
from repro.ir.expr import BinOp, Const
from repro.metrics.codesize import CodeSizeReport
from repro.metrics.coverage import CoverageReport
from repro.models.cache import compile_bench
from repro.obs.profile import profile_run

#: engines whose outputs must agree bitwise with each other
BITWISE_ENGINES = frozenset({"interpreter", "tracer"})


class UnionWalkExecutor(KernelExecutor):
    """The interpreter with the tracer's union walk over divergent
    loops: the iteration order the executor used before its per-lane
    walk, kept as an oracle."""

    _divergent_steps = TracingExecutor._divergent_steps


def make_kernel(body, tvars, arrays, scalars=None, name="k"):
    return Kernel(name, body, tvars, arrays=sorted(arrays),
                  scalars=sorted(scalars or {}))


def _run_reference(kernel, arrays, scalars, functions):
    execute_kernel_scalar(kernel, arrays, scalars, functions)


def _run_interpreter(kernel, arrays, scalars, functions):
    execute_kernel(kernel, arrays, scalars, functions)


def _run_tracer(kernel, arrays, scalars, functions):
    TracingExecutor(kernel, arrays, scalars, functions).run()


ENGINES = {
    "reference": _run_reference,
    "interpreter": _run_interpreter,
    "tracer": _run_tracer,
}


def assert_same_result(kernel, arrays, scalars=None, functions=None,
                       engines=("interpreter", "tracer", "reference"),
                       rtol=1e-12, atol=1e-12):
    """Run ``kernel`` through each engine; assert the outputs agree.

    ``kernel`` is a :class:`~repro.gpusim.kernel.Kernel` or a
    ``(body, thread_vars)`` pair.  The first engine's output is the
    baseline.  Engines in :data:`BITWISE_ENGINES` must match the
    baseline byte-for-byte when the baseline is also bitwise-class;
    every other comparison uses ``rtol``/``atol``.  Returns the
    baseline arrays (for extra assertions on the result values).
    """
    if not isinstance(kernel, Kernel):
        body, tvars = kernel
        kernel = make_kernel(body, tvars, arrays, scalars)
    scalars = scalars or {}
    outputs = {}
    for engine in engines:
        run = ENGINES[engine]
        copies = {name: np.array(arr, copy=True)
                  for name, arr in arrays.items()}
        run(kernel, copies, scalars, functions)
        outputs[engine] = copies
    baseline_engine = engines[0]
    baseline = outputs[baseline_engine]
    for engine in engines[1:]:
        got = outputs[engine]
        bitwise = {baseline_engine, engine} <= BITWISE_ENGINES
        for name in arrays:
            want, have = baseline[name], got[name]
            assert want.shape == have.shape, \
                f"{engine} vs {baseline_engine}: array {name!r} shape"
            if bitwise:
                assert want.dtype == have.dtype \
                    and want.tobytes() == have.tobytes(), \
                    f"{engine} diverged bitwise from {baseline_engine} " \
                    f"on array {name!r} (max |delta| = " \
                    f"{np.max(np.abs(have - want)):.3e})"
            else:
                np.testing.assert_allclose(
                    have, want, rtol=rtol, atol=atol,
                    err_msg=f"{engine} vs {baseline_engine}: {name}")
    return baseline


# ---------------------------------------------------------------------------
# Hypothesis strategies for affine loop nests
# ---------------------------------------------------------------------------
#
# Generated programs iterate i in [1, n+1) (x j in [1, m+1) when 2-D)
# over arrays padded by one cell on each side, so every affine index
# ``loop_var + offset`` with offset in {-1, 0, 1} stays in bounds.

_FINITE = st.floats(min_value=-4.0, max_value=4.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def _value_expr(draw, axes, depth):
    """An affine-indexed value expression over arrays a (grid-shaped),
    w (1-D), and the loop variables themselves."""
    leaf = draw(st.integers(0, 3)) if depth <= 0 else draw(st.integers(0, 6))
    if leaf == 0:
        return Const(draw(_FINITE))
    if leaf == 1:
        return v(draw(st.sampled_from(axes))) * 0.25
    if leaf in (2, 3):
        idxs = [v(ax) + draw(st.integers(-1, 1)) for ax in axes]
        if leaf == 3:
            return aref("w", idxs[0])
        return aref("a", *idxs)
    if leaf == 4:
        op = draw(st.sampled_from(["+", "-", "*", "min", "max"]))
        return BinOp(op, draw(_value_expr(axes, depth - 1)),
                     draw(_value_expr(axes, depth - 1)))
    if leaf == 5:
        return -draw(_value_expr(axes, depth - 1))
    cond = draw(_cond_expr(axes, depth - 1))
    return ternary(cond, draw(_value_expr(axes, depth - 1)),
                   draw(_value_expr(axes, depth - 1)))


@st.composite
def _cond_expr(draw, axes, depth):
    kind = draw(st.integers(0, 1))
    if kind == 0:
        k = draw(st.integers(2, 4))
        return (v(draw(st.sampled_from(axes))) % k).eq(
            draw(st.integers(0, k - 1)))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "!="]))
    return BinOp(op, draw(_value_expr(axes, depth)),
                 draw(_value_expr(axes, depth)))


@st.composite
def _thread_stmt(draw, axes, depth):
    """One race-free statement of the thread body (writes only the
    thread's own ``b`` cell or a local)."""
    target = [v(ax) for ax in axes]
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return assign(aref("b", *target), draw(_value_expr(axes, 2)))
    if kind == 1:
        op = draw(st.sampled_from(["+", "min", "max"]))
        return accum(aref("b", *target), draw(_value_expr(axes, 1)), op=op)
    if kind == 2 and depth > 0:
        then = draw(_thread_stmt(axes, depth - 1))
        orelse = draw(st.none() | _thread_stmt(axes, depth - 1))
        return iff(draw(_cond_expr(axes, 1)), then, orelse)
    # sequential inner reduction into a local scalar, then a store
    trips = draw(st.integers(0, 3))
    op = draw(st.sampled_from(["+", "max"]))
    return block(
        local("t", dtype="double", init=Const(0.0)),
        sfor("q", 0, trips,
             accum(v("t"), draw(_value_expr(axes, 1)) + v("q"), op=op)),
        assign(aref("b", *[v(ax) for ax in axes]), v("t")),
    )


@st.composite
def _scatter_stmt(draw, axes):
    """A single (optionally guarded) scatter-reduction into ``h`` with
    collisions.

    A program gets at most one of these: cross-thread read-modify-write
    through *several* statements is a data race — the vectorized
    engines interleave by statement, the scalar reference by thread,
    and both schedules are legal — so only the single-reduction form
    (whose outcome is schedule-independent) is generated.
    """
    op = draw(st.sampled_from(["+", "min", "max"]))
    stmt = accum(aref("h", aref("idx", v(axes[0]))),
                 draw(_value_expr(axes, 1)), op=op)
    if draw(st.booleans()):
        stmt = iff(draw(_cond_expr(axes, 1)), stmt)
    return stmt


@st.composite
def affine_programs(draw):
    """A random affine loop nest plus matching input arrays.

    Returns ``(body, thread_vars, arrays)`` ready for
    :func:`assert_same_result`.
    """
    n = draw(st.integers(2, 6))
    two_d = draw(st.booleans())
    m = draw(st.integers(2, 5)) if two_d else 1
    axes = ["i", "j"] if two_d else ["i"]
    seed = draw(st.integers(0, 2 ** 16))

    stmts = draw(st.lists(_thread_stmt(axes, 1), min_size=1, max_size=3))
    if draw(st.booleans()):
        stmts.insert(draw(st.integers(0, len(stmts))),
                     draw(_scatter_stmt(axes)))
    body = block(*stmts)
    if two_d:
        body = sfor("j", 1, m + 1, body) if draw(st.booleans()) \
            else pfor("j", 1, m + 1, body)
        tvars = ["i", "j"] if body.parallel else ["i"]
        body = pfor("i", 1, n + 1, body)
    else:
        tvars = ["i"]
        body = pfor("i", 1, n + 1, body)

    rng = np.random.default_rng(seed)
    grid_shape = (n + 2, m + 2) if two_d else (n + 2,)
    arrays = {
        "a": rng.random(grid_shape),
        "b": np.zeros(grid_shape),
        "w": rng.random(n + 2),
        "idx": rng.integers(0, 8, size=n + 2).astype(np.int64),
        "h": np.zeros(8),
    }
    return body, tvars, arrays


# ---------------------------------------------------------------------------
# Hypothesis strategy for divergent (thread-dependent-bound) loops
# ---------------------------------------------------------------------------
#
# Lane i walks k over range(lo[i], hi[i], step) with either CSR row
# pointers (lo = rp[i] + shift, hi = rp[i+1]) or free per-lane bounds,
# gathering val[k] and x[col[k]] into stores the lane alone owns.

_NNZ_PAD = 4


@st.composite
def _divergent_value(draw):
    """A value read inside the loop body: the loop variable, a CSR
    value, or a gather through the column index array."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return v("k") * 0.5
    if kind == 1:
        return aref("val", v("k"))
    if kind == 2:
        return aref("val", v("k")) * aref("x", aref("col", v("k")))
    return BinOp(draw(st.sampled_from(["+", "-", "min", "max"])),
                 aref("x", aref("col", v("k"))), aref("val", v("k")))


@st.composite
def _divergent_cond(draw):
    if draw(st.booleans()):
        m = draw(st.integers(2, 3))
        return (v("k") % m).eq(draw(st.integers(0, m - 1)))
    return BinOp(draw(st.sampled_from(["<", ">="])), aref("val", v("k")),
                 Const(draw(st.sampled_from([0.25, 0.5, 0.75]))))


@st.composite
def _divergent_body(draw):
    """Lane-private statements: accumulations into ``y[i]`` and a local
    scalar ``t``, an overwrite of ``z[i]``, optionally guarded."""
    stmts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            stmt = accum(aref("y", v("i")), draw(_divergent_value()),
                         op=draw(st.sampled_from(["+", "min", "max"])))
        elif kind == 1:
            stmt = accum(v("t"), draw(_divergent_value()))
        else:
            stmt = assign(aref("z", v("i")), draw(_divergent_value()))
        if draw(st.booleans()):
            stmt = iff(draw(_divergent_cond()), stmt)
        stmts.append(stmt)
    return block(*stmts)


@st.composite
def divergent_programs(draw):
    """A grid loop over ``n`` lanes whose sequential inner loop has
    per-lane bounds, plus matching input arrays.

    Returns ``(body, thread_vars, arrays)`` ready for
    :func:`assert_same_result`.  Every store is lane-private, so the
    outputs do not depend on how lanes interleave.
    """
    n = draw(st.integers(1, 12))
    step = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, draw(st.integers(0, 6)) + 1, size=n)
    rp = np.concatenate([[0], np.cumsum(rows)]).astype(np.int64)
    nnz = int(rp[-1]) + _NNZ_PAD
    if draw(st.booleans()):
        shift = draw(st.integers(0, 1))
        lower, upper = aref("rp", v("i")) + shift, aref("rp", v("i") + 1)
    else:
        lower, upper = aref("lo", v("i")), aref("hi", v("i"))
    loop = sfor("k", lower, upper, draw(_divergent_body()), step=step)
    stmts = [local("t", dtype="double", init=Const(0.0)), loop,
             accum(aref("y", v("i")), v("t"))]
    if draw(st.booleans()):
        # an enclosing guard: masked-off lanes must take no trips
        stmts[1] = iff((v("i") % 2).eq(draw(st.integers(0, 1))), loop)
    body = pfor("i", 0, n, block(*stmts))
    arrays = {
        "rp": rp,
        "lo": rng.integers(0, nnz, size=n).astype(np.int64),
        "hi": rng.integers(0, nnz + 1, size=n).astype(np.int64),
        "val": rng.random(nnz),
        "col": rng.integers(0, 8, size=nnz).astype(np.int64),
        "x": rng.random(8),
        "y": np.zeros(n),
        "z": np.zeros(n),
    }
    return body, ["i"], arrays


def serial_evaluation(scale, benchmarks=None, models=FIGURE1_MODELS):
    """Table II, Figure 1 and the per-run profiles by serial loops:
    ``(EvaluationResults, profiles)`` in the order the sweep merges."""
    benches = [get_benchmark(name) for name in benchmarks] \
        if benchmarks is not None else list(iter_suite())
    results = EvaluationResults()
    for model in TABLE2_MODELS:
        cov = CoverageReport(model=model)
        size = CodeSizeReport(model=model)
        for bench in benches:
            port, compiled = compile_bench(bench, model, "best")
            cov.add(compiled)
            size.add_port(bench.program, port)
        results.coverage[model] = cov
        results.codesize[model] = size
    results.speedups = run_speedups(benches, models, scale=scale)
    profiles = [profile_run(bench.name, model, scale=scale)
                for bench in benches for model in models]
    return results, profiles


def counter_totals(spans):
    """Sum every numeric counter across ``spans`` by key.

    Non-numeric counters (e.g. an occupancy-limiter label) are skipped.
    Because the simulator is deterministic and the work-unit graph
    partitions the sweep, these totals are identical whether the spans
    came from one serial process or were merged from N workers.
    """
    totals: dict[str, float] = {}
    for sp in spans:
        for key, value in sp.counters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            totals[key] = totals.get(key, 0.0) + value
    return totals
