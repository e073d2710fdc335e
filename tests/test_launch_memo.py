"""The launch memo: each distinct launch runs once, invisibly.

``Benchmark._run`` hands the memo of its workload slot to every device
launch and host fallback; a launch seen before on the same inputs
writes back the elements it changed instead of being interpreted.
Checked here:

* every cell of the validation slice, at two seeds, leaves byte-identical
  arrays with the slot's memo and with a fresh memo per launch (the slow
  tier: all 13 benchmarks, and the transfer-elision flavour);
* every field of the key splits it;
* a raising launch, a pointer-swapping kernel and an over-budget launch
  are never stored;
* a replay restores ``-0.0`` and NaN payloads bit-exactly, stores only
  the changed elements, and the memo goes with its workload slot.

The reuse-analysis memo behind lint's CACHE rules and the locality
suite is checked the same way: records equal fresh analyses, every key
field splits it, and hits carry the caller's kernel name.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from tests.difftest import UnionWalkExecutor
from repro.benchmarks import base
from repro.benchmarks.base import ALL_MODELS
from repro.benchmarks.registry import BENCHMARK_ORDER, get_benchmark
from repro.errors import ExecutionError, LaunchError
from repro.gpusim import executor, locality, memo
from repro.gpusim.device import TESLA_M2090
from repro.gpusim.executor import KernelExecutor, execute_kernel
from repro.gpusim.kernel import Kernel
from repro.gpusim.memo import MAX_LAUNCH_BYTES, LaunchMemo, launch_key
from repro.gpusim.trace import TracingExecutor
from repro.ir.analysis import regionmemo, reuse
from repro.ir.builder import aref, assign, block, call, pfor, v
from repro.ir.program import Function, Param
from repro.ir.stmt import PointerArith
from repro.lint import cache as lint_cache
from repro.lint.suite import lint_suite

#: the perfbench ``validate`` slice
VALIDATE_SLICE = ("JACOBI", "EP", "SPMUL", "BFS", "HOTSPOT", "LUD")


def _count_interpreted(monkeypatch) -> list:
    """A list that grows by one per interpreted launch."""
    runs = []
    interpret = KernelExecutor.run
    monkeypatch.setattr(KernelExecutor, "run",
                        lambda self: runs.append(1) or interpret(self))
    return runs


def _cells(names, seed, elide):
    """Every validated cell's output arrays, in sweep order."""
    out = []
    for name in names:
        bench = get_benchmark(name)
        for model in ALL_MODELS:
            for variant in bench.variants(model):
                run = bench.run(model, variant, scale="test", seed=seed,
                                elide_transfers=elide)
                assert run.validated, (name, model, variant,
                                       run.validation_errors)
                out.append({k: a.copy() for k, a in run.arrays.items()})
    return out


def _assert_memo_invisible(monkeypatch, names, seed, elide=False):
    monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
    with monkeypatch.context() as patch:
        memo_runs = _count_interpreted(patch)
        memoized = _cells(names, seed, elide)
    with monkeypatch.context() as patch:
        fresh_runs = _count_interpreted(patch)
        launch = LaunchMemo.launch
        patch.setattr(LaunchMemo, "launch",
                      lambda self, *args: launch(LaunchMemo(), *args))
        fresh = _cells(names, seed, elide)
    assert len(memo_runs) < len(fresh_runs)
    assert len(memoized) == len(fresh)
    for got, want in zip(memoized, fresh):
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes(), name


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_validate_slice(self, monkeypatch, seed):
        _assert_memo_invisible(monkeypatch, VALIDATE_SLICE, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("elide", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_suite(self, monkeypatch, seed, elide):
        _assert_memo_invisible(monkeypatch, BENCHMARK_ORDER, seed, elide)

    def test_host_fallbacks_replay_too(self, monkeypatch):
        # R-Stream runs BFS's untranslated regions on the host
        from repro.cpu import openmp

        memos = []
        run_host = openmp.run_region_host
        monkeypatch.setattr(
            "repro.models.base.run_region_host",
            lambda *args: memos.append(args[-1]) or run_host(*args))
        monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
        bench = get_benchmark("BFS")
        for _ in range(2):
            bench.run("R-Stream", scale="test")
        assert memos and all(m is base._WORKLOAD_SLOT[3] for m in memos)

    def test_patched_executor_is_not_answered_from_the_memo(self,
                                                            monkeypatch):
        monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
        bench = get_benchmark("SPMUL")
        bench.run("OpenACC", scale="test")
        union_runs = []
        walk = UnionWalkExecutor.run
        with monkeypatch.context() as patch:
            patch.setattr(executor, "KernelExecutor", UnionWalkExecutor)
            patch.setattr(UnionWalkExecutor, "run",
                          lambda self: union_runs.append(1) or walk(self))
            bench.run("OpenACC", scale="test")
        assert union_runs


# ---------------------------------------------------------------------------
# The key
# ---------------------------------------------------------------------------

def _kernel(body=None, arrays=("x", "y")):
    body = body or assign(aref("y", v("i")), aref("x", v("i")) * v("s"))
    return Kernel("k", pfor("i", 0, 4, body), ["i"], arrays=arrays,
                  scalars=["s"])


def _arrays():
    return {"x": np.arange(4.0), "y": np.zeros(4)}


def _key(kernel=None, arrays=None, scalars=None, functions=None,
         executor_cls=KernelExecutor, extra=()):
    return launch_key(kernel or _kernel(), arrays or _arrays(),
                      {"s": 2.0} if scalars is None else scalars,
                      functions, executor_cls, extra)


class TestKey:
    def test_equal_launches_share_a_key(self):
        renamed = _kernel()
        renamed.name = "other"
        assert _key() == _key(kernel=renamed) is not None

    def test_executor_class(self):
        keys = {_key(executor_cls=cls) for cls in (
            KernelExecutor, UnionWalkExecutor, TracingExecutor)}
        assert len(keys) == 3

    def test_scalars(self):
        keys = {_key(scalars={"s": s}) for s in (0, 0.0, -0.0, True)}
        assert len(keys) == 4
        assert _key(scalars={"s": 0.0, "t": 1}) not in keys

    @pytest.mark.parametrize("change", [
        lambda a: a.astype(np.float32),
        lambda a: a.reshape(2, 2),
        lambda a: np.where(np.arange(4) == 3, 5.0, a),
    ], ids=["dtype", "shape", "contents"])
    def test_arrays(self, change):
        arrays = _arrays()
        arrays["x"] = change(arrays["x"])
        assert _key(arrays=arrays) != _key()

    def test_array_names(self):
        arrays = _arrays()
        arrays["z"] = arrays.pop("x")
        assert _key(arrays=arrays) != _key()

    def test_reachable_function_body(self):
        def scaled(factor):
            return {"f": Function("f", [Param("dst", is_array=True),
                                        Param("i")],
                                  assign(aref("dst", v("i")), factor))}

        kernel = _kernel(call("f", v("y"), v("i")))
        assert _key(kernel=kernel, functions=scaled(1.0)) \
            != _key(kernel=kernel, functions=scaled(2.0))
        # a function the body does not call does not split it
        assert _key(functions=scaled(1.0)) == _key(functions=scaled(2.0))

    def test_kernel_body(self):
        other = _kernel(assign(aref("y", v("i")), aref("x", v("i")) + v("s")))
        assert _key(kernel=other) != _key()

    def test_extra_fields(self):
        assert _key(extra=(8,)) != _key(extra=(4,)) != _key()


# ---------------------------------------------------------------------------
# What is stored, and what is not
# ---------------------------------------------------------------------------

def _launch(launches, kernel, arrays, scalars=None, functions=None):
    execute_kernel(kernel, arrays, {"s": 2.0} if scalars is None else scalars,
                   functions, launches)


class TestStorage:
    def test_repeat_replays_without_interpreting(self, monkeypatch):
        runs = _count_interpreted(monkeypatch)
        launches = LaunchMemo()
        first, second = _arrays(), _arrays()
        _launch(launches, _kernel(), first)
        _launch(launches, _kernel(), second)
        assert len(runs) == 1 and len(launches) == 1
        assert first["y"].tobytes() == second["y"].tobytes()
        assert first["y"].tolist() == [0.0, 2.0, 4.0, 6.0]

    def test_only_changed_elements_are_stored(self):
        launches = LaunchMemo()
        arrays = _arrays()
        arrays["y"][:2] = [0.0, 2.0]
        _launch(launches, _kernel(), arrays)
        ((changes, payload),) = launches._entries.values()
        assert payload is None and set(changes) == {"y"}
        where, values = changes["y"]
        assert where.tolist() == [2, 3] and values.tolist() == [4.0, 6.0]

    def test_replay_is_bit_exact(self, monkeypatch):
        nan = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF0_0000_0000_0001],
                       dtype=np.uint64).view(np.float64)
        source = np.array([-0.0, nan[0], nan[1], 1.5])
        kernel = _kernel(assign(aref("y", v("i")), aref("x", v("i"))))
        runs = _count_interpreted(monkeypatch)
        launches = LaunchMemo()
        outs = []
        for _ in range(2):
            arrays = {"x": source.copy(), "y": np.full(4, 7.0)}
            _launch(launches, kernel, arrays, scalars={})
            outs.append(arrays["y"])
        assert len(runs) == 1
        assert outs[0].tobytes() == source.tobytes() == outs[1].tobytes()

    def test_raising_launch_is_not_stored(self, monkeypatch):
        runs = _count_interpreted(monkeypatch)
        launches = LaunchMemo()
        kernel = _kernel(assign(aref("y", v("i") + 10), 1.0))
        for _ in range(2):
            with pytest.raises(ExecutionError):
                _launch(launches, kernel, _arrays())
        assert len(runs) == 2 and len(launches) == 0

    def test_pointer_swap_is_not_stored(self, monkeypatch):
        runs = _count_interpreted(monkeypatch)
        launches = LaunchMemo()
        kernel = _kernel(block(PointerArith("swap", ("x", "y")),
                               assign(aref("x", v("i")), 1.0)))
        for _ in range(2):
            arrays = _arrays()
            x, y = arrays["x"], arrays["y"]
            _launch(launches, kernel, arrays)
            assert arrays["x"] is y and arrays["y"] is x
        assert len(runs) == 2 and len(launches) == 0

    def test_swap_in_a_called_function_is_not_stored(self):
        functions = {"f": Function("f", [], PointerArith("swap", ("x", "y")))}
        kernel = _kernel(call("f"))
        assert _key(kernel=kernel, functions=functions) is None
        assert _key(kernel=kernel, functions={}) is not None

    def test_over_budget_launch_is_not_hashed_or_stored(self, monkeypatch):
        def no_digest(arr):
            raise AssertionError("an over-budget launch was hashed")

        monkeypatch.setattr(memo, "digest", no_digest)
        runs = _count_interpreted(monkeypatch)
        launches = LaunchMemo()
        n = MAX_LAUNCH_BYTES // 8
        for _ in range(2):
            arrays = {"x": np.ones(n), "y": np.zeros(4)}
            _launch(launches, _kernel(), arrays)
            assert arrays["y"].tolist() == [2.0] * 4
        assert len(runs) == 2 and len(launches) == 0

    def test_no_memo_interprets_every_launch(self, monkeypatch):
        runs = _count_interpreted(monkeypatch)
        for _ in range(2):
            execute_kernel(_kernel(), _arrays(), {"s": 2.0})
        assert len(runs) == 2


class TestScope:
    def test_swapping_the_slot_drops_the_memo(self, monkeypatch):
        monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
        get_benchmark("JACOBI").run("OpenACC", scale="test")
        jacobi = base._WORKLOAD_SLOT[3]
        assert len(jacobi)
        get_benchmark("JACOBI").run("HMPP", scale="test")
        assert base._WORKLOAD_SLOT[3] is jacobi
        dropped = weakref.ref(jacobi)
        del jacobi
        get_benchmark("JACOBI").run("OpenACC", scale="test", seed=1)
        gc.collect()
        assert dropped() is None
        assert len(base._WORKLOAD_SLOT[3])

    def test_timing_only_runs_never_consult_it(self, monkeypatch):
        monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
        get_benchmark("JACOBI").run("OpenACC", scale="test", execute=False,
                                    validate=False)
        assert len(base._WORKLOAD_SLOT[3]) == 0


# ---------------------------------------------------------------------------
# The reuse-analysis memo (lint's CACHE rules and the locality suite)
# ---------------------------------------------------------------------------

REUSE_SLICE = ("JACOBI", "EP", "BFS", "NW", "LUD")


def _analysis_records(monkeypatch, memoized: bool):
    """lint and locality records of the slice, and the analyses run."""
    calls = []
    analyze = reuse.analyze_kernel_reuse

    def counting(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(regionmemo, "_RESULTS", {})
        patch.setattr(locality, "_REPLAY_SLOT", (None, None))
        for module in (locality, lint_cache):
            patch.setattr(module, "analyze_kernel_reuse", counting)
            if not memoized:
                patch.setattr(
                    module, "memoized_reuse",
                    lambda fn, kernel, b, e, spec, functions:
                    fn(kernel, b, e, spec, functions=functions))
        records = [r.to_dict() for r in lint_suite(benchmarks=REUSE_SLICE)]
        records += [r.to_dict() for r in locality.locality_suite(
            benchmarks=REUSE_SLICE)]
    return records, len(calls)


class TestReuseMemo:
    def test_records_match_fresh_analyses(self, monkeypatch):
        memo_records, memo_calls = _analysis_records(monkeypatch, True)
        fresh_records, fresh_calls = _analysis_records(monkeypatch, False)
        assert memo_calls < fresh_calls
        assert memo_records == fresh_records

    def _analyze(self, kernel, **changes):
        args = {"bindings": {"n": 4.0}, "extents": {"x": [4], "y": [4]},
                "spec": TESLA_M2090, "functions": None, **changes}
        return reuse.memoized_reuse(reuse.analyze_kernel_reuse, kernel,
                                    args["bindings"], args["extents"],
                                    args["spec"], args["functions"])

    @staticmethod
    def _entries() -> int:
        """The reuse analyses in the shared memo table."""
        return sum(kind == "reuse" for kind, _ in regionmemo._RESULTS)

    def test_every_field_splits_the_key(self, monkeypatch):
        monkeypatch.setattr(regionmemo, "_RESULTS", {})
        kernel = _kernel()
        first = self._analyze(kernel)
        assert self._analyze(kernel) is first and self._entries() == 1
        self._analyze(kernel, bindings={"n": 8.0})
        self._analyze(kernel, extents={"x": [8], "y": [4]})
        self._analyze(kernel, spec=dataclasses.replace(
            TESLA_M2090, l1_bytes=TESLA_M2090.l1_bytes // 2))
        single = Kernel("k", kernel.body, ["i"], arrays=("x", "y"),
                        dtype="float")
        self._analyze(single)
        carried = Kernel("k", kernel.body, ["i"], arrays=("x", "y"),
                         indirect_carriers=("x",))
        self._analyze(carried)
        calling = _kernel(call("f", v("y"), v("i")))
        for index in ("i", "n"):
            self._analyze(calling, functions={"f": Function(
                "f", [Param("dst", is_array=True), Param("i")],
                assign(aref("dst", v(index)), 1.0))})
        assert self._entries() == 8

    def test_hits_carry_the_callers_name(self, monkeypatch):
        monkeypatch.setattr(regionmemo, "_RESULTS", {})
        first = self._analyze(_kernel())
        renamed = _kernel()
        renamed.name = "other"
        second = self._analyze(renamed)
        assert (first.kernel, second.kernel) == ("k", "other")
        assert second.to_dict() == {**first.to_dict(), "kernel": "other"}
        assert self._analyze(_kernel()) is first

    def test_errors_are_raised_again(self, monkeypatch):
        monkeypatch.setattr(regionmemo, "_RESULTS", {})
        calls = []
        analyze = reuse.analyze_kernel_reuse
        kernel = Kernel("k", pfor("i", 0, v("m"), assign(aref("y", v("i")),
                                                        1.0)),
                        ["i"], arrays=("y",))
        for _ in range(2):
            with pytest.raises(LaunchError):
                reuse.memoized_reuse(
                    lambda *a, **k: calls.append(1) or analyze(*a, **k),
                    kernel, {}, {"y": [4]})
        assert len(calls) == 1
