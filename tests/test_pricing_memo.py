"""Price once, launch many: staged launch descriptors over the shared
symbolic-stage table, the prices and counters of a pricing pass, the
shared workload slot with its CPU baseline, and the vectorized BFS
levels.

Every shortcut here is checked against a fresh computation with zero
tolerance: a descriptor (one row of the numeric columns) must ``==`` the
one the scalar evaluators of :mod:`tests.legacy_pricing` build from a
stage of its own (and the one its one-pass scans build) for every
launch of the Figure-1 sweep, a pass's prices and counters must ``==``
the scalar price and fresh counters under every timing config, and a
shared workload must leave every run's outputs exactly as a private one
would.
"""

import copy
import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

import repro.gpusim.runtime as runtime_mod
from repro.benchmarks import base
from repro.benchmarks.bfs import _bfs_levels
from repro.benchmarks.data import Graph, make_graph
from repro.benchmarks.registry import get_benchmark, iter_suite
from repro.cpu.host import (KEENELAND_HOST, price_serial,
                            price_serial_columns, serial_stage)
from repro.gpusim.device import TESLA_M2090
from repro.gpusim.kernel import Kernel, KernelDescriptor
from repro.gpusim.timing import TimingConfig, price_kernel
from repro.harness.runner import FIGURE1_MODELS, run_speedups
from repro.ir.analysis import regionmemo
from repro.ir.analysis.access import AccessPattern, summarize_accesses
from repro.ir.analysis.metrics import body_work
from repro.ir.expr import ArrayRef, BinOp, Var
from repro.ir.stmt import Assign, Block, For
from repro.models.base import ExecutableProgram
from repro.models.cache import STORE, StoreView, compile_port
from repro.obs.counters import derive_counters
from tests import launch_oracle
from tests.legacy_pricing import (fresh_describe, legacy_describe,
                                  legacy_price_region_serial,
                                  scalar_price_kernel, scalar_price_serial,
                                  trip_factors)

#: every timing config the ablation benches price under
ABLATION_CONFIGS = (TimingConfig(), TimingConfig(model_coalescing=False),
                    TimingConfig(model_occupancy=False),
                    TimingConfig(model_cache_hierarchy=True))


def _launch_args(bench_name: str, model: str, region: str,
                 scale: str = "test"):
    """A translated kernel of ``region`` plus its canonical launch
    bindings and extents."""
    bench = get_benchmark(bench_name)
    _, compiled, _ = compile_port(bench_name, model)
    kernel = compiled.result(region).kernels[0]
    wl = bench.workload(scale)
    bindings = {k: float(v) for k, v in wl.scalars.items()}
    extents = {name: list(wl.arrays[name].shape) for name in kernel.arrays}
    return kernel, bindings, extents


def _check_every_launch(monkeypatch, sweep) -> list[tuple]:
    """Run ``sweep`` a launch at a time, checking each launch's
    descriptor (one row of the columns) against the scalar evaluators
    over a stage of its own, and each distinct launch's against the
    one-pass scans; returns every launch's key (kernel, loop-bound
    bindings, extents)."""
    seen: list[tuple] = []
    checked: set[tuple] = set()

    def checking(kernel, bindings, array_extents):
        want = fresh_describe(kernel, bindings, array_extents)
        assert kernel.describe(bindings, array_extents) == want, \
            (kernel.name, dict(bindings))
        key = (id(kernel), kernel.stage(array_extents).bound_key(bindings),
               tuple(sorted((n, tuple(e)) for n, e in array_extents.items())))
        if key not in checked:
            checked.add(key)
            assert want == legacy_describe(kernel, bindings, array_extents), \
                (kernel.name, dict(bindings))
        seen.append(key)
        return want

    # the oracle launches one kernel at a time, describing every launch
    # with the scalar evaluators (a pricing pass describes each distinct
    # launch once; tests/test_batch_pricing.py checks the pass against
    # the oracle)
    monkeypatch.setattr(launch_oracle, "scalar_describe", checking)
    monkeypatch.setattr(ExecutableProgram, "run_schedule",
                        launch_oracle.run_schedule)
    sweep()
    return seen


class TestDescriptorMemo:
    def test_every_figure1_launch_matches_fresh(self, monkeypatch):
        seen = _check_every_launch(monkeypatch, lambda: (
            run_speedups(scale="test"),
            run_speedups([get_benchmark(n) for n in ("EP", "SRAD", "KMEANS")],
                         scale="paper")))
        assert len(seen) > 3000

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["LUD", "NW"])
    def test_every_paper_launch_matches_fresh(self, monkeypatch, name):
        # the pivot k and anti-diagonal d give nearly every launch its
        # own trip counts: the numeric stage's hardest workload
        seen = _check_every_launch(monkeypatch, lambda: run_speedups(
            [get_benchmark(name)], scale="paper"))
        assert len(seen) > 10000

    def test_non_bound_scalars_share_a_descriptor(self):
        # SRAD's per-iteration t appears in no loop bound
        kernel, bindings, extents = _launch_args("SRAD", "OpenACC",
                                                 "diffusion")
        first = kernel.describe({**bindings, "t": 0.0}, extents)
        assert kernel.describe({**bindings, "t": 7.0}, extents) == first
        assert first == fresh_describe(kernel, {**bindings, "t": 7.0},
                                       extents)

    def test_loop_bound_scalars_split_the_key(self):
        # NW's anti-diagonal d bounds the wavefront loop
        kernel, bindings, extents = _launch_args("NW", "OpenACC",
                                                 "wave_upper")
        a = kernel.describe({**bindings, "d": 3.0}, extents)
        b = kernel.describe({**bindings, "d": 9.0}, extents)
        assert a.total_threads != b.total_threads
        assert a == fresh_describe(kernel, {**bindings, "d": 3.0}, extents)
        assert b == fresh_describe(kernel, {**bindings, "d": 9.0}, extents)

    def test_extents_split_the_key(self):
        kernel, bindings, extents = _launch_args("JACOBI", "OpenACC",
                                                 "stencil")
        a = kernel.describe(bindings, extents)
        wider = {name: [e + 1 for e in ext] for name, ext in extents.items()}
        # one symbolic stage per extents, shared by equal extents
        assert kernel.stage(wider) is not kernel.stage(extents)
        assert kernel.stage(dict(extents)) is kernel.stage(extents)
        assert kernel.describe(bindings, wider) == fresh_describe(
            kernel, bindings, wider)
        assert kernel.describe(dict(bindings), dict(extents)) == a


class TestMemoLeavesCopies:
    def test_pickle_drops_the_memo(self):
        kernel, bindings, extents = _launch_args("JACOBI", "OpenACC",
                                                 "stencil")
        desc = kernel.describe(bindings, extents)
        kernel.private_global_bytes_per_thread()
        memos = {"_body_digest", "_content_key", "_private_bytes"}
        assert memos <= set(vars(kernel))
        clone = pickle.loads(pickle.dumps(kernel))
        assert not memos & set(vars(clone))
        assert clone.describe(bindings, extents) == desc
        assert clone.content_key == kernel.content_key
        assert kernel.describe(bindings, extents) == desc

    def test_store_view_ships_no_descriptors(self):
        kernel, bindings, extents = _launch_args("JACOBI", "OpenACC",
                                                 "stencil")
        kernel.describe(bindings, extents)
        shipped = pickle.loads(pickle.dumps(STORE.delta_view(StoreView())))
        kernels = [k for art in shipped.artifacts
                   for result in art.compiled.results.values()
                   for k in result.kernels]
        assert kernels
        assert not any(isinstance(value, KernelDescriptor)
                       or name in ("_body_digest", "_content_key")
                       for k in kernels for name, value in vars(k).items())

    def test_deepcopy_then_new_body_is_not_stale(self):
        kernel, bindings, extents = _launch_args("JACOBI", "OpenACC",
                                                 "stencil")
        desc = kernel.describe(bindings, extents)
        assert desc.access.refs and desc.flops_per_thread > 0
        bad = copy.deepcopy(kernel)
        bad.body = Block(())
        emptied = bad.describe(bindings, extents)
        assert emptied == fresh_describe(bad, bindings, extents)
        assert emptied.access.refs == [] and emptied.flops_per_thread == 0
        assert kernel.describe(bindings, extents) == desc


def _kernel(name="k", thread_vars=("i", "j"), **kwargs) -> Kernel:
    """A 2-deep parallel nest reading ``b`` transposed."""
    inner = For("j", 0, Var("m"), [Assign(
        ArrayRef("a", (Var("i"), Var("j"))),
        ArrayRef("b", (Var("j"), Var("i"))))], parallel=True)
    return Kernel(name, For("i", 0, Var("n"), [inner], parallel=True),
                  thread_vars, arrays=("a", "b"), **kwargs)


class TestContentKey:
    BINDINGS = {"n": 64.0, "m": 32.0}
    EXTENTS = {"a": [64, 32], "b": [32, 64]}

    @pytest.mark.parametrize("change", [
        {"thread_vars": ("i",)},
        {"indirect_carriers": ("b",)},
        {"monotone_carriers": ("b",)},
        {"pattern_overrides": {"b": AccessPattern.COALESCED}},
        {"private_orientations": {"t": "row"}},
        {"private_orientations": {"t": "column"}},
    ])
    def test_analysed_fields_split_the_key(self, change):
        assert _kernel(**change).content_key != _kernel().content_key

    def test_names_stay_out_of_the_key(self):
        first, second = _kernel("first"), _kernel("second", block_threads=128)
        assert first.content_key == second.content_key
        a = first.describe(self.BINDINGS, self.EXTENTS)
        b = second.describe(self.BINDINGS, self.EXTENTS)
        # one shared symbolic stage, two descriptors with their own names
        stage = first.stage(self.EXTENTS)
        assert second.stage(self.EXTENTS) is stage
        assert regionmemo._RESULTS[("stage", (first.content_key, tuple(
            sorted((n, tuple(e)) for n, e in self.EXTENTS.items()))))
        ] is stage
        assert (a.name, b.name) == ("first", "second")
        assert b.block_threads == 128
        assert a == fresh_describe(first, self.BINDINGS, self.EXTENTS)
        assert b == fresh_describe(second, self.BINDINGS, self.EXTENTS)
        assert price_kernel(a, TESLA_M2090).name == "first"

    def test_overrides_reach_the_descriptor(self):
        plain = _kernel().describe(self.BINDINGS, self.EXTENTS)
        forced = _kernel(pattern_overrides={"b": AccessPattern.COALESCED}
                         ).describe(self.BINDINGS, self.EXTENTS)
        patterns = {r.array: r.pattern for r, _ in forced.access.refs}
        assert patterns["b"] is AccessPattern.COALESCED
        assert plain.access != forced.access


class TestOneRowTypes:
    """A single launch is one row of the columns, and comes back in
    Python numbers: numpy scalars would print as ``np.float64(...)``."""

    @staticmethod
    def _assert_python_numbers(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                assert type(value) in (int, float), (f.name, type(value))
        assert "np." not in repr(obj)

    @pytest.mark.parametrize("name,region", [("SPMUL", "spmv"),
                                             ("LUD", "lud_update")])
    def test_describe_price_and_host_price(self, name, region):
        # SPMUL's CSR row loop is inexact, LUD's pivot loop exact
        kernel, bindings, extents = _launch_args(name, "OpenACC", region)
        desc = kernel.describe(bindings, extents)
        self._assert_python_numbers(desc)
        assert type(desc.total_threads) is int
        assert type(desc.flops_per_thread) is float
        assert type(desc.divergence) is float
        assert all(type(count) is float for _, count in desc.access.refs)
        for config in ABLATION_CONFIGS:
            timing = price_kernel(desc, TESLA_M2090, config)
            self._assert_python_numbers(timing)
            assert type(timing.time_s) is float
            assert type(timing.l2_hit_rate) is float
        stage = serial_stage(kernel.body, extents)
        assert type(price_serial(stage, 1.0, bindings)) is float
        summary = summarize_accesses(kernel.body, kernel.thread_vars,
                                     extents, bindings)
        assert all(type(count) is float for _, count in summary.refs)
        work = body_work(kernel.body, kernel.thread_vars, bindings)
        assert (type(work.flops), type(work.divergence)) == (float, float)

    def test_deferred_launch_descriptors(self):
        # LUD's later pivots are priced as columns; their descriptors,
        # built on a counter read, are Python numbers too
        rt = get_benchmark("LUD").run("OpenACC", scale="test", execute=False,
                                      validate=False).executable.rt
        deferred = [r for r in rt.profiler.launches
                    if r.source.group is not None]
        assert deferred
        for record in deferred:
            record.counters
            self._assert_python_numbers(record.source.desc)
            self._assert_python_numbers(record.timing)


class TestEstimatedTrips:
    """A loop whose bounds read an enclosing loop's index is estimated
    per launch from the value ranges under that launch's bindings.  The
    Figure-1 suite has no such loop, so a triangular nest pins the
    columns to the scalar evaluators here, with a launch that leaves
    ``m`` unbound."""

    # i: exact; j in [i, min(n, m)): estimated from i's and m's ranges;
    # k in [0, m): exact where m is bound

    BINDINGS = [{"n": 8.0, "m": 3.0}, {"n": 101.0, "m": 50.0}, {"n": 8.0}]
    EXTENTS = {"a": [128]}

    @staticmethod
    def _body(outer):
        return outer("i", 0, Var("n"), [
            For("j", Var("i"), BinOp("min", Var("n"), Var("m")), [Assign(
                ArrayRef("a", (Var("j"),)), ArrayRef("a", (Var("i"),)))]),
            For("k", 0, Var("m"), [Assign(ArrayRef("a", (Var("k"),)), 0.0)])])

    def test_host_price_matches_scalar(self):
        stage = serial_stage(self._body(For), self.EXTENTS)
        keys = [stage.bound_key(b) for b in self.BINDINGS]
        nest = stage.access.nest
        trips, exact = nest.trip_columns(nest.key_columns(keys), len(keys))
        for row, bindings in enumerate(self.BINDINGS):
            want, want_exact = trip_factors(nest, bindings)
            assert [None if t is None else float(t[row]).hex()
                    for t in trips] == [None if t is None else float(t).hex()
                                        for t in want]
            assert [bool(np.broadcast_to(e, (len(keys),))[row])
                    for e in exact] == want_exact
        assert trips[1][0] != trips[1][1]          # estimated per launch
        assert price_serial_columns(stage, 2.0, keys) == [
            scalar_price_serial(stage, 2.0, b, "double", KEENELAND_HOST)
            for b in self.BINDINGS]

    def test_kernel_describe_matches_scalar(self):
        def grid(var, lower, upper, body):
            return For(var, lower, upper, body, parallel=True)

        kernel = Kernel("tri", self._body(grid), ("i",), arrays=("a",))
        stage = kernel.stage(self.EXTENTS)
        keys = [stage.bound_key(b) for b in self.BINDINGS]
        columns = kernel.describe_columns(stage, keys)
        for row, bindings in enumerate(self.BINDINGS):
            want = fresh_describe(kernel, bindings, self.EXTENTS)
            assert kernel.descriptor(stage, columns, row) == want
            assert kernel.describe(bindings, self.EXTENTS) == want
        assert columns[2][0] != columns[2][2]      # m unbound: diverges


class TestPriceCache:
    def test_cached_price_matches_fresh_under_every_config(self):
        # every launch record of a pricing pass carries the price and
        # counters the scalar price and a fresh derive_counters give its
        # descriptor; the default config both first and last, so no run
        # answers from another config's prices
        launched = 0
        for config in ABLATION_CONFIGS + ABLATION_CONFIGS[:1]:
            for name in ("JACOBI", "HOTSPOT", "SRAD", "NW", "LUD"):
                bench = get_benchmark(name)
                for model in FIGURE1_MODELS:
                    for variant in bench.variants(model):
                        rt = bench.run(model, variant, scale="test",
                                       execute=False, validate=False,
                                       timing=config).executable.rt
                        assert rt.timing == config
                        for record in rt.profiler.launches:
                            counters = record.counters   # describes it
                            desc = record.source.desc
                            assert record.timing == scalar_price_kernel(
                                desc, rt.spec, config), record.kernel
                            assert counters == derive_counters(desc, rt.spec)
                            launched += 1
        assert launched > 1000

    def test_frozen_value_objects(self):
        from dataclasses import FrozenInstanceError

        kernel, bindings, extents = _launch_args("JACOBI", "OpenACC",
                                                 "stencil")
        desc = kernel.describe(bindings, extents)
        timing = price_kernel(desc, TESLA_M2090)
        config = TimingConfig()
        for obj, attr in ((desc, "total_threads"), (timing, "time_s"),
                          (config, "model_coalescing")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, attr, 0)
        assert hash(config) == hash(TimingConfig())

    def test_paper_slice_prices_each_descriptor_once(self, monkeypatch):
        calls = {"gpu": 0, "host": 0, "host_rows": 0}

        def counting_gpu(desc, spec, config=None):
            calls["gpu"] += 1
            return price_kernel(desc, spec, config)

        def counting_host(stage, iterations, keys, *args, **kwargs):
            calls["host"] += 1
            calls["host_rows"] += len(keys)
            return price_serial_columns(stage, iterations, keys, *args,
                                        **kwargs)

        monkeypatch.setattr(runtime_mod, "price_kernel", counting_gpu)
        monkeypatch.setattr(base, "price_serial_columns", counting_host)
        monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
        run_speedups([get_benchmark(n) for n in ("EP", "SRAD", "KMEANS")],
                     scale="paper")
        # 3,222 launches; 343 scheduled CPU steps over 8 regions, each
        # priced as one column of its distinct keys (one key each)
        assert calls == {"gpu": 74, "host": 8, "host_rows": 8}


def _per_step_cpu_time(bench, wl) -> float:
    """``cpu_time`` as it was: keyed on every step scalar, priced by
    the one-pass scans."""
    extents = {name: list(arr.shape) for name, arr in wl.arrays.items()}
    bindings = {k: float(v) for k, v in wl.scalars.items()}
    total = 0.0
    cache: dict = {}
    for step in wl.schedule:
        region = bench.program.region(step.region)
        key = (step.region, tuple(sorted(step.scalars.items())))
        if key not in cache:
            step_bindings = dict(bindings)
            step_bindings.update({k: float(x)
                                  for k, x in step.scalars.items()})
            cache[key] = legacy_price_region_serial(
                region, extents, step_bindings, bench.dtype,
                KEENELAND_HOST) / max(1, region.invocations)
        total += cache[key] * step.times
    return total


class TestCpuBaselineKey:
    @pytest.mark.parametrize("name", [b.name for b in iter_suite()])
    def test_loop_bound_key_matches_per_step_pricing(self, name):
        bench = get_benchmark(name)
        wl = bench.workload("test")
        assert bench.cpu_time(wl) == _per_step_cpu_time(bench, wl)


class TestWorkloadSlot:
    def test_timing_only_run_binds_stand_ins(self):
        bench = get_benchmark("EP")
        out = bench.run("OpenACC", scale="test", seed=4, execute=False,
                        validate=False)
        (_, scale, seed), wl, *_ = base._WORKLOAD_SLOT
        assert (scale, seed) == ("test", 4)
        assert wl._arrays is None      # no data was built
        assert list(out.arrays) == list(wl.shapes)
        for name, arr in out.arrays.items():
            assert (arr.shape, arr.dtype) == wl.shapes[name]
            assert not arr.flags.writeable and not any(arr.strides)
        with pytest.raises(ValueError):
            out.arrays["q"][...] = 1
        # data built later, for an executing run, is read-only in the slot
        bench.run("OpenACC", scale="test", seed=4)
        assert base._WORKLOAD_SLOT[1] is wl
        assert not any(a.flags.writeable for a in wl.arrays.values())

    def test_relaid_ports_still_get_their_layout(self):
        # BACKPROP's best port transposes its weights even when only priced
        out = get_benchmark("BACKPROP").run("OpenACC", scale="test",
                                            execute=False, validate=False)
        wl = base._WORKLOAD_SLOT[1]
        assert out.arrays["w1"].shape == wl.shapes["w1"][0][::-1]

    @pytest.mark.parametrize("name", ["JACOBI", "BFS", "LUD"])
    def test_repeated_execute_runs_are_independent(self, name):
        bench = get_benchmark(name)
        first = bench.run("OpenACC", scale="test", seed=3)
        wl = base._WORKLOAD_SLOT[1]
        pristine = {k: v.copy() for k, v in wl.arrays.items()}
        second = bench.run("OpenACC", scale="test", seed=3)
        assert base._WORKLOAD_SLOT[1] is wl
        assert first.validated and second.validated
        for key, arr in first.arrays.items():
            assert arr.flags.writeable
            assert arr is not second.arrays[key]
            assert arr is not wl.arrays.get(key)
            assert arr.tobytes() == second.arrays[key].tobytes()
        for key, arr in wl.arrays.items():
            assert arr.tobytes() == pristine[key].tobytes()
        assert first.speedup == second.speedup

    @pytest.mark.parametrize("name,model", [("NW", "Hand-Written CUDA"),
                                            ("LUD", "OpenACC"),
                                            ("SRAD", "OpenMPC")])
    def test_run_leaves_scalars_and_schedule_alone(self, name, model):
        bench = get_benchmark(name)
        fresh = bench.workload("test", 1)
        bench.run(model, scale="test", seed=1, execute=False,
                  validate=False)
        wl = base._WORKLOAD_SLOT[1]
        before = (copy.deepcopy(wl.scalars), copy.deepcopy(wl.schedule))
        bench.run(model, scale="test", seed=1)
        assert base._WORKLOAD_SLOT[1] is wl
        assert (wl.scalars, wl.schedule) == before
        assert (wl.scalars, wl.schedule) == (fresh.scalars, fresh.schedule)

    def test_cpu_baseline_is_priced_once_per_host(self, monkeypatch):
        from repro.cpu.host import HostSpec

        bench = get_benchmark("SRAD")
        calls: list[str] = []
        priced = base.Benchmark.cpu_time

        def counting(self, wl, host=base.KEENELAND_HOST):
            calls.append(host.name)
            return priced(self, wl, host=host)

        monkeypatch.setattr(base.Benchmark, "cpu_time", counting)
        monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
        slow = HostSpec(name="half-speed host", flops_per_s=1.1e9)
        a = bench.run("OpenACC", scale="test", execute=False, validate=False)
        b = bench.run("HMPP", scale="test", execute=False, validate=False)
        c = bench.run("OpenACC", scale="test", execute=False,
                      validate=False, host=slow)
        assert calls == [base.KEENELAND_HOST.name, slow.name]
        assert a.speedup.cpu_time_s == b.speedup.cpu_time_s
        assert c.speedup.cpu_time_s > a.speedup.cpu_time_s

    def test_threads_get_their_own_workload(self):
        # more threads than cores, switching often, each pricing its own
        # benchmark: any thread reading another's workload (or CPU time)
        # changes its speedup or its bound array names
        names = ("EP", "SRAD", "JACOBI", "KMEANS")
        serial = {n: get_benchmark(n).run("OpenACC", scale="test",
                                          execute=False, validate=False)
                  for n in names}
        barrier = threading.Barrier(len(names), timeout=30)
        failures: list[str] = []

        def price(name: str) -> None:
            bench = get_benchmark(name)
            barrier.wait()
            for _ in range(15):
                out = bench.run("OpenACC", scale="test", execute=False,
                                validate=False)
                if (out.speedup != serial[name].speedup
                        or out.arrays.keys() != serial[name].arrays.keys()):
                    failures.append(name)

        threads = [threading.Thread(target=price, args=(n,)) for n in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


def _bfs_levels_per_node(graph: Graph, source: int) -> np.ndarray:
    """The original per-frontier-node gather, kept as the oracle."""
    cost = np.full(graph.n_nodes, -1, dtype=np.int64)
    cost[source] = 0
    frontier = np.array([source], dtype=np.int64)
    visited = np.zeros(graph.n_nodes, dtype=bool)
    visited[source] = True
    level = 0
    while frontier.size:
        starts = graph.node_start[frontier]
        ends = graph.node_start[frontier + 1]
        neigh = np.unique(np.concatenate([graph.edges[s:e]
                                          for s, e in zip(starts, ends)]))
        new = neigh[~visited[neigh]]
        if new.size == 0:
            break
        level += 1
        visited[new] = True
        cost[new] = level
        frontier = new
    return cost


class TestBfsLevels:
    @pytest.mark.parametrize("n,seed", [(500, 0), (500, 1), (500, 7),
                                        (1_000_000, 0)])
    def test_byte_identical_to_per_node_gather(self, n, seed):
        graph = make_graph(n, avg_degree=6, seed=seed)
        got = _bfs_levels(graph, 0)
        want = _bfs_levels_per_node(graph, 0)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_unreachable_nodes_and_empty_rows(self):
        graph = Graph(n_nodes=5, node_start=np.array([0, 2, 2, 3, 3, 3]),
                      edges=np.array([1, 2, 4]))
        got = _bfs_levels(graph, 0)
        assert got.tolist() == [0, 1, 1, -1, 2]
        assert got.tobytes() == _bfs_levels_per_node(graph, 0).tobytes()
