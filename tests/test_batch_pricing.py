"""The pricing pass against the launch-at-a-time oracle.

:meth:`ExecutableProgram.run_schedule` runs a schedule in one
:meth:`CudaRuntime.pricing_pass`: each distinct launch is described and
priced once, a kernel's later loop-bound keys (LUD's pivot, NW's
anti-diagonal) are evaluated as numpy columns, and the records, clock
and ``gpu.*`` spans are written when the pass closes.
:mod:`tests.launch_oracle` launches one kernel at a time, recording as
it goes, and describes and prices each launch with the scalar
evaluators of :mod:`tests.legacy_pricing`.  For untraced and traced timing-only runs and for executing
runs, every clock, time and record the two leave must be equal bit for
bit, traced runs must leave the same spans in the same order, executing
runs the same arrays, and lazily derived counters must equal eager ones.
"""

import contextlib
import copy
import dataclasses
import functools

import numpy as np
import pytest

import repro.gpusim.runtime as runtime_mod
import repro.obs.counters as counters_mod
from repro.benchmarks import base
from repro.benchmarks.registry import get_benchmark, iter_suite
from repro.errors import DeviceMemoryError, GpuSimError
from repro.gpusim.device import TESLA_M2090
from repro.gpusim.kernel import Kernel
from repro.gpusim.memo import LaunchMemo
from repro.gpusim.runtime import CudaRuntime
from repro.gpusim.timing import TimingConfig
from repro.harness.runner import FIGURE1_MODELS, run_speedups
from repro.ir.expr import ArrayRef, Var
from repro.ir.stmt import Assign, For, LocalDecl
from repro.models.base import ExecutableProgram
from repro.models.cache import compile_bench
from repro.obs.tracer import Tracer, tracing
from tests import launch_oracle

#: every (benchmark, model, variant) of Figure 1
FIGURE1 = [(bench.name, model, variant) for bench in iter_suite()
           for model in FIGURE1_MODELS for variant in bench.variants(model)]

#: every timing config the ablation benches price under
ABLATION_CONFIGS = (TimingConfig(model_coalescing=False),
                    TimingConfig(model_occupancy=False),
                    TimingConfig(model_tiling_reuse=False,
                                 model_divergence=False),
                    TimingConfig(model_cache_hierarchy=True))

#: untraced and traced timing-only runs, and executing runs
KINDS = ("untraced", "traced", "executing")

#: one content-keyed launch memo for every executing run here, as a
#: benchmark's runs share one: a launch already run on the same inputs
#: is replayed, so each side still ends in the state it computes
_MEMO = LaunchMemo()


def _compiled(name, model, variant, elide=False):
    bench = get_benchmark(name)
    if elide:
        return bench, bench.compile(model, variant, elide_transfers=True)
    return bench, compile_bench(bench, model, variant)[1]


def _timeline(bench, model, variant, compiled, scale, one_pass,
              spec=TESLA_M2090, timing=None, kind="untraced"):
    """Run one port in one pass or a launch at a time; returns the
    program, the launch-at-a-time run's descriptors, the bound arrays
    and the spans."""
    execute = kind == "executing"
    wl = bench.workload(scale)
    runtime = CudaRuntime if one_pass else launch_oracle.OracleRuntime
    ex = ExecutableProgram(compiled, runtime=runtime(
        spec=spec, timing=timing, execute=execute,
        memo=_MEMO if execute else None))
    arrays = (bench.arrays_for(model, variant, wl) if execute
              else bench.layout(model, variant, wl.stand_ins()))
    ex.bind_arrays(arrays)
    schedule = bench.schedule_for(model, variant, wl)
    tracer = Tracer() if kind == "traced" else None
    described = []
    with tracing(tracer):
        if one_pass:
            ex.run_schedule(schedule, wl.scalars)
        else:
            described = launch_oracle.run_schedule(
                ex, schedule, wl.scalars).described
        ex.close_data_regions()
    spans = [(sp.name, sp.category, sp.parent_id, sp.attrs, sp.counters)
             for sp in tracer.spans] if tracer else []
    return ex, described, arrays, spans


def _bits(x: float) -> str:
    return float(x).hex()


def assert_same_timeline(name, model, variant, scale="test", elide=False,
                         spec=TESLA_M2090, timing=None, kind="untraced"):
    bench, compiled = _compiled(name, model, variant, elide)
    # the oracle runs on a copy, which starts with no descriptor memos
    fresh = copy.deepcopy(compiled)
    got, _, got_arrays, got_spans = _timeline(
        bench, model, variant, compiled, scale, True, spec, timing, kind)
    want, descs, want_arrays, want_spans = _timeline(
        bench, model, variant, fresh, scale, False, spec, timing, kind)
    case = f"{name}/{model}/{variant}/{kind}"
    assert got_spans == want_spans, case
    assert (kind == "traced") == bool(got_spans), case
    for key, arr in want_arrays.items():
        assert got_arrays[key].tobytes() == arr.tobytes(), (case, key)
    assert _bits(got.rt.clock_s) == _bits(want.rt.clock_s), case
    for attr in ("kernel_time_s", "transfer_time_s"):
        assert _bits(getattr(got.rt.profiler, attr)) \
            == _bits(getattr(want.rt.profiler, attr)), (case, attr)
    assert _bits(got.host_time_s) == _bits(want.host_time_s), case
    assert _bits(got.gpu_time_s) == _bits(want.gpu_time_s), case
    assert got.rt.profiler.transfers == want.rt.profiler.transfers, case
    assert (got.elided_transfers, got.elided_bytes) \
        == (want.elided_transfers, want.elided_bytes), case
    launches, oracle = got.rt.profiler.launches, want.rt.profiler.launches
    assert len(launches) == len(oracle) == len(descs), case
    for i, (rec, ref, desc) in enumerate(zip(launches, oracle, descs)):
        assert (rec.kernel, rec.timing, _bits(rec.start_s)) \
            == (ref.kernel, ref.timing, _bits(ref.start_s)), (case, i)
        assert [_bits(v) for v in dataclasses.astuple(rec.timing)
                if isinstance(v, float)] \
            == [_bits(v) for v in dataclasses.astuple(ref.timing)
                if isinstance(v, float)], (case, i)
    # counters are derived lazily; once per distinct descriptor is
    # enough to check them against eager derivations
    seen = set()
    for rec, ref, desc in zip(launches, oracle, descs):
        if id(desc) not in seen:
            seen.add(id(desc))
            eager = counters_mod.derive_counters(desc, spec)
            assert rec.counters == eager == ref.counters, case
    return len(launches)


@pytest.mark.parametrize("name,model,variant", FIGURE1,
                         ids=["/".join(c) for c in FIGURE1])
def test_figure1_ports_match_at_test_scale(name, model, variant):
    for kind in KINDS:
        assert_same_timeline(name, model, variant, kind=kind)


@pytest.mark.parametrize("config", ABLATION_CONFIGS, ids=str)
@pytest.mark.parametrize("name", ["LUD", "NW", "SRAD", "HOTSPOT"])
def test_ablation_configs_match(name, config):
    for model in ("OpenACC", "Hand-Written CUDA"):
        for kind in KINDS:
            assert_same_timeline(name, model, "best", timing=config,
                                 kind=kind)


@pytest.mark.parametrize("name,model,variant", FIGURE1,
                         ids=["/".join(c) for c in FIGURE1])
def test_elide_transfers_match(name, model, variant):
    # the naive SPMUL and CG ports skip and defer transfers; traced
    # runs check their gpu.elide spans keep their place
    for kind in KINDS:
        assert_same_timeline(name, model, variant, elide=True, kind=kind)


def test_device_memory_overflow_raises_the_same_error():
    # EP's transposed port expands its private array in global memory;
    # a device with room for the arrays but not the expansion overflows
    spec = dataclasses.replace(TESLA_M2090, global_mem_bytes=4096)
    bench, compiled = _compiled("EP", "OpenACC", "transposed")
    for kind in KINDS:
        errors = []
        for one_pass in (True, False):
            with pytest.raises(DeviceMemoryError) as info:
                _timeline(bench, "OpenACC", "transposed",
                          copy.deepcopy(compiled), "test", one_pass, spec,
                          kind=kind)
            errors.append(str(info.value))
        assert errors[0] == errors[1], kind
        assert "expanded private arrays" in errors[0], kind


def test_later_key_overflow_raises_at_its_launch():
    # 128 B of expanded private array per thread: the first key fits,
    # and a later key, priced as columns, overflows at its own launch
    spec = dataclasses.replace(TESLA_M2090, global_mem_bytes=512 + 2000)
    kernel = Kernel("priv", For("i", 0, Var("n"), [
        LocalDecl("t", (16,)), Assign(ArrayRef("a", (Var("i"),)), 1.0)],
        parallel=True), ("i",), arrays=("a",), scalars=("n",),
        private_orientations={"t": "row"})
    outcomes = []
    for one_pass in (True, False):
        rt = CudaRuntime(spec=spec, execute=False)
        rt.bind_host("a", np.zeros(64))
        rt.malloc("a")
        launched = 0
        with pytest.raises(DeviceMemoryError) as info:
            with (rt.pricing_pass() if one_pass else
                  contextlib.nullcontext(launch_oracle.LaunchAtATime(rt))
                  ) as batch:
                for n in (10.0, 12.0, 10.0, 20.0, 12.0):
                    batch.launch(kernel, {"n": n})
                    launched += 1
        outcomes.append((launched, str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 3
    assert "2560 B for 20 threads" in outcomes[0][1]


def test_launch_inside_an_open_pass_raises():
    bench, compiled = _compiled("JACOBI", "OpenACC", "best")
    wl = bench.workload("test")
    rt = CudaRuntime(execute=False)
    ex = ExecutableProgram(compiled, runtime=rt)
    ex.bind_arrays(bench.layout("OpenACC", "best", wl.stand_ins()))
    ex.run_schedule(bench.schedule_for("OpenACC", "best", wl), wl.scalars)
    kernel = next(k for r in compiled.results.values() for k in r.kernels)
    launches = len(rt.profiler.launches)
    with rt.pricing_pass() as batch:
        with pytest.raises(GpuSimError, match="open pricing pass"):
            rt.launch(kernel, wl.scalars)
        batch.launch(kernel, wl.scalars)
    assert len(rt.profiler.launches) == launches + 1
    # outside a pass it is a one-launch pass again
    timing = rt.launch(kernel, wl.scalars)
    assert rt.profiler.launches[-1].timing is timing


def _counting(calls, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_columns_price_the_later_keys(monkeypatch):
    """LUD's per-pivot launches reach the numpy columns: one
    ``describe`` and ``price_kernel`` per kernel, whatever the pivot."""
    calls = {"describe": 0, "price": 0}
    monkeypatch.setattr(Kernel, "describe",
                        _counting(calls, "describe", Kernel.describe))
    monkeypatch.setattr(runtime_mod, "price_kernel",
                        _counting(calls, "price", runtime_mod.price_kernel))
    bench, compiled = _compiled("LUD", "OpenACC", "best")
    ex, *_ = _timeline(bench, "OpenACC", "best", compiled, "test", True)
    assert len(ex.rt.profiler.launches) == 2 + 2 * 47
    assert calls == {"describe": 4, "price": 4}


def test_figure1_slice_work_counts(monkeypatch):
    """Paper-scale EP/SRAD/KMEANS: 3,222 launches, 74 distinct ones;
    counters are never derived unless read."""
    calls = {"describe": 0, "price": 0, "counters": 0}
    monkeypatch.setattr(Kernel, "describe",
                        _counting(calls, "describe", Kernel.describe))
    monkeypatch.setattr(runtime_mod, "price_kernel",
                        _counting(calls, "price", runtime_mod.price_kernel))
    monkeypatch.setattr(counters_mod, "derive_counters",
                        _counting(calls, "counters",
                                  counters_mod.derive_counters))
    monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None,) * 4)
    benches = [get_benchmark(n) for n in ("EP", "SRAD", "KMEANS")]
    run_speedups(benches, scale="paper")
    assert calls == {"describe": 74, "price": 74, "counters": 0}
    outcome = benches[1].run("OpenACC", scale="paper", execute=False)
    launches = outcome.executable.rt.profiler.launches
    assert calls["counters"] == 0
    assert launches[0].counters is not None
    assert calls["counters"] == 1


@pytest.mark.slow
@pytest.mark.parametrize("name,model,variant",
                         [c for c in FIGURE1
                          if c[0] in ("LUD", "NW", "SRAD")],
                         ids=["/".join(c) for c in FIGURE1
                              if c[0] in ("LUD", "NW", "SRAD")])
def test_paper_scale_lud_nw_srad_match(name, model, variant):
    # the opt-in L2 term too, which the columns price per launch
    for timing in (None, TimingConfig(model_cache_hierarchy=True)):
        assert assert_same_timeline(name, model, variant, scale="paper",
                                    timing=timing) > 0
