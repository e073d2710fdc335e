"""Shape-only workloads: a workload declares its arrays' shapes and
dtypes and builds their data on first use.

The built data must be the arrays the benchmarks generated eagerly
before, timing-only runs must bind zero-byte stand-ins of the same
shapes (in each port's layout), and everything that needs only sizes
must leave the data unbuilt.

``data/workload_arrays.json`` was recorded from the eager workloads:
name, dtype, shape and sha256 of every array at test scale for seeds
0, 1 and 7, and name, dtype and shape of every array each paper-scale
Figure-1 run (benchmark x model x variant, seed 0) bound.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks import base
from repro.benchmarks.base import Workload
from repro.benchmarks.registry import BENCHMARK_ORDER, get_benchmark
from repro.errors import BenchmarkError
from repro.harness.runner import FIGURE1_MODELS

FIXTURES = json.loads((Path(__file__).parent / "data"
                       / "workload_arrays.json").read_text(encoding="utf-8"))

#: perfbench's paper-scale ``figure1`` slice
FIGURE1_SLICE = ("EP", "SRAD", "KMEANS")


def _listing(arrays, digests: bool = False) -> list[list]:
    rows = []
    for name, arr in arrays.items():
        row = [name, arr.dtype.str, list(arr.shape)]
        if digests:
            row.append(hashlib.sha256(arr.tobytes()).hexdigest())
        rows.append(row)
    return rows


def _ports(bench):
    for model in FIGURE1_MODELS:
        for variant in bench.variants(model):
            yield model, variant


@pytest.fixture
def builds(monkeypatch):
    """Every deferred build that runs, by the names of its arrays; the
    workload slot starts empty so no earlier test's build is reused."""
    ran: list[tuple[str, ...]] = []
    materialize = Workload._materialize

    def spy(self):
        ran.append(tuple(self.shapes))
        return materialize(self)

    monkeypatch.setattr(Workload, "_materialize", spy)
    monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None, None, None, None))
    return ran


class TestBuiltData:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_matches_the_eager_arrays(self, name, seed):
        wl = get_benchmark(name).workload("test", seed)
        assert (_listing(wl.arrays, digests=True)
                == FIXTURES["test"][name][str(seed)])

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_stand_ins_declare_the_built_arrays(self, name):
        wl = get_benchmark(name).workload("test", 1)
        stand_ins = wl.stand_ins()
        assert _listing(stand_ins) == _listing(wl.arrays)
        for name_, arr in stand_ins.items():
            assert arr.nbytes == wl.arrays[name_].nbytes
            assert not arr.flags.writeable and not any(arr.strides)

    def test_builds_once_and_read_only(self):
        calls = []

        def build():
            calls.append(1)
            return {"a": np.arange(3.0)}

        wl = Workload(sizes={}, shapes={"a": ((3,), np.float64),
                                        "z": ((2, 2), np.int64)},
                      build=build, scalars={}, schedule=[])
        assert not calls
        first = wl.arrays
        assert wl.arrays is first and calls == [1]
        assert list(first) == ["a", "z"]
        assert first["z"].dtype == np.int64 and not first["z"].any()
        assert not any(arr.flags.writeable for arr in first.values())


class TestBuildChecks:
    @pytest.mark.parametrize("made", [
        np.zeros(4),                       # wrong shape
        np.zeros(3, dtype=np.int64),       # wrong dtype
        np.zeros((3, 1)),                  # wrong rank
    ])
    def test_a_mismatched_array_is_named(self, made):
        wl = Workload(sizes={}, shapes={"a": ((2,), np.float64),
                                        "weights": ((3,), np.float64)},
                      build=lambda: {"weights": made}, scalars={},
                      schedule=[])
        with pytest.raises(BenchmarkError, match="'weights'"):
            wl.arrays

    def test_an_undeclared_array_is_named(self):
        wl = Workload(sizes={}, shapes={"a": ((2,), np.float64)},
                      build=lambda: {"extra": np.zeros(2)}, scalars={},
                      schedule=[])
        with pytest.raises(BenchmarkError, match="extra"):
            wl.arrays

    def test_a_benchmark_build_is_checked(self, monkeypatch):
        bench = get_benchmark("JACOBI")
        workload = type(bench).workload

        def skewed(self, scale="test", seed=0):
            wl = workload(self, scale, seed)
            wl.build = lambda: {"a": np.zeros((3, 3))}
            return wl

        monkeypatch.setattr(type(bench), "workload", skewed)
        monkeypatch.setattr(base, "_WORKLOAD_SLOT", (None, None, None, None))
        with pytest.raises(BenchmarkError, match="'a'"):
            bench.run("OpenACC", scale="test", seed=5)


class TestPaperScaleStandIns:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_port_layouts_match_the_eager_bindings(self, name):
        bench = get_benchmark(name)
        wl = bench.workload("paper")
        want = FIXTURES["paper"][name]
        got = {f"{model}/{variant}": _listing(bench.layout(model, variant,
                                                           wl.stand_ins()))
               for model, variant in _ports(bench)}
        assert got == want
        assert bench.extents_for("OpenACC", "best", wl) == {
            n: shape for n, _, shape in want["OpenACC/best"]}

    @pytest.mark.parametrize("name", FIGURE1_SLICE + ("BACKPROP",))
    def test_timing_only_runs_bind_them(self, name, monkeypatch, builds):
        from repro.models.base import ExecutableProgram

        bound = []
        bind = ExecutableProgram.bind_arrays

        def spy(self, arrays):
            bound.append(arrays)
            return bind(self, arrays)

        monkeypatch.setattr(ExecutableProgram, "bind_arrays", spy)
        bench = get_benchmark(name)
        for model, variant in _ports(bench):
            bench.run(model, variant, scale="paper", execute=False,
                      validate=False)
            arrays = bound.pop()
            assert (_listing(arrays)
                    == FIXTURES["paper"][name][f"{model}/{variant}"])
            assert not any(arr.flags.writeable or any(arr.strides)
                           for arr in arrays.values())
        assert not builds


class TestNeverBuilt:
    def test_figure1_slice(self, builds):
        from repro.harness.report import render_figure1_csv
        from repro.harness.runner import run_speedups

        benches = [get_benchmark(n) for n in FIGURE1_SLICE]
        csv = render_figure1_csv(run_speedups(benches, scale="paper"))
        assert not builds
        expected = (Path(__file__).resolve().parents[1] / "perfbench"
                    / "expected" / "figure1.csv")
        header, *rows = expected.read_text(encoding="utf-8").splitlines()
        assert csv.split("\n") == [header] + [
            r for r in rows if r.split(",", 1)[0] in FIGURE1_SLICE]

    def test_explain_model(self, builds):
        from repro.harness.compare import explain_model

        for name, model in (("JACOBI", "OpenACC"), ("BACKPROP", "HMPP")):
            assert explain_model(get_benchmark(name), model).kernels
        assert not builds

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_xfer_port(self, name, builds):
        from repro.dataflow.suite import xfer_port

        assert xfer_port(name, "OpenACC", scale="test").analysis
        assert not builds

    def test_executing_runs_build_once_per_slot(self, builds):
        bench = get_benchmark("JACOBI")
        for model in ("OpenACC", "OpenMPC", "Hand-Written CUDA"):
            assert bench.run(model, scale="test", seed=2).validated
        assert builds == [("a", "b")]
