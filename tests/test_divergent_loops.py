"""Loops with thread-dependent bounds: the executor's per-lane walk.

The executor runs each lane's own ``range(lo, hi, step)`` (a launch
takes as many steps as its longest row); :class:`TracingExecutor`
keeps the union walk over ``min(lo)..max(hi)`` so that memory traces
and locality records do not move.  Checked here:

* a strided loop whose lanes start off each other's stride, against the
  scalar reference;
* random divergent loops through all three engines;
* every SPMUL, CG and BFS port at test scale, per-lane walk against the
  union walk, byte for byte;
* the locality records of the irregular benchmarks, and the lint
  records of SPMUL and CG (whose CSR row loops take the estimated-trip
  path), against the expected digests the benchmark harness checks.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from tests.difftest import (UnionWalkExecutor, assert_same_result,
                            divergent_programs, make_kernel)
from repro.benchmarks.base import ALL_MODELS
from repro.benchmarks.registry import get_benchmark
from repro.gpusim import executor, locality
from repro.lint import suite as lint
from repro.ir.builder import accum, aref, pfor, sfor, v

IRREGULAR_BENCHMARKS = ("SPMUL", "CG", "BFS")
#: the benchmarks the benchmark harness's analysis slice leaves out
CSR_BENCHMARKS = ("SPMUL", "CG")
GATES_JSON = (Path(__file__).resolve().parents[1]
              / "perfbench" / "expected" / "gates.json")


class TestStridedLoop:
    def _case(self):
        body = pfor("i", 0, 3, sfor(
            "k", aref("lo", v("i")), aref("hi", v("i")),
            accum(aref("y", v("i")), aref("a", v("k"))), step=2))
        arrays = {"lo": np.array([0, 1, 2]), "hi": np.array([6, 6, 7]),
                  "a": np.arange(10.0), "y": np.zeros(3)}
        return make_kernel(body, ["i"], arrays), arrays

    def test_lanes_off_each_others_stride(self):
        kernel, arrays = self._case()
        out = assert_same_result(kernel, arrays,
                                 engines=("reference", "interpreter",
                                          "tracer"))
        # y[1] = a[1] + a[3] + a[5]
        np.testing.assert_array_equal(out["y"], [6.0, 9.0, 12.0])


class TestRandomDivergentLoops:
    @given(divergent_programs())
    @settings(max_examples=40, deadline=None)
    def test_engines_agree(self, case):
        body, tvars, arrays = case
        assert_same_result((body, tvars), arrays)


@pytest.mark.slow
class TestRandomDivergentLoopsSlow:
    @given(divergent_programs())
    @settings(max_examples=300, deadline=None)
    def test_engines_agree(self, case):
        body, tvars, arrays = case
        assert_same_result((body, tvars), arrays)


def _ports(names):
    for name in names:
        bench = get_benchmark(name)
        for model in ALL_MODELS + ("OpenMP-Target",):
            try:
                variants = bench.variants(model)
            except KeyError:
                continue
            for variant in variants:
                yield bench, model, variant


def _outputs(bench, model, variant):
    outcome = bench.run(model, variant, scale="test", validate=False)
    return {name: arr for name, arr in outcome.arrays.items()
            if isinstance(arr, np.ndarray)}


@pytest.mark.parametrize("name", IRREGULAR_BENCHMARKS)
def test_per_lane_walk_matches_union_walk(name, monkeypatch):
    for bench, model, variant in _ports([name]):
        per_lane = _outputs(bench, model, variant)
        with monkeypatch.context() as patch:
            patch.setattr(executor, "KernelExecutor", UnionWalkExecutor)
            union = _outputs(bench, model, variant)
        assert per_lane.keys() == union.keys()
        for array, want in union.items():
            have = per_lane[array]
            assert have.dtype == want.dtype \
                and have.tobytes() == want.tobytes(), \
                f"{name}/{model}[{variant}]: {array} differs"


def _expected(analysis, name):
    return {key: digest for key, digest
            in json.loads(GATES_JSON.read_text(encoding="utf-8")).items()
            if key.startswith(f"{analysis}/{name}/")}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, indent=2).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", IRREGULAR_BENCHMARKS)
def test_locality_records_are_unchanged(name):
    want = _expected("locality", name)
    got = {f"locality/{rec.benchmark}/{rec.model}": _digest(rec.to_dict())
           for rec in locality.locality_suite(benchmarks=[name])}
    assert want and got == want


@pytest.mark.parametrize("name", CSR_BENCHMARKS)
def test_lint_records_are_unchanged(name):
    want = _expected("lint", name)
    got = {f"lint/{rec.benchmark}/{rec.model}": _digest(
               {"benchmark": rec.benchmark, "model": rec.model,
                "variant": rec.variant, "regions": rec.regions,
                "findings": [f.to_dict() for f in rec.report.sorted()]})
           for rec in lint.lint_suite(benchmarks=[name])}
    assert want and got == want

