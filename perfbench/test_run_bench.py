"""Self-test of the benchmark, outside tier-1::

    pytest perfbench/test_run_bench.py

It checks that every layer a workload is meant to exercise still
records calls (a refactor that moves an import would silently stop a
wrapper from firing), that an untraced run leaves every traced site
untouched, that each run prints every metric ``BENCHMARK.json`` names
with its unit, and that ``--compare`` reaches the documented verdicts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run_bench  # noqa: E402
from layers import LAYERS, WORKLOAD_SITES, Recorder, current  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: one-benchmark slices that still reach every active layer
SMALL = {"figure1": ("EP",), "figure1-j2": ("EP",),
         "validate": ("JACOBI",), "gates": ("JACOBI",)}


@pytest.fixture(scope="module")
def suite():
    from repro.benchmarks.registry import iter_suite
    return list(iter_suite())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_active_layers_record_calls(name, suite):
    workload = WORKLOADS[name]
    recorder = Recorder()
    recorder.install()
    try:
        output, _ = workload.run(suite, 0, SMALL[name])
    finally:
        recorder.uninstall()
    assert recorder.missing == []
    report = recorder.report()
    silent = [layer for layer in workload.active
              if report[layer]["calls"] == 0]
    assert silent == []
    attempted, failed = workload.check(output, SMALL[name])
    assert attempted > 0 and failed == 0


def test_untraced_run_leaves_sites_alone(suite):
    sites = [site for layer in LAYERS for site in layer.sites]
    before = {site: current(site) for site in sites}
    WORKLOADS["figure1"].run(suite, 0, SMALL["figure1"])
    assert all(current(site) is before[site] for site in sites)

    recorder = Recorder()
    recorder.install()
    try:
        assert all(current(site) is not before[site] for site in sites)
    finally:
        recorder.uninstall()
    assert all(current(site) is before[site] for site in sites)


def test_workload_sites_cover_the_registry(suite):
    assert set(WORKLOAD_SITES) == {
        f"{type(b).__module__}:{type(b).__name__}.workload" for b in suite}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run_bench.py"), "--workload",
         "figure1-j2", "--seed", "3", "--seconds", "1", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name}: ") and line.split()[2] == unit
                   for line in lines), name


def test_benchmark_json_names_and_paths():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer")
              for m in SPEC[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run_bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run_bench.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for path in SPEC["paths"]:
        resolved = (ROOT / path).resolve()
        assert resolved.is_dir()
        assert not resolved.is_relative_to(ROOT / "src")
    assert any((ROOT / SPEC["command"][1]).resolve().is_relative_to(
        (ROOT / p).resolve()) for p in SPEC["paths"])


def _runs(path: Path, workload: str, walls: list[float]) -> Path:
    runs = [{"workload": workload, "seed": i, "trace": 0,
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {m["name"]: {"value": wall,
                                                "unit": m["unit"]}
                                    for m in SPEC["end_to_end"]}}}
            for i, wall in enumerate(walls)]
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
    return path


def test_compare_verdicts(tmp_path, capsys):
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    a = _runs(tmp_path / "a.json", "validate", steady)
    same = _runs(tmp_path / "same.json", "validate", steady[::-1])
    worse = _runs(tmp_path / "worse.json", "validate",
                  [v * 1.5 for v in steady])
    better = _runs(tmp_path / "better.json", "validate",
                   [v * 0.5 for v in steady])
    noisy = _runs(tmp_path / "noisy.json", "validate",
                  [5.0, 20.0, 9.0, 14.0, 6.0, 18.0])

    def verdicts(b: Path) -> tuple[int, set[str]]:
        code = run_bench.compare(a, b)
        rows = capsys.readouterr().out.splitlines()[1:]
        return code, {row.split()[-1] for row in rows}

    assert verdicts(same) == (0, {"same"})
    assert verdicts(worse) == (1, {"worse"})
    assert verdicts(better) == (0, {"better"})
    assert verdicts(noisy) == (0, {"unresolved"})
