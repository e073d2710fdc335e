"""The perf-regression baseline gate: record, check, and fail modes."""

import dataclasses
import json

import pytest

import repro.gpusim.runtime as runtime_mod
from repro.gpusim.timing import TimingConfig, price_columns, price_kernel
from repro.harness.cli import main
from repro.obs.baseline import (check_baseline, record_baseline)

BENCHES = ["JACOBI", "HOTSPOT"]


def _scale_prices(monkeypatch, factor: float) -> None:
    """Scale every launch's simulated time by ``factor``.

    A pricing pass prices each kernel's first launch through
    ``price_kernel`` and its later distinct launches through
    ``price_columns``; both are patched where the runtime calls them.
    """
    def scaled(timing):
        return dataclasses.replace(timing, time_s=timing.time_s * factor)

    monkeypatch.setattr(runtime_mod, "price_kernel",
                        lambda *args: scaled(price_kernel(*args)))
    monkeypatch.setattr(runtime_mod, "price_columns",
                        lambda *args: [scaled(t)
                                       for t in price_columns(*args)])


@pytest.fixture()
def baseline_path(tmp_path):
    path = tmp_path / "baseline.json"
    record_baseline(str(path), benchmarks=BENCHES, scale="test")
    return str(path)


class TestRecord:
    def test_document_shape(self, baseline_path):
        doc = json.loads(open(baseline_path).read())
        assert doc["schema"] == 1
        assert doc["manifest"]["benchmarks"] == BENCHES
        assert doc["manifest"]["scale"] == "test"
        assert doc["manifest"]["config_hash"]
        assert doc["tolerance"] == pytest.approx(0.02)
        for bench in BENCHES:
            for model, entry in doc["entries"][bench].items():
                assert entry["kernel_time_s"] > 0
                for kern in entry["kernels"].values():
                    assert {"time_s", "launches", "gld_transactions",
                            "gst_transactions", "achieved_occupancy",
                            "occupancy_limiter"} <= set(kern)


class TestCheck:
    def test_clean_tree_passes(self, baseline_path):
        diff = check_baseline(baseline_path)
        assert not diff.failed
        assert diff.compared == 10  # 2 benches x 5 Figure-1 models
        assert "PASS" in diff.render()

    def test_perturbed_timing_fails(self, baseline_path, monkeypatch):
        _scale_prices(monkeypatch, 1.05)
        diff = check_baseline(baseline_path)
        assert diff.failed
        kinds = {i.kind for i in diff.failures()}
        assert "regression" in kinds

    def test_small_perturbation_within_tolerance(self, baseline_path,
                                                 monkeypatch):
        _scale_prices(monkeypatch, 1.001)
        assert not check_baseline(baseline_path).failed

    def test_improvement_is_note_not_failure(self, baseline_path,
                                             monkeypatch):
        _scale_prices(monkeypatch, 0.5)
        diff = check_baseline(baseline_path)
        assert not diff.failed
        assert any(i.kind == "improvement" for i in diff.issues)

    def test_perturbation_reaches_every_launch(self, tmp_path, monkeypatch):
        # LUD's pivot gives nearly every launch its own loop-bound key,
        # so all but each kernel's first launch are priced as columns: a
        # perturbation that reached first launches only would leave
        # most kernels within tolerance
        path = str(tmp_path / "lud.json")
        doc = record_baseline(path, benchmarks=["LUD"], scale="test")
        _scale_prices(monkeypatch, 1.05)
        diff = check_baseline(path)
        kernels = {f"LUD/{model}/{kernel}"
                   for model, entry in doc["entries"]["LUD"].items()
                   for kernel in entry["kernels"]}
        regressed = {i.location for i in diff.failures()
                     if i.kind == "regression"
                     and i.message.startswith("time_s")}
        assert len(kernels) >= 10
        assert regressed == kernels

    def test_config_mismatch_fails_immediately(self, baseline_path):
        diff = check_baseline(baseline_path,
                              timing=TimingConfig(model_coalescing=False))
        assert diff.failed
        assert diff.issues[0].kind == "config"
        assert diff.compared == 0  # no sweep ran

    def test_counter_drift_fails(self, baseline_path):
        doc = json.loads(open(baseline_path).read())
        entry = doc["entries"]["JACOBI"]["OpenACC"]
        kern = next(iter(entry["kernels"].values()))
        kern["gld_transactions"] *= 1.5
        with open(baseline_path, "w") as handle:
            json.dump(doc, handle)
        diff = check_baseline(baseline_path)
        assert diff.failed
        assert any(i.kind == "drift" and "gld_transactions" in i.message
                   for i in diff.failures())

    def test_missing_entry_fails(self, baseline_path):
        doc = json.loads(open(baseline_path).read())
        doc["entries"]["JACOBI"]["No Such Model"] = \
            doc["entries"]["JACOBI"]["OpenACC"]
        with open(baseline_path, "w") as handle:
            json.dump(doc, handle)
        diff = check_baseline(baseline_path)
        assert any(i.kind == "missing" for i in diff.failures())


class TestCli:
    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "b.json")
        assert main(["baseline", "record", "--baseline", path,
                     "--scale", "test", "--benchmarks", "JACOBI"]) == 0
        assert main(["baseline", "check", "--baseline", path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_exits_2_on_regression(self, tmp_path, monkeypatch,
                                         capsys):
        path = str(tmp_path / "b.json")
        assert main(["baseline", "record", "--baseline", path,
                     "--scale", "test", "--benchmarks", "JACOBI"]) == 0
        _scale_prices(monkeypatch, 1.10)
        assert main(["baseline", "check", "--baseline", path]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "regression" in out

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        assert main(["baseline", "check", "--baseline",
                     str(tmp_path / "nope.json")]) == 2
        assert "no baseline" in capsys.readouterr().err
