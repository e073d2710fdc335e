"""Harness self-profiling: phase attribution, flamegraphs, CLI.

The acceptance bar: ``selfprof`` must attribute at least 95% of
wall-clock to named phases, the folded-stack export must be a loadable
flamegraph input, and the deterministic metrics export (derived from
the span tree) must be byte-identical for any ``--jobs`` value over
the stratified ``selfprof_units`` workload — and equal to the committed
``tests/data/selfprof_metrics.json``.
"""

import json
import pathlib

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.parallel import (SweepContext, WorkUnit, run_sweep,
                                    selfprof_pair_units, selfprof_units)
from repro.models.cache import clear_compile_cache
from repro.obs.flamegraph import (collapsed_stacks, render_collapsed,
                                  write_collapsed)
from repro.obs.merge import absorb_payloads
from repro.obs.metrics import metrics_from_spans, render_metrics_json
from repro.obs.selfprof import (NAMED_PHASES, attribute_spans, classify_span,
                                self_times)
from repro.obs.tracer import Span, Tracer, tracing

GOLDEN_METRICS = pathlib.Path(__file__).parent / "data" / \
    "selfprof_metrics.json"


@pytest.fixture(autouse=True)
def _fresh_store():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _span(sid, parent, name, cat, t0, dur, **attrs):
    return Span(span_id=sid, parent_id=parent, name=name, category=cat,
                t0_s=t0, dur_s=dur, attrs=dict(attrs))


class TestClassify:
    def test_phase_mapping(self):
        cases = [
            (("p", "pipeline"), "compile"),
            (("p", "compile"), "compile"),
            (("analysis.lint", "analysis"), "analyze"),
            (("interpret mv", "executor"), "execute"),
            (("k", "gpu.launch"), "simulate"),
            (("t", "gpu.transfer"), "simulate"),
            (("sweep.merge", "harness.merge"), "merge"),
            (("unit", "harness.unit"), "harness"),
            (("mystery", "elsewhere"), "other"),
        ]
        for (name, cat), want in cases:
            phase, _ = classify_span(_span(0, None, name, cat, 0.0, 1.0))
            assert phase == want, (name, cat)
        assert set(p for p, _ in
                   (classify_span(_span(0, None, n, c, 0.0, 1.0))
                    for (n, c), _ in cases)) - {"other"} <= set(NAMED_PHASES)


class TestSelfTimes:
    def test_self_is_duration_minus_children(self):
        spans = [_span(0, None, "root", "harness", 0.0, 10.0),
                 _span(1, 0, "a", "compile", 0.0, 4.0),
                 _span(2, 0, "b", "analysis", 4.0, 3.0),
                 _span(3, 1, "a1", "compile", 0.0, 1.0)]
        st = self_times(spans)
        assert st[0] == pytest.approx(3.0)   # 10 - (4 + 3)
        assert st[1] == pytest.approx(3.0)   # 4 - 1
        assert st[2] == pytest.approx(3.0)
        assert st[3] == pytest.approx(1.0)

    def test_telescopes_to_root_duration(self):
        spans = [_span(0, None, "root", "harness", 0.0, 10.0),
                 _span(1, 0, "a", "compile", 0.0, 6.0),
                 _span(2, 1, "b", "executor", 0.0, 2.0)]
        assert sum(self_times(spans).values()) == pytest.approx(10.0)

    def test_overcommitted_child_clamps_to_zero(self):
        spans = [_span(0, None, "root", "harness", 0.0, 1.0),
                 _span(1, 0, "a", "compile", 0.0, 2.0)]   # clock skew
        st = self_times(spans)
        assert st[0] == 0.0
        assert st[1] == pytest.approx(2.0)


class TestAttribution:
    def test_full_coverage_on_named_spans(self):
        spans = [_span(0, None, "root", "harness", 0.0, 10.0),
                 _span(1, 0, "p", "pipeline", 0.0, 6.0),
                 _span(2, 0, "analysis.lint", "analysis", 6.0, 2.0,
                       kind="lint")]
        attr = attribute_spans(spans, wall_s=10.0)
        assert attr.coverage == pytest.approx(1.0)
        secs = attr.phase_seconds()
        assert secs["compile"] == pytest.approx(6.0)
        assert secs["analyze"] == pytest.approx(2.0)
        assert secs["harness"] == pytest.approx(2.0)

    def test_wall_defaults_to_root_durations(self):
        spans = [_span(0, None, "root", "harness", 0.0, 5.0),
                 _span(1, None, "root2", "harness", 0.0, 2.0)]
        attr = attribute_spans(spans)
        assert attr.wall_s == pytest.approx(7.0)
        assert attr.work_s == pytest.approx(7.0)
        attr2 = attribute_spans(spans, wall_s=4.0)
        assert attr2.wall_s == 4.0          # explicit wall wins

    def test_other_category_excluded_from_named(self):
        spans = [_span(0, None, "root", "harness", 0.0, 4.0),
                 _span(1, 0, "x", "elsewhere", 0.0, 3.0)]
        attr = attribute_spans(spans, wall_s=4.0)
        assert attr.coverage == pytest.approx(0.25)   # only root self-time


class TestFlamegraph:
    def _spans(self):
        return [_span(0, None, "selfprof.suite", "harness", 0.0, 4.0),
                 _span(1, 0, "unit jacobi;openacc", "harness.unit",
                       0.0, 3.0),
                 _span(2, 1, "pipeline run", "pipeline", 0.0, 1.0)]

    def test_folded_format(self):
        stacks = collapsed_stacks(self._spans())
        # frames joined root-first with ';', sanitized, integer µs self
        assert stacks["selfprof.suite"] == 1_000_000
        assert stacks["selfprof.suite;unit_jacobi,openacc"] == 2_000_000
        assert stacks[
            "selfprof.suite;unit_jacobi,openacc;pipeline_run"] == 1_000_000

    def test_render_and_write(self, tmp_path):
        text = render_collapsed(self._spans())
        for line in text.strip().splitlines():
            stack, n = line.rsplit(" ", 1)
            assert int(n) > 0 and stack
        out = tmp_path / "flame.txt"
        rows = write_collapsed(out, self._spans())
        assert rows == 3
        assert out.read_text() == text

    def test_zero_self_frames_dropped(self):
        spans = [_span(0, None, "root", "harness", 0.0, 1.0),
                 _span(1, 0, "all", "compile", 0.0, 1.0)]
        stacks = collapsed_stacks(spans)
        assert "root" not in stacks          # zero self-time
        assert stacks["root;all"] == 1_000_000


def _run_units(units, jobs):
    clear_compile_cache()
    tracer = Tracer()
    ctx = SweepContext(scale="test")
    with tracing(tracer):
        sweep = run_sweep(units, jobs=jobs, context=ctx)
    absorb_payloads(tracer, sweep.span_payloads())
    registry = metrics_from_spans(tracer.spans, sweep.stats)
    return render_metrics_json(registry.to_dict(deterministic_only=True))


class TestWorkloadDeterminism:
    def test_units_partition_pairs(self):
        units = selfprof_units()
        pairs = [(u.bench, u.model) for u in units]
        assert len(pairs) == len(set(pairs))   # each pair exactly once
        kinds = {u.kind for u in units}
        assert {"eval", "exec"} <= kinds       # executor phase represented

    def test_deterministic_metrics_jobs_invariant(self):
        units = selfprof_units(benchmarks=["JACOBI"])
        assert _run_units(units, jobs=1) == _run_units(units, jobs=2)

    def test_unit_kinds_per_scale(self):
        """Paper scale profiles the Figure-1 path: eval units only, over
        the same pairs; test scale mixes every kind."""
        test, paper = selfprof_units(), selfprof_units(scale="paper")
        assert {u.kind for u in test} == {"eval", "lint", "tv", "xfer",
                                          "locality", "exec"}
        assert {u.kind for u in paper} == {"eval"}
        assert [(u.bench, u.model) for u in paper] == \
            [(u.bench, u.model) for u in test]
        assert [u.kind for u in selfprof_pair_units("LUD", "OpenACC")] == \
            ["eval", "lint", "tv", "xfer", "locality", "exec"]
        assert selfprof_pair_units("LUD", "OpenACC", scale="paper") == [
            WorkUnit("eval", "LUD", "OpenACC",
                     flags=("coverage", "speedups", "profile"))]

    def test_metrics_match_golden_fixture(self, tmp_path, capsys):
        """The span-derived deterministic export equals the committed
        fixture byte for byte."""
        out = tmp_path / "metrics.json"
        assert cli_main(["selfprof", "--all", "--jobs", "1", "--metrics",
                         str(out), "--deterministic"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == GOLDEN_METRICS.read_bytes()


class TestSelfprofCli:
    def test_pair_json_meets_coverage_bar(self, capsys):
        rc = cli_main(["selfprof", "JACOBI", "OpenACC", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        prof = doc["selfprof"]
        assert prof["coverage"] >= 0.95
        assert set(prof["phases"]) <= set(NAMED_PHASES) | {"other"}
        assert prof["wall_s"] > 0

    def test_min_coverage_gate_can_fail(self, monkeypatch, capsys):
        # every span of this run is named; narrowing the named set to
        # the merge phase pushes coverage far below the bar
        monkeypatch.setattr("repro.obs.selfprof.NAMED_PHASES", ("merge",))
        rc = cli_main(["selfprof", "JACOBI", "OpenACC",
                       "--min-coverage", "0.95"])
        assert rc == 1
        assert "below the required" in capsys.readouterr().err

    def test_unknown_pair_is_usage_error(self, capsys):
        assert cli_main(["selfprof", "nonesuch", "OpenACC"]) == 2
        capsys.readouterr()

    def test_flamegraph_export(self, tmp_path, capsys):
        out = tmp_path / "flame.folded"
        rc = cli_main(["selfprof", "JACOBI", "OpenACC",
                       "--flamegraph", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, n = line.rsplit(" ", 1)
            assert int(n) > 0
            assert " " not in stack      # frames are sanitized
