"""Determinism of the parallel sharded sweep engine.

The contract under test (:mod:`repro.harness.parallel`): any ``jobs``
value produces results *structurally identical* to plain serial loops
(the :func:`tests.difftest.serial_evaluation` oracle) — same dict
shapes, same iteration order, same numbers — because the merge folds
outcomes in registry order, never completion order.  On
top of that: units partition the port set (no port is lowered twice
anywhere, proven by the shipped store deltas), merged obs counter
totals are worker-count-independent, the checkpoint journal resumes
without re-executing, and the checked-in Figure-1 baseline passes the
gate under every jobs value.
"""

import json
import os

import pytest

from repro.harness.cli import main
from repro.harness.parallel import (SweepContext, SweepError, WorkUnit,
                                    evaluation_units, merge_evaluation,
                                    pair_units, run_sweep)
from repro.harness.rollup import build_rollup, render_rollup
from repro.harness.runner import (FIGURE1_MODELS, TABLE2_MODELS,
                                  run_evaluation, run_full_evaluation)
from repro.models.cache import clear_compile_cache
from repro.benchmarks.base import Benchmark
from repro.benchmarks.registry import get_benchmark, iter_suite
from repro.obs.baseline import (DEFAULT_BASELINE_PATH, check_baseline,
                                collect_entries)
from repro.obs.profile import profile_suite
from repro.obs.tracer import Tracer, tracing
from tests.difftest import counter_totals, serial_evaluation

#: cheap benchmarks for the engine-mechanics tests
SUBSET = ["JACOBI", "HOTSPOT", "EP"]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _fresh_store():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _results_doc(results, profiles=()):
    """The jobs-invariant section of the rollup, canonically rendered."""
    return render_rollup(build_rollup(results, list(profiles))["results"])


# ---------------------------------------------------------------------------
# Satellite 1 core: full-evaluation identity across jobs values
# ---------------------------------------------------------------------------

class TestFullEvaluationIdentity:
    @pytest.fixture(scope="class")
    def evaluations(self):
        """One full test-scale evaluation per jobs value."""
        clear_compile_cache()
        return {n: run_full_evaluation(scale="test", jobs=n)
                for n in (1, 2, 8)}

    def test_coverage_codesize_speedups_identical(self, evaluations):
        serial = _results_doc(evaluations[1])
        for n in (2, 8):
            assert _results_doc(evaluations[n]) == serial

    def test_dict_iteration_order_matches_serial(self, evaluations):
        """Structural identity includes *order* — the merge must fold in
        registry order even though workers finish in arbitrary order."""
        serial = evaluations[1]
        for n in (2, 8):
            parallel = evaluations[n]
            assert list(parallel.coverage) == list(serial.coverage)
            assert list(parallel.codesize) == list(serial.codesize)
            assert list(parallel.speedups) == list(serial.speedups)
            for bench in serial.speedups:
                assert list(parallel.speedups[bench]) == \
                    list(serial.speedups[bench])

    def test_model_and_bench_sets(self, evaluations):
        for results in evaluations.values():
            assert tuple(results.coverage) == TABLE2_MODELS
            for per_model in results.speedups.values():
                assert tuple(per_model) == FIGURE1_MODELS


class TestSerialOracle:
    """The work-unit sweep equals plain serial loops at every ``jobs``."""

    @pytest.fixture(scope="class")
    def oracle(self):
        clear_compile_cache()
        return serial_evaluation("test")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_evaluation_equals_serial_loops(self, oracle, jobs):
        results, profiles, _ = run_evaluation(
            coverage=True, speedups=True, profiles=True, scale="test",
            jobs=jobs)
        want_results, want_profiles = oracle
        assert results == want_results
        assert profiles == want_profiles
        assert _results_doc(results, profiles) == \
            _results_doc(want_results, want_profiles)


class TestOneRunPerPort:
    """A sweep runs each (port, variant) once: an eval unit's profile is
    its first variant's run.  The serial oracle above still profiles
    each pair with a run of its own, so together they pin the
    shared-run profiles to the separate ones."""

    @staticmethod
    def _count_runs(monkeypatch) -> list[tuple[str, str, str]]:
        runs: list[tuple[str, str, str]] = []
        run = Benchmark.run

        def counting(self, model, variant="best", *args, **kwargs):
            runs.append((self.name, model, variant))
            return run(self, model, variant, *args, **kwargs)

        monkeypatch.setattr(Benchmark, "run", counting)
        return runs

    def test_evaluation_runs_each_variant_once(self, monkeypatch):
        runs = self._count_runs(monkeypatch)
        _, profiles, _ = run_evaluation(coverage=True, speedups=True,
                                        profiles=True, scale="test")
        ports = [(bench.name, model, variant) for bench in iter_suite()
                 for model in FIGURE1_MODELS
                 for variant in bench.variants(model)]
        assert sorted(runs) == sorted(ports)
        assert len(set(runs)) == len(runs)
        assert [(p.benchmark, p.model, p.variant) for p in profiles] == [
            (bench.name, model, bench.variants(model)[0])
            for bench in iter_suite() for model in FIGURE1_MODELS]

    def test_baseline_runs_each_pair_once(self, monkeypatch):
        runs = self._count_runs(monkeypatch)
        entries = collect_entries(SUBSET, FIGURE1_MODELS, "test")
        assert runs == [(bench, model, get_benchmark(bench).variants(model)[0])
                        for bench in SUBSET for model in FIGURE1_MODELS]
        assert {bench: list(per) for bench, per in entries.items()} == \
            {bench: list(FIGURE1_MODELS) for bench in SUBSET}


class TestObsMergeIdentity:
    def test_counter_totals_match_serial(self):
        p1, t1 = profile_suite(benchmarks=SUBSET, scale="test")
        p4, t4 = profile_suite(benchmarks=SUBSET, scale="test", jobs=4)
        assert [p.to_dict() for p in p1] == [p.to_dict() for p in p4]
        totals = counter_totals(t1.spans)
        assert totals  # the sweep actually produced counters
        assert counter_totals(t4.spans) == totals

    def test_parallel_eval_replays_into_ambient_tracer(self):
        tracer = Tracer()
        with tracing(tracer):
            run_evaluation(coverage=True, speedups=True, scale="test",
                           jobs=2)
        labels = {s.name for s in tracer.spans}
        assert any(label.startswith("eval:") for label in labels)


class TestSpanCapture:
    """Units record spans only when the caller has a tracer installed."""

    @staticmethod
    def _sweep(jobs):
        clear_compile_cache()
        return run_sweep(evaluation_units(benchmarks=SUBSET), jobs=jobs,
                         context=SweepContext(scale="test"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spans_ship_only_under_a_tracer(self, jobs):
        untraced = self._sweep(jobs)
        tracer = Tracer()
        with tracing(tracer):
            traced = self._sweep(jobs)
        assert all(o.spans == [] for o in untraced.outcomes)
        # in-process units record straight into the caller's tracer and
        # workers' spans are absorbed into it: one unit span per unit
        units = tracer.find(category="harness.unit")
        assert [sp.name for sp in units] == \
            [o.unit.label() for o in traced.outcomes]
        assert all(sp.parent_id is None for sp in units)
        assert _results_doc(merge_evaluation(untraced.outcomes)[0]) == \
            _results_doc(merge_evaluation(traced.outcomes)[0])

    def test_spanless_journal_entries_rerun_under_a_tracer(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        run_sweep(_lint_units()[:2], jobs=1, journal=journal)
        clear_compile_cache()
        with tracing(Tracer()):
            sweep = run_sweep(_lint_units(), jobs=2, journal=journal)
        assert sweep.stats.units_from_journal == 0
        assert all(o.spans for o in sweep.outcomes)
        # ... and a traced journal resumes under a tracer as before
        with tracing(Tracer()):
            again = run_sweep(_lint_units(), jobs=2, journal=journal)
        assert again.stats.units_executed == 0
        assert all(o.spans for o in again.outcomes)


class TestBaselineGateUnderJobs:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_checked_in_figure1_baseline_passes(self, jobs):
        path = os.path.join(REPO_ROOT, DEFAULT_BASELINE_PATH)
        diff = check_baseline(path, jobs=jobs)
        assert not diff.failed, diff.render()
        assert diff.compared > 0


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------

def _lint_units():
    pairs = [(b, m) for b in SUBSET for m in ("OpenACC", "OpenMPC")]
    return pair_units("lint", pairs)


def _record_keys(records):
    return [(r.benchmark, r.model, r.variant) for r in records]


class TestEngine:
    def test_serial_and_parallel_results_equal(self):
        serial = run_sweep(_lint_units(), jobs=1)
        clear_compile_cache()
        parallel = run_sweep(_lint_units(), jobs=3)
        assert _record_keys(parallel.results()) == \
            _record_keys(serial.results())
        assert [[f.to_dict() for f in r.report.sorted()]
                for r in parallel.results()] == \
            [[f.to_dict() for f in r.report.sorted()]
             for r in serial.results()]

    def test_units_partition_the_port_set(self):
        """No port is lowered twice anywhere: every store delta shipped
        back by a worker is disjoint from every other."""
        sweep = run_sweep(evaluation_units(benchmarks=SUBSET), jobs=4,
                          context=SweepContext(scale="test"))
        assert sweep.stats.store["duplicates"] == []
        assert sweep.stats.store["misses"] == sweep.stats.store["entries"]

    def test_shard_stats_account_for_every_unit(self):
        sweep = run_sweep(_lint_units(), jobs=3)
        stats = sweep.stats
        assert stats.units_total == len(_lint_units())
        assert stats.units_executed == stats.units_total
        assert sum(stats.per_worker.values()) == stats.units_executed
        assert "worker" in stats.shard_summary()
        assert "duplicate lowerings" in stats.store_summary()

    def test_parent_store_absorbs_worker_artifacts(self):
        from repro.models.cache import cache_stats, compile_port

        run_sweep(_lint_units(), jobs=2)
        before = cache_stats()
        compile_port("JACOBI", "OpenACC")
        after = cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_in_process_units_are_not_absorbed(self, monkeypatch, capsys):
        """A unit run in-process compiled into STORE itself: a jobs=1
        sweep absorbs nothing and accounts for the store as before."""
        from repro.models.cache import ArtifactStore

        absorbed = []
        absorb = ArtifactStore.absorb

        def counting(self, view):
            absorbed.append(view)
            return absorb(self, view)

        monkeypatch.setattr(ArtifactStore, "absorb", counting)
        assert main(["all", "--jobs", "1", "--scale", "test"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("artifact store: 115 compilations for 167 requests "
                "(52 hits, 115 misses, 0 duplicate lowerings)") in lines
        assert "shards: 1 worker(s) — 78 units (78 executed)" in lines
        clear_compile_cache()
        serial = run_sweep(evaluation_units(benchmarks=SUBSET), jobs=1,
                           context=SweepContext(scale="test"))
        assert absorbed == []
        clear_compile_cache()
        parallel = run_sweep(evaluation_units(benchmarks=SUBSET), jobs=2,
                             context=SweepContext(scale="test"))
        # worker deltas still are
        assert len(absorbed) == len(parallel.outcomes)
        assert serial.stats.store == parallel.stats.store
        assert serial.stats.store["duplicates"] == []

    def test_worker_failure_surfaces_as_sweep_error(self):
        units = [WorkUnit(kind="lint", bench="JACOBI", model="OpenACC"),
                 WorkUnit(kind="lint", bench="NO-SUCH-BENCH",
                          model="OpenACC", seq=1),
                 WorkUnit(kind="lint", bench="EP", model="OpenACC", seq=2)]
        with pytest.raises(SweepError, match="NO-SUCH-BENCH"):
            run_sweep(units, jobs=2)

    def test_unknown_unit_kind_raises(self):
        with pytest.raises(SweepError, match="unknown work-unit kind"):
            run_sweep([WorkUnit(kind="bogus", bench="JACOBI",
                                model="OpenACC")], jobs=1)

    def test_merge_folds_in_registry_order(self):
        sweep = run_sweep(evaluation_units(benchmarks=SUBSET), jobs=1,
                          context=SweepContext(scale="test"))
        results, _ = merge_evaluation(sweep.outcomes)
        assert list(results.speedups) == \
            list(dict.fromkeys(o.unit.bench for o in sweep.outcomes))
        assert tuple(results.coverage) == TABLE2_MODELS


class TestJournal:
    def test_resume_skips_completed_units(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        first = run_sweep(_lint_units(), jobs=2, journal=journal)
        assert first.stats.units_executed == len(_lint_units())

        clear_compile_cache()
        second = run_sweep(_lint_units(), jobs=2, journal=journal)
        assert second.stats.units_executed == 0
        assert second.stats.units_from_journal == len(_lint_units())
        assert all(o.from_journal for o in second.outcomes)
        assert _record_keys(second.results()) == \
            _record_keys(first.results())
        assert "resumed from journal" in second.stats.shard_summary()

    def test_partial_journal_runs_only_missing_units(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        units = _lint_units()
        run_sweep(units[:2], jobs=1, journal=journal)

        clear_compile_cache()
        sweep = run_sweep(units, jobs=2, journal=journal)
        assert sweep.stats.units_from_journal == 2
        assert sweep.stats.units_executed == len(units) - 2
        assert [o.unit.key() for o in sweep.outcomes] == \
            [u.key() for u in units]
        assert [o.from_journal for o in sweep.outcomes] == \
            [True, True] + [False] * (len(units) - 2)

    def test_corrupt_journal_lines_are_skipped(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        run_sweep(_lint_units()[:1], jobs=1, journal=journal)
        with open(journal, "a") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps({"schema": 999, "key": [],
                                     "blob": ""}) + "\n")
        sweep = run_sweep(_lint_units(), jobs=1, journal=journal)
        assert sweep.stats.units_from_journal == 1
        assert sweep.stats.units_executed == len(_lint_units()) - 1


# ---------------------------------------------------------------------------
# Rollup + CLI surface
# ---------------------------------------------------------------------------

class TestRollup:
    def test_infinities_map_to_null(self):
        import math

        from repro.harness.rollup import _finite

        assert _finite(float("inf")) is None
        assert _finite(float("nan")) is None
        assert _finite(1.5) == 1.5
        assert math.isfinite(0.0) and _finite(0.0) == 0.0

    def test_render_is_canonical(self):
        doc_a = {"b": 1, "a": {"z": 2, "y": 3}}
        doc_b = {"a": {"y": 3, "z": 2}, "b": 1}
        assert render_rollup(doc_a) == render_rollup(doc_b)


class TestCli:
    def test_jobs_zero_is_usage_error(self, capsys):
        assert main(["table2", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_all_journal_requires_parallel(self, capsys):
        assert main(["all", "--journal", "j.jsonl"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_lint_all_jobs_matches_serial(self, capsys):
        serial_rc = main(["lint", "--all"])
        serial = capsys.readouterr().out
        clear_compile_cache()
        assert main(["lint", "--all", "--jobs", "2"]) == serial_rc
        assert capsys.readouterr().out == serial

    def test_tv_all_jobs_matches_serial(self, capsys):
        serial_rc = main(["tv", "--all"])
        serial = capsys.readouterr().out
        clear_compile_cache()
        assert main(["tv", "--all", "--jobs", "2"]) == serial_rc
        assert capsys.readouterr().out == serial
