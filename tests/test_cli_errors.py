"""CLI error paths, exit codes, SARIF output, and compile memoization.

The harness is the CI entry point, so its contract is pinned: exit 0
clean, exit 1 on gated findings, exit 2 on usage errors (unknown
benchmark / model / variant, contradictory flags) — never a traceback.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.harness.cli import ANALYSES
from repro.harness.cli import main as cli_main
from repro.lint.sarif import SARIF_SCHEMA, SARIF_VERSION
from repro.lint.suite import clear_compile_cache, compile_port
from repro.models import MODEL_ALIASES, resolve_model


class TestModelAliases:
    @pytest.mark.parametrize("alias,canonical", sorted(MODEL_ALIASES.items()))
    def test_alias_resolves(self, alias, canonical):
        assert resolve_model(alias) == canonical

    def test_canonical_names_case_insensitive(self):
        assert resolve_model("OpenACC") == "OpenACC"
        assert resolve_model("openACC") == "OpenACC"
        assert resolve_model("HAND-WRITTEN CUDA") == "Hand-Written CUDA"

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            resolve_model("nonesuch")

    def test_lint_accepts_alias(self, capsys):
        assert cli_main(["lint", "jacobi", "pgi"]) == 0
        assert "PGI Accelerator" in capsys.readouterr().out


class TestUsageErrors:
    def test_lint_unknown_benchmark(self, capsys):
        assert cli_main(["lint", "nonesuch", "openacc"]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_lint_unknown_model(self, capsys):
        assert cli_main(["lint", "jacobi", "nonesuch"]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_lint_unknown_variant(self, capsys):
        assert cli_main(["lint", "jacobi", "openacc",
                         "--variant", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_lint_missing_positional(self, capsys):
        assert cli_main(["lint", "jacobi"]) == 2
        assert "required" in capsys.readouterr().err

    def test_tv_unknown_variant(self, capsys):
        assert cli_main(["tv", "jacobi", "openacc",
                         "--variant", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_run_unknown_variant(self, capsys):
        assert cli_main(["run", "JACOBI", "OpenACC",
                         "--variant", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "known" in err

    def test_run_unknown_benchmark_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "nonesuch", "OpenACC"])
        assert exc.value.code == 2

    def test_run_rejects_retired_jit_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "JACOBI", "OpenACC", "--jit", "on"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jit on" in capsys.readouterr().err

    def test_sarif_and_json_conflict(self, capsys):
        assert cli_main(["lint", "jacobi", "openacc",
                         "--sarif", "--json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestFailOnOrdering:
    def test_clean_port_passes_every_threshold(self, capsys):
        # JACOBI/OpenACC is clean at error severity in the pinned suite
        assert cli_main(["lint", "jacobi", "openacc",
                         "--fail-on", "error"]) == 0
        capsys.readouterr()

    def test_info_threshold_is_strictest(self, capsys):
        # every port emits at least the PERF/DATA info-level findings
        # somewhere in the suite; use a port known to carry a finding
        rc_info = cli_main(["lint", "bfs", "openmpc", "--fail-on", "info"])
        rc_warn = cli_main(["lint", "bfs", "openmpc",
                            "--fail-on", "warning"])
        rc_err = cli_main(["lint", "bfs", "openmpc", "--fail-on", "error"])
        capsys.readouterr()
        # monotone: tightening the threshold can only add failures
        assert rc_info >= rc_warn >= rc_err

    def test_bad_threshold_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "jacobi", "openacc", "--fail-on", "bogus"])
        assert exc.value.code == 2


class TestSarifOutput:
    def test_single_port_sarif_shape(self, capsys):
        assert cli_main(["lint", "srad", "openmpc", "--sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == SARIF_VERSION
        assert log["$schema"] == SARIF_SCHEMA
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["rules"] is not None
        rule_ids = {r["id"] for r in driver["rules"]}
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["level"] in ("error", "warning", "note")
            locs = result["locations"][0]["logicalLocations"]
            assert locs[0]["fullyQualifiedName"]

    def test_suite_sarif_merges_runs(self, capsys):
        assert cli_main(["lint", "--all", "--sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == SARIF_VERSION
        # 13 benchmarks x 6 lintable models (5 directive + OpenMP-Target)
        assert len(log["runs"]) == 78


class TestCompileMemoization:
    def test_same_objects_returned(self):
        clear_compile_cache()
        p1, c1, v1 = compile_port("JACOBI", "OpenACC")
        p2, c2, v2 = compile_port("jacobi", "openacc")
        assert p1 is p2 and c1 is c2 and v1 == v2

    def test_clear_resets_cache(self):
        p1, c1, _ = compile_port("JACOBI", "OpenACC")
        clear_compile_cache()
        p2, c2, _ = compile_port("JACOBI", "OpenACC")
        assert c1 is not c2

    def test_variant_is_part_of_key(self):
        _, best, _ = compile_port("JACOBI", "OpenACC")
        _, naive, _ = compile_port("JACOBI", "OpenACC", "naive")
        assert best is not naive

    def test_unknown_variant_raises_keyerror(self):
        with pytest.raises(KeyError):
            compile_port("JACOBI", "OpenACC", "bogus")


#: one port per row: BENCH MODEL, or BENCH SRC DST for translate
_PORT_ARGS = ("jacobi", "openacc", "omp-target")


def _usage_cases():
    for row in ANALYSES:
        port = list(_PORT_ARGS[:len(row.positionals)])
        yield pytest.param([row.name, *port, "--jobs", "0"], "--jobs",
                           id=f"{row.name}-jobs-0")
        yield pytest.param([row.name, "--all", port[0]], "--all",
                           id=f"{row.name}-all-with-positional")
        yield pytest.param([row.name, *port, "--variant", "bogus"], "bogus",
                           id=f"{row.name}-unknown-variant")
    yield pytest.param(["profile", "jacobi", "openacc", "--jobs", "0"],
                       "--jobs", id="profile-jobs-0")
    yield pytest.param(["validate", "nonesuch"], "nonesuch",
                       id="validate-unknown-benchmark")
    yield pytest.param(["compare", "JACOBI", "OpenACC", "HMPP",
                        "--variant", "bogus"], "bogus",
                       id="compare-unknown-variant")


class TestAnalysisTable:
    @pytest.mark.parametrize("argv,needle", _usage_cases())
    def test_usage_error_exits_2_with_message(self, argv, needle, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert captured.out == ""

    def test_every_row_is_a_work_unit_kind(self):
        from repro.harness.parallel import UNIT_RUNNERS

        assert {row.name for row in ANALYSES} <= set(UNIT_RUNNERS)

    def test_cli_import_leaves_the_layers_unloaded(self):
        # CLI start-up (perfbench's setup_s) must not pay for the layers
        # a subcommand imports on demand
        lazy = ("repro.dataflow.suite", "repro.gpusim.locality",
                "repro.translate", "repro.harness.parallel")
        code = ("import sys, repro.harness.cli; "
                f"print([m for m in {lazy!r} if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


def _selfprof_cases():
    missing = os.path.join("{tmp}", "missing", "out")
    for flag in ("--metrics", "--openmetrics", "--flamegraph"):
        yield pytest.param([flag, missing], flag, id=f"unwritable{flag}")
    yield pytest.param(["--flamegraph", "{tmp}"], "--flamegraph",
                       id="directory-as-path")
    yield pytest.param(["--deterministic"], "--deterministic",
                       id="deterministic-without-metrics")
    yield pytest.param(["--top", "-3"], "--top", id="negative-top")
    yield pytest.param(["--min-coverage", "1.01"], "--min-coverage",
                       id="min-coverage-above-1")
    yield pytest.param(["--min-coverage", "-0.5"], "--min-coverage",
                       id="min-coverage-below-0")


class TestSelfprofInput:
    @pytest.mark.parametrize("extra,needle", _selfprof_cases())
    def test_bad_input_exits_2_before_the_sweep(self, extra, needle,
                                                tmp_path, monkeypatch,
                                                capsys):
        def no_sweep(*args, **kwargs):
            pytest.fail("selfprof ran its sweep on bad input")

        monkeypatch.setattr("repro.harness.parallel.run_sweep", no_sweep)
        argv = ["selfprof", "JACOBI", "OpenACC",
                *(arg.format(tmp=tmp_path) for arg in extra)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestAllInput:
    @pytest.mark.parametrize("journal", [
        pytest.param(os.path.join("{tmp}", "missing", "j.jsonl"),
                     id="missing-directory"),
        pytest.param("{tmp}", id="directory-as-path")])
    def test_unwritable_journal_exits_2_before_the_sweep(
            self, journal, tmp_path, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            pytest.fail("all ran its sweep on an unwritable journal")

        monkeypatch.setattr("repro.harness.parallel.run_sweep", no_sweep)
        path = journal.format(tmp=tmp_path)
        assert cli_main(["all", "--jobs", "2", "--journal", path]) == 2
        captured = capsys.readouterr()
        assert "--journal" in captured.err and path in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
