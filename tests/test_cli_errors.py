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
from repro.harness.cli import ANALYSES, COMMANDS
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

#: the rows that take one port or --all
PORT_ROWS = [row for row in COMMANDS if row.all_help]


def _usage_cases():
    for row in PORT_ROWS:
        port = list(_PORT_ARGS[:len(row.positionals)])
        if row.jobs:
            yield pytest.param([row.name, *port, "--jobs", "0"], "--jobs",
                               id=f"{row.name}-jobs-0")
        yield pytest.param([row.name, "--all", port[0]], "--all",
                           id=f"{row.name}-all-with-positional")
        if row.variant:
            yield pytest.param([row.name, *port, "--variant", "bogus"],
                               "bogus", id=f"{row.name}-unknown-variant")
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


#: the commands whose bad input must exit 2 before any work: each
#: command's leading arguments, keyed by command
_BEFORE_WORK = {
    "profile": ["profile", "jacobi", "openacc", "--scale", "test"],
    "selfprof": ["selfprof", "JACOBI", "OpenACC"],
    "all": ["all", "--jobs", "2"],
    "baseline": ["baseline", "check"],
}


def _bad_input_cases():
    missing = os.path.join("{tmp}", "missing", "out")
    for cmd, flag in (("profile", "--jsonl"), ("profile", "--chrome"),
                      ("selfprof", "--metrics"), ("selfprof", "--openmetrics"),
                      ("selfprof", "--flamegraph"), ("all", "--journal")):
        yield pytest.param(cmd, [flag, missing], f"{flag} path '{missing}'",
                           id=f"unwritable{flag}")
        yield pytest.param(cmd, [flag, "{tmp}"], f"{flag} path '{{tmp}}'",
                           id=f"{flag[2:]}-directory")
    yield pytest.param("selfprof", ["--deterministic"], "--deterministic",
                       id="deterministic-without-metrics")
    yield pytest.param("selfprof", ["--top", "-3"], "--top",
                       id="negative-top")
    yield pytest.param("selfprof", ["--min-coverage", "1.01"],
                       "--min-coverage", id="min-coverage-above-1")
    yield pytest.param("selfprof", ["--min-coverage", "-0.5"],
                       "--min-coverage", id="min-coverage-below-0")
    for value in ("nan", "-1", "inf"):
        yield pytest.param("baseline", ["--tolerance", value], "--tolerance",
                           id=f"tolerance-{value}")
    yield pytest.param("baseline", ["--baseline", "{tmp}"], "{tmp}",
                       id="baseline-directory")
    yield pytest.param("baseline", ["--baseline", "{tmp}/bad.json"],
                       "{tmp}/bad.json", id="baseline-bad-json")
    yield pytest.param("baseline", ["--benchmarks", "JACOBI"],
                       "--benchmarks", id="check-benchmarks")
    yield pytest.param("baseline", ["--scale", "test"],
                       "--scale applies to 'record' only", id="check-scale")


class TestSelfprofInput:
    """Bad input to selfprof and the other port/report commands (a bad
    value, an output path that cannot be written, a baseline that
    cannot be read) exits 2 with a message before any work runs."""

    @pytest.mark.parametrize("cmd,extra,needle", _bad_input_cases())
    def test_bad_input_exits_2_before_the_sweep(self, cmd, extra, needle,
                                                tmp_path, monkeypatch,
                                                capsys):
        def no_work(*args, **kwargs):
            pytest.fail(f"{cmd} started its work on bad input")

        for site in ("repro.harness.parallel.run_sweep",
                     "repro.harness.cli.run_evaluation",
                     "repro.obs.profile.profile_run",
                     "repro.obs.baseline.collect_entries"):
            monkeypatch.setattr(site, no_work)
        (tmp_path / "bad.json").write_text("{not json")
        argv = [*_BEFORE_WORK[cmd],
                *(arg.format(tmp=tmp_path) for arg in extra)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert needle.format(tmp=tmp_path) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
