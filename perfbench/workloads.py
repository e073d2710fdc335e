"""The benchmark's workloads: what each runs and how its output is checked.

Every workload calls the library functions behind a ``repro-harness``
subcommand, on a fixed slice of the 13-benchmark suite sized so that
several repeats fit in one measured run (the full ``figure1`` sweep
takes about a minute and 1.3 GB, which would leave room for one sample
per run).  Outputs are checked against files under ``expected/``,
recorded from the full suite, so a slice is checked against the same
oracle the full command would be.

Record the expected files again (only when an output is meant to
change) from the repository root::

    PYTHONPATH=src python3 perfbench/workloads.py figure1
    PYTHONPATH=src python3 perfbench/workloads.py gates
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Sequence

EXPECTED = Path(__file__).resolve().parent / "expected"
FIGURE1_CSV = EXPECTED / "figure1.csv"
GATES_JSON = EXPECTED / "gates.json"

#: paper-scale pricing slice: SRAD alone splits its time between
#: workload generation, launch descriptors and CPU pricing much as the
#: full sweep does; KMEANS adds host/device alternation and
#: workload-generation weight, EP the private-array expansion launch
FIGURE1_BENCHMARKS = ("EP", "SRAD", "KMEANS")
#: functional-execution slice: SPMUL carries the hottest interpreted
#: bodies, BFS and LUD many small launches, the rest cheap stencils
VALIDATE_BENCHMARKS = ("JACOBI", "EP", "SPMUL", "BFS", "HOTSPOT", "LUD")
#: analysis slice: every benchmark except SPMUL and CG, whose locality
#: replays alone take 6.5 s
GATES_BENCHMARKS = ("JACOBI", "EP", "FT", "SRAD", "CFD", "BFS", "HOTSPOT",
                    "BACKPROP", "KMEANS", "NW", "LUD")


@dataclass(frozen=True)
class Workload:
    """One workload: ``run(suite, seed, benchmarks) -> (output, stats)``
    times the user-facing work; ``check(output, benchmarks) ->
    (attempted, failed)`` compares it with the expected files."""

    name: str
    run: Callable[[Sequence[Any], int, Sequence[str]], tuple[Any, dict]]
    check: Callable[[Any, Sequence[str]], tuple[int, int]]
    benchmarks: tuple[str, ...]
    #: layers whose calls happen in the measured process itself
    active: tuple[str, ...]


# -- figure1 -------------------------------------------------------------

def run_figure1(suite, seed, benchmarks):
    """``repro-harness figure1 --csv`` (serial) on the slice."""
    from repro.harness import report, runner

    benches = [b for b in suite if b.name in benchmarks]
    speedups = runner.run_speedups(benches, scale="paper")
    return report.render_figure1_csv(speedups), {}


def run_figure1_j2(suite, seed, benchmarks):
    """``repro-harness figure1 --csv --jobs 2`` on the slice."""
    from repro.harness import parallel, report

    units = parallel.evaluation_units(benchmarks=benchmarks, coverage=False,
                                      speedups=True)
    sweep = parallel.run_sweep(units, jobs=2,
                               context=parallel.SweepContext(scale="paper"))
    results, _ = parallel.merge_evaluation(sweep.outcomes)
    stats = sweep.stats
    return report.render_figure1_csv(results.speedups), {
        "busy_s": stats.busy_s, "wait_s": stats.wait_s,
        "utilization": stats.utilization()}


def expected_figure1(benchmarks: Sequence[str]) -> list[str]:
    header, *rows = FIGURE1_CSV.read_text(encoding="utf-8").splitlines()
    return [header] + [r for r in rows if r.split(",", 1)[0] in benchmarks]


def check_figure1(csv_text: str, benchmarks) -> tuple[int, int]:
    """Rows compared and rows differing (a wrong header fails them all)."""
    want = expected_figure1(benchmarks)
    got = csv_text.split("\n")
    rows = list(zip_longest(got[1:], want[1:]))
    if got[0] != want[0]:
        return len(rows), len(rows)
    return len(rows), sum(a != b for a, b in rows)


# -- validate ------------------------------------------------------------

def run_validate(suite, seed, benchmarks):
    """``validate_suite(seed=S)``, the function behind ``validate``."""
    from repro.harness import validate

    return validate.validate_suite(benchmarks=benchmarks, seed=seed), {}


def check_validate(matrix, benchmarks) -> tuple[int, int]:
    if not matrix.cells:
        return 1, 1
    return len(matrix.cells), len(matrix.failures())


# -- gates ---------------------------------------------------------------

def _lint_payload(rec) -> dict:
    return {"benchmark": rec.benchmark, "model": rec.model,
            "variant": rec.variant, "regions": rec.regions,
            "findings": [f.to_dict() for f in rec.report.sorted()]}


def _tv_payload(rec) -> dict:
    return {"benchmark": rec.benchmark, "model": rec.model,
            "variant": rec.variant,
            "certificates": [c.to_dict() for c in rec.certificates]}


def _refuted(rec) -> int:
    from repro.tv import CertStatus
    return rec.count(CertStatus.REFUTED)


def run_gates(suite, seed, benchmarks):
    """``lint``, ``tv``, ``xfer``, ``translate`` and ``locality``, each as
    ``--all --json`` at test scale, in one process.

    Returns ``(analysis, benchmark, model, json_text, problems)`` rows;
    ``problems`` counts REFUTED certificates and COH errors, which the
    CLI turns into a failing exit code.
    """
    from repro.benchmarks.base import ALL_MODELS
    from repro.dataflow import suite as xfer
    from repro.gpusim import locality
    from repro.lint import suite as lint
    from repro.translate import suite as translate
    from repro.tv import suite as tv

    bench = list(benchmarks)
    rows = []
    for rec in lint.lint_suite(benchmarks=bench):
        rows.append(("lint", rec.benchmark, rec.model,
                     json.dumps(_lint_payload(rec), indent=2), 0))
    for rec in tv.validate_suite(benchmarks=bench):
        rows.append(("tv", rec.benchmark, rec.model,
                     json.dumps(_tv_payload(rec), indent=2), _refuted(rec)))
    for rec in xfer.xfer_suite(models=ALL_MODELS, benchmarks=bench):
        rows.append(("xfer", rec.benchmark, rec.model,
                     json.dumps(rec.to_dict(), indent=2),
                     len(rec.analysis.coh_errors)))
    for rec in translate.translate_suite(benchmarks=bench):
        rows.append(("translate", rec.benchmark, f"{rec.src}->{rec.dst}",
                     json.dumps(rec.to_dict(), indent=2), _refuted(rec)))
    for rec in locality.locality_suite(benchmarks=bench):
        rows.append(("locality", rec.benchmark, rec.model,
                     json.dumps(rec.to_dict(), indent=2), 0))
    return rows, {}


def gate_hashes(rows) -> dict[str, str]:
    return {f"{analysis}/{bench}/{model}":
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for analysis, bench, model, text, _ in rows}


def check_gates(rows, benchmarks) -> tuple[int, int]:
    """Records compared; records differing, missing, extra or failing."""
    want = {key: digest for key, digest
            in json.loads(GATES_JSON.read_text(encoding="utf-8")).items()
            if key.split("/")[1] in benchmarks}
    got = gate_hashes(rows)
    bad = {f"{a}/{b}/{m}" for a, b, m, _, problems in rows if problems}
    keys = want.keys() | got.keys()
    return len(keys), sum(want.get(k) != got.get(k) or k in bad
                          for k in keys)


# -- the table -------------------------------------------------------------

_PRICING = ("harness.unit", "benchmarks.workload", "benchmarks.arrays",
            "gpusim.describe",
            "ir.analysis.access", "ir.analysis.work", "cpu.price",
            "gpusim.price", "models.compile")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("figure1", run_figure1, check_figure1, FIGURE1_BENCHMARKS,
             active=_PRICING),
    Workload("figure1-j2", run_figure1_j2, check_figure1, FIGURE1_BENCHMARKS,
             active=("harness.merge",)),
    Workload("validate", run_validate, check_validate, VALIDATE_BENCHMARKS,
             active=_PRICING + ("gpusim.execute",)),
    Workload("gates", run_gates, check_gates, GATES_BENCHMARKS,
             active=("benchmarks.workload", "models.compile", "lint", "tv",
                     "dataflow", "translate", "gpusim.trace", "gpusim.cache",
                     "ir.analysis.reuse")),
)}


def record(which: str) -> None:
    """Rewrite one expected file from the full suite."""
    from repro.benchmarks.registry import BENCHMARK_ORDER

    EXPECTED.mkdir(exist_ok=True)
    if which == "figure1":
        from repro.harness import report, runner
        FIGURE1_CSV.write_text(report.render_figure1_csv(
            runner.run_speedups(scale="paper")) + "\n", encoding="utf-8")
    elif which == "gates":
        rows, _ = run_gates(None, 0, BENCHMARK_ORDER)
        GATES_JSON.write_text(json.dumps(gate_hashes(rows), indent=1,
                                         sort_keys=True) + "\n",
                              encoding="utf-8")
    else:
        raise SystemExit(f"usage: workloads.py figure1|gates (got {which!r})")


if __name__ == "__main__":
    record(sys.argv[1] if len(sys.argv) > 1 else "")
