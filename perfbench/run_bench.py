"""The repository benchmark: timed, checked runs of four workloads.

Run from the repository root (or a checkout of it)::

    python3 perfbench/run_bench.py --workload figure1 --seed 0 \\
        --seconds 20 --trace 0

One run repeats the workload, each repeat in a fresh child process
(``child.py``), until ``--seconds`` have passed and at least
``MIN_REPEATS`` repeats are done.  An untraced run reports the
end-to-end metrics as medians over its repeats; a traced run
(``--trace 1``) alternates untraced and traced repeats and reports the
per-layer metrics, with ``trace.overhead`` the ratio of the two median
wall times minus one.  Every repeat's output is checked against the
expected files, and the last line printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Two more modes serve before/after comparisons::

    python3 perfbench/run_bench.py --sweep --runs 10 --seconds 20 \\
        --out before.json          # every workload, round-robin
    python3 perfbench/run_bench.py --compare before.json after.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from layers import LAYERS  # noqa: E402  (script directory is on sys.path)
from workloads import WORKLOADS  # noqa: E402

#: fewest repeats of each kind (untraced, traced) a run reports on
MIN_REPEATS = 3
#: a repeat taking longer than this is a hung child
CHILD_TIMEOUT_S = 120

#: end-to-end metrics and their units, as keyed in a child's result
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class RunFailed(RuntimeError):
    """A child exited badly or broke the protocol."""


def run_child(workload: str, seed: int, *, trace: bool = False,
              spans: Path | None = None,
              setup_only: bool = False) -> dict:
    """One repeat in a fresh process; returns its result plus setup_s."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed removes per-process dict-layout jitter from the
    # timings; outputs are the same under any seed
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("REPRO_JIT", None)          # the default execution engine
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{workload}: repeat exceeded "
                            f"{CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"{workload}: child exited {proc.returncode}")
    if setup_only:
        return {"setup_s": setup_s}
    lines = rest.strip().splitlines()
    if not lines:
        raise RunFailed(f"{workload}: child printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def repeat(workload: str, seed: int, seconds: float,
           trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repeats until ``seconds`` have passed."""
    run_child(workload, seed, setup_only=True)     # untimed warm-up
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}.jsonl"
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            traced.append(run_child(workload, seed, trace=True, spans=spans))
        else:
            plain.append(run_child(workload, seed))
        enough = len(plain) >= MIN_REPEATS and (
            not trace or len(traced) >= MIN_REPEATS)
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(plain: list[dict]) -> dict[str, dict]:
    """Median of each end-to-end metric over the untraced repeats."""
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [r[name] for r in plain]
        q1, median, q3 = quartiles(values)
        print(f"{name}: {median:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n={len(values)})")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.busy_s"] = "s"
        if layer.self_time:
            units[f"{layer.name}.self_s"] = "s"
        if layer.quantiles:
            units[f"{layer.name}.p50_ms"] = "ms"
            units[f"{layer.name}.p90_ms"] = "ms"
    units.update({"models.store.hits": "count",
                  "models.store.misses": "count",
                  "harness.parallel.busy_s": "s",
                  "harness.parallel.wait_s": "s",
                  "harness.parallel.utilization": "fraction",
                  "trace.overhead": "fraction"})
    return units


def per_layer(plain: list[dict],
              traced: list[dict]) -> tuple[dict[str, dict], bool]:
    """Per-layer metrics over the traced repeats, and whether every
    count repeated exactly between them."""
    def median_of(get) -> float:
        return statistics.median(get(r) for r in traced)

    values: dict[str, float] = {}
    steady = True
    for layer, row in traced[0]["layers"].items():
        for key in row:
            if key == "calls":
                counts = {r["layers"][layer]["calls"] for r in traced}
                steady &= len(counts) == 1
                values[f"{layer}.calls"] = row["calls"]
            else:
                values[f"{layer}.{key}"] = median_of(
                    lambda r: r["layers"][layer][key])
    for key in ("hits", "misses"):
        counts = {r["store"][key] for r in traced}
        steady &= len(counts) == 1
        values[f"models.store.{key}"] = traced[0]["store"][key]
    for key in ("busy_s", "wait_s", "utilization"):
        values[f"harness.parallel.{key}"] = median_of(
            lambda r: r["stats"].get(key, 0.0))
    values["trace.overhead"] = (
        median_of(lambda r: r["wall_s"])
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    for missing in sorted({m for r in traced for m in r["missing_sites"]}):
        print(f"warning: trace site not patched: {missing}", file=sys.stderr)

    metrics = {}
    for name, unit in per_layer_units().items():
        print(f"{name}: {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics, steady


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run: the result object the last line prints."""
    plain, traced = repeat(workload, seed, seconds, trace)
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    print(f"{workload}: seed {seed}, {len(plain)} untraced and "
          f"{len(traced)} traced repeats, {failed} of {attempted} "
          f"output units wrong")
    if trace:
        metrics, steady = per_layer(plain, traced)
        if not steady:
            print(f"{workload}: traced repeats disagree on a count",
                  file=sys.stderr)
    else:
        metrics, steady = end_to_end(plain), True
    return {"correct": failed == 0 and steady, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# -- --sweep and --compare ------------------------------------------------

def sweep(runs: int, seconds: float, trace: bool, out: Path) -> None:
    """``runs`` rounds of every workload, round-robin, so a slow period on
    a shared host spreads across all workloads.

    Round ``k`` uses seed ``k``.  An existing ``out`` file is extended,
    continuing the seeds, so sweeps of two checkouts can alternate one
    round at a time and still pair run for run.
    """
    records = (json.loads(out.read_text(encoding="utf-8"))["runs"]
               if out.exists() else [])
    done = sum(r["trace"] == int(trace) for r in records) // len(WORKLOADS)
    for seed in range(done, done + runs):
        for name in WORKLOADS:
            result = run(name, seed, seconds, trace)
            records.append({"workload": name, "seed": seed,
                            "trace": int(trace), "result": result})
            out.write_text(json.dumps({"runs": records}, indent=1) + "\n",
                           encoding="utf-8")


def load_bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(before: list[float], after: list[float], bound: float,
            lower_is_better: bool) -> str:
    """better / same / worse / unresolved for one (workload, metric)."""
    sign = 1.0 if lower_is_better else -1.0

    def spread(values):
        q1, med, q3 = quartiles(values)
        return (q3 - q1) / med

    med_a, med_b = statistics.median(before), statistics.median(after)
    worse_by = sign * (med_b - med_a) / med_a
    if max(spread(before), spread(after)) > bound:
        if max(sign * v for v in after) < min(sign * v for v in before):
            return "better"         # every run of B beats every run of A
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path) -> int:
    """Print one row per (workload, end-to-end metric); 1 on any worse."""
    bounds = load_bounds()

    def by_workload(path):
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        grouped: dict[str, list[dict]] = {}
        for rec in runs:
            if not rec["trace"]:
                grouped.setdefault(rec["workload"], []).append(rec["result"])
        return grouped

    a, b = by_workload(path_a), by_workload(path_b)
    worse = 0
    print(f"{'workload':<12}{'metric':<13}{'A median [q1, q3]':<30}"
          f"{'B median [q1, q3]':<30}{'wins':>6}  verdict")
    for workload in [w for w in a if w in b]:
        for name, spec in bounds.items():
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            lower = spec["better"] == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in zip(va, vb))
            v = verdict(va, vb, spec["bound"], lower)
            worse += v == "worse"
            cells = []
            for values in (va, vb):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spec['unit']}")
            print(f"{workload:<12}{name:<13}{cells[0]:<30}{cells[1]:<30}"
                  f"{wins:>3}/{min(len(va), len(vb)):<2}  {v}")
        fails = [sum(r["failed"] for r in runs[workload]) for runs in (a, b)]
        if any(fails):
            print(f"{workload:<12}failed output units: A {fails[0]}, "
                  f"B {fails[1]}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run, sweep or compare the repository benchmark.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="run every workload round-robin into --out")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"run_bench: not a checkout of the repository (no package "
              f"at {SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.sweep:
        if args.out is None:
            ap.error("--sweep needs --out")
        sweep(args.runs, args.seconds, bool(args.trace), args.out)
        return 0
    if args.workload is None:
        ap.error("one of --workload, --sweep or --compare is required")
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except RunFailed as exc:
        print(f"run_bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
