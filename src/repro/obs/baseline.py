"""Perf-regression baseline: record simulated numbers, gate against them.

Every future performance PR must prove itself against the checked-in
baseline (``benchmarks/baselines/``): ``repro-harness baseline record``
sweeps benchmark x model best-variant runs and writes their simulated
times *and* counters; ``baseline check`` re-runs the same sweep and
diffs.  Because the timing model is fully deterministic, any deviation
is a real model change:

* a **regression** — simulated time slower than baseline beyond the
  tolerance — fails the gate (exit 2 in the CLI);
* a **drift** — counters (transactions, occupancy, transfer bytes)
  moved, in either direction — also fails: counters changing without an
  intentional model change means an analysis regressed;
* an **improvement** — faster beyond tolerance — is reported but does
  not fail; re-record the baseline to lock it in;
* **missing/added** entries fail: the suite and its baseline must be
  updated together.

The baseline's manifest pins the device, scale, and a configuration
hash; checking against a different configuration fails immediately
rather than producing nonsense diffs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.timing import TimingConfig
from repro.obs.profile import RunProfile
from repro.obs.tracer import config_hash

BASELINE_SCHEMA = 1
DEFAULT_TOLERANCE = 0.02
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "baselines",
                                     "figure1-paper.json")

#: per-kernel counters the gate compares (drift in either direction fails)
KERNEL_COUNTER_FIELDS = ("gld_transactions", "gst_transactions",
                         "achieved_occupancy")


def _entry_from_profile(p: RunProfile) -> dict:
    return {
        "variant": p.variant,
        "speedup": p.speedup,
        "kernel_time_s": p.kernel_time_s,
        "transfer_time_s": p.transfer_time_s,
        "host_fallback_s": p.host_fallback_s,
        "bytes_moved": p.bytes_htod + p.bytes_dtoh,
        "kernels": {
            k.kernel: {
                "time_s": k.time_s,
                "launches": k.launches,
                "occupancy_limiter": k.counters.occupancy_limiter,
                **{f: getattr(k.counters, f) for f in KERNEL_COUNTER_FIELDS},
            } for k in p.kernels
        },
    }


def collect_entries(benchmarks: Sequence[str], models: Sequence[str],
                    scale: str, device: DeviceSpec = TESLA_M2090,
                    timing: Optional[TimingConfig] = None,
                    jobs: int = 1) -> dict:
    """Run the baseline sweep (best variants, timing-only).

    The entries are :func:`~repro.harness.runner.run_evaluation`'s run
    profiles: ``jobs>1`` shards the pairs across worker processes, and
    they merge back in manifest order, so the verdict is jobs-independent.
    """
    from repro.harness.runner import run_evaluation

    _, profiles, _ = run_evaluation(
        profiles=True, scale=scale, jobs=jobs, benchmarks=benchmarks,
        models=models, device=device, timing=timing)
    entries: dict[str, dict] = {bench: {} for bench in benchmarks}
    pairs = [(bench, model) for bench in benchmarks for model in models]
    for (bench, model), profile in zip(pairs, profiles):
        entries[bench][model] = _entry_from_profile(profile)
    return entries


def record_baseline(path: str,
                    benchmarks: Optional[Sequence[str]] = None,
                    models: Optional[Sequence[str]] = None,
                    scale: str = "paper",
                    device: DeviceSpec = TESLA_M2090,
                    timing: Optional[TimingConfig] = None,
                    tolerance: float = DEFAULT_TOLERANCE,
                    jobs: int = 1) -> dict:
    """Sweep and write the baseline document to ``path``."""
    from repro.benchmarks import BENCHMARK_ORDER
    from repro.harness.runner import FIGURE1_MODELS

    bench_list = list(benchmarks) if benchmarks is not None \
        else list(BENCHMARK_ORDER)
    model_list = list(models) if models is not None \
        else list(FIGURE1_MODELS)
    doc = {
        "schema": BASELINE_SCHEMA,
        "manifest": {
            "device": device.name,
            "scale": scale,
            "config_hash": config_hash(device, timing or TimingConfig()),
            "created_unix": time.time(),
            "benchmarks": bench_list,
            "models": model_list,
        },
        "tolerance": tolerance,
        "entries": collect_entries(bench_list, model_list, scale,
                                   device=device, timing=timing, jobs=jobs),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return doc


@dataclass(frozen=True)
class BaselineIssue:
    """One diff between the baseline and the current tree."""

    kind: str       # "regression" | "drift" | "missing" | "added" | "config"
    location: str   # "BENCH/model[/kernel]" or "manifest"
    message: str
    fails: bool

    def render(self) -> str:
        flag = "FAIL" if self.fails else "note"
        return f"  [{flag}] {self.kind:<10} {self.location}: {self.message}"


@dataclass
class BaselineDiff:
    """Outcome of one ``baseline check``."""

    tolerance: float
    compared: int = 0
    issues: list[BaselineIssue] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(i.fails for i in self.issues)

    def failures(self) -> list[BaselineIssue]:
        return [i for i in self.issues if i.fails]

    def render(self) -> str:
        lines = [f"baseline check: {self.compared} entries compared, "
                 f"tolerance {self.tolerance * 100:.1f}%"]
        for issue in self.issues:
            lines.append(issue.render())
        if not self.issues:
            lines.append("  all entries within tolerance")
        lines.append("RESULT: " + ("FAIL — simulated performance or "
                                   "counters deviate from the baseline"
                                   if self.failed else "PASS"))
        return "\n".join(lines)


def _rel_delta(old: float, new: float) -> float:
    if old == 0.0:
        return 0.0 if new == 0.0 else float("inf")
    return (new - old) / abs(old)


def _compare_times(diff: BaselineDiff, loc: str, name: str,
                   old: float, new: float, tol: float) -> None:
    delta = _rel_delta(old, new)
    if delta > tol:
        diff.issues.append(BaselineIssue(
            "regression", loc,
            f"{name} {old * 1e3:.4f} ms -> {new * 1e3:.4f} ms "
            f"(+{delta * 100:.1f}%)", fails=True))
    elif delta < -tol:
        diff.issues.append(BaselineIssue(
            "improvement", loc,
            f"{name} {old * 1e3:.4f} ms -> {new * 1e3:.4f} ms "
            f"({delta * 100:.1f}%) — re-record to lock in", fails=False))


def _compare_counter(diff: BaselineDiff, loc: str, name: str,
                     old: float, new: float, tol: float) -> None:
    delta = _rel_delta(old, new)
    if abs(delta) > tol:
        diff.issues.append(BaselineIssue(
            "drift", loc, f"{name} {old:.6g} -> {new:.6g} "
            f"({delta * +100:+.1f}%)", fails=True))


def check_baseline(path: str, tolerance: Optional[float] = None,
                   device: DeviceSpec = TESLA_M2090,
                   timing: Optional[TimingConfig] = None,
                   jobs: int = 1) -> BaselineDiff:
    """Re-run the baseline's sweep and diff against the stored numbers."""
    with open(path) as handle:
        doc = json.load(handle)
    manifest = doc["manifest"]
    tol = tolerance if tolerance is not None else doc.get(
        "tolerance", DEFAULT_TOLERANCE)
    diff = BaselineDiff(tolerance=tol)

    current_hash = config_hash(device, timing or TimingConfig())
    if manifest["config_hash"] != current_hash:
        diff.issues.append(BaselineIssue(
            "config", "manifest",
            f"baseline was recorded on {manifest['device']!r} with config "
            f"{manifest['config_hash']}; current configuration hashes to "
            f"{current_hash} — re-record instead of comparing", fails=True))
        return diff

    fresh = collect_entries(manifest["benchmarks"], manifest["models"],
                            manifest["scale"], device=device, timing=timing,
                            jobs=jobs)
    for bench, per_model in doc["entries"].items():
        for model, old in per_model.items():
            loc = f"{bench}/{model}"
            new = fresh.get(bench, {}).get(model)
            if new is None:
                diff.issues.append(BaselineIssue(
                    "missing", loc, "entry no longer produced", fails=True))
                continue
            diff.compared += 1
            for tname in ("kernel_time_s", "transfer_time_s",
                          "host_fallback_s"):
                _compare_times(diff, loc, tname, old[tname], new[tname], tol)
            _compare_counter(diff, loc, "bytes_moved",
                             old["bytes_moved"], new["bytes_moved"], tol)
            old_kernels, new_kernels = old["kernels"], new["kernels"]
            for kname in sorted(set(old_kernels) | set(new_kernels)):
                kloc = f"{loc}/{kname}"
                if kname not in new_kernels:
                    diff.issues.append(BaselineIssue(
                        "missing", kloc, "kernel no longer launched",
                        fails=True))
                    continue
                if kname not in old_kernels:
                    diff.issues.append(BaselineIssue(
                        "added", kloc, "kernel not in baseline — re-record",
                        fails=True))
                    continue
                ok, nk = old_kernels[kname], new_kernels[kname]
                _compare_times(diff, kloc, "time_s",
                               ok["time_s"], nk["time_s"], tol)
                for cname in KERNEL_COUNTER_FIELDS:
                    _compare_counter(diff, kloc, cname,
                                     ok[cname], nk[cname], tol)
                if ok["occupancy_limiter"] != nk["occupancy_limiter"]:
                    diff.issues.append(BaselineIssue(
                        "drift", kloc,
                        f"occupancy limiter {ok['occupancy_limiter']!r} -> "
                        f"{nk['occupancy_limiter']!r}", fails=True))
    for bench, per_model in fresh.items():
        for model in per_model:
            if model not in doc["entries"].get(bench, {}):
                diff.issues.append(BaselineIssue(
                    "added", f"{bench}/{model}",
                    "entry not in baseline — re-record", fails=True))
    return diff
