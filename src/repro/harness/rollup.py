"""The machine-readable ``all`` rollup (``repro-harness all --json``).

One JSON document for the whole evaluation, split into two sections:

* ``results`` — coverage, code size, speedups, and per-kernel profiles.
  Everything here is a pure function of the deterministic simulator, so
  the section is **byte-identical for any ``--jobs`` value** (CI diffs
  the ``--jobs 4`` rollup against ``--jobs 1``);
* ``meta`` — host/timing metadata that legitimately varies run to run:
  wall-clock, worker count, shard balance, artifact-store hit/miss
  stats, journal reuse.

Serialize with ``render_rollup`` (sorted keys, fixed indentation) so
equal documents are equal byte strings.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Optional, Sequence

from repro.harness.runner import EvaluationResults
from repro.obs.profile import RunProfile

ROLLUP_SCHEMA = 1


def _finite(value: float) -> Optional[float]:
    """JSON has no Infinity/NaN; map them to ``None`` explicitly."""
    return value if math.isfinite(value) else None


def _speedup_entry(record) -> dict:
    return {
        "variants": [
            {"variant": r.variant,
             "speedup": _finite(r.speedup),
             "cpu_time_s": r.cpu_time_s,
             "gpu_time_s": r.gpu_time_s,
             "kernel_time_s": r.kernel_time_s,
             "transfer_time_s": r.transfer_time_s,
             "host_fallback_s": r.host_fallback_s}
            for r in record.variants],
        "primary_speedup": _finite(record.primary.speedup),
        "best_speedup": _finite(record.best.speedup),
        "tuning_variation": _finite(record.tuning_variation),
    }


def build_rollup(results: EvaluationResults,
                 profiles: Sequence[RunProfile],
                 meta: Optional[Mapping[str, Any]] = None) -> dict:
    """Assemble the rollup document from merged sweep results."""
    coverage = {
        model: {"translated": cov.translated, "total": cov.total,
                "percent": cov.percent,
                "per_program": {name: list(pair)
                                for name, pair in cov.per_program.items()},
                "failures": [list(f) for f in cov.failures]}
        for model, cov in results.coverage.items()}
    codesize = {
        model: {"average_percent": rep.average_percent,
                "entries": [{"program": e.program,
                             "baseline_lines": e.baseline_lines,
                             "directive_lines": e.directive_lines,
                             "restructured_lines": e.restructured_lines,
                             "increase_percent": e.increase_percent}
                            for e in rep.entries]}
        for model, rep in results.codesize.items()}
    speedups = {
        bench: {model: _speedup_entry(record)
                for model, record in per_model.items()}
        for bench, per_model in results.speedups.items()}
    return {
        "schema": ROLLUP_SCHEMA,
        "meta": dict(meta or {}),
        "results": {
            "coverage": coverage,
            "codesize": codesize,
            "speedups": speedups,
            "profiles": [p.to_dict() for p in profiles],
        },
    }


def timing_meta(attribution, sweep_stats) -> dict:
    """The ``meta.timing`` block: selfprof per-phase wall-clock.

    Timing legitimately varies run to run, so this lives in ``meta`` —
    never in ``results`` — keeping the jobs-invariance diff clean.
    ``attribution`` is an :class:`repro.obs.selfprof.Attribution`;
    ``sweep_stats`` (the sweep's :class:`~repro.harness.parallel.SweepStats`)
    adds pool utilization.
    """
    return {"wall_s": round(attribution.wall_s, 6),
            "work_s": round(attribution.work_s, 6),
            "coverage": round(attribution.coverage, 6),
            "phases": attribution.phase_seconds(),
            "utilization": round(sweep_stats.utilization(), 4),
            "worker_busy_s": round(sweep_stats.busy_s, 6),
            "worker_wait_s": round(sweep_stats.wait_s, 6)}


def render_rollup(doc: Mapping[str, Any]) -> str:
    """Canonical serialization: sorted keys, two-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
