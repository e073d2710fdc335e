"""Deterministic merge of per-worker trace payloads into one document.

A parallel sweep (:mod:`repro.harness.parallel`) runs every work unit
under its own :class:`~repro.obs.tracer.Tracer` inside a worker process
and ships the spans back as plain dicts.  :func:`absorb_payloads` folds
those payloads into the caller's tracer — one manifest, one id space —
in **work unit order**, never completion order, so a merged JSONL
document is reproducible for any worker count.

Span wall-clock fields (``t0_us``/``dur_us``) are worker-local and thus
timing metadata; everything the determinism suite compares —
span names, attributes and counter sums — is identical for any
``jobs`` value.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.obs.tracer import Tracer


def absorb_payloads(tracer: Tracer,
                    payloads: Sequence[Sequence[Mapping[str, Any]]],
                    parent_id: Optional[int] = None,
                    lanes: Optional[Sequence[int]] = None,
                    ) -> tuple[float, float]:
    """Absorb ordered payloads into a live tracer, laid out per lane.

    ``lanes`` (one worker id per payload, ``-1`` for journal-resumed
    units) assigns each payload a timeline lane: spans get
    ``tid = worker + 1`` and each unit's worker-local clock is shifted
    to start where the lane's previous unit ended, so a Chrome export
    shows per-worker flames laid end to end instead of every unit
    overlapping at ``t=0`` in one lane.

    Returns ``(total_work_s, longest_lane_s)`` — the summed duration of
    absorbed payload roots, and the end time of the busiest lane (a
    lower bound on the sweep's elapsed wall clock).
    :func:`~repro.harness.parallel.run_sweep` uses this to pull shipped
    payloads into the *ambient* tracer, next to parent-side spans
    (``sweep.merge``).
    """
    total = 0.0
    cursor: dict[int, float] = {}   # lane → end of its last unit
    for i, payload in enumerate(payloads):
        lane = lanes[i] if lanes is not None and i < len(lanes) else -1
        tid = lane + 1 if lane >= 0 else 0
        shift = cursor.get(tid, 0.0)
        end = shift
        for sp in tracer.absorb_spans(list(payload), parent_id=parent_id,
                                      tid=tid, t_shift_s=shift):
            if sp.dur_s is None:
                continue
            if sp.parent_id == parent_id:
                total += sp.dur_s
            end = max(end, sp.t0_s + sp.dur_s)
        cursor[tid] = end
    return total, max(cursor.values(), default=0.0)

