"""Dynamic memory tracing: auditing the static coalescing model.

The timing model prices accesses from a *static* classification
(:mod:`repro.ir.analysis.access`).  This module checks that
classification against ground truth: it executes a kernel functionally
while recording every lane's actual addresses, groups lanes into warps,
counts the real 128-byte transactions each warp access generates, and
compares them with the static prediction.

This is how we keep the analytical model honest — see
``tests/test_trace_audit.py``, which audits the model on the benchmark
kernels themselves, and ``examples/coalescing_audit.py``.

Caveat: the audit is exact for *regular* kernels.  For data-dependent
inner loops (CSR row traversals), the executor walks each lane's own
trip count, but :class:`TracingExecutor` deliberately keeps the older
*union* walk — global loop values ``min(lo)..max(hi)`` with a per-lane
validity mask — so that traces, cache replays and locality records
stay stable.  Under that walk any single recorded event carries only
the lanes whose loop value happens to coincide — far fewer than a real
warp issues together.  Dynamic transaction
counts for such kernels are therefore a *lower bound*; the static model
intentionally charges the locality-blended expectation instead.  Every
trace/audit result carries that caveat machine-readably as ``exact:
bool`` — ``False`` as soon as any thread-dependent loop executed — so
downstream consumers (the cache replay in :mod:`repro.gpusim.cache`,
the CACHE lint rules) report such kernels as approximate/lower-bound
instead of silently exact.

Recording is cheap per access: :class:`TracingExecutor` turns the
subscripts the executor already bounded into flat indices by stride
arithmetic, and every unmasked event of a launch shares one read-only
``arange(T)`` of lane ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from repro.gpusim.coalescing import transactions_per_warp
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.executor import KernelExecutor
from repro.gpusim.kernel import Kernel
from repro.ir.expr import ArrayRef
from repro.ir.program import Function


@dataclass
class AccessEvent:
    """One executed array access across all lanes."""

    array: str
    is_store: bool
    #: flat element indices, one per active lane
    lanes: np.ndarray
    #: lane ids (flat thread ids) the indices belong to
    lane_ids: np.ndarray


class MemoryTrace:
    """Collects access events during one kernel execution."""

    def __init__(self) -> None:
        self.events: list[AccessEvent] = []
        #: ``False`` once any event was recorded by an executor that hit
        #: a data-dependent (thread-dependent-bounds) loop: per-warp
        #: groupings in this trace are then lower bounds, not exact
        self.exact = True

    def record(self, array: str, is_store: bool, lanes: np.ndarray,
               lane_ids: np.ndarray) -> None:
        self.events.append(AccessEvent(array, is_store,
                                       np.asarray(lanes, dtype=np.int64),
                                       np.asarray(lane_ids,
                                                  dtype=np.int64)))

    # -- analysis -----------------------------------------------------------
    def transactions(self, array: str, elem_bytes: int,
                     spec: DeviceSpec = TESLA_M2090,
                     stores: Optional[bool] = None) -> float:
        """Average real transactions per warp access for ``array``.

        One warp access costs as many transactions as the number of
        distinct 128-byte segments its lanes touch; the average is over
        every (event, warp) pair.  Counted with one grouped
        ``np.unique`` per event — distinct ``(warp, segment)`` pairs
        over distinct warps — instead of a Python loop over warps,
        which is what makes auditing paper-scale kernels affordable
        (see ``tests/test_trace_vectorized.py`` for the equivalence).
        """
        seg = spec.transaction_bytes
        w = spec.warp_size
        total_txns = 0
        total_warps = 0
        for ev in self.events:
            if ev.array != array:
                continue
            if stores is not None and ev.is_store != stores:
                continue
            if ev.lanes.size == 0:
                continue
            warps = ev.lane_ids // w
            segments = (ev.lanes * elem_bytes) // seg
            # distinct (warp, segment) pairs via a combined key: segment
            # ids are dense enough that warp * (max_seg + 1) + segment
            # cannot collide across warps
            span = int(segments.max()) - int(segments.min()) + 1
            key = (warps - warps.min()) * span + (segments - segments.min())
            total_txns += int(np.unique(key).size)
            total_warps += int(np.unique(warps).size)
        if total_warps == 0:
            return 0.0
        return total_txns / total_warps

    def arrays(self) -> set[str]:
        return {ev.array for ev in self.events}


class TracingExecutor(KernelExecutor):
    """A :class:`KernelExecutor` that records global-memory addresses."""

    def __init__(self, kernel: Kernel,
                 arrays: MutableMapping[str, np.ndarray],
                 scalars: Mapping[str, object],
                 functions: Optional[Mapping[str, Function]] = None,
                 trace: Optional[MemoryTrace] = None) -> None:
        super().__init__(kernel, arrays, scalars, functions)
        self.trace = trace if trace is not None else MemoryTrace()
        #: per access being evaluated, where its subscripts' events start
        self._starts: list[int] = []
        self._lane_ids: Optional[np.ndarray] = None

    def _divergent_steps(self, lo_v: np.ndarray, hi_v: np.ndarray,
                         step: int) -> Iterator[tuple[int, np.ndarray]]:
        """The union walk: one step per integer ``k`` in
        ``min(lo)..max(hi)``, active on the lanes whose own
        ``range(lo, hi, step)`` contains ``k``.  It visits the same
        per-lane iterations in the same per-lane order as the
        executor's walk, grouped into the events the locality records
        were built on."""
        for k in range(int(lo_v.min(initial=0)), int(hi_v.max(initial=0))):
            active = (k >= lo_v) & (k < hi_v)
            if step > 1:
                active &= (k - lo_v) % step == 0
            base = self.mask
            combined = active if base is None else (active & base)
            if combined.any():
                yield k, active

    # -- recording helpers -------------------------------------------------
    def _lanes(self) -> np.ndarray:
        """``arange(T)``, built once per launch and shared read-only by
        every unmasked event."""
        lanes = self._lane_ids
        if lanes is None or lanes.size != self.T:
            lanes = self._lane_ids = np.arange(self.T, dtype=np.int64)
            lanes.flags.writeable = False
        return lanes

    def _flat_indices(self, shape: tuple[int, ...], idx: tuple,
                      lanes: Optional[np.ndarray]) -> np.ndarray:
        """Flat element index of each of ``lanes`` (every lane when
        ``None``): row-major stride arithmetic on the subscripts
        :meth:`_indices` already bounded, gathered to the lanes first."""
        offset, flat, stride = 0, None, 1
        for i, dim in zip(reversed(idx), reversed(shape)):
            if isinstance(i, np.ndarray):
                term = (i if lanes is None else i[lanes]).astype(
                    np.int64, copy=False)
                if stride != 1:
                    term = term * stride
                flat = term if flat is None else flat + term
            else:
                offset += i * stride
            stride *= dim
        if flat is None:
            flat = np.empty(self.T if lanes is None else lanes.size,
                            dtype=np.int64)
            flat.fill(offset)
        elif offset:
            flat = flat + offset
        elif any(flat is i for i in idx):
            flat = flat.copy()   # never alias the executor's own values
        return flat

    def _load(self, ref: ArrayRef):
        self._starts.append(len(self.trace.events))
        try:
            return super()._load(ref)
        finally:
            self._starts.pop()

    def _store(self, ref: ArrayRef, value, op) -> None:
        self._starts.append(len(self.trace.events))
        try:
            super()._store(ref, value, op)
        finally:
            self._starts.pop()

    def _global_access(self, ref: ArrayRef, arr: np.ndarray, idx: tuple,
                       is_store: bool) -> None:
        """Record one access from the index tuple the executor evaluated.

        The events its subscripts recorded (indirect loads such as the
        ``col[j]`` of ``x[col[j]]``) are recorded a second time: before a
        load, after a store.  The traces the locality records were built
        on evaluated each traced subscript twice, so replaying those
        events keeps every record stable without indexing again.
        """
        events = self.trace.events
        nested = events[self._starts[-1]:]
        lanes = self._lanes()
        active = None if self.mask is None else lanes[self.mask]
        flat = self._flat_indices(arr.shape, idx, active)
        if not is_store:
            events.extend(nested)
        self.trace.record(ref.name, is_store, flat,
                          lanes if active is None else active)
        if is_store:
            events.extend(nested)
        if self.data_dependent:
            self.trace.exact = False


@dataclass
class AuditRow:
    """Static vs dynamic transactions for one array."""

    array: str
    static_txns: float
    dynamic_txns: float
    #: ``False`` when the kernel ran data-dependent loops — the dynamic
    #: count is then a lower bound, not ground truth
    exact: bool = True

    @property
    def ratio(self) -> float:
        if self.dynamic_txns == 0:
            return float("inf") if self.static_txns else 1.0
        return self.static_txns / self.dynamic_txns


def audit_kernel(kernel: Kernel, arrays: Mapping[str, np.ndarray],
                 scalars: Mapping[str, object],
                 functions: Optional[Mapping[str, Function]] = None,
                 spec: DeviceSpec = TESLA_M2090) -> dict[str, AuditRow]:
    """Compare static access classification with traced reality.

    Returns one row per global array: the *static* transactions-per-warp
    the timing model charges (averaged over the kernel's references,
    weighted by their counts) and the *dynamic* value measured from the
    executed addresses.
    """
    data = {k: np.array(v, copy=True) for k, v in arrays.items()}
    executor = TracingExecutor(kernel, data, dict(scalars), functions)
    executor.run()
    trace = executor.trace

    bindings = {k: float(v) for k, v in scalars.items()
                if isinstance(v, (int, float))}
    extents = {name: list(a.shape) for name, a in arrays.items()}
    desc = kernel.describe(bindings, extents)
    elem = kernel.elem_bytes()

    static: dict[str, list[tuple[float, float]]] = {}
    for ref, count in desc.access.refs:
        txns = transactions_per_warp(ref, elem, spec)
        static.setdefault(ref.array, []).append((txns, count))

    rows: dict[str, AuditRow] = {}
    for array in sorted(trace.arrays()):
        dyn = trace.transactions(array, elem, spec)
        weighted = static.get(array, [])
        if weighted:
            total = sum(c for _, c in weighted)
            stat = sum(t * c for t, c in weighted) / total
        else:
            stat = 0.0
        rows[array] = AuditRow(array=array, static_txns=stat,
                               dynamic_txns=dyn, exact=trace.exact)
    return rows


def render_audit(rows: Mapping[str, AuditRow]) -> str:
    lines = [f"{'array':<12}{'static txn/warp':>16}{'traced':>10}"
             f"{'static/traced':>15}",
             "-" * 53]
    for row in rows.values():
        lines.append(f"{row.array:<12}{row.static_txns:>16.2f}"
                     f"{row.dynamic_txns:>10.2f}{row.ratio:>15.2f}")
    if any(not row.exact for row in rows.values()):
        lines.append("(data-dependent kernel: traced counts are lower "
                     "bounds, not exact)")
    return "\n".join(lines)
