"""Execution profiler: the simulated timeline of a run.

Records every kernel launch and host<->device transfer with its simulated
cost, exactly like a ``cudaprof`` trace.  The metrics layer reads these
records to compute the speedups of Figure 1 and to explain them (time in
kernels vs. time in PCIe transfers is the data-region story); the
observability layer (:mod:`repro.obs`) reads the per-launch simulated
counters for bottleneck attribution.

Chrome-trace export: each profiler owns one *device* (``device`` index,
``device_name``), rendered as one process with a kernel row and a PCIe
row.  :func:`chrome_trace_document` merges any number of profilers (the
multi-GPU timelines of :mod:`repro.gpusim.multigpu`) into a single
``chrome://tracing`` document with ``displayTimeUnit`` and per-device
``process_name`` / ``thread_name`` metadata, so every GPU renders on its
own rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.gpusim.timing import KernelTiming

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.counters import KernelCounters

#: chrome-trace thread ids within one device's process
TID_KERNEL = 0
TID_PCIE = 1


@dataclass(frozen=True)
class LaunchRecord:
    """One kernel launch on the simulated timeline."""

    kernel: str
    timing: KernelTiming
    start_s: float
    #: where the simulated hardware counters come from (anything with a
    #: ``counters`` attribute, attached by the runtime): they are
    #: derived only when :attr:`counters` is read
    source: Any = field(default=None, repr=False, compare=False)

    @property
    def counters(self) -> Optional["KernelCounters"]:
        return None if self.source is None else self.source.counters

    @property
    def time_s(self) -> float:
        return self.timing.time_s


@dataclass(frozen=True)
class TransferRecord:
    """One host<->device copy."""

    array: str
    nbytes: int
    direction: str  # "htod" | "dtoh"
    time_s: float
    start_s: float


class Profiler:
    """Accumulates the simulated timeline of one device."""

    def __init__(self, device: int = 0,
                 device_name: Optional[str] = None) -> None:
        self.device = device
        self.device_name = device_name or f"GPU {device}"
        self.transfers: list[TransferRecord] = []
        # launches are kept as columns, in launch order: the kernel
        # name, the simulated time, the start, and the record's source
        # of timing and counters (anything with ``timing`` and
        # ``counters`` attributes, read only when the records are)
        self._kernels: list[str] = []
        self._times: list[float] = []
        self._starts: list[float] = []
        self._sources: list = []
        self._records: list[LaunchRecord] = []

    def record_launch(self, record: LaunchRecord) -> None:
        self.add_launches([record.kernel], [record.time_s], [record.start_s],
                          [record])

    def add_launches(self, kernels: Sequence[str], times: Sequence[float],
                     starts: Sequence[float], sources: Sequence) -> None:
        """Append launches, one per element of the four columns, in
        launch order; each ``sources[i].timing`` takes ``times[i]``."""
        self._kernels.extend(kernels)
        self._times.extend(times)
        self._starts.extend(starts)
        self._sources.extend(sources)

    def record_transfer(self, record: TransferRecord) -> None:
        self.transfers.append(record)

    @property
    def launches(self) -> list[LaunchRecord]:
        """The launch records, each built from the columns when first
        read."""
        records = self._records
        for i in range(len(records), len(self._kernels)):
            source = self._sources[i]
            records.append(
                source if type(source) is LaunchRecord
                else LaunchRecord(self._kernels[i], source.timing,
                                  self._starts[i], source))
        return records

    # -- aggregation ----------------------------------------------------
    @property
    def kernel_time_s(self) -> float:
        return sum(self._times)

    @property
    def transfer_time_s(self) -> float:
        return sum(r.time_s for r in self.transfers)

    @property
    def total_time_s(self) -> float:
        return self.kernel_time_s + self.transfer_time_s

    @property
    def bytes_htod(self) -> int:
        return sum(r.nbytes for r in self.transfers if r.direction == "htod")

    @property
    def bytes_dtoh(self) -> int:
        return sum(r.nbytes for r in self.transfers if r.direction == "dtoh")

    def per_kernel_time(self) -> dict[str, float]:
        times: dict[str, float] = {}
        for kernel, time_s in zip(self._kernels, self._times):
            times[kernel] = times.get(kernel, 0.0) + time_s
        return times

    def reset(self) -> None:
        for column in (self._kernels, self._times, self._starts,
                       self._sources, self._records, self.transfers):
            column.clear()

    def to_chrome_trace(self) -> list[dict]:
        """The timeline as Chrome-trace duration events.

        Kernels go on this device's kernel row, transfers on its PCIe
        row; durations are the simulated times in microseconds.  The
        row-naming metadata lives in :meth:`metadata_events` /
        :func:`chrome_trace_document`.
        """
        events: list[dict] = []
        for r in self.launches:
            args = {"bound": r.timing.bound,
                    "occupancy": round(r.timing.occupancy, 3),
                    "dram_mb": round(r.timing.dram_bytes / 1e6, 3)}
            if r.counters is not None:
                args.update(r.counters.to_dict())
            events.append({
                "name": r.kernel, "ph": "X", "cat": "kernel",
                "ts": r.start_s * 1e6, "dur": r.time_s * 1e6,
                "pid": self.device, "tid": TID_KERNEL,
                "args": args,
            })
        for t in self.transfers:
            events.append({
                "name": f"{t.direction} {t.array}", "ph": "X",
                "cat": "transfer", "ts": t.start_s * 1e6,
                "dur": t.time_s * 1e6, "pid": self.device, "tid": TID_PCIE,
                "args": {"bytes": t.nbytes},
            })
        return events

    def metadata_events(self) -> list[dict]:
        """Process/thread naming so each device gets its own rows."""
        pid = self.device
        return [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"{self.device_name} (simulated)"}},
            {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
             "args": {"sort_index": pid}},
            {"name": "thread_name", "ph": "M", "pid": pid,
             "tid": TID_KERNEL, "args": {"name": "GPU"}},
            {"name": "thread_name", "ph": "M", "pid": pid,
             "tid": TID_PCIE, "args": {"name": "PCIe"}},
        ]

    def dump_chrome_trace(self, path: str) -> None:
        """Write this device's timeline as a Chrome-trace JSON file."""
        with open(path, "w") as handle:
            json.dump(chrome_trace_document([self]), handle)

    def report(self) -> str:
        """Human-readable trace summary."""
        lines = [
            f"kernels: {len(self._kernels)} launches, "
            f"{self.kernel_time_s * 1e3:.3f} ms",
            f"transfers: {len(self.transfers)} copies, "
            f"{self.transfer_time_s * 1e3:.3f} ms "
            f"({self.bytes_htod / 1e6:.1f} MB htod, "
            f"{self.bytes_dtoh / 1e6:.1f} MB dtoh)",
        ]
        for name, t in sorted(self.per_kernel_time().items(),
                              key=lambda kv: -kv[1]):
            lines.append(f"  {name}: {t * 1e3:.3f} ms")
        return "\n".join(lines)


def chrome_trace_document(profilers: Sequence[Profiler],
                          extra_events: Sequence[dict] = ()) -> dict:
    """A complete ``chrome://tracing`` document for several devices.

    Each profiler becomes one process (its ``device`` index is the pid)
    with named GPU/PCIe rows; ``extra_events`` lets callers append
    host-side span events (see :meth:`repro.obs.tracer.Tracer
    .chrome_events`) — those use a wall clock while device rows use the
    simulated clock, so they are emitted as separate processes.
    """
    events: list[dict] = []
    for prof in profilers:
        events.extend(prof.metadata_events())
    for prof in profilers:
        events.extend(prof.to_chrome_trace())
    events.extend(extra_events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome_trace(path: str, profilers: Sequence[Profiler],
                      extra_events: Sequence[dict] = ()) -> None:
    """Write a merged multi-device Chrome-trace file."""
    with open(path, "w") as handle:
        json.dump(chrome_trace_document(profilers, extra_events), handle)
