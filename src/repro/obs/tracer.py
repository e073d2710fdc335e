"""Structured tracing: nested spans, attributes, counters, sinks.

The observability layer (``repro.obs``) gives every run one coherent
story: the harness opens a span per benchmark x model x variant, the
model compilers open a span per region (carrying accept/reject
diagnostics), and the simulated runtime opens a span per kernel launch
and per PCIe transfer (carrying the nvprof-style counters of
:mod:`repro.obs.counters`).  Spans nest through a :mod:`contextvars`
variable, so instrumented code never threads a tracer argument around —
it calls the module-level :func:`span` / :func:`set_attr` /
:func:`add_counter` helpers, which are no-ops unless a tracer is
installed with :func:`tracing`.

Two sinks serialize a finished trace:

* **JSONL** (:meth:`Tracer.write_jsonl`): one manifest line followed by
  one line per span, in start order — the machine-readable artifact CI
  uploads;
* **Chrome trace** (:meth:`Tracer.chrome_events`): wall-clock ``X``
  events that render as a flame graph in ``chrome://tracing`` /
  Perfetto.  The simulated-timeline sink lives in
  :func:`repro.gpusim.profiler.chrome_trace_document`, which merges
  these host-side spans with per-device GPU timelines.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import time
from dataclasses import (MISSING, asdict, dataclass, field,
                         fields as dataclass_fields, is_dataclass)
from typing import (Any, ContextManager, Iterator, Mapping, Optional,
                    Sequence)

#: the ambient tracer; ``None`` disables all instrumentation
_TRACER: contextvars.ContextVar[Optional["Tracer"]] = contextvars.ContextVar(
    "repro_obs_tracer", default=None)

#: schema version stamped into every JSONL document
JSONL_SCHEMA = 1


@dataclass
class Span:
    """One timed, attributed operation in the trace tree."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    #: wall-clock start, seconds since the tracer's epoch
    t0_s: float
    #: wall-clock duration; ``None`` while the span is open
    dur_s: Optional[float] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, Any] = field(default_factory=dict)
    #: timeline lane for merged documents: 0 = the main process,
    #: ``worker + 1`` for spans absorbed from sweep worker ``worker``.
    #: Timing metadata like ``t0_s`` — never part of determinism diffs.
    tid: int = 0

    def to_dict(self) -> dict:
        d = {"type": "span", "id": self.span_id,
             "parent": self.parent_id, "name": self.name,
             "cat": self.category, "t0_us": round(self.t0_s * 1e6, 3),
             "dur_us": (round(self.dur_s * 1e6, 3)
                        if self.dur_s is not None else None),
             "attrs": self.attrs, "counters": self.counters}
        if self.tid:
            d["tid"] = self.tid
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Span":
        dur = d.get("dur_us")
        return cls(span_id=d["id"], parent_id=d.get("parent"),
                   name=d["name"], category=d.get("cat", ""),
                   t0_s=d["t0_us"] / 1e6,
                   dur_s=dur / 1e6 if dur is not None else None,
                   attrs=dict(d.get("attrs", {})),
                   counters=dict(d.get("counters", {})),
                   tid=d.get("tid", 0))


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header: what produced this trace."""

    device: str
    scale: str
    config_hash: str
    created_unix: float
    config: Mapping[str, Any] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"type": "manifest", "schema": JSONL_SCHEMA,
                "device": self.device, "scale": self.scale,
                "config_hash": self.config_hash,
                "created_unix": self.created_unix,
                "config": dict(self.config), "extra": dict(self.extra)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunManifest":
        return cls(device=d["device"], scale=d["scale"],
                   config_hash=d["config_hash"],
                   created_unix=d["created_unix"],
                   config=dict(d.get("config", {})),
                   extra=dict(d.get("extra", {})))


def config_hash(*objects: Any) -> str:
    """Deterministic short hash of dataclass/dict configuration objects.

    The baseline gate compares this hash to detect "same numbers but a
    different device/timing configuration" mismatches.

    Fields declared with ``metadata={"hash_default_exempt": True}`` are
    omitted from the hash *while they hold their declared default*.
    That lets a config dataclass grow new knobs without invalidating
    baselines recorded before the knob existed — turning the knob on
    still changes the hash, exactly as a config mismatch should.
    """
    def field_default(f) -> Any:
        if f.default is not MISSING:
            return f.default
        if f.default_factory is not MISSING:  # type: ignore[misc]
            return f.default_factory()  # type: ignore[misc]
        return MISSING

    def plain(obj: Any) -> Any:
        if is_dataclass(obj) and not isinstance(obj, type):
            out: dict[str, Any] = {}
            for f in dataclass_fields(obj):
                value = getattr(obj, f.name)
                if f.metadata.get("hash_default_exempt") \
                        and value == field_default(f):
                    continue
                out[f.name] = plain(value)
            return out
        if isinstance(obj, Mapping):
            return {str(k): plain(v) for k, v in obj.items()}
        return obj

    payload = json.dumps([plain(o) for o in objects], sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def make_manifest(device: Any, timing: Any, scale: str,
                  **extra: Any) -> RunManifest:
    """Build the manifest for a run on ``device`` under ``timing``.

    ``device`` / ``timing`` are the dataclasses from
    :mod:`repro.gpusim.device` and :mod:`repro.gpusim.timing`; accepted
    duck-typed so this module stays dependency-free.
    """
    name = getattr(device, "name", str(device))
    cfg = asdict(timing) if is_dataclass(timing) and timing is not None \
        else dict(timing or {})
    return RunManifest(device=name, scale=scale,
                       config_hash=config_hash(device, timing),
                       created_unix=time.time(), config=cfg, extra=extra)


class Tracer:
    """Collects a tree of :class:`Span` objects for one run."""

    def __init__(self, manifest: Optional[RunManifest] = None) -> None:
        self.manifest = manifest
        self.spans: list[Span] = []
        self._epoch = time.perf_counter()
        self._next_id = 0
        self._stack: list[Span] = []

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, category: str = "",
             **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(span_id=self._next_id, parent_id=parent, name=name,
                  category=category,
                  t0_s=time.perf_counter() - self._epoch,
                  attrs=dict(attrs))
        self._next_id += 1
        self.spans.append(sp)     # start order == document order
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.dur_s = (time.perf_counter() - self._epoch) - sp.t0_s

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def set_attr(self, key: str, value: Any) -> None:
        if self._stack:
            self._stack[-1].attrs[key] = value

    def add_counter(self, key: str, value: Any) -> None:
        if self._stack:
            self._stack[-1].counters[key] = value

    def absorb_spans(self, records: Sequence[Any],
                     parent_id: Optional[int] = None,
                     tid: int = 0, t_shift_s: float = 0.0) -> list[Span]:
        """Append foreign spans (dicts or :class:`Span`) under fresh ids.

        The parallel sweep engine merges per-worker traces with this:
        worker-local span ids are remapped into this tracer's id space,
        parent links inside the payload are preserved, and payload roots
        are re-parented under ``parent_id`` (or stay roots).  ``tid``
        tags the absorbed spans with a timeline lane (one per worker)
        and ``t_shift_s`` offsets their worker-local clocks, so a merged
        Chrome trace lays each worker's units end to end in its own lane
        instead of piling every unit at ``t=0`` of one lane.  Both are
        timing metadata — names, attrs, and counters are untouched.
        """
        mapping: dict[int, int] = {}
        absorbed: list[Span] = []
        for rec in records:
            src = Span.from_dict(rec) if isinstance(rec, Mapping) else rec
            sp = Span(span_id=self._next_id,
                      parent_id=mapping.get(src.parent_id, parent_id),
                      name=src.name, category=src.category,
                      t0_s=src.t0_s + t_shift_s, dur_s=src.dur_s,
                      attrs=dict(src.attrs), counters=dict(src.counters),
                      tid=tid if tid else src.tid)
            self._next_id += 1
            mapping[src.span_id] = sp.span_id
            self.spans.append(sp)
            absorbed.append(sp)
        return absorbed

    # -- queries ---------------------------------------------------------
    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> list[Span]:
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (category is None or s.category == category)]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- sinks -----------------------------------------------------------
    def iter_records(self) -> Iterator[dict]:
        if self.manifest is not None:
            yield self.manifest.to_dict()
        for sp in self.spans:
            yield sp.to_dict()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.iter_records():
                handle.write(json.dumps(record) + "\n")

    def chrome_events(self, pid: int = 0) -> list[dict]:
        """Wall-clock spans as Chrome-trace events.

        Spans absorbed from parallel sweep workers carry a ``tid`` lane
        (``worker + 1``); each lane renders as its own thread track with
        a ``worker N`` name, so merged traces show N concurrent worker
        flames instead of one overlapped pile.
        """
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": "host (wall clock)"}},
            {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
             "args": {"sort_index": -1}},
        ]
        for tid in sorted({sp.tid for sp in self.spans}):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": "main" if tid == 0
                         else f"worker {tid - 1}"}})
            events.append({
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": tid, "args": {"sort_index": tid}})
        for sp in self.spans:
            events.append({
                "name": sp.name, "ph": "X", "cat": sp.category or "span",
                "ts": sp.t0_s * 1e6,
                "dur": (sp.dur_s if sp.dur_s is not None else 0.0) * 1e6,
                "pid": pid, "tid": sp.tid,
                "args": {**sp.attrs, **sp.counters},
            })
        return events


@dataclass
class TraceDocument:
    """A deserialized JSONL trace (round-trip of :meth:`write_jsonl`)."""

    manifest: Optional[RunManifest]
    spans: list[Span]

    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> list[Span]:
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (category is None or s.category == category)]


def read_jsonl(path: str) -> TraceDocument:
    """Parse a JSONL trace back into manifest + spans."""
    manifest: Optional[RunManifest] = None
    spans: list[Span] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "manifest":
                manifest = RunManifest.from_dict(record)
            elif record.get("type") == "span":
                spans.append(Span.from_dict(record))
    return TraceDocument(manifest=manifest, spans=spans)


# ---------------------------------------------------------------------------
# Ambient-tracer helpers (the only API instrumented code touches)
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` (``None``: none) for the enclosed block."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def current_tracer() -> Optional[Tracer]:
    return _TRACER.get()


#: what :func:`span` returns when nothing traces: one shared context
#: manager that binds ``None``
_UNTRACED = contextlib.nullcontext()


def span(name: str, category: str = "",
         **attrs: Any) -> ContextManager[Optional[Span]]:
    """Open a nested span on the ambient tracer (no-op when untraced)."""
    tracer = _TRACER.get()
    if tracer is None:
        return _UNTRACED
    return tracer.span(name, category, **attrs)


def set_attr(key: str, value: Any) -> None:
    """Attach an attribute to the innermost open span, if any."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.set_attr(key, value)


def add_counter(key: str, value: Any) -> None:
    """Attach a counter to the innermost open span, if any."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.add_counter(key, value)


def add_counters(values: Mapping[str, Any]) -> None:
    tracer = _TRACER.get()
    if tracer is not None:
        for key, value in values.items():
            tracer.add_counter(key, value)
