"""Metrics derived from the span tree: labeled counters, gauges, histograms.

Where :mod:`repro.obs.tracer` answers "what happened, in what order,
inside this run", this module answers "how much, how often, how slow".
Instrumented code records nothing here: every metric family is a view
of one span category (:data:`SPAN_FAMILIES`), built once from a
finished trace by :func:`metrics_from_spans`.  The sweep's
:class:`~repro.harness.parallel.SweepStats` is the one non-span input
(worker count and artifact-store hits/misses).

Three metric kinds:

* **counter** — a total: one per matching span;
* **gauge** — a level: the sweep's worker count;
* **histogram** — every observation (a span's duration) is kept, so
  ``p50/p90/p99/max`` are **exact** (nearest-rank over the sorted
  sample, no bucket boundary error).  The sample sets here are bounded
  (one entry per pass run / kernel launch / unit), so exact beats
  approximate sketches at no meaningful cost.

Families are declared ``deterministic=True`` when their values are a
pure function of the work graph — counts of pass runs, units,
interpreted launches — and therefore must be **byte-identical for any
``--jobs`` value** (the parallel engine partitions the work, and every
unit's spans reach the merged trace).  Wall-clock families (every
``*_seconds`` histogram) and the worker gauge are non-deterministic
and excluded from the deterministic export that CI diffs across worker
counts.  Export as canonical JSON (:meth:`MetricsRegistry.to_dict` +
:func:`render_metrics_json`) or OpenMetrics / Prometheus text
exposition (:meth:`MetricsRegistry.to_openmetrics`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.obs.tracer import Span

METRICS_SCHEMA = 1

#: the exact quantiles every histogram reports
QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)

LabelsTuple = tuple[tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, Any]]) -> LabelsTuple:
    """Canonical, hashable, sorted label set."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def exact_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile over an already-sorted sample.

    The reference definition the property tests compare against:
    the smallest value such that at least ``q * n`` observations are
    less than or equal to it (``q = 0`` gives the minimum).
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of an empty sample")
    rank = math.ceil(q * n)
    return float(sorted_values[max(0, min(n - 1, rank - 1))])


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------

@dataclass
class Counter:
    """A total."""

    value: float = 0.0


@dataclass
class Gauge:
    """A level."""

    value: float = 0.0


@dataclass
class Histogram:
    """Every observation, kept — quantiles are exact, not sketched."""

    values: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    def quantiles(self) -> dict[str, float]:
        """``{"p50": .., "p90": .., "p99": .., "max": ..}`` (exact)."""
        if not self.values:
            return {}
        ordered = sorted(self.values)
        out = {name: exact_quantile(ordered, q) for name, q in QUANTILES}
        out["min"] = ordered[0]
        out["max"] = ordered[-1]
        return out


Series = Union[Counter, Gauge, Histogram]

_CLASS_OF = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


@dataclass(frozen=True)
class Family:
    """Declaration of one metric family (name → kind + metadata)."""

    name: str
    kind: str
    help: str = ""
    #: values are a pure function of the work graph — included in the
    #: byte-identity export CI diffs across ``--jobs`` values
    deterministic: bool = False


class MetricsRegistry:
    """Holds every (family, label set) series of one export."""

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}
        self._series: dict[tuple[str, LabelsTuple], Series] = {}

    def series(self, family: Family,
               labels: Optional[Mapping[str, Any]] = None) -> Series:
        """``family``'s series under ``labels``, created empty (and the
        family declared) on first use."""
        known = self._families.setdefault(family.name, family)
        if known.kind != family.kind:
            raise ValueError(f"metric {family.name!r} already declared as "
                             f"{known.kind}, not {family.kind}")
        key = (family.name, _labels_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _CLASS_OF[family.kind]()
        return series

    # -- queries ---------------------------------------------------------
    def get(self, name: str,
            labels: Optional[Mapping[str, Any]] = None) -> Optional[Series]:
        return self._series.get((name, _labels_key(labels)))

    def families(self) -> tuple[Family, ...]:
        return tuple(self._families[n] for n in sorted(self._families))

    def series_of(self, name: str) -> list[tuple[LabelsTuple, Series]]:
        return sorted(((labels, s) for (n, labels), s
                       in self._series.items() if n == name),
                      key=lambda item: item[0])

    # -- exports ---------------------------------------------------------
    def to_dict(self, deterministic_only: bool = False) -> dict:
        """Canonical nested export, sorted by family then label set.

        With ``deterministic_only=True`` only families declared
        deterministic appear — rendered with
        :func:`render_metrics_json`, the document is byte-identical for
        any ``--jobs`` value (the CI gate diffs exactly this).
        """
        out: dict[str, Any] = {"schema": METRICS_SCHEMA, "metrics": {}}
        for fam in self.families():
            if deterministic_only and not fam.deterministic:
                continue
            rows = []
            for labels, series in self.series_of(fam.name):
                row: dict[str, Any] = {"labels": dict(labels)}
                if isinstance(series, Histogram):
                    row["count"] = series.count
                    row["sum"] = round(series.sum, 9)
                    row.update({k: round(v, 9)
                                for k, v in series.quantiles().items()})
                else:
                    value = series.value
                    row["value"] = int(value) if float(value).is_integer() \
                        else value
                rows.append(row)
            out["metrics"][fam.name] = {
                "type": fam.kind, "help": fam.help,
                "deterministic": fam.deterministic, "series": rows}
        return out

    def to_openmetrics(self) -> str:
        """Prometheus/OpenMetrics text exposition.

        Counters get the ``_total`` suffix, histograms are exposed as
        summaries with exact ``quantile`` labels plus ``_sum`` and
        ``_count``, gauges are plain samples.  Ends with ``# EOF`` per
        the OpenMetrics spec.
        """
        def fmt_labels(labels: LabelsTuple,
                       extra: Optional[tuple[str, str]] = None) -> str:
            pairs = list(labels) + ([extra] if extra else [])
            if not pairs:
                return ""
            body = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in pairs)
            return "{" + body + "}"

        lines: list[str] = []
        for fam in self.families():
            om_type = {"counter": "counter", "gauge": "gauge",
                       "histogram": "summary"}[fam.kind]
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {om_type}")
            for labels, series in self.series_of(fam.name):
                if isinstance(series, Counter):
                    lines.append(f"{fam.name}_total{fmt_labels(labels)} "
                                 f"{_fmt_value(series.value)}")
                elif isinstance(series, Gauge):
                    lines.append(f"{fam.name}{fmt_labels(labels)} "
                                 f"{_fmt_value(series.value)}")
                else:
                    quantiles = series.quantiles()
                    for qname, q in QUANTILES:
                        if qname in quantiles:
                            lines.append(
                                f"{fam.name}{fmt_labels(labels, ('quantile', f'{q:g}'))} "
                                f"{_fmt_value(quantiles[qname])}")
                    lines.append(f"{fam.name}_sum{fmt_labels(labels)} "
                                 f"{_fmt_value(series.sum)}")
                    lines.append(f"{fam.name}_count{fmt_labels(labels)} "
                                 f"{series.count}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


def _fmt_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_metrics_json(doc: Mapping[str, Any]) -> str:
    """Canonical serialization — equal documents are equal bytes."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# The family table: what each span category yields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanFamilies:
    """One span category's two families: a run counter (one per span)
    and a wall-clock histogram (the span's duration), both labeled by
    ``labels(span)``."""

    category: str
    labels: Callable[[Span], Mapping[str, Any]]
    runs: Family
    seconds: Family


def _attr(key: str) -> Callable[[Span], Mapping[str, Any]]:
    return lambda span: {key: span.attrs[key]}


def _pass_labels(span: Span) -> Mapping[str, Any]:
    return {"model": span.attrs["model"], "stage": span.attrs["stage"],
            "pass": span.name.removeprefix("pass.")}


SPAN_FAMILIES: tuple[SpanFamilies, ...] = (
    SpanFamilies(
        "pipeline", _pass_labels,
        Family("pipeline_pass_runs", "counter",
               "pipeline pass executions", deterministic=True),
        Family("pipeline_pass_seconds", "histogram",
               "wall-clock per pipeline pass run")),
    SpanFamilies(
        "analysis", _attr("kind"),
        Family("analysis_runs", "counter", "analysis passes executed",
               deterministic=True),
        Family("analysis_seconds", "histogram",
               "wall-clock per analysis run")),
    SpanFamilies(
        "executor", _attr("kernel"),
        Family("executor_interpret_launches", "counter",
               "kernels run through the interpreting executor",
               deterministic=True),
        Family("executor_interpret_seconds", "histogram",
               "interpreter wall-clock per kernel launch")),
    SpanFamilies(
        "harness.unit", _attr("kind"),
        Family("sweep_units", "counter",
               "work units executed by the sweep engine",
               deterministic=True),
        Family("sweep_unit_seconds", "histogram",
               "wall-clock per work unit")),
)

#: the families read off the sweep's stats rather than its spans
SWEEP_WORKERS = Family("sweep_workers", "gauge",
                       "worker processes in the last sweep")
STORE_HITS = Family("store_hits", "counter", "artifact-store cache hits",
                    deterministic=True)
STORE_MISSES = Family("store_misses", "counter",
                      "artifact-store cache misses", deterministic=True)

_BY_CATEGORY = {row.category: row for row in SPAN_FAMILIES}


def metrics_from_spans(spans: Iterable[Span],
                       stats: Any = None) -> MetricsRegistry:
    """Every metric family of one finished trace.

    Spans of categories outside :data:`SPAN_FAMILIES` are ignored.
    ``stats`` (a :class:`~repro.harness.parallel.SweepStats`, duck-typed
    so this module stays dependency-free) adds the worker gauge and the
    artifact-store counters.
    """
    registry = MetricsRegistry()
    for span in spans:
        row = _BY_CATEGORY.get(span.category)
        if row is None:
            continue
        labels = row.labels(span)
        registry.series(row.runs, labels).value += 1
        registry.series(row.seconds, labels).values.append(
            span.dur_s or 0.0)
    if stats is not None:
        registry.series(SWEEP_WORKERS).value = float(stats.jobs)
        registry.series(STORE_HITS).value = stats.store.get("hits", 0)
        registry.series(STORE_MISSES).value = stats.store.get("misses", 0)
    return registry
