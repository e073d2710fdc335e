"""Metrics derived from spans: exact quantiles, the family table, exports.

The property sections pin the two contracts the deterministic export
rests on: nearest-rank quantiles match the sorted-list reference
definition, and deriving metrics is partition-invariant — deriving each
shard of a span list and summing equals deriving the whole list, which
is exactly why ``--jobs N`` (which shards the units, hence their spans)
cannot change a deterministic family's value.
"""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnsupportedFeatureError
from repro.obs.metrics import (SPAN_FAMILIES, STORE_HITS, STORE_MISSES,
                               SWEEP_WORKERS, Counter, Family, Histogram,
                               MetricsRegistry, exact_quantile,
                               metrics_from_spans, render_metrics_json)
from repro.obs.tracer import Span, Tracer

_ATTRS = {"pipeline": ("model", "stage"), "analysis": ("kind",),
          "executor": ("kernel",), "harness.unit": ("kind",)}


def _span(category, name="s", dur=1.0, sid=0, **attrs):
    return Span(span_id=sid, parent_id=None, name=name, category=category,
                t0_s=0.0, dur_s=dur, attrs=dict(attrs))


def _stats(jobs=1, hits=0, misses=0):
    return SimpleNamespace(jobs=jobs, store={"hits": hits, "misses": misses})


class TestExactQuantile:
    def test_reference_values(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(values, 0.50) == 2.0
        assert exact_quantile(values, 0.90) == 4.0
        assert exact_quantile(values, 0.99) == 4.0
        assert exact_quantile([7.0], 0.5) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1, max_size=200),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_list_reference(self, values, q):
        """Nearest rank: the smallest element with >= q*n at or below."""
        ordered = sorted(values)
        got = exact_quantile(ordered, q)
        n = len(ordered)
        rank = max(1, math.ceil(q * n))
        assert got == ordered[rank - 1]
        # the result is always an actual observation, never interpolated
        assert got in ordered


class TestSeries:
    def test_counter_sums(self):
        spans = [_span("analysis", kind="lint") for _ in range(3)]
        reg = metrics_from_spans(spans)
        assert reg.get("analysis_runs", {"kind": "lint"}).value == 3

    def test_histogram_quantiles(self):
        h = Histogram(values=[5.0, 1.0, 3.0, 2.0, 4.0])
        q = h.quantiles()
        assert q["p50"] == 3.0
        assert q["min"] == 1.0 and q["max"] == 5.0
        assert h.count == 5 and h.sum == 15.0


class TestRegistry:
    def test_labels_are_canonicalized(self):
        reg = MetricsRegistry()
        fam = Family("runs", "counter")
        reg.series(fam, {"b": "x", "a": "y"}).value += 1
        reg.series(fam, {"a": "y", "b": "x"}).value += 1
        series = reg.series_of("runs")
        assert len(series) == 1
        assert series[0][1].value == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.series(Family("thing", "counter"))
        with pytest.raises(ValueError):
            reg.series(Family("thing", "histogram"))

    def test_deterministic_only_export_filters(self):
        reg = metrics_from_spans([_span("executor", kernel="k")])
        full = reg.to_dict()
        det = reg.to_dict(deterministic_only=True)
        assert set(full["metrics"]) == {"executor_interpret_launches",
                                        "executor_interpret_seconds"}
        assert set(det["metrics"]) == {"executor_interpret_launches"}

    def test_integral_counters_export_as_int(self):
        reg = metrics_from_spans([], _stats(hits=2))
        row = reg.to_dict()["metrics"]["store_hits"]["series"][0]
        assert row["value"] == 2 and isinstance(row["value"], int)

    def test_render_is_canonical(self):
        reg = metrics_from_spans([_span("analysis", kind="tv")])
        a = render_metrics_json(reg.to_dict())
        b = render_metrics_json(json.loads(a))
        assert a == b


class TestDerivation:
    """Each family of the table, from hand-built spans."""

    def test_pass_span_labels(self):
        reg = metrics_from_spans([
            _span("pipeline", "pass.codegen", 0.5, model="OpenACC",
                  stage="codegen", region="r0"),
            _span("pipeline", "pass.codegen", 1.5, model="OpenACC",
                  stage="codegen", region="r1")])
        labels = {"model": "OpenACC", "stage": "codegen", "pass": "codegen"}
        assert reg.get("pipeline_pass_runs", labels).value == 2
        assert reg.get("pipeline_pass_seconds", labels).values == [0.5, 1.5]

    def test_rejecting_pass_still_counts(self):
        tracer = Tracer()
        with pytest.raises(UnsupportedFeatureError):
            with tracer.span("pass.legality", "pipeline", model="HMPP",
                             stage="legality"):
                raise UnsupportedFeatureError("rejected")
        reg = metrics_from_spans(tracer.spans)
        labels = {"model": "HMPP", "stage": "legality", "pass": "legality"}
        assert reg.get("pipeline_pass_runs", labels).value == 1
        assert reg.get("pipeline_pass_seconds", labels).count == 1

    @pytest.mark.parametrize("category,attr,runs,seconds", [
        ("analysis", "kind", "analysis_runs", "analysis_seconds"),
        ("executor", "kernel", "executor_interpret_launches",
         "executor_interpret_seconds"),
        ("harness.unit", "kind", "sweep_units", "sweep_unit_seconds"),
    ])
    def test_attr_labeled_families(self, category, attr, runs, seconds):
        reg = metrics_from_spans([_span(category, dur=0.25, **{attr: "a"}),
                                  _span(category, dur=0.75, **{attr: "b"}),
                                  _span(category, dur=0.5, **{attr: "a"})])
        assert reg.get(runs, {attr: "a"}).value == 2
        assert reg.get(runs, {attr: "b"}).value == 1
        assert reg.get(seconds, {attr: "a"}).values == [0.25, 0.5]

    def test_stats_families(self):
        reg = metrics_from_spans([], _stats(jobs=4, hits=26, misses=75))
        assert reg.get("sweep_workers").value == 4.0
        assert reg.get("store_hits").value == 26
        assert reg.get("store_misses").value == 75

    def test_unknown_categories_are_ignored(self):
        spans = [_span("gpu.launch", kernel="k"), _span("harness"),
                 _span("compile", model="OpenACC"), _span("")]
        assert metrics_from_spans(spans).to_dict()["metrics"] == {}

    def test_no_gauge_is_deterministic(self):
        families = [SWEEP_WORKERS, STORE_HITS, STORE_MISSES] + [
            fam for row in SPAN_FAMILIES for fam in (row.runs, row.seconds)]
        assert any(fam.kind == "gauge" for fam in families)
        for fam in families:
            assert not (fam.kind == "gauge" and fam.deterministic), fam.name

    def test_only_runs_counters_are_deterministic(self):
        for row in SPAN_FAMILIES:
            assert row.runs.kind == "counter" and row.runs.deterministic
            assert row.seconds.kind == "histogram"
            assert not row.seconds.deterministic


_SPANS = st.lists(
    st.tuples(st.sampled_from(sorted(_ATTRS) + ["gpu.launch"]),
              st.sampled_from(["alpha", "beta"]),
              st.integers(min_value=0, max_value=100),
              st.integers(min_value=0, max_value=4)),
    max_size=40)


def _spans_from(events):
    """(category, label value, duration ms, shard) → (spans, shards)."""
    spans = []
    for sid, (category, value, ms, _) in enumerate(events):
        attrs = {key: value for key in _ATTRS.get(category, ("kernel",))}
        spans.append(_span(category, f"pass.{value}", ms / 1000, sid,
                           **attrs))
    return spans, [shard for *_, shard in events]


def _summed(registries):
    """Counters add, histogram samples pool (as a sorted multiset)."""
    out = {}
    for reg in registries:
        for fam in reg.families():
            for labels, series in reg.series_of(fam.name):
                key = (fam, labels)
                if isinstance(series, Counter):
                    out[key] = out.get(key, 0) + series.value
                else:
                    out[key] = sorted(out.get(key, []) + series.values)
    return out


class TestMergeLaws:
    @given(_SPANS)
    @settings(max_examples=100, deadline=None)
    def test_partition_invariance(self, events):
        """Deriving each shard of a span list and summing equals deriving
        the whole list — the jobs-invariance the CI byte-identity gate
        checks, since the sweep engine shards units (and so their
        spans) across workers.  The stats families come from the merged
        sweep, never from a shard."""
        spans, shard_of = _spans_from(events)
        shards = [[sp for sp, s in zip(spans, shard_of) if s == i]
                  for i in range(5)]
        whole = metrics_from_spans(spans)
        assert _summed([whole]) == _summed(
            metrics_from_spans(shard) for shard in shards)


class TestOpenMetrics:
    def test_exposition_format(self):
        spans = [_span("harness.unit", dur=v, kind="eval")
                 for v in (0.1, 0.2, 0.3)]
        text = metrics_from_spans(spans, _stats(jobs=4)).to_openmetrics()
        assert '# TYPE sweep_units counter' in text
        assert 'sweep_units_total{kind="eval"} 3' in text
        assert '# TYPE sweep_workers gauge' in text
        assert "sweep_workers 4" in text
        assert '# TYPE sweep_unit_seconds summary' in text
        assert 'sweep_unit_seconds{kind="eval",quantile="0.5"} 0.2' in text
        assert 'sweep_unit_seconds_count{kind="eval"} 3' in text
        assert text.endswith("# EOF\n")

    def test_label_escaping(self):
        reg = metrics_from_spans([_span("executor", kernel='a"b\\c')])
        text = reg.to_openmetrics()
        assert 'kernel="a\\"b\\\\c"' in text
