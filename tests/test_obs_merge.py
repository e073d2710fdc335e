"""Deterministic span-payload merge: lanes, work totals, counter totals.

Absorbed payloads get one timeline lane per worker (``tid``), units
laid end to end per lane, and :func:`absorb_payloads` reports the
summed work of the absorbed units apart from the busiest lane's end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.merge import absorb_payloads, counter_totals
from repro.obs.tracer import Span, Tracer


def _payload(dur_s: float, name: str = "unit", counters=None) -> list[dict]:
    """One worker-local payload: a root with a half-length child."""
    root = Span(span_id=0, parent_id=None, name=name, category="harness.unit",
                t0_s=0.0, dur_s=dur_s, counters=dict(counters or {}))
    child = Span(span_id=1, parent_id=0, name=f"{name}.inner",
                 category="compile", t0_s=0.0, dur_s=dur_s / 2)
    return [root.to_dict(), child.to_dict()]


def _absorbed(payloads, lanes=None) -> Tracer:
    """A tracer whose ``sweep`` root span holds ``payloads``."""
    tracer = Tracer()
    with tracer.span("sweep", "harness") as root:
        absorb_payloads(tracer, payloads, parent_id=root.span_id,
                        lanes=lanes)
    return tracer


class TestCounterTotals:
    def test_sums_numeric(self):
        spans = [Span(0, None, "a", "", 0.0, counters={"x": 2, "y": 0.5}),
                 Span(1, None, "b", "", 0.0, counters={"x": 3})]
        assert counter_totals(spans) == {"x": 5.0, "y": 0.5}

    def test_skips_bool_and_non_numeric(self):
        spans = [Span(0, None, "a", "", 0.0,
                      counters={"flag": True, "label": "occupancy",
                                "n": 2})]
        assert counter_totals(spans) == {"n": 2.0}

    @given(st.lists(st.lists(st.tuples(st.sampled_from(["m", "n"]),
                                       st.integers(0, 50)),
                             max_size=5), max_size=8),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_totals_partition_invariant(self, per_span, jobs):
        """Totals are a sum over spans — any sharding of the span list
        yields the same dict, the invariant the jobs-determinism suite
        relies on."""
        spans = [Span(i, None, f"s{i}", "", 0.0,
                      counters={k: v for k, v in kvs})
                 for i, kvs in enumerate(per_span)]
        whole = counter_totals(spans)
        shards = [spans[i::jobs] for i in range(jobs)]
        merged: dict = {}
        for shard in shards:
            for key, val in counter_totals(shard).items():
                merged[key] = merged.get(key, 0.0) + val
        assert whole == pytest.approx(merged)


class TestMergeLanes:
    def test_longest_lane_and_total_work(self):
        # two units on worker 0 (2s + 3s laid end to end), one on worker 1
        total, longest = absorb_payloads(
            Tracer(), [_payload(2.0), _payload(3.0), _payload(4.0)],
            lanes=[0, 0, 1])
        assert longest == pytest.approx(5.0)   # lane 0: 2+3 > lane 1: 4
        assert total == pytest.approx(9.0)

    def test_units_laid_end_to_end_per_lane(self):
        tracer = _absorbed(
            [_payload(2.0, "u0"), _payload(3.0, "u1"), _payload(4.0, "u2")],
            lanes=[0, 0, 1])
        by_name = {sp.name: sp for sp in tracer.spans}
        assert by_name["u0"].t0_s == pytest.approx(0.0)
        assert by_name["u1"].t0_s == pytest.approx(2.0)   # after u0
        assert by_name["u2"].t0_s == pytest.approx(0.0)   # other lane
        # children shift with their roots
        assert by_name["u1.inner"].t0_s == pytest.approx(2.0)

    def test_tids_are_worker_plus_one(self):
        tracer = _absorbed([_payload(1.0), _payload(1.0)], lanes=[0, 1])
        tids = {sp.name: sp.tid for sp in tracer.spans}
        assert tids["sweep"] == 0
        assert tids["unit"] in (1, 2)
        assert sorted(sp.tid for sp in tracer.spans
                      if sp.name == "unit") == [1, 2]

    def test_journal_resumed_units_land_in_lane_zero(self):
        tracer = _absorbed([_payload(1.0)], lanes=[-1])
        unit = next(sp for sp in tracer.spans if sp.name == "unit")
        assert unit.tid == 0

    def test_counters_and_structure_survive_lanes(self):
        payloads = [_payload(1.0, counters={"launches": 3}),
                    _payload(1.0, counters={"launches": 4})]
        merged_serial = _absorbed(payloads)
        merged_lanes = _absorbed(payloads, lanes=[0, 1])
        assert counter_totals(merged_serial.spans) == \
            counter_totals(merged_lanes.spans) == {"launches": 7.0}
        assert [sp.name for sp in merged_serial.spans] == \
            [sp.name for sp in merged_lanes.spans]

    def test_absorb_payloads_into_live_tracer(self):
        tracer = Tracer()
        with tracer.span("root", "harness"):
            pass
        total, longest = absorb_payloads(
            tracer, [_payload(2.0), _payload(3.0)],
            parent_id=tracer.spans[0].span_id, lanes=[0, 1])
        assert total == pytest.approx(5.0)
        assert longest == pytest.approx(3.0)
        units = [sp for sp in tracer.spans if sp.name == "unit"]
        assert all(sp.parent_id == tracer.spans[0].span_id for sp in units)


class TestChromeLanes:
    def test_thread_metadata_per_lane(self):
        tracer = _absorbed([_payload(1.0), _payload(1.0)], lanes=[0, 1])
        events = tracer.chrome_events()
        names = {(e["tid"], e["args"]["name"])
                 for e in events if e.get("name") == "thread_name"}
        assert (0, "main") in names
        assert (1, "worker 0") in names
        assert (2, "worker 1") in names
        span_tids = {e["tid"] for e in events if e.get("ph") == "X"}
        assert span_tids == {0, 1, 2}

    def test_serial_traces_stay_single_lane(self):
        tracer = Tracer()
        with tracer.span("only", "harness"):
            pass
        events = tracer.chrome_events()
        assert {e["tid"] for e in events if e.get("ph") == "X"} == {0}


class TestSpanTidSerialization:
    def test_tid_zero_not_serialized(self):
        sp = Span(0, None, "a", "", 0.0, dur_s=1.0)
        assert "tid" not in sp.to_dict()

    def test_tid_round_trips(self):
        sp = Span(0, None, "a", "", 0.0, dur_s=1.0, tid=3)
        d = sp.to_dict()
        assert d["tid"] == 3
        assert Span.from_dict(d).tid == 3
