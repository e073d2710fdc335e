"""repro.obs — the observability layer.

Unified tracing spans (:mod:`repro.obs.tracer`), labeled metrics with
exact quantiles derived from the span tree (:mod:`repro.obs.metrics`),
simulated hardware counters derived from the timing model's own
analyses (:mod:`repro.obs.counters`), per-kernel bottleneck attribution
(:mod:`repro.obs.bottleneck`), profiling runs and their reports
(:mod:`repro.obs.profile`), harness self-profiling — wall-clock phase
attribution and flamegraphs over the span tree
(:mod:`repro.obs.selfprof`, :mod:`repro.obs.flamegraph`) — and the
perf-regression baseline gate (:mod:`repro.obs.baseline`).

Import order matters here: :mod:`repro.obs.tracer` is dependency-free
and must come first, because :mod:`repro.gpusim.runtime` imports it
while :mod:`repro.obs.counters` imports gpusim modules.
:mod:`repro.obs.metrics` depends only on the tracer.
"""

from repro.obs.tracer import (JSONL_SCHEMA, RunManifest, Span,
                              TraceDocument, Tracer, add_counter,
                              add_counters, config_hash, current_tracer,
                              make_manifest, read_jsonl, set_attr, span,
                              tracing)
from repro.obs.metrics import (METRICS_SCHEMA, Counter, Family, Gauge,
                               Histogram, MetricsRegistry, exact_quantile,
                               metrics_from_spans, render_metrics_json)
from repro.obs.counters import (KernelCounters, TransferCounters,
                                derive_counters, transfer_counters)
from repro.obs.bottleneck import Bottleneck, classify_kernel, classify_run

__all__ = [
    "Tracer", "Span", "RunManifest", "TraceDocument", "JSONL_SCHEMA",
    "tracing", "current_tracer", "span", "set_attr", "add_counter",
    "add_counters", "config_hash", "make_manifest", "read_jsonl",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "Family",
    "METRICS_SCHEMA", "exact_quantile", "metrics_from_spans",
    "render_metrics_json",
    "KernelCounters", "TransferCounters", "derive_counters",
    "transfer_counters",
    "Bottleneck", "classify_kernel", "classify_run",
]
