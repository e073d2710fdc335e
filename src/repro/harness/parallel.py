"""Parallel sharded sweep engine with a deterministic merge.

The full evaluation — Table II coverage/code-size, Figure 1 speedups
and the run profiles the baseline gate reads — is a graph of independent
**work units**, one per (benchmark, model) pair (a unit runs each variant
of its pair once, so the unit set partitions the port set).  This module
shards that graph across ``N`` worker processes (or runs it in-process
at ``jobs=1``) and merges the results in one fixed order:

* **self-scheduling shards** — workers steal unit indices from one
  shared task queue, so a slow unit (CFD at paper scale) never idles
  the rest of the pool behind a static partition;
* **compile once, anywhere** — each worker compiles through its own
  process-local :data:`~repro.models.cache.STORE` and ships the delta
  back as a picklable :class:`~repro.models.cache.StoreView` (artifacts
  included), which the parent absorbs; because units partition the port
  set, no port is lowered twice anywhere, and
  :func:`~repro.models.cache.merge_view_stats` proves it (the
  ``duplicates`` list stays empty);
* **deterministic merge** — results are folded in registry order
  (benchmark × model build order), *never* completion order, so any
  ``jobs`` value yields structurally identical results and
  byte-identical JSON rollups;
* **obs merge** — if the caller has a tracer installed, a unit run
  in-process records straight into it; a worker runs each unit under
  its own tracer and ships the spans back, and :func:`run_sweep`
  absorbs them (and a journaled unit's) in unit order under the
  caller's open span, one lane per worker (:mod:`repro.obs.merge`),
  keeping counter totals independent of the worker count;
* **checkpoint/resume** — each completed unit is journaled (JSONL, one
  pickled envelope per line); re-running an interrupted sweep with the
  same journal executes only the missing shards.

:func:`run_sweep` is the one path from work units to results at any
``jobs``.  The evaluation sweeps (Table II, Figure 1, profiles) reach it
through :func:`repro.harness.runner.run_evaluation`, which builds
:func:`evaluation_units` and folds with :func:`merge_evaluation`; the
analysis suites (lint, tv, xfer, locality, translate) through
:func:`sweep_ports`.
"""

from __future__ import annotations

import base64
import importlib
import json
import multiprocessing
import os
import pickle
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.timing import TimingConfig
from repro.models.cache import STORE, StoreView, merge_view_stats
from repro.obs import tracer as obs
from repro.obs.merge import absorb_payloads
from repro.obs.tracer import Tracer, tracing

JOURNAL_SCHEMA = 1


class SweepError(RuntimeError):
    """A worker failed (the offending unit and traceback are attached)."""


# ---------------------------------------------------------------------------
# Work units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkUnit:
    """One shard of a sweep: everything owed for a (bench, model) pair.

    ``flags`` select what an ``eval`` unit computes ("coverage",
    "speedups", "profile"); ``seq`` is the unit's position in the
    registry-order build sequence and is the merge sort key.
    """

    kind: str
    bench: str
    model: str
    variant: str = ""
    flags: tuple[str, ...] = ()
    seq: int = 0

    def key(self) -> tuple:
        """Journal identity — stable across runs, excludes ``seq``."""
        return (self.kind, self.bench, self.model, self.variant,
                tuple(self.flags))

    def label(self) -> str:
        return f"{self.kind}:{self.bench}/{self.model}" + (
            f"[{self.variant}]" if self.variant else "")


def unit_sort_key(unit: WorkUnit) -> tuple:
    """Registry build order — the only order results are merged in."""
    return (unit.seq, unit.kind, unit.bench, unit.model, unit.variant)


@dataclass(frozen=True)
class SweepContext:
    """Per-sweep knobs shipped to every worker (must stay picklable)."""

    scale: str = "paper"
    device: DeviceSpec = TESLA_M2090
    timing: Optional[TimingConfig] = None


@dataclass
class UnitEnvelope:
    """What one executed unit ships back to the parent."""

    unit: WorkUnit
    result: Any
    spans: list[dict] = field(default_factory=list)
    store: StoreView = field(default_factory=StoreView)


@dataclass
class UnitOutcome:
    """An envelope plus where it came from."""

    unit: WorkUnit
    result: Any
    spans: list[dict]
    store: StoreView
    worker: int = 0
    from_journal: bool = False


# ---------------------------------------------------------------------------
# Unit runners (one per kind; all lazily import their layer)
# ---------------------------------------------------------------------------

UNIT_RUNNERS: dict[str, Callable[[WorkUnit, SweepContext], Any]] = {}


def _unit_runner(kind: str):
    def register(fn):
        UNIT_RUNNERS[kind] = fn
        return fn
    return register


@dataclass
class EvalUnitResult:
    """One (bench, model) pair's contribution to the full evaluation."""

    bench: str
    model: str
    coverage: Any = None       # single-bench CoverageReport
    codesize: Any = None       # single-bench CodeSizeReport
    speedups: Any = None       # BenchmarkSpeedups (all variants)
    profile: Any = None        # RunProfile


@_unit_runner("eval")
def _run_eval_unit(unit: WorkUnit, ctx: SweepContext) -> EvalUnitResult:
    from repro.benchmarks.registry import get_benchmark
    from repro.harness.runner import run_variants
    from repro.metrics.codesize import CodeSizeReport
    from repro.metrics.coverage import CoverageReport
    from repro.metrics.speedup import BenchmarkSpeedups
    from repro.models.cache import compile_bench
    from repro.obs.profile import profile_outcome

    bench = get_benchmark(unit.bench)
    flags = set(unit.flags)
    out = EvalUnitResult(bench=bench.name, model=unit.model)
    if "coverage" in flags:
        port, compiled = compile_bench(bench, unit.model, "best")
        cov = CoverageReport(model=unit.model)
        cov.add(compiled)
        size = CodeSizeReport(model=unit.model)
        size.add_port(bench.program, port)
        out.coverage, out.codesize = cov, size
    if "speedups" in flags or "profile" in flags:
        # one run per variant (just the first without speedups); the
        # profile is the first variant's run, the port profile_run picks
        variants = bench.variants(unit.model)
        speedups = BenchmarkSpeedups(benchmark=bench.name, model=unit.model)
        for outcome in run_variants(
                bench, unit.model,
                variants if "speedups" in flags else variants[:1],
                ctx.scale, ctx.device, ctx.timing):
            speedups.variants.append(outcome.speedup)
            if "profile" in flags and out.profile is None:
                out.profile = profile_outcome(outcome, ctx.scale)
        if "speedups" in flags:
            out.speedups = speedups
    return out


def _analysis_runner(site: str, *context: str):
    """An analysis kind's runner: ``module:function(bench, model,
    variant, **context)`` per unit, ``context`` naming
    :class:`SweepContext` fields.  The function is looked up at call
    time, so the in-process path calls the layer's own module binding
    (translate units carry the target model as their variant)."""
    module, _, name = site.partition(":")

    def run(unit: WorkUnit, ctx: SweepContext):
        fn = getattr(importlib.import_module(module), name)
        return fn(unit.bench, unit.model, unit.variant or None,
                  **{key: getattr(ctx, key) for key in context})
    return run


#: the analysis kinds: (kind, one-port function, SweepContext fields)
_ANALYSIS_KINDS = (
    ("lint", "repro.lint.suite:lint_record", "device"),
    ("xfer", "repro.dataflow.suite:xfer_port", "scale"),
    ("locality", "repro.gpusim.locality:locality_port", "scale"),
    ("tv", "repro.tv.suite:validate_port"),
    ("translate", "repro.translate.suite:translate_pair"),
)
UNIT_RUNNERS.update((kind, _analysis_runner(site, *context))
                    for kind, site, *context in _ANALYSIS_KINDS)


@_unit_runner("exec")
def _run_exec_unit(unit: WorkUnit, ctx: SweepContext) -> dict:
    """Functional execution: drives the interpreting executor end to end.

    The selfprof workload includes these so executor interpretation time
    is *measured*, not inferred — eval units run ``execute=False``
    (analytical pricing only) and never touch the interpreter.
    """
    from repro.benchmarks.registry import get_benchmark

    bench = get_benchmark(unit.bench)
    outcome = bench.run(unit.model, unit.variant or "best", scale=ctx.scale,
                        execute=True, validate=False, device=ctx.device,
                        timing=ctx.timing)
    # RunOutcome holds live arrays/programs; ship only a picklable digest
    return {"bench": unit.bench, "model": unit.model,
            "variant": outcome.variant,
            "kernels": outcome.compiled.regions_translated,
            "speedup": round(outcome.speedup.speedup, 4)}


def execute_unit(unit: WorkUnit, ctx: SweepContext,
                 ship_spans: bool) -> UnitEnvelope:
    """Run one unit with store accounting.  With ``ship_spans`` (a
    worker of a traced sweep) it runs under its own tracer and ships its
    spans back; otherwise it records into the ambient tracer, if any."""
    runner = UNIT_RUNNERS.get(unit.kind)
    if runner is None:
        raise SweepError(f"unknown work-unit kind {unit.kind!r}; "
                         f"known: {sorted(UNIT_RUNNERS)}")
    before = STORE.view()
    tracer = Tracer() if ship_spans else obs.current_tracer()
    with tracing(tracer), obs.span(unit.label(), "harness.unit",
                                   bench=unit.bench, model=unit.model,
                                   kind=unit.kind):
        result = runner(unit, ctx)
    return UnitEnvelope(unit=unit, result=result,
                        spans=[sp.to_dict() for sp in tracer.spans]
                        if ship_spans else [], store=STORE.delta_view(before))


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------

def _journal_key(unit: WorkUnit) -> list:
    kind, bench, model, variant, flags = unit.key()
    return [kind, bench, model, variant, list(flags)]


def load_journal(path: Optional[str],
                 units: Sequence[WorkUnit]) -> dict[tuple, UnitEnvelope]:
    """Completed envelopes from a previous (interrupted) sweep.

    Unknown or corrupt lines (e.g. a write cut off mid-crash) are
    skipped — resume is best-effort, re-executing is always safe.
    """
    if not path or not os.path.exists(path):
        return {}
    wanted = {unit.key() for unit in units}
    done: dict[tuple, UnitEnvelope] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if rec.get("schema") != JOURNAL_SCHEMA:
                    continue
                kind, bench, model, variant, flags = rec["key"]
                key = (kind, bench, model, variant, tuple(flags))
                if key not in wanted:
                    continue
                env = pickle.loads(base64.b64decode(rec["blob"]))
            except Exception:
                continue
            done[key] = env
    return done


def append_journal(path: Optional[str], envelope: UnitEnvelope) -> None:
    if not path:
        return
    blob = base64.b64encode(pickle.dumps(envelope)).decode("ascii")
    with open(path, "a") as handle:
        handle.write(json.dumps({"schema": JOURNAL_SCHEMA,
                                 "key": _journal_key(envelope.unit),
                                 "blob": blob}) + "\n")
        handle.flush()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class SweepStats:
    """Shard-balance and artifact-store accounting for one sweep."""

    jobs: int
    units_total: int
    units_executed: int = 0
    units_from_journal: int = 0
    #: worker id → units completed (the shard balance)
    per_worker: dict[int, int] = field(default_factory=dict)
    #: worker id → seconds spent executing units / waiting on the queue
    per_worker_busy: dict[int, float] = field(default_factory=dict)
    per_worker_wait: dict[int, float] = field(default_factory=dict)
    store: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return sum(self.per_worker_busy.values())

    @property
    def wait_s(self) -> float:
        return sum(self.per_worker_wait.values())

    def utilization(self) -> float:
        """Busy fraction of the pool's total wall-clock capacity."""
        capacity = self.jobs * self.elapsed_s
        return min(1.0, self.busy_s / capacity) if capacity > 0 else 0.0

    def shard_summary(self) -> str:
        loads = "/".join(str(self.per_worker[w])
                         for w in sorted(self.per_worker)) or "0"
        line = (f"shards: {self.jobs} worker(s) — {loads} units"
                f" ({self.units_executed} executed")
        if self.units_from_journal:
            line += f", {self.units_from_journal} resumed from journal"
        return line + ")"

    def store_summary(self) -> str:
        s = self.store
        dup = len(s.get("duplicates", ()))
        return (f"artifact store: {s.get('entries', 0)} compilations for "
                f"{s.get('hits', 0) + s.get('misses', 0)} requests "
                f"({s.get('hits', 0)} hits, {s.get('misses', 0)} misses, "
                f"{dup} duplicate lowerings)")

    def to_dict(self) -> dict:
        return {"jobs": self.jobs, "units_total": self.units_total,
                "units_executed": self.units_executed,
                "units_from_journal": self.units_from_journal,
                "per_worker": {str(k): v
                               for k, v in sorted(self.per_worker.items())},
                "per_worker_busy_s": {
                    str(k): round(v, 6)
                    for k, v in sorted(self.per_worker_busy.items())},
                "per_worker_wait_s": {
                    str(k): round(v, 6)
                    for k, v in sorted(self.per_worker_wait.items())},
                "utilization": round(self.utilization(), 4),
                "store": {**{k: v for k, v in self.store.items()
                             if k != "duplicates"},
                          "duplicates": len(self.store.get("duplicates",
                                                           ()))},
                "elapsed_s": self.elapsed_s}


@dataclass
class SweepResult:
    """Everything a sweep produced, already in registry order."""

    outcomes: list[UnitOutcome]
    stats: SweepStats

    def results(self) -> list[Any]:
        return [o.result for o in self.outcomes]


def _worker_main(worker_id: int, units: Sequence[WorkUnit],
                 ctx: SweepContext, trace: bool, task_q, result_q) -> None:
    """Worker loop: steal unit indices until the sentinel arrives.

    Every result carries the worker's queue-wait and busy time for that
    unit, so the parent can report pool utilization (``selfprof``)
    without clock-synchronizing across processes.
    """
    while True:
        t_wait = time.perf_counter()
        idx = task_q.get()
        wait_s = time.perf_counter() - t_wait
        if idx is None:
            break
        try:
            t_busy = time.perf_counter()
            envelope = execute_unit(units[idx], ctx, trace)
            busy_s = time.perf_counter() - t_busy
            result_q.put((worker_id, idx, "ok", envelope, busy_s, wait_s))
        except BaseException:
            result_q.put((worker_id, idx, "error", traceback.format_exc(),
                          0.0, wait_s))
            break


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sweep(units: Sequence[WorkUnit], jobs: int = 1,
              context: Optional[SweepContext] = None,
              journal: Optional[str] = None,
              timeout_s: float = 3600.0) -> SweepResult:
    """Execute every unit and merge outcomes in registry order.

    ``jobs <= 1`` (or a single pending unit) runs in-process through the
    exact same unit runners; ``jobs > 1`` shards across a process pool.
    With ``journal``, completed units from a previous run are reused and
    fresh completions are appended as they arrive.  If a tracer is
    installed here, every unit's spans end up in it under the open span:
    in-process units record into it directly, and the spans workers and
    journal entries ship are absorbed in unit order, one lane per worker.
    In-process units journal no spans, so under a tracer a journaled
    unit without spans re-runs.
    """
    t0 = time.perf_counter()
    ctx = context or SweepContext()
    tracer = obs.current_tracer()
    trace = tracer is not None
    ordered = sorted(units, key=unit_sort_key)
    journaled = {key: env for key, env in load_journal(journal,
                                                       ordered).items()
                 if env.spans or not trace}
    pending = [i for i, u in enumerate(ordered)
               if u.key() not in journaled]
    stats = SweepStats(jobs=max(1, jobs), units_total=len(ordered),
                       units_from_journal=len(ordered) - len(pending))
    envelopes: dict[int, UnitEnvelope] = {}
    workers_of: dict[int, int] = {}

    in_process = jobs <= 1 or len(pending) <= 1
    if in_process:
        stats.jobs = 1
        for idx in pending:
            t_busy = time.perf_counter()
            envelope = execute_unit(ordered[idx], ctx, ship_spans=False)
            stats.per_worker_busy[0] = stats.per_worker_busy.get(0, 0.0) \
                + (time.perf_counter() - t_busy)
            append_journal(journal, envelope)
            envelopes[idx] = envelope
            workers_of[idx] = 0
    else:
        n = min(jobs, len(pending))
        stats.jobs = n
        mp = _pool_context()
        task_q = mp.Queue()
        result_q = mp.Queue()
        for idx in pending:
            task_q.put(idx)
        for _ in range(n):
            task_q.put(None)
        procs = [mp.Process(target=_worker_main,
                            args=(wid, ordered, ctx, trace, task_q,
                                  result_q),
                            daemon=True)
                 for wid in range(n)]
        for p in procs:
            p.start()
        failure: Optional[tuple[WorkUnit, str]] = None
        deadline = time.monotonic() + timeout_s
        try:
            remaining = len(pending)
            while remaining and failure is None:
                try:
                    wid, idx, status, payload, busy_s, wait_s = \
                        result_q.get(timeout=5.0)
                except queue_mod.Empty:
                    if time.monotonic() > deadline:
                        failure = (ordered[pending[0]],
                                   f"sweep timed out after {timeout_s}s")
                        break
                    if not any(p.is_alive() for p in procs):
                        failure = (ordered[pending[0]],
                                   "all workers exited before finishing "
                                   "the sweep")
                        break
                    continue
                remaining -= 1
                stats.per_worker_busy[wid] = \
                    stats.per_worker_busy.get(wid, 0.0) + busy_s
                stats.per_worker_wait[wid] = \
                    stats.per_worker_wait.get(wid, 0.0) + wait_s
                if status == "ok":
                    append_journal(journal, payload)
                    envelopes[idx] = payload
                    workers_of[idx] = wid
                else:
                    failure = (ordered[idx], payload)
        finally:
            for p in procs:
                if failure is not None and p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=30.0)
        if failure is not None:
            unit, detail = failure
            raise SweepError(
                f"work unit {unit.label()} failed in a worker:\n{detail}")

    # fold journal entries back in (worker id -1 marks "not run now")
    with obs.span("sweep.merge", "harness.merge", units=len(ordered)):
        outcomes: list[UnitOutcome] = []
        views: list[StoreView] = []
        for idx, unit in enumerate(ordered):
            fresh = idx in envelopes
            env = envelopes[idx] if fresh else journaled[unit.key()]
            outcomes.append(UnitOutcome(
                unit=unit, result=env.result, spans=env.spans,
                store=env.store, worker=workers_of[idx] if fresh else -1,
                from_journal=not fresh))
            views.append(env.store)
            if not (fresh and in_process):   # else in STORE already
                STORE.absorb(env.store)

        stats.units_executed = len(envelopes)
        for idx, wid in workers_of.items():
            stats.per_worker[wid] = stats.per_worker.get(wid, 0) + 1
        stats.store = merge_view_stats(views)
    if trace:
        parent = tracer.current
        absorb_payloads(tracer, [o.spans for o in outcomes],
                        parent_id=parent.span_id if parent else None,
                        lanes=[o.worker for o in outcomes])
    stats.elapsed_s = time.perf_counter() - t0
    return SweepResult(outcomes=outcomes, stats=stats)


# ---------------------------------------------------------------------------
# Unit builders + mergers for the evaluation sweeps
# ---------------------------------------------------------------------------

def pair_units(kind: str,
               items: Iterable[tuple[str, ...]]) -> list[WorkUnit]:
    """Units for an already-ordered list of ``(bench, model)`` (or
    ``(bench, model, variant)``) items."""
    return [WorkUnit(kind, *item, seq=seq) for seq, item in enumerate(items)]


def suite_pairs(benchmarks: Optional[Sequence[str]],
                models: Sequence[str]) -> list[tuple[str, str]]:
    """(bench, model) pairs in table order: benchmark-major, all 13
    benchmarks by default, models resolved to their canonical names."""
    from repro.benchmarks.registry import BENCHMARK_ORDER
    from repro.models import resolve_model

    model_list = [resolve_model(m) for m in models]
    return [(bench, model)
            for bench in (benchmarks if benchmarks is not None
                          else BENCHMARK_ORDER)
            for model in model_list]


def sweep_ports(kind: str, work: Sequence[tuple[str, ...]], jobs: int = 1,
                **context: Any) -> list:
    """One ``kind`` unit per work item; the results, in item order.

    An item is ``(bench, model)``, or ``(bench, src, dst)`` for
    translation — a unit's ``(bench, model, variant)``.  ``context``
    sets :class:`SweepContext` fields.  The units go through
    :func:`run_sweep`, so the records are identical for any worker
    count.
    """
    return run_sweep(pair_units(kind, work), jobs=jobs,
                     context=SweepContext(**context)).results()


def evaluation_units(benchmarks: Optional[Sequence[str]] = None,
                     table2_models: Optional[Sequence[str]] = None,
                     figure1_models: Optional[Sequence[str]] = None,
                     *, coverage: bool = True, speedups: bool = True,
                     profiles: bool = False) -> list[WorkUnit]:
    """The (bench, model) work-unit graph of the full evaluation.

    Unit order is registry order:
    benchmarks in Figure 1 x-axis order, models in Table II column
    order with the hand-written baseline appended.
    """
    from repro.benchmarks.registry import BENCHMARK_ORDER
    from repro.harness.runner import FIGURE1_MODELS, TABLE2_MODELS

    benches = list(benchmarks) if benchmarks is not None \
        else list(BENCHMARK_ORDER)
    t2 = list(table2_models if table2_models is not None
              else TABLE2_MODELS) if coverage else []
    f1 = list(figure1_models if figure1_models is not None
              else FIGURE1_MODELS) if (speedups or profiles) else []
    model_order = t2 + [m for m in f1 if m not in t2]
    units: list[WorkUnit] = []
    for bench in benches:
        for model in model_order:
            flags: list[str] = []
            if coverage and model in t2:
                flags.append("coverage")
            if speedups and model in f1:
                flags.append("speedups")
            if profiles and model in f1:
                flags.append("profile")
            if flags:
                units.append(WorkUnit(kind="eval", bench=bench, model=model,
                                      flags=tuple(flags), seq=len(units)))
    return units


#: selfprof's unit kinds per scale.  Paper scale builds ``eval`` units
#: only — the Figure-1 path, priced analytically; exec and locality
#: units interpret and trace every kernel, which only test-scale inputs
#: keep affordable.
SELFPROF_KINDS: dict[str, tuple[str, ...]] = {
    "test": ("eval", "lint", "tv", "xfer", "locality", "exec"),
    "paper": ("eval",),
}


def _selfprof_unit(kind: str, bench: str, model: str,
                   seq: int) -> Optional[WorkUnit]:
    """``kind``'s unit for one pair, or ``None`` where it does not
    apply: lint and xfer cover only the directive models, exec (and an
    eval unit's speedups and profile) only the Figure-1 ones."""
    from repro.harness.runner import FIGURE1_MODELS, TABLE2_MODELS

    directive = model in TABLE2_MODELS
    fig1 = model in FIGURE1_MODELS
    if (kind in ("lint", "xfer") and not directive) \
            or (kind == "exec" and not fig1):
        return None
    flags: tuple[str, ...] = ()
    if kind == "eval":
        flags = (("coverage",) if directive else ()) + \
            (("speedups", "profile") if fig1 else ())
    return WorkUnit(kind=kind, bench=bench, model=model, flags=flags,
                    seq=seq)


def selfprof_units(benchmarks: Optional[Sequence[str]] = None,
                   scale: str = "test") -> list[WorkUnit]:
    """A stratified workload for harness self-profiling.

    Every (bench, model) pair appears in exactly **one** unit — the
    partition invariant the deterministic metrics export rests on (a
    pair compiled by two units would hit the artifact cache under
    ``--jobs 1`` but recompile on a cold worker store under
    ``--jobs 4``, making pass-run counts scheduling-dependent).  Unit
    kinds (:data:`SELFPROF_KINDS` at ``scale``) are round-robined
    across pairs so every harness phase shows up in the trace: compile
    (all kinds), analyze (lint/tv/xfer/locality), execute (exec units
    drive the interpreting executor), simulate (eval profiles), merge
    and harness (the engine itself).
    """
    from repro.benchmarks.registry import BENCHMARK_ORDER
    from repro.harness.runner import FIGURE1_MODELS, TABLE2_MODELS

    benches = list(benchmarks) if benchmarks is not None \
        else list(BENCHMARK_ORDER)
    model_order = list(TABLE2_MODELS) + [m for m in FIGURE1_MODELS
                                         if m not in TABLE2_MODELS]
    kinds = SELFPROF_KINDS[scale]
    units: list[WorkUnit] = []
    pairs = [(bench, model) for bench in benches for model in model_order]
    for rr, (bench, model) in enumerate(pairs):
        for probe in range(len(kinds)):     # eval always applies
            unit = _selfprof_unit(kinds[(rr + probe) % len(kinds)],
                                  bench, model, len(units))
            if unit is not None:
                break
        units.append(unit)
    return units


def selfprof_pair_units(bench: str, model: str,
                        scale: str = "test") -> list[WorkUnit]:
    """The single-pair selfprof workload: every applicable unit kind.

    (This mixes kinds over one pair, so it exercises every phase; the
    jobs-invariant metrics guarantee applies to :func:`selfprof_units`,
    whose stratified workload keeps the compile-once partition.)
    """
    units: list[WorkUnit] = []
    for kind in SELFPROF_KINDS[scale]:
        unit = _selfprof_unit(kind, bench, model, len(units))
        if unit is not None:
            units.append(unit)
    return units


def merge_evaluation(outcomes: Sequence[UnitOutcome]):
    """Fold eval-unit outcomes into ``(EvaluationResults, profiles)``.

    Outcomes must already be in registry order (``run_sweep`` guarantees
    it); the fold is then model-major for Table II and benchmark-major
    for Figure 1, whatever the worker count.
    """
    from repro.harness.runner import EvaluationResults
    from repro.metrics.codesize import CodeSizeReport
    from repro.metrics.coverage import CoverageReport

    results = EvaluationResults()
    model_order: list[str] = []
    for o in outcomes:
        if o.result.coverage is not None and o.unit.model not in model_order:
            model_order.append(o.unit.model)
    for model in model_order:
        cov = CoverageReport(model=model)
        size = CodeSizeReport(model=model)
        for o in outcomes:
            if o.unit.model != model or o.result.coverage is None:
                continue
            piece = o.result.coverage
            cov.translated += piece.translated
            cov.total += piece.total
            cov.per_program.update(piece.per_program)
            cov.failures.extend(piece.failures)
            size.entries.extend(o.result.codesize.entries)
        results.coverage[model] = cov
        results.codesize[model] = size
    profiles = []
    for o in outcomes:
        if o.result.speedups is not None:
            results.speedups.setdefault(o.unit.bench, {})[o.unit.model] = \
                o.result.speedups
        if o.result.profile is not None:
            profiles.append(o.result.profile)
    return results, profiles

