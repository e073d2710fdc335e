"""Command-line entry point: ``repro-harness`` / ``python -m repro.harness``.

Subcommands regenerate the paper's evaluation artifacts: ``table1``,
``table2`` (coverage + code size), ``figure1`` (speedups), ``run`` and
``compare`` (one port, one gap), ``validate``; the five analyses
``lint``, ``xfer``, ``locality``, ``tv`` and ``translate`` (``--fail-on``
gates CI on their findings; REFUTED certificates exit 1 and COH
stale-read errors exit 2 whatever the threshold); the reports
``profile`` (per-kernel counters and bottlenecks, ``--jsonl``/
``--chrome`` trace artifacts), ``passes`` (pass-pipeline diffs and
rejections), ``selfprof`` (the harness's own wall-clock attribution,
flamegraph and span-derived metrics), ``baseline record|check`` (the
perf-regression gate, exit 2 on regression/drift) and ``all`` (the
EXPERIMENTS.md payload, ``--journal`` to checkpoint the sharded sweep).

Every subcommand is one :class:`Command` row of :data:`COMMANDS`, and
one row path serves them all.  :func:`_add_command` builds a row's
parser: a port row's optional ``BENCH MODEL`` positionals and ``--all``,
the shared ``--variant``/``--scale``/``--json``/``--jobs`` flags the row
asks for, its output-path flags and its own options.
:func:`_run_command` rejects a bad ``--jobs`` and unwritable output
paths before any work, then calls the row's handler; a port row's
handler resolves its port through :func:`_port`, the one check of
``--all`` against the positionals.  The analyses share one handler
(:func:`_cmd_analysis`); every other row is a report with its own.

``--jobs N`` (default 1, in-process) shards a sweep's (benchmark, model)
work units across worker processes; every sweep runs its units through
:func:`repro.harness.parallel.run_sweep` and merges in registry order,
so output is independent of the worker count.

Exit-code contract (pinned by ``tests/test_cli_errors.py``): 0 clean,
1 on gated findings, 2 on usage errors.  Usage errors — unknown
benchmark/model/variant, contradictory flags — are raised as
:class:`UsageError` anywhere in a subcommand and mapped to a stderr
message plus exit 2 in exactly one place (:func:`main`).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Optional

from repro.benchmarks.base import ALL_MODELS
from repro.benchmarks.registry import BENCHMARK_ORDER, get_benchmark
from repro.harness.compare import compare_models
from repro.harness.report import (render_figure1, render_figure1_csv,
                                  render_table2)
from repro.harness.runner import run_evaluation
from repro.harness.validate import validate_suite
from repro.models.features import render_table1


class UsageError(Exception):
    """A CLI usage error: message goes to stderr, process exits 2."""


#: models `run`/`compare` accept: the Figure-1 set plus the post-paper
#: OpenMP-Target compiler (runnable and validated, outside Figure 1)
RUNNABLE_MODELS: tuple[str, ...] = ALL_MODELS + ("OpenMP-Target",)

#: one ``add_argument(*flags, **kwargs)`` call
Arg = tuple[tuple[str, ...], dict]


def _arg(*flags: str, **kwargs: Any) -> Arg:
    return flags, kwargs


@dataclass(frozen=True)
class Command:
    """One subcommand: :func:`_add_command` builds its parser and
    :func:`_run_command` runs ``run(row, args)``.

    A port row sets ``all_help``: its ``positionals`` (``(dest, help)``,
    ``BENCH MODEL``) become optional and ``--all`` covers every port
    instead (see :func:`_port`).  ``variant``, ``scale`` (the
    ``--scale`` default, shown with ``scale_help``), ``json_help`` and
    ``jobs`` add the shared flags; ``outputs`` are ``(flag, help)``
    output paths, checked writable before ``run``; ``options`` are the
    row's own arguments.  A check only one row needs stays in its
    handler.
    """

    name: str
    help: str
    run: Callable[[Any, argparse.Namespace], int]
    positionals: tuple[tuple[str, str], ...] = ()
    all_help: Optional[str] = None
    variant: bool = False
    scale: Optional[str] = None
    scale_help: Optional[str] = None
    json_help: Optional[str] = None
    jobs: bool = False
    outputs: tuple[tuple[str, str], ...] = ()
    options: tuple[Arg, ...] = ()


def _check_writable(cmd: str, flag: str, path: str | None) -> None:
    """Reject an output path that cannot be written, before any work."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(parent) \
            or not os.access(path if os.path.exists(path) else parent,
                             os.W_OK):
        raise UsageError(f"{cmd}: --{flag} path {path!r} is not writable")


def _resolve_port(cmd: str, fn, *fn_args, **fn_kwargs):
    """Run a port-resolving callable, mapping the KeyErrors the model /
    benchmark / variant lookups raise (argparse cannot pre-validate
    aliases or per-benchmark variants) to :class:`UsageError`."""
    try:
        return fn(*fn_args, **fn_kwargs)
    except KeyError as exc:
        raise UsageError(f"{cmd}: {exc.args[0]}") from exc


def _port(row: Command, args: argparse.Namespace, fn, *fn_args,
          **fn_kwargs):
    """``fn(*positionals, *fn_args, **fn_kwargs)`` for the one port a
    port row names, or ``None`` under ``--all``.

    ``--all`` with positionals and a missing positional without it are
    usage errors, and so is an unknown benchmark, model or variant."""
    names = [getattr(args, dest) for dest, _ in row.positionals]
    metavars = " ".join(dest.upper() for dest, _ in row.positionals)
    given = " ".join(filter(None, names))
    if args.all_ports and given:
        raise UsageError(f"{row.name}: --all takes no {metavars} "
                         f"arguments (got {given})")
    if args.all_ports:
        return None
    if not all(names):
        raise UsageError(f"{row.name}: {metavars} are required unless "
                         "--all is given")
    return _resolve_port(row.name, fn, *names, *fn_args, **fn_kwargs)


def _cmd_table1(_row: Command, _args: argparse.Namespace) -> int:
    print(render_table1())
    return 0


def _render_table2_text(results) -> None:
    print(render_table2(results))
    failures = []
    for model, cov in results.coverage.items():
        for prog, region, feature in cov.failures:
            failures.append(f"  {model}: {prog}/{region}: {feature}")
    if failures:
        print("\nUntranslated regions:")
        print("\n".join(failures))


def _cmd_table2(_row: Command, args: argparse.Namespace) -> int:
    _render_table2_text(run_evaluation(coverage=True, jobs=args.jobs)[0])
    return 0


def _cmd_figure1(_row: Command, args: argparse.Namespace) -> int:
    results, _, _ = run_evaluation(speedups=True, scale=args.scale,
                                   jobs=args.jobs)
    render = render_figure1_csv if args.csv else render_figure1
    print(render(results.speedups))
    return 0


def _check_variant(cmd: str, bench, model: str, variant: str) -> None:
    """``variant`` must be ``best`` or one of the port's own variants."""
    known = _resolve_port(cmd, bench.variants, model)
    if variant != "best" and variant not in known:
        raise UsageError(f"{cmd}: unknown variant {variant!r} for "
                         f"{bench.name}/{model}; known: {list(known)}")


def _cmd_run(_row: Command, args: argparse.Namespace) -> int:
    bench = _resolve_port("run", get_benchmark, args.benchmark)
    _check_variant("run", bench, args.model, args.variant)
    outcome = _resolve_port("run", bench.run, args.model, args.variant,
                            scale=args.scale, execute=True)
    print(outcome.speedup.summary())
    if outcome.validated is not None:
        print(f"validation: {'PASS' if outcome.validated else 'FAIL'}")
        for err in outcome.validation_errors:
            print(f"  {err}")
    print()
    print(outcome.executable.rt.profiler.report())
    for name, result in outcome.compiled.results.items():
        status = "ok" if result.translated else "HOST FALLBACK"
        extras = "; ".join(result.applied)
        print(f"  region {name}: {status}"
              + (f" ({extras})" if extras else ""))
    return 0 if outcome.validated is not False else 1


def _cmd_validate(_row: Command, args: argparse.Namespace) -> int:
    for name in args.benchmarks:
        _resolve_port("validate", get_benchmark, name)
    names = args.benchmarks or None
    matrix = validate_suite(benchmarks=names,
                            elide_transfers=args.elide_transfers)
    print(matrix.render())
    return 0 if matrix.passed else 1


def _cmd_compare(_row: Command, args: argparse.Namespace) -> int:
    bench = get_benchmark(args.benchmark)
    for model in (args.model_a, args.model_b):
        _check_variant("compare", bench, model, args.variant)
    print(compare_models(bench, args.model_a, args.model_b,
                         variant=args.variant, scale=args.scale))
    return 0


# ---------------------------------------------------------------------------
# The analysis rows
# ---------------------------------------------------------------------------

def _lazy(module: str, *names: str) -> tuple[Callable, ...]:
    """``module``'s functions ``names``, each imported at its first call
    so the analysis layers stay out of CLI start-up."""
    def ref(name: str) -> Callable:
        return lambda *args, **kwargs: getattr(
            importlib.import_module(module), name)(*args, **kwargs)
    return tuple(ref(name) for name in names)


class Failure(NamedTuple):
    """Findings no ``--fail-on`` threshold waives: any line ``lines``
    returns exits ``code``, and text output lists them under ``title``."""

    code: int
    title: str
    lines: Callable[[list], list[str]]


def _output_format(row: Analysis, args: argparse.Namespace) -> str:
    """``--format``, or the one ``--json``/format switch given, or text."""
    switches = [name for name in (*row.formats, "json")
                if getattr(args, name, False)]
    if len(switches) > 1:
        raise UsageError(f"{row.name}: --{switches[0]} and --{switches[1]} "
                         "are mutually exclusive")
    chosen = getattr(args, "format", None)
    if chosen is not None and switches:
        raise UsageError(f"{row.name}: --format and --{switches[0]} are "
                         "mutually exclusive")
    return chosen or (switches[0] if switches else "text")


def _cmd_analysis(row: Analysis, args: argparse.Namespace) -> int:
    fmt = _output_format(row, args)
    kwargs = {"scale": args.scale} if row.scale else {}
    suite, port = row.layer
    rollup, render, render_port, gate = row.stats
    one = _port(row, args, port, variant=args.variant, **kwargs)
    records = [one] if one is not None \
        else suite(jobs=args.jobs, **row.suite_kwargs, **kwargs)
    if fmt == "json":
        out = json.dumps([rec.to_dict() for rec in records] if args.all_ports
                         else row.port_json(records[0]), indent=2)
    elif fmt != "text":
        out = row.formats[fmt](records)
    elif args.all_ports:
        out = render(rollup(records))
    else:
        out = render_port(records[0])
    if out:
        print(out)
    hits = row.failure.lines(records) if row.failure else []
    if hits:
        if fmt == "text":
            print(row.failure.title)
            print("\n".join(hits))
        return row.failure.code
    if args.fail_on is None:
        return 0
    order = {"info": 0, "warning": 1, "error": 2}
    over = [line for severity, line in gate(records)
            if order.get(severity, 0) >= order[args.fail_on]]
    if over and (row.list_gate_hits or (args.all_ports and fmt == "text")):
        print(f"\nFindings at or above {args.fail_on}:")
        print("\n".join(f"  {line}" for line in over))
    return 1 if over else 0


_PORT = (("benchmark", "benchmark name (e.g. jacobi)"),
         ("model", "model name or alias (e.g. openacc)"))


@dataclass(frozen=True, kw_only=True)
class Analysis(Command):
    """One analysis subcommand, run by :func:`_cmd_analysis`.

    ``name`` is also the work-unit kind ``--jobs`` shards
    (:data:`repro.harness.parallel.UNIT_RUNNERS`).  ``layer`` is
    ``(suite, port)``: ``suite(jobs=, **suite_kwargs)`` for ``--all``,
    ``port(*positionals, variant=)`` for one port, both with ``scale=``
    if the row takes ``--scale``.  ``stats`` is the row's
    ``metrics/*stats.py`` quartet ``(rollup, render, render_port,
    gate)``: ``--all`` text is ``render(rollup(records))``, one port's
    ``render_port(record)``; ``gate(records)`` yields the ``(severity,
    line)`` rows ``--fail-on`` (an ``options`` entry, :func:`_fail_on`)
    thresholds.  JSON is each record's ``to_dict()`` (``port_json`` for
    one port); ``formats`` adds ``--format`` choices.
    """

    layer: tuple[Callable, ...]
    stats: tuple[Callable, ...]
    run: Callable[[Any, argparse.Namespace], int] = _cmd_analysis
    positionals: tuple[tuple[str, str], ...] = _PORT
    all_help: Optional[str] = "analyze every port and print the rollup"
    variant: bool = True
    json_help: Optional[str] = "machine-readable records"
    jobs: bool = True
    failure: Optional[Failure] = None
    suite_kwargs: Mapping[str, Any] = field(default_factory=dict)
    port_json: Callable[[Any], Any] = lambda rec: [rec.to_dict()]
    #: extra ``--format`` choices: name -> emit(records)
    formats: Mapping[str, Callable[[list], str]] = field(default_factory=dict)
    #: list the ``--fail-on`` hits in every mode, not only ``--all`` text
    list_gate_hits: bool = True


def _fail_on(choices: tuple[str, ...], help_text: str) -> Arg:
    return _arg("--fail-on", dest="fail_on", default=None, choices=choices,
                help=help_text)


def _lint_sarif(records) -> str:
    from repro.lint.sarif import reports_to_sarif
    return json.dumps(reports_to_sarif(rec.report for rec in records),
                      indent=2)


def _lint_github(records) -> str:
    from repro.lint.findings import github_annotations
    return github_annotations(*(rec.report for rec in records))


_REFUTED = "\nREFUTED certificates:"

#: the analysis subcommands, in ``--help`` order
ANALYSES: tuple[Analysis, ...] = (
    Analysis(
        "lint", "the directive verifier: findings per port, or the "
                "per-model lint-density table with --all",
        layer=_lazy("repro.lint.suite", "lint_suite", "lint_record"),
        stats=_lazy("repro.metrics.lintstats", "lint_density",
                    "render_lint_density", "render_lint_port", "lint_gate"),
        options=(_arg("--sarif", action="store_true",
                      help="same as --format sarif"),
                 _arg("--format", default=None,
                      choices=("text", "json", "sarif", "github"),
                      help="output format: sarif is SARIF 2.1.0 (GitHub "
                           "code scanning), github emits ::error/::warning "
                           "workflow annotations; --json and --sarif are "
                           "aliases"),
                 _fail_on(("error", "warning", "info"),
                          "exit 1 if any finding is at/above this "
                          "severity")),
        port_json=lambda rec: rec.report.to_dict(),
        formats={"sarif": _lint_sarif, "github": _lint_github},
        list_gate_hits=False),
    Analysis(
        "xfer", "whole-program transfer coherence analysis: a verdict per "
                "transfer, or the per-model rollup with --all",
        layer=_lazy("repro.dataflow.suite", "xfer_suite", "xfer_port"),
        suite_kwargs={"models": ALL_MODELS},
        stats=_lazy("repro.metrics.xferstats", "xfer_rollup",
                    "render_xfer_rollup", "render_xfer_port", "xfer_gate"),
        options=(_fail_on(("error", "warning"),
                          "exit 1 if any XFER/COH finding is at/above this "
                          "severity (COH errors always exit 2)"),),
        # a COH error means the port's transfer discipline itself is
        # unsound, not merely a gated finding: exit 2 like a usage error
        failure=Failure(2, "\nCOH errors (stale reads the state machine "
                           "proves possible):",
                        *_lazy("repro.metrics.xferstats", "coh_errors")),
        scale="test", scale_help="workload scale used for transfer byte "
                                 "sizes"),
    Analysis(
        "locality", "cache-locality suite: replayed L1/L2 metrics next to "
                    "the static reuse analyzer's predictions, or the "
                    "per-model rollup of all six models with --all",
        layer=_lazy("repro.gpusim.locality", "locality_suite",
                    "locality_port"),
        stats=_lazy("repro.metrics.cachestats", "cache_rollup",
                    "render_cache_rollup", "render_locality_port",
                    "cache_gate"),
        options=(_fail_on(("error", "warning"),
                          "exit 1 if the CACHE lint family reports a "
                          "finding at/above this severity"),),
        scale="test", scale_help="workload scale used for the trace replay"),
    Analysis(
        "tv", "translation validator: equivalence certificates for every "
              "lowered region, or the per-model matrix with --all",
        layer=_lazy("repro.tv.suite", "validate_suite", "validate_port"),
        stats=_lazy("repro.metrics.tvstats", "tv_matrix",
                    "render_tv_matrix", "render_tv_port", "tv_gate"),
        options=(_fail_on(("warning", "error"),
                          "also exit 1 on UNKNOWN certificates (REFUTED "
                          "always exits 1)"),),
        failure=Failure(1, _REFUTED,
                        *_lazy("repro.metrics.tvstats", "tv_refuted")),
        port_json=lambda rec: rec.to_dict()),
    Analysis(
        "translate", "cross-model directive translation through the "
                     "neutral IR, tv-certified against the source; --all "
                     "for the shipped pair matrix",
        positionals=(
            ("benchmark", "benchmark name (e.g. jacobi)"),
            ("src", "source model name or alias (e.g. openacc)"),
            ("dst", "target model name or alias (e.g. omp-target)")),
        layer=_lazy("repro.translate.suite", "translate_suite",
                    "translate_pair"),
        stats=_lazy("repro.metrics.translatestats", "translate_matrix",
                    "render_translate_matrix", "render_translate_port",
                    "translate_gate"),
        options=(_fail_on(("warning", "error"),
                          "also exit 1 on dropped clauses or UNKNOWN "
                          "certificates (REFUTED always exits 1)"),),
        failure=Failure(1, _REFUTED, *_lazy("repro.metrics.translatestats",
                                            "translate_refuted"))),
)


# ---------------------------------------------------------------------------
# The report rows
# ---------------------------------------------------------------------------

def _cmd_profile(row: Command, args: argparse.Namespace) -> int:
    from repro.gpusim.device import TESLA_M2090
    from repro.gpusim.profiler import chrome_trace_document
    from repro.gpusim.timing import TimingConfig
    from repro.obs.profile import (profile_run, profile_suite,
                                   render_run_profile,
                                   render_suite_profiles)
    from repro.obs.tracer import Tracer, make_manifest, tracing

    tracer = Tracer(manifest=make_manifest(
        TESLA_M2090, TimingConfig(), args.scale))
    with tracing(tracer):
        one = _port(row, args, profile_run, variant=args.variant,
                    scale=args.scale)
    profiles, tracer = ([one], tracer) if one is not None \
        else profile_suite(scale=args.scale, jobs=args.jobs)
    if args.json:
        print(json.dumps([p.to_dict() for p in profiles], indent=2))
    elif args.all_ports:
        print(render_suite_profiles(profiles))
    else:
        print(render_run_profile(profiles[0]))
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
        print(f"wrote {len(tracer.spans)} spans to {args.jsonl}",
              file=sys.stderr)
    if args.chrome:
        with open(args.chrome, "w") as handle:
            json.dump(chrome_trace_document(
                [], extra_events=tracer.chrome_events(pid=1000)), handle)
        print(f"wrote Chrome trace to {args.chrome}", file=sys.stderr)
    return 0


def _cmd_baseline(_row: Command, args: argparse.Namespace) -> int:
    from repro.obs.baseline import (DEFAULT_BASELINE_PATH, DEFAULT_TOLERANCE,
                                    check_baseline, record_baseline)

    path = args.baseline or DEFAULT_BASELINE_PATH
    if args.tolerance is not None and not 0.0 <= args.tolerance < math.inf:
        raise UsageError("baseline: --tolerance must be finite and >= 0 "
                         f"(got {args.tolerance})")
    if os.path.isdir(path):
        raise UsageError(f"baseline: --baseline path {path!r} is a "
                         "directory")
    try:
        if args.action == "record":
            for name in args.benchmarks or ():
                get_benchmark(name)
            doc = record_baseline(path, benchmarks=args.benchmarks or None,
                                  scale=args.scale or "paper",
                                  tolerance=DEFAULT_TOLERANCE
                                  if args.tolerance is None
                                  else args.tolerance,
                                  jobs=args.jobs)
            n = sum(len(m) for m in doc["entries"].values())
            print(f"recorded {n} entries to {path} "
                  f"(config {doc['manifest']['config_hash']})")
            return 0
        if args.benchmarks is not None:
            raise UsageError("baseline: --benchmarks applies to 'record' "
                             "only")
        if args.scale is not None:
            raise UsageError("baseline: --scale applies to 'record' only; "
                             "'check' takes the scale from the baseline's "
                             "manifest")
        try:
            with open(path, encoding="utf-8") as handle:
                json.load(handle)
        except ValueError as exc:
            raise UsageError(f"baseline: {path!r} is not a baseline "
                             f"document ({exc})") from None
        diff = check_baseline(path, tolerance=args.tolerance, jobs=args.jobs)
        print(diff.render())
        return 2 if diff.failed else 0
    except FileNotFoundError:
        raise UsageError(f"baseline: no baseline at {path!r} — run "
                         f"'repro-harness baseline record' first") from None
    except KeyError as exc:
        raise UsageError(f"baseline: {exc.args[0]}") from exc


def _cmd_passes(row: Command, args: argparse.Namespace) -> int:
    from repro.models import DIRECTIVE_MODELS
    from repro.models.cache import compile_port
    from repro.pipeline import render_pass_report, render_pass_summary

    one = _port(row, args, compile_port, args.variant)
    if one is not None:
        print(render_pass_report(one[1]))
        return 0
    # the suite smoke: one line per region, every Table-II port
    rejected = 0
    for bench_name in BENCHMARK_ORDER:
        for model in DIRECTIVE_MODELS:
            _, compiled, variant = compile_port(bench_name, model)
            print(f"{compiled.program.name} / {model} ({variant}): "
                  f"{compiled.regions_translated}/"
                  f"{compiled.regions_total} regions")
            print(render_pass_summary(compiled))
            rejected += compiled.regions_total - compiled.regions_translated
    print(f"\n{rejected} region(s) rejected across the suite "
          "(expected: Table II's uncovered regions)")
    return 0


def _cmd_all(_row: Command, args: argparse.Namespace) -> int:
    import time

    from repro.harness.report import render_bottleneck_section
    from repro.harness.rollup import build_rollup, render_rollup, timing_meta
    from repro.obs.selfprof import attribute_spans
    from repro.obs.tracer import Tracer, tracing

    if args.journal and args.jobs == 1:
        raise UsageError("all: --journal requires --jobs > 1 (units run "
                         "in-process record their spans into all's trace "
                         "and journal none, so a --jobs 1 journal could "
                         "never resume)")
    tracer = Tracer()
    t_wall = time.perf_counter()
    with tracing(tracer):   # also captures the parent-side sweep.merge span
        results, profiles, sweep = run_evaluation(
            coverage=True, speedups=True, profiles=True, scale=args.scale,
            jobs=args.jobs, journal=args.journal)
    attribution = attribute_spans(tracer.spans,
                                  wall_s=time.perf_counter() - t_wall)

    if args.json:
        meta = {"jobs": args.jobs, "scale": args.scale,
                "generated_unix": time.time(),
                "timing": timing_meta(attribution, sweep.stats),
                "sweep": sweep.stats.to_dict()}
        print(render_rollup(build_rollup(results, profiles, meta)))
        return 0

    print("Table I")
    print(render_table1())
    print()
    _render_table2_text(results)
    print()
    print(render_figure1(results.speedups))
    print()
    print(render_bottleneck_section(profiles))
    print()
    print(sweep.stats.store_summary())
    print(sweep.stats.shard_summary())
    phases = attribution.phase_seconds()
    breakdown = ", ".join(f"{name} {seconds * 1e3:.0f} ms"
                          for name, seconds in sorted(
                              phases.items(), key=lambda kv: -kv[1])
                          if seconds > 0)
    print(f"self-profile: wall {attribution.wall_s * 1e3:.0f} ms — "
          f"{breakdown} (details: repro-harness selfprof --all)")
    return 0


def _cmd_selfprof(row: Command, args: argparse.Namespace) -> int:
    from repro.harness.parallel import (SweepContext, run_sweep,
                                        selfprof_pair_units, selfprof_units)
    from repro.models import resolve_model
    from repro.obs.flamegraph import write_collapsed
    from repro.obs.metrics import metrics_from_spans, render_metrics_json
    from repro.obs.selfprof import attribute_spans, render_attribution
    from repro.obs.tracer import Tracer, tracing

    if args.deterministic and not args.metrics:
        raise UsageError("selfprof: --deterministic requires --metrics")
    if args.top < 0:
        raise UsageError(f"selfprof: --top must be >= 0 (got {args.top})")
    if args.min_coverage is not None \
            and not 0.0 <= args.min_coverage <= 1.0:
        raise UsageError(f"selfprof: --min-coverage must be within "
                         f"[0, 1] (got {args.min_coverage})")

    def pair_units(bench: str, model: str):
        model = resolve_model(model)
        get_benchmark(bench)
        return selfprof_pair_units(bench, model, scale=args.scale)

    units = _port(row, args, pair_units)
    if units is None:
        units = selfprof_units(scale=args.scale)

    jobs = args.jobs
    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("selfprof.suite", "harness", scale=args.scale,
                         jobs=jobs):
            sweep = run_sweep(units, jobs=jobs,
                              context=SweepContext(scale=args.scale))

    attribution = attribute_spans(tracer.spans)
    stats = sweep.stats
    if args.flamegraph:
        rows = write_collapsed(args.flamegraph, tracer.spans)
        print(f"wrote {rows} collapsed stacks to {args.flamegraph}",
              file=sys.stderr)
    registry = metrics_from_spans(tracer.spans, stats)
    if args.metrics:
        doc = registry.to_dict(deterministic_only=args.deterministic)
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(render_metrics_json(doc) + "\n")
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(registry.to_openmetrics())

    if args.json:
        print(json.dumps({"selfprof": attribution.to_dict(),
                          "sweep": stats.to_dict()},
                         indent=2, sort_keys=True))
    else:
        worker_stats = {
            "workers": stats.jobs,
            "units": f"{stats.units_total} "
                     f"({stats.units_executed} executed)",
            "utilization": f"{stats.utilization():.1%}",
            "busy / wait": f"{stats.busy_s * 1e3:.0f} ms / "
                           f"{stats.wait_s * 1e3:.0f} ms",
        }
        print(render_attribution(attribution, top=args.top,
                                 worker_stats=worker_stats))
    if args.min_coverage is not None \
            and attribution.coverage < args.min_coverage:
        print(f"selfprof: named-phase coverage "
              f"{attribution.coverage:.1%} is below the required "
              f"{args.min_coverage:.1%}", file=sys.stderr)
        return 1
    return 0


#: every subcommand, in ``--help`` order
COMMANDS: tuple[Command, ...] = (
    Command("table1", "feature matrix", _cmd_table1),
    Command("table2", "coverage and code-size", _cmd_table2, jobs=True),
    Command("figure1", "speedup sweep", _cmd_figure1, scale="paper",
            jobs=True, options=(_arg("--csv", action="store_true"),)),
    # a single run is one work unit; --jobs is accepted (and validated)
    # for interface uniformity with the sweep subcommands
    Command("run", "run one benchmark functionally", _cmd_run,
            scale="test", jobs=True,
            options=(_arg("benchmark", choices=BENCHMARK_ORDER),
                     _arg("model", choices=RUNNABLE_MODELS),
                     _arg("--variant", default="best"))),
    Command("validate", "functional validation sweep (test scale)",
            _cmd_validate,
            options=(_arg("benchmarks", nargs="*", metavar="BENCH"),
                     _arg("--elide-transfers", action="store_true",
                          help="validate the analysis-guided "
                               "transfer-elision flavour of every port"))),
    Command("compare", "explain one model-vs-model gap", _cmd_compare,
            scale="paper",
            options=(_arg("benchmark", choices=BENCHMARK_ORDER),
                     _arg("model_a", choices=RUNNABLE_MODELS),
                     _arg("model_b", choices=RUNNABLE_MODELS),
                     _arg("--variant", default="best"))),
    *ANALYSES,
    Command("profile", "per-kernel simulated counters and bottleneck "
                       "attribution for one port or --all", _cmd_profile,
            _PORT, all_help="profile every benchmark x Figure-1 model pair",
            variant=True, scale="paper",
            json_help="machine-readable profiles", jobs=True,
            outputs=(("jsonl", "write the span trace as JSONL"),
                     ("chrome", "write a chrome://tracing document"))),
    Command("selfprof", "harness self-profile: wall-clock attribution "
                        "per phase, flamegraph + metrics export",
            _cmd_selfprof, _PORT,
            all_help="profile the stratified full-suite workload",
            scale="test", scale_help="paper profiles the Figure-1 path "
                                     "(eval units only)",
            json_help="machine-readable attribution + sweep stats",
            jobs=True,
            outputs=(("flamegraph", "write collapsed stacks (flamegraph.pl "
                                    "/ speedscope folded format)"),
                     ("metrics", "write the metrics derived from the span "
                                 "tree as canonical JSON"),
                     ("openmetrics", "write OpenMetrics/Prometheus text "
                                     "exposition")),
            options=(_arg("--top", type=int, default=8, metavar="N",
                          help="detail rows per phase in the text report"),
                     _arg("--deterministic", action="store_true",
                          help="restrict --metrics to deterministic "
                               "families (byte-identical for any --jobs)"),
                     _arg("--min-coverage", type=float, default=None,
                          metavar="FRAC",
                          help="exit 1 if named-phase coverage falls "
                               "below FRAC (e.g. 0.95)"))),
    Command("passes", "pass-pipeline report: per-pass state diffs and "
                      "rejection attribution for one port or --all",
            _cmd_passes, _PORT,
            all_help="one summary line per region for every benchmark x "
                     "model pair", variant=True),
    Command("baseline", "record or check the perf-regression baseline",
            _cmd_baseline, jobs=True,
            options=(_arg("action", choices=("record", "check")),
                     _arg("--scale", default=None, choices=("test", "paper"),
                          help="workload scale for 'record' (default: "
                               "paper); 'check' reads it from the "
                               "baseline's manifest"),
                     _arg("--baseline", default=None, metavar="PATH",
                          help="baseline file (default: "
                               "benchmarks/baselines/figure1-paper.json)"),
                     _arg("--benchmarks", nargs="*", default=None,
                          metavar="BENCH",
                          help="restrict 'record' to these benchmarks"),
                     _arg("--tolerance", type=float, default=None,
                          help="relative tolerance (default: the "
                               "baseline's own, 2%%)"))),
    Command("all", "everything", _cmd_all, scale="paper",
            json_help="emit the machine-readable rollup (the 'results' "
                      "section is byte-identical for any --jobs value)",
            jobs=True,
            outputs=(("journal", "checkpoint/resume journal for the "
                                 "sharded sweep (requires --jobs > 1: units "
                                 "run in-process journal no spans, so a "
                                 "--jobs 1 journal could never resume); an "
                                 "interrupted sweep restarts only the "
                                 "missing work units"),)),
)


def _add_command(sub, row: Command) -> None:
    p = sub.add_parser(row.name, help=row.help)
    for dest, help_text in row.positionals:
        p.add_argument(dest, nargs="?", default=None, help=help_text)
    if row.variant:
        p.add_argument("--variant", default=None,
                       help="port variant (default: the model's best)")
    if row.scale:
        p.add_argument("--scale", default=row.scale,
                       choices=("test", "paper"), help=row.scale_help)
    if row.json_help:
        p.add_argument("--json", action="store_true", help=row.json_help)
    for flags, kwargs in row.options:
        p.add_argument(*flags, **kwargs)
    if row.all_help:
        p.add_argument("--all", action="store_true", dest="all_ports",
                       help=row.all_help)
    for flag, help_text in row.outputs:
        p.add_argument(f"--{flag}", default=None, metavar="PATH",
                       help=help_text)
    if row.jobs:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (default 1 = "
                            "in-process; results are identical for any "
                            "value)")
    p.set_defaults(func=functools.partial(_run_command, row))


def _run_command(row: Command, args: argparse.Namespace) -> int:
    """Reject a bad ``--jobs`` and unwritable output paths before any
    work, then run the row's handler."""
    if row.jobs and args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1 (got {args.jobs})")
    for flag, _ in row.outputs:
        _check_writable(row.name, flag, getattr(args, flag))
    return row.run(row, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figure of Lee & Vetter, "
                    "SC'12 (directive-based GPU model evaluation).")
    sub = parser.add_subparsers(dest="command", required=True)
    for row in COMMANDS:
        _add_command(sub, row)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
