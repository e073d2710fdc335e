"""Command-line entry point: ``repro-harness`` / ``python -m repro.harness``.

Subcommands regenerate the paper's evaluation artifacts:

* ``table1`` — the feature matrix;
* ``table2`` — coverage + code-size increase over the 13-benchmark suite;
* ``figure1`` — per-benchmark speedups for every model (text bars/CSV);
* ``run BENCH MODEL`` — one functional run with validation and a trace;
* ``lint``, ``xfer``, ``locality``, ``tv``, ``translate`` — the five
  analysis subcommands, one row each of :data:`ANALYSES`: one port
  (``BENCH MODEL``; ``BENCH SRC DST`` for translate) or ``--all`` for
  the per-model rollup, ``--json`` for the records, ``--fail-on`` to
  gate CI on the row's findings.  REFUTED certificates exit 1 and COH
  stale-read errors exit 2 whatever the threshold;
* ``profile [BENCH MODEL]`` — per-kernel simulated counters with
  bottleneck attribution (``--all`` sweeps the Figure-1 matrix;
  ``--jsonl``/``--chrome`` write the trace artifacts);
* ``passes [BENCH MODEL]`` — the pass-pipeline report: per-pass state
  diffs and, for untranslated regions, which pass rejected them
  (``--all`` for the one-line-per-region suite smoke);
* ``baseline record|check`` — the perf-regression gate over the
  committed baseline (``check`` exits 2 on regression/drift);
* ``selfprof [BENCH MODEL]`` — the harness *self*-profile: wall-clock
  attribution per phase (compile/analyze/execute/simulate/merge) over
  the span tree, worker utilization, ``--flamegraph`` collapsed-stack
  export, ``--metrics``/``--openmetrics`` export of the metric families
  derived from the span tree (``--deterministic`` restricts to the
  jobs-invariant families); ``--scale paper`` profiles the Figure-1
  path (eval units only);
* ``all`` — everything (the EXPERIMENTS.md payload); ``--json`` emits
  the machine-readable rollup, ``--journal`` checkpoints the sharded
  sweep for resume.

Every sweep subcommand takes ``--jobs N`` (default 1 = the serial
path).  ``N > 1`` shards the (benchmark, model) work-unit graph across
worker processes (:mod:`repro.harness.parallel`) and merges results in
registry order — output is independent of the worker count.

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
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Optional

from repro.benchmarks.base import ALL_MODELS
from repro.benchmarks.registry import BENCHMARK_ORDER, get_benchmark
from repro.harness.compare import compare_models
from repro.harness.report import (render_figure1, render_figure1_csv,
                                  render_table2)
from repro.harness.runner import (run_coverage_and_codesize, run_speedups)
from repro.harness.validate import validate_suite
from repro.models.features import render_table1


class UsageError(Exception):
    """A CLI usage error: message goes to stderr, process exits 2."""


#: models `run`/`compare` accept: the Figure-1 set plus the post-paper
#: OpenMP-Target compiler (runnable and validated, outside Figure 1)
RUNNABLE_MODELS: tuple[str, ...] = ALL_MODELS + ("OpenMP-Target",)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep (default 1 = "
                             "the serial path; results are identical for "
                             "any value)")


def _require_port_args(cmd: str, args: argparse.Namespace) -> None:
    """BENCH and MODEL are mandatory for port subcommands without --all."""
    if getattr(args, "all_ports", False):
        return
    if not args.benchmark or not args.model:
        raise UsageError(
            f"{cmd}: BENCH and MODEL are required unless --all is given")


def _resolve_port(cmd: str, fn, *fn_args, **fn_kwargs):
    """Run a port-resolving callable, mapping the KeyErrors the model /
    benchmark / variant lookups raise (argparse cannot pre-validate
    aliases or per-benchmark variants) to :class:`UsageError`."""
    try:
        return fn(*fn_args, **fn_kwargs)
    except KeyError as exc:
        raise UsageError(f"{cmd}: {exc.args[0]}") from exc


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(render_table1())
    return 0


def _parallel_evaluation(jobs: int, *, scale: str = "paper",
                         coverage: bool = False, speedups: bool = False,
                         profiles: bool = False,
                         journal: str | None = None):
    """One sharded sweep covering whatever the subcommand needs.

    Returns ``(EvaluationResults, run_profiles, SweepResult)``; a
    fused unit graph means each port is lowered exactly once even when
    coverage, speedups, and profiles are all requested.
    """
    from repro.harness.parallel import (SweepContext, evaluation_units,
                                        merge_evaluation, run_sweep)

    units = evaluation_units(coverage=coverage, speedups=speedups,
                             profiles=profiles)
    sweep = run_sweep(units, jobs=jobs, journal=journal,
                      context=SweepContext(scale=scale))
    results, run_profiles = merge_evaluation(sweep.outcomes)
    return results, run_profiles, sweep


def _render_table2_text(results) -> None:
    print(render_table2(results))
    failures = []
    for model, cov in results.coverage.items():
        for prog, region, feature in cov.failures:
            failures.append(f"  {model}: {prog}/{region}: {feature}")
    if failures:
        print("\nUntranslated regions:")
        print("\n".join(failures))


def _cmd_table2(args: argparse.Namespace) -> int:
    if args.jobs > 1:
        results, _, _ = _parallel_evaluation(args.jobs, coverage=True)
    else:
        results = run_coverage_and_codesize()
    _render_table2_text(results)
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    if args.jobs > 1:
        results, _, _ = _parallel_evaluation(args.jobs, scale=args.scale,
                                             speedups=True)
        speedups = results.speedups
    else:
        speedups = run_speedups(scale=args.scale)
    if args.csv:
        print(render_figure1_csv(speedups))
    else:
        print(render_figure1(speedups))
    return 0


def _check_variant(cmd: str, bench, model: str, variant: str) -> None:
    """``variant`` must be ``best`` or one of the port's own variants."""
    known = _resolve_port(cmd, bench.variants, model)
    if variant != "best" and variant not in known:
        raise UsageError(f"{cmd}: unknown variant {variant!r} for "
                         f"{bench.name}/{model}; known: {list(known)}")


def _cmd_run(args: argparse.Namespace) -> int:
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


def _cmd_validate(args: argparse.Namespace) -> int:
    for name in args.benchmarks:
        _resolve_port("validate", get_benchmark, name)
    names = args.benchmarks or None
    matrix = validate_suite(benchmarks=names,
                            elide_transfers=args.elide_transfers)
    print(matrix.render())
    return 0 if matrix.passed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.benchmark)
    for model in (args.model_a, args.model_b):
        _check_variant("compare", bench, model, args.variant)
    print(compare_models(bench, args.model_a, args.model_b,
                         variant=args.variant, scale=args.scale))
    return 0


# ---------------------------------------------------------------------------
# The analysis table: one row per analysis subcommand
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


@dataclass(frozen=True)
class Analysis:
    """One analysis subcommand: :func:`_add_analysis` builds its parser
    and :func:`_cmd_analysis` runs it.

    ``name`` is also the work-unit kind ``--jobs`` shards
    (:data:`repro.harness.parallel.UNIT_RUNNERS`).  ``layer`` is
    ``(suite, port)``: ``suite(jobs=, **suite_kwargs)`` for ``--all``,
    ``port(*positionals, variant=)`` for one port, both with ``scale=``
    if the row takes ``--scale``.  ``stats`` is the row's
    ``metrics/*stats.py`` quartet ``(rollup, render, render_port,
    gate)``: ``--all`` text is ``render(rollup(records))``, one port's
    ``render_port(record)``; ``gate(records)`` yields the ``(severity,
    line)`` rows ``--fail-on`` thresholds.  JSON is each record's
    ``to_dict()`` (``port_json`` for one port).
    """

    name: str
    help: str
    positionals: tuple[tuple[str, str], ...]
    layer: tuple[Callable, ...]
    stats: tuple[Callable, ...]
    fail_on: tuple[str, ...]
    fail_on_help: str
    failure: Optional[Failure] = None
    scale_help: Optional[str] = None
    suite_kwargs: Mapping[str, Any] = field(default_factory=dict)
    port_json: Callable[[Any], Any] = lambda rec: [rec.to_dict()]
    #: extra ``--format`` choices: name -> emit(records)
    formats: Mapping[str, Callable[[list], str]] = field(default_factory=dict)
    format_help: str = ""
    #: extra formats that also get a ``--NAME`` switch, like ``--json``
    aliases: tuple[str, ...] = ()
    #: list the ``--fail-on`` hits in every mode, not only ``--all`` text
    list_gate_hits: bool = True


def _lint_sarif(records) -> str:
    from repro.lint.sarif import reports_to_sarif
    return json.dumps(reports_to_sarif(rec.report for rec in records),
                      indent=2)


def _lint_github(records) -> str:
    from repro.lint.findings import github_annotations
    return github_annotations(*(rec.report for rec in records))


_PORT = (("benchmark", "benchmark name (e.g. jacobi)"),
         ("model", "model name or alias (e.g. openacc)"))
_REFUTED = "\nREFUTED certificates:"

#: the analysis subcommands, in ``--help`` order
ANALYSES: tuple[Analysis, ...] = (
    Analysis(
        "lint", "the directive verifier: findings per port, or the "
                "per-model lint-density table with --all", _PORT,
        layer=_lazy("repro.lint.suite", "lint_suite", "lint_record"),
        stats=_lazy("repro.metrics.lintstats", "lint_density",
                    "render_lint_density", "render_lint_port", "lint_gate"),
        fail_on=("error", "warning", "info"),
        fail_on_help="exit 1 if any finding is at/above this severity",
        port_json=lambda rec: rec.report.to_dict(),
        formats={"sarif": _lint_sarif, "github": _lint_github},
        format_help="output format: sarif is SARIF 2.1.0 (GitHub code "
                    "scanning), github emits ::error/::warning workflow "
                    "annotations; --json and --sarif are aliases",
        aliases=("sarif",), list_gate_hits=False),
    Analysis(
        "xfer", "whole-program transfer coherence analysis: a verdict per "
                "transfer, or the per-model rollup with --all", _PORT,
        layer=_lazy("repro.dataflow.suite", "xfer_suite", "xfer_port"),
        suite_kwargs={"models": ALL_MODELS},
        stats=_lazy("repro.metrics.xferstats", "xfer_rollup",
                    "render_xfer_rollup", "render_xfer_port", "xfer_gate"),
        fail_on=("error", "warning"),
        fail_on_help="exit 1 if any XFER/COH finding is at/above this "
                     "severity (COH errors always exit 2)",
        # a COH error means the port's transfer discipline itself is
        # unsound, not merely a gated finding: exit 2 like a usage error
        failure=Failure(2, "\nCOH errors (stale reads the state machine "
                           "proves possible):",
                        *_lazy("repro.metrics.xferstats", "coh_errors")),
        scale_help="workload scale used for transfer byte sizes"),
    Analysis(
        "locality", "cache-locality suite: replayed L1/L2 metrics next to "
                    "the static reuse analyzer's predictions, or the "
                    "per-model rollup of all six models with --all", _PORT,
        layer=_lazy("repro.gpusim.locality", "locality_suite",
                    "locality_port"),
        stats=_lazy("repro.metrics.cachestats", "cache_rollup",
                    "render_cache_rollup", "render_locality_port",
                    "cache_gate"),
        fail_on=("error", "warning"),
        fail_on_help="exit 1 if the CACHE lint family reports a finding "
                     "at/above this severity",
        scale_help="workload scale used for the trace replay"),
    Analysis(
        "tv", "translation validator: equivalence certificates for every "
              "lowered region, or the per-model matrix with --all", _PORT,
        layer=_lazy("repro.tv.suite", "validate_suite", "validate_port"),
        stats=_lazy("repro.metrics.tvstats", "tv_matrix",
                    "render_tv_matrix", "render_tv_port", "tv_gate"),
        fail_on=("warning", "error"),
        fail_on_help="also exit 1 on UNKNOWN certificates (REFUTED always "
                     "exits 1)",
        failure=Failure(1, _REFUTED,
                        *_lazy("repro.metrics.tvstats", "tv_refuted")),
        port_json=lambda rec: rec.to_dict()),
    Analysis(
        "translate", "cross-model directive translation through the "
                     "neutral IR, tv-certified against the source; --all "
                     "for the shipped pair matrix",
        (("benchmark", "benchmark name (e.g. jacobi)"),
         ("src", "source model name or alias (e.g. openacc)"),
         ("dst", "target model name or alias (e.g. omp-target)")),
        layer=_lazy("repro.translate.suite", "translate_suite",
                    "translate_pair"),
        stats=_lazy("repro.metrics.translatestats", "translate_matrix",
                    "render_translate_matrix", "render_translate_port",
                    "translate_gate"),
        fail_on=("warning", "error"),
        fail_on_help="also exit 1 on dropped clauses or UNKNOWN "
                     "certificates (REFUTED always exits 1)",
        failure=Failure(1, _REFUTED, *_lazy("repro.metrics.translatestats",
                                            "translate_refuted"))),
)


def _output_format(row: Analysis, args: argparse.Namespace) -> str:
    """``--format``, or the one ``--json``/alias switch given, or text."""
    switches = [name for name in (*row.aliases, "json")
                if getattr(args, name)]
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
    names = [getattr(args, dest) for dest, _ in row.positionals]
    metavars = " ".join(dest.upper() for dest, _ in row.positionals)
    kwargs = {"scale": args.scale} if row.scale_help else {}
    suite, port = row.layer
    rollup, render, render_port, gate = row.stats
    if args.all_ports and any(names):
        raise UsageError(f"{row.name}: --all takes no {metavars} "
                         f"arguments (got {' '.join(filter(None, names))})")
    if not args.all_ports and not all(names):
        raise UsageError(f"{row.name}: {metavars} are required unless "
                         "--all is given")
    if args.all_ports:
        records = suite(jobs=args.jobs, **row.suite_kwargs, **kwargs)
    else:
        records = [_resolve_port(row.name, port, *names,
                                 variant=args.variant, **kwargs)]
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


def _add_analysis(sub, row: Analysis) -> None:
    p = sub.add_parser(row.name, help=row.help)
    for dest, help_text in row.positionals:
        p.add_argument(dest, nargs="?", default=None, help=help_text)
    p.add_argument("--variant", default=None,
                   help="port variant (default: the model's best)")
    if row.scale_help:
        p.add_argument("--scale", default="test", choices=("test", "paper"),
                       help=row.scale_help)
    p.add_argument("--json", action="store_true",
                   help="machine-readable records")
    for name in row.aliases:
        p.add_argument(f"--{name}", action="store_true",
                       help=f"same as --format {name}")
    if row.formats:
        p.add_argument("--format", default=None,
                       choices=("text", "json", *row.formats),
                       help=row.format_help)
    p.add_argument("--all", action="store_true", dest="all_ports",
                   help="analyze every port and print the rollup")
    p.add_argument("--fail-on", dest="fail_on", default=None,
                   choices=row.fail_on, help=row.fail_on_help)
    _add_jobs(p)
    p.set_defaults(func=functools.partial(_cmd_analysis, row))


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.gpusim.profiler import chrome_trace_document
    from repro.obs.profile import (profile_run, profile_suite,
                                   render_run_profile,
                                   render_suite_profiles)
    from repro.obs.tracer import Tracer, make_manifest, tracing
    from repro.gpusim.device import TESLA_M2090
    from repro.gpusim.timing import TimingConfig

    _require_port_args("profile", args)
    if args.all_ports:
        profiles, tracer = profile_suite(scale=args.scale,
                                         jobs=args.jobs)
    else:
        tracer = Tracer(manifest=make_manifest(
            TESLA_M2090, TimingConfig(), args.scale))
        with tracing(tracer):
            profiles = [_resolve_port("profile", profile_run,
                                      args.benchmark, args.model,
                                      variant=args.variant,
                                      scale=args.scale)]
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


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.obs.baseline import (DEFAULT_BASELINE_PATH, check_baseline,
                                    record_baseline)

    path = args.baseline or DEFAULT_BASELINE_PATH
    benchmarks = args.benchmarks or None
    jobs = args.jobs
    try:
        if args.action == "record":
            from repro.obs.baseline import DEFAULT_TOLERANCE
            doc = record_baseline(path, benchmarks=benchmarks,
                                  scale=args.scale,
                                  tolerance=args.tolerance
                                  if args.tolerance is not None
                                  else DEFAULT_TOLERANCE,
                                  jobs=jobs)
            n = sum(len(m) for m in doc["entries"].values())
            print(f"recorded {n} entries to {path} "
                  f"(config {doc['manifest']['config_hash']})")
            return 0
        diff = check_baseline(path, tolerance=args.tolerance, jobs=jobs)
        print(diff.render())
        return 2 if diff.failed else 0
    except FileNotFoundError:
        raise UsageError(f"baseline: no baseline at {path!r} — run "
                         f"'repro-harness baseline record' first") from None
    except KeyError as exc:
        raise UsageError(f"baseline: {exc.args[0]}") from exc


def _cmd_passes(args: argparse.Namespace) -> int:
    from repro.models import DIRECTIVE_MODELS
    from repro.models.cache import compile_port
    from repro.pipeline import render_pass_report, render_pass_summary

    if args.all_ports:
        # the suite smoke: one line per region, every Table-II port
        rejected = 0
        for bench_name in BENCHMARK_ORDER:
            for model in DIRECTIVE_MODELS:
                _, compiled, variant = compile_port(bench_name, model)
                print(f"{compiled.program.name} / {model} ({variant}): "
                      f"{compiled.regions_translated}/"
                      f"{compiled.regions_total} regions")
                print(render_pass_summary(compiled))
                rejected += (compiled.regions_total
                             - compiled.regions_translated)
        print(f"\n{rejected} region(s) rejected across the suite "
              "(expected: Table II's uncovered regions)")
        return 0
    _require_port_args("passes", args)
    _, compiled, _ = _resolve_port("passes", compile_port, args.benchmark,
                                   args.model, args.variant)
    print(render_pass_report(compiled))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    import time

    from repro.benchmarks.registry import iter_suite
    from repro.harness.report import render_bottleneck_section
    from repro.harness.rollup import build_rollup, render_rollup, timing_meta
    from repro.models.cache import cache_stats
    from repro.obs.merge import absorb_payloads
    from repro.obs.profile import profile_suite
    from repro.obs.selfprof import attribute_spans
    from repro.obs.tracer import Tracer, tracing

    jobs = args.jobs
    _check_writable("all", "journal", args.journal)
    sweep = None
    tracer = Tracer()
    t_wall = time.perf_counter()
    if jobs > 1:
        with tracing(tracer):   # captures the parent-side sweep.merge span
            results, profiles, sweep = _parallel_evaluation(
                jobs, scale=args.scale, coverage=True, speedups=True,
                profiles=True, journal=args.journal)
            absorb_payloads(tracer, sweep.span_payloads(),
                            lanes=[o.worker for o in sweep.outcomes])
    else:
        if args.journal:
            raise UsageError("all: --journal requires --jobs > 1 "
                             "(the serial path does not checkpoint)")
        benches = list(iter_suite())
        with tracing(tracer):
            results = run_coverage_and_codesize(benches)
            results.speedups = run_speedups(benches, scale=args.scale)
            profiles, prof_tracer = profile_suite(scale=args.scale)
        # profile_suite traces into its own tracer; pull its spans in so
        # the attribution covers the profile phase too
        tracer.absorb_spans([sp.to_dict() for sp in prof_tracer.spans])
    attribution = attribute_spans(tracer.spans,
                                  wall_s=time.perf_counter() - t_wall)

    if args.json:
        meta = {"jobs": jobs, "scale": args.scale,
                "generated_unix": time.time(),
                "timing": timing_meta(
                    attribution,
                    sweep.stats if sweep is not None else None)}
        if sweep is not None:
            meta["sweep"] = sweep.stats.to_dict()
        else:
            meta["store"] = cache_stats()
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
    if sweep is not None:
        print(sweep.stats.store_summary())
        print(sweep.stats.shard_summary())
    else:
        stats = cache_stats()
        print(f"artifact store: {stats['entries']} compilations for "
              f"{stats['hits'] + stats['misses']} requests "
              f"({stats['hits']} hits, {stats['misses']} misses)")
    phases = attribution.phase_seconds()
    breakdown = ", ".join(f"{name} {seconds * 1e3:.0f} ms"
                          for name, seconds in sorted(
                              phases.items(), key=lambda kv: -kv[1])
                          if seconds > 0)
    print(f"self-profile: wall {attribution.wall_s * 1e3:.0f} ms — "
          f"{breakdown} (details: repro-harness selfprof --all)")
    return 0


def _check_selfprof_args(args: argparse.Namespace) -> None:
    """Reject bad selfprof input before the sweep runs."""
    if args.deterministic and not args.metrics:
        raise UsageError("selfprof: --deterministic requires --metrics")
    if args.top < 0:
        raise UsageError(f"selfprof: --top must be >= 0 (got {args.top})")
    if args.min_coverage is not None \
            and not 0.0 <= args.min_coverage <= 1.0:
        raise UsageError(f"selfprof: --min-coverage must be within "
                         f"[0, 1] (got {args.min_coverage})")
    for flag in ("flamegraph", "metrics", "openmetrics"):
        _check_writable("selfprof", flag, getattr(args, flag))


def _check_writable(cmd: str, flag: str, path: str | None) -> None:
    """Reject an output path that cannot be written, before any work."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(parent) \
            or not os.access(path if os.path.exists(path) else parent,
                             os.W_OK):
        raise UsageError(f"{cmd}: --{flag} path {path!r} is not writable")


def _cmd_selfprof(args: argparse.Namespace) -> int:
    from repro.harness.parallel import (SweepContext, run_sweep,
                                        selfprof_pair_units, selfprof_units)
    from repro.models import resolve_model
    from repro.obs.flamegraph import write_collapsed
    from repro.obs.merge import absorb_payloads
    from repro.obs.metrics import metrics_from_spans, render_metrics_json
    from repro.obs.selfprof import attribute_spans, render_attribution
    from repro.obs.tracer import Tracer, tracing

    jobs = args.jobs
    _require_port_args("selfprof", args)
    _check_selfprof_args(args)
    if args.all_ports:
        units = selfprof_units(scale=args.scale)
    else:
        model = _resolve_port("selfprof", resolve_model, args.model)
        _resolve_port("selfprof", get_benchmark, args.benchmark)
        units = selfprof_pair_units(args.benchmark, model, scale=args.scale)

    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("selfprof.suite", "harness", scale=args.scale,
                         jobs=jobs):
            sweep = run_sweep(units, jobs=jobs,
                              context=SweepContext(scale=args.scale))
            absorb_payloads(tracer, sweep.span_payloads(),
                            parent_id=tracer.spans[0].span_id,
                            lanes=[o.worker for o in sweep.outcomes])

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figure of Lee & Vetter, "
                    "SC'12 (directive-based GPU model evaluation).")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="feature matrix").set_defaults(
        func=_cmd_table1)
    p_t2 = sub.add_parser("table2", help="coverage and code-size")
    _add_jobs(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_fig = sub.add_parser("figure1", help="speedup sweep")
    p_fig.add_argument("--scale", default="paper",
                       choices=("test", "paper"))
    p_fig.add_argument("--csv", action="store_true")
    _add_jobs(p_fig)
    p_fig.set_defaults(func=_cmd_figure1)

    p_run = sub.add_parser("run", help="run one benchmark functionally")
    p_run.add_argument("benchmark", choices=BENCHMARK_ORDER)
    p_run.add_argument("model", choices=RUNNABLE_MODELS)
    p_run.add_argument("--variant", default="best")
    p_run.add_argument("--scale", default="test",
                       choices=("test", "paper"))
    # a single run is one work unit; --jobs is accepted (and validated)
    # for interface uniformity with the sweep subcommands
    _add_jobs(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser(
        "validate", help="functional validation sweep (test scale)")
    p_val.add_argument("benchmarks", nargs="*", metavar="BENCH")
    p_val.add_argument("--elide-transfers", action="store_true",
                       dest="elide_transfers",
                       help="validate the analysis-guided transfer-elision "
                            "flavour of every port")
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare",
                           help="explain one model-vs-model gap")
    p_cmp.add_argument("benchmark", choices=BENCHMARK_ORDER)
    p_cmp.add_argument("model_a", choices=RUNNABLE_MODELS)
    p_cmp.add_argument("model_b", choices=RUNNABLE_MODELS)
    p_cmp.add_argument("--variant", default="best")
    p_cmp.add_argument("--scale", default="paper",
                       choices=("test", "paper"))
    p_cmp.set_defaults(func=_cmd_compare)

    for row in ANALYSES:
        _add_analysis(sub, row)

    p_prof = sub.add_parser(
        "profile", help="per-kernel simulated counters and bottleneck "
                        "attribution for one port or --all")
    p_prof.add_argument("benchmark", nargs="?", default=None,
                        help="benchmark name (e.g. jacobi)")
    p_prof.add_argument("model", nargs="?", default=None,
                        help="model name or alias (e.g. openacc)")
    p_prof.add_argument("--variant", default=None,
                        help="port variant (default: the model's best)")
    p_prof.add_argument("--scale", default="paper",
                        choices=("test", "paper"))
    p_prof.add_argument("--all", action="store_true", dest="all_ports",
                        help="profile every benchmark x Figure-1 model pair")
    p_prof.add_argument("--json", action="store_true",
                        help="machine-readable profiles")
    p_prof.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write the span trace as JSONL")
    p_prof.add_argument("--chrome", default=None, metavar="PATH",
                        help="write a chrome://tracing document")
    _add_jobs(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    p_sp = sub.add_parser(
        "selfprof", help="harness self-profile: wall-clock attribution "
                         "per phase, flamegraph + metrics export")
    p_sp.add_argument("benchmark", nargs="?", default=None,
                      help="benchmark name (e.g. jacobi)")
    p_sp.add_argument("model", nargs="?", default=None,
                      help="model name or alias (e.g. openacc)")
    p_sp.add_argument("--all", action="store_true", dest="all_ports",
                      help="profile the stratified full-suite workload")
    p_sp.add_argument("--scale", default="test",
                      choices=("test", "paper"),
                      help="paper profiles the Figure-1 path (eval units "
                           "only)")
    p_sp.add_argument("--json", action="store_true",
                      help="machine-readable attribution + sweep stats")
    p_sp.add_argument("--top", type=int, default=8, metavar="N",
                      help="detail rows per phase in the text report")
    p_sp.add_argument("--flamegraph", default=None, metavar="PATH",
                      help="write collapsed stacks (flamegraph.pl / "
                           "speedscope folded format)")
    p_sp.add_argument("--metrics", default=None, metavar="PATH",
                      help="write the metrics derived from the span tree "
                           "as canonical JSON")
    p_sp.add_argument("--deterministic", action="store_true",
                      help="restrict --metrics to deterministic families "
                           "(byte-identical for any --jobs)")
    p_sp.add_argument("--openmetrics", default=None, metavar="PATH",
                      help="write OpenMetrics/Prometheus text exposition")
    p_sp.add_argument("--min-coverage", type=float, default=None,
                      metavar="FRAC",
                      help="exit 1 if named-phase coverage falls below "
                           "FRAC (e.g. 0.95)")
    _add_jobs(p_sp)
    p_sp.set_defaults(func=_cmd_selfprof)

    p_pass = sub.add_parser(
        "passes", help="pass-pipeline report: per-pass state diffs and "
                       "rejection attribution for one port or --all")
    p_pass.add_argument("benchmark", nargs="?", default=None,
                        help="benchmark name (e.g. jacobi)")
    p_pass.add_argument("model", nargs="?", default=None,
                        help="model name or alias (e.g. openacc)")
    p_pass.add_argument("--variant", default=None,
                        help="port variant (default: the model's best)")
    p_pass.add_argument("--all", action="store_true", dest="all_ports",
                        help="one summary line per region for every "
                             "benchmark x model pair")
    p_pass.set_defaults(func=_cmd_passes)

    p_base = sub.add_parser(
        "baseline", help="record or check the perf-regression baseline")
    p_base.add_argument("action", choices=("record", "check"))
    p_base.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file (default: "
                             "benchmarks/baselines/figure1-paper.json)")
    p_base.add_argument("--scale", default="paper",
                        choices=("test", "paper"),
                        help="workload scale for 'record'")
    p_base.add_argument("--benchmarks", nargs="*", default=None,
                        metavar="BENCH",
                        help="restrict 'record' to these benchmarks")
    p_base.add_argument("--tolerance", type=float, default=None,
                        help="relative tolerance (default: the baseline's "
                             "own, 2%%)")
    _add_jobs(p_base)
    p_base.set_defaults(func=_cmd_baseline)

    p_all = sub.add_parser("all", help="everything")
    p_all.add_argument("--scale", default="paper",
                       choices=("test", "paper"))
    p_all.add_argument("--json", action="store_true",
                       help="emit the machine-readable rollup (the "
                            "'results' section is byte-identical for "
                            "any --jobs value)")
    p_all.add_argument("--journal", default=None, metavar="PATH",
                       help="checkpoint/resume journal for the sharded "
                            "sweep (requires --jobs > 1); an interrupted "
                            "sweep restarts only the missing work units")
    _add_jobs(p_all)
    p_all.set_defaults(func=_cmd_all)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs must be >= 1 (got {args.jobs})")
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
