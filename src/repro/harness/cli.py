"""Command-line entry point: ``repro-harness`` / ``python -m repro.harness``.

Subcommands regenerate the paper's evaluation artifacts:

* ``table1`` — the feature matrix;
* ``table2`` — coverage + code-size increase over the 13-benchmark suite;
* ``figure1`` — per-benchmark speedups for every model (text bars/CSV);
* ``run BENCH MODEL`` — one functional run with validation and a trace;
* ``lint [BENCH MODEL]`` — the directive verifier (``--all`` for the
  whole suite, ``--format json|sarif|github`` for machine-readable
  output, code scanning, or workflow annotations, ``--fail-on`` to
  gate CI);
* ``xfer [BENCH MODEL]`` — the whole-program transfer coherence
  analysis: a dataflow verdict per transfer (``--all`` for the
  per-model rollup; exits 2 on any COH stale-read error, ``--fail-on``
  gates the remaining findings);
* ``locality [BENCH MODEL]`` — the cache-locality suite: replayed
  L1/L2 miss ratios and MAP locality metrics next to the static reuse
  analyzer's predictions (``--all`` for the per-model rollup,
  ``--fail-on`` gates on the CACHE lint family);
* ``tv [BENCH MODEL]`` — the translation validator: equivalence
  certificates per lowered region (``--all`` for the suite matrix;
  exits 1 on any REFUTED certificate, ``--fail-on warning`` also
  gates UNKNOWN);
* ``translate [BENCH SRC DST]`` — the cross-model directive
  translator: rewrite one model's port for another through the
  directive IR, compile it with the target's own pipeline, and certify
  it against the source program (``--all`` for the shipped pair matrix;
  exits 1 on any REFUTED certificate, ``--fail-on warning`` also gates
  dropped clauses and UNKNOWN certificates);
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
  export, ``--metrics``/``--openmetrics`` registry export
  (``--deterministic`` restricts to the jobs-invariant families);
* ``loadgen`` — replay a seeded synthetic compile/run/exec request
  stream against a cold then warm ArtifactStore, reporting throughput,
  exact p50/p99 latency, and store hit rates (``--smoke`` gates CI on
  a nonzero warm hit rate);
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
import json
import sys

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


def _jobs(args: argparse.Namespace) -> int:
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1 (got {jobs})")
    return jobs


def _fail_on_gate(fail_on: str | None,
                  items: list[tuple[str, str, str, str]]) -> int:
    """The shared ``--fail-on`` gate for analysis subcommands.

    ``items`` are ``(where, rule, severity, message)`` rows with
    severity one of ``info``/``warning``/``error``.  Prints the rows at
    or above the threshold and returns 1 when any exist, else 0.
    """
    if fail_on is None:
        return 0
    order = {"info": 0, "warning": 1, "error": 2}
    threshold = order[fail_on]
    over = [it for it in items if order.get(it[2], 0) >= threshold]
    if not over:
        return 0
    print(f"\nFindings at or above {fail_on}:")
    for where, rule, sev, msg in over:
        print(f"  {where}: {rule} {sev} {msg}")
    return 1


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
    jobs = _jobs(args)
    if jobs > 1:
        results, _, _ = _parallel_evaluation(jobs, coverage=True)
    else:
        results = run_coverage_and_codesize()
    _render_table2_text(results)
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    jobs = _jobs(args)
    if jobs > 1:
        results, _, _ = _parallel_evaluation(jobs, scale=args.scale,
                                             speedups=True)
        speedups = results.speedups
    else:
        speedups = run_speedups(scale=args.scale)
    if args.csv:
        print(render_figure1_csv(speedups))
    else:
        print(render_figure1(speedups))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _jobs(args)
    bench = _resolve_port("run", get_benchmark, args.benchmark)
    known = _resolve_port("run", bench.variants, args.model)
    if args.variant != "best" and args.variant not in known:
        raise UsageError(f"run: unknown variant {args.variant!r} for "
                         f"{bench.name}/{args.model}; known: {list(known)}")
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
    names = args.benchmarks or None
    matrix = validate_suite(benchmarks=names,
                            elide_transfers=args.elide_transfers)
    print(matrix.render())
    return 0 if matrix.passed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.benchmark)
    print(compare_models(bench, args.model_a, args.model_b,
                         variant=args.variant, scale=args.scale))
    return 0


def _lint_format(args: argparse.Namespace) -> str:
    """Resolve --format against the legacy --json/--sarif switches."""
    legacy = [name for name, flag in (("--sarif", args.sarif),
                                      ("--json", args.json)) if flag]
    if len(legacy) > 1:
        raise UsageError("lint: --sarif and --json are mutually exclusive")
    if args.format is not None:
        if legacy:
            raise UsageError(f"lint: --format and {legacy[0]} are "
                             "mutually exclusive")
        return args.format
    if args.sarif:
        return "sarif"
    if args.json:
        return "json"
    return "text"


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import Severity, lint_port, lint_suite
    from repro.lint.findings import github_annotations
    from repro.lint.sarif import report_to_sarif, reports_to_sarif
    from repro.metrics.lintstats import lint_density, render_lint_density

    fmt = _lint_format(args)
    threshold = Severity.parse(args.fail_on) if args.fail_on else None
    if args.all_ports:
        records = lint_suite(jobs=_jobs(args))
        if fmt == "sarif":
            # one SARIF run per (benchmark, model) pair, single log
            merged = reports_to_sarif(rec.report for rec in records)
            print(json.dumps(merged, indent=2))
        elif fmt == "json":
            payload = [{"benchmark": rec.benchmark, "model": rec.model,
                        "variant": rec.variant, "regions": rec.regions,
                        "findings": [f.to_dict()
                                     for f in rec.report.sorted()]}
                       for rec in records]
            print(json.dumps(payload, indent=2))
        elif fmt == "github":
            out = github_annotations(*(rec.report for rec in records))
            if out:
                print(out)
        else:
            print(render_lint_density(lint_density(records)))
        if threshold is None:
            return 0
        over = [(rec, f) for rec in records
                for f in rec.report.at_or_above(threshold)]
        if over and fmt == "text":
            print(f"\nFindings at or above {threshold}:")
            for rec, f in over:
                print(f"  {f.rule} {f.severity} {f.location()}: {f.message}")
        return 1 if over else 0
    _require_port_args("lint", args)
    report = _resolve_port("lint", lint_port, args.benchmark, args.model,
                           variant=args.variant)
    if fmt == "sarif":
        print(json.dumps(report_to_sarif(report), indent=2))
    elif fmt == "json":
        print(report.to_json())
    elif fmt == "github":
        out = github_annotations(report)
        if out:
            print(out)
    else:
        header = f"{report.program} / {report.model}"
        print(header)
        print("-" * len(header))
        if not report.findings:
            print("no findings")
        for f in report.sorted():
            print(f"{f.rule} {f.severity} {f.location()}: {f.message}")
    if threshold is not None and report.at_or_above(threshold):
        return 1
    return 0


def _cmd_xfer(args: argparse.Namespace) -> int:
    from repro.dataflow.suite import xfer_port, xfer_suite

    if args.all_ports:
        records = xfer_suite(models=ALL_MODELS, scale=args.scale,
                             jobs=_jobs(args))
    else:
        _require_port_args("xfer", args)
        records = [_resolve_port("xfer", xfer_port, args.benchmark,
                                 args.model, variant=args.variant,
                                 scale=args.scale)]
    if args.json:
        print(json.dumps([rec.to_dict() for rec in records], indent=2))
    elif args.all_ports:
        from repro.metrics.xferstats import render_xfer_rollup, xfer_rollup
        print(render_xfer_rollup(xfer_rollup(records)))
    else:
        rec = records[0]
        analysis = rec.analysis
        header = (f"{rec.benchmark} / {rec.model} ({rec.variant}) — "
                  f"{analysis.node_count} CFG nodes, "
                  f"{analysis.iterations} solver iterations")
        print(header)
        print("-" * len(header))
        for v in analysis.verdicts:
            trips = f" x{v.trips}" if v.trips > 1 else ""
            print(f"{v.verdict:<10} {v.direction} {v.array!r} "
                  f"@ {v.node}{trips} [{v.origin}]")
            print(f"           {v.witness}")
        for p in analysis.problems:
            print(f"{p.rule} [{p.severity}] {p.message}")
        print(f"bytes moved: {analysis.bytes_total()}  "
              f"statically elidable: {analysis.bytes_elidable()}")
    errors = [(rec, p) for rec in records for p in rec.analysis.coh_errors]
    if errors:
        if not args.json:
            print("\nCOH errors (stale reads the state machine proves "
                  "possible):")
            for rec, p in errors:
                print(f"  {rec.benchmark}/{rec.model}: {p.rule} {p.message}")
        # a COH error means the port's transfer discipline itself is
        # unsound, not merely a gated finding — exit 2 like a usage error
        return 2
    return _fail_on_gate(args.fail_on, [
        (f"{rec.benchmark}/{rec.model}", p.rule, p.severity, p.message)
        for rec in records for p in rec.analysis.problems])


def _cmd_locality(args: argparse.Namespace) -> int:
    from repro.gpusim.locality import locality_port, locality_suite

    if args.all_ports:
        records = locality_suite(scale=args.scale, jobs=_jobs(args))
    else:
        _require_port_args("locality", args)
        records = [_resolve_port("locality", locality_port, args.benchmark,
                                 args.model, variant=args.variant,
                                 scale=args.scale)]
    if args.json:
        print(json.dumps([rec.to_dict() for rec in records], indent=2))
    elif args.all_ports:
        from repro.metrics.cachestats import (cache_rollup,
                                              render_cache_rollup)
        print(render_cache_rollup(cache_rollup(records)))
    else:
        rec = records[0]
        header = f"{rec.benchmark} / {rec.model} ({rec.variant})"
        print(header)
        print("-" * len(header))
        for kl in rec.kernels:
            sim, stat = kl.simulated, kl.static
            approx = "" if sim.exact else "  (approximate: indirect)"
            print(f"{kl.region}:{kl.kernel}{approx}")
            print(f"  simulated  L1 {sim.l1.miss_ratio:6.3f}  "
                  f"L2 {sim.l2.miss_ratio:6.3f}  "
                  f"spatial {sim.spatial_locality:.3f}  "
                  f"temporal {sim.temporal_locality:.3f}  "
                  f"shortMRI {sim.short_mri_fraction:.3f}")
            print(f"  static     L1 {stat.l1_miss_ratio:6.3f}  "
                  f"L2 {stat.l2_miss_ratio:6.3f}  "
                  f"({len(stat.pairs)} reuse pairs, "
                  f"{len(stat.working_sets)} loop working sets)")
    if args.fail_on is None:
        return 0
    # the gate reruns only the CACHE family of the verifier over the
    # same (memoized) compilations the locality records came from
    from repro.lint.engine import run_lint
    from repro.models.cache import compile_port
    items: list[tuple[str, str, str, str]] = []
    if args.all_ports:
        pairs = [(b, m, None) for b in BENCHMARK_ORDER for m in ALL_MODELS]
    else:
        pairs = [(args.benchmark, args.model, args.variant)]
    for bench_name, model, variant in pairs:
        port, compiled, _chosen = _resolve_port(
            "locality", compile_port, bench_name, model, variant)
        report = run_lint(port.program, compiled, families=("CACHE",))
        items.extend((f"{bench_name}/{compiled.model}", f.rule,
                      str(f.severity), f.message)
                     for f in report.findings)
    return _fail_on_gate(args.fail_on, items)


def _tv_gate_items(records) -> list[tuple[str, str, str, str]]:
    """``--fail-on`` rows for tv records: UNKNOWN certificates are
    warnings (REFUTED already exits 1 unconditionally)."""
    from repro.tv import CertStatus

    return [(f"{rec.benchmark}/{rec.model}:{c.region}", "TV-UNKNOWN",
             "warning", c.detail)
            for rec in records for c in rec.certificates
            if c.status is CertStatus.UNKNOWN]


def _cmd_tv(args: argparse.Namespace) -> int:
    from repro.metrics.tvstats import render_tv_matrix, tv_matrix
    from repro.tv import CertStatus, validate_port, validate_suite

    if args.all_ports:
        records = validate_suite(jobs=_jobs(args))
        if args.json:
            payload = [{"benchmark": rec.benchmark, "model": rec.model,
                        "variant": rec.variant,
                        "certificates": [c.to_dict()
                                         for c in rec.certificates]}
                       for rec in records]
            print(json.dumps(payload, indent=2))
        else:
            print(render_tv_matrix(tv_matrix(records)))
        refuted = [(rec, c) for rec in records for c in rec.certificates
                   if c.status is CertStatus.REFUTED]
        if refuted and not args.json:
            print("\nREFUTED certificates:")
            for rec, c in refuted:
                print(f"  {rec.benchmark}/{rec.model}:{c.region}")
                print(f"    {c.detail}")
        if refuted:
            return 1
        return _fail_on_gate(args.fail_on, _tv_gate_items(records))
    _require_port_args("tv", args)
    record = _resolve_port("tv", validate_port, args.benchmark, args.model,
                           variant=args.variant)
    if args.json:
        payload = {"benchmark": record.benchmark, "model": record.model,
                   "variant": record.variant,
                   "certificates": [c.to_dict()
                                    for c in record.certificates]}
        print(json.dumps(payload, indent=2))
    else:
        header = f"{record.benchmark} / {record.model} ({record.variant})"
        print(header)
        print("-" * len(header))
        for c in record.certificates:
            print(f"{c.status.value:8s} {c.region}: {c.detail}")
            if c.blocking:
                print(f"         blocked by: {c.blocking}")
    if record.count(CertStatus.REFUTED):
        return 1
    return _fail_on_gate(args.fail_on, _tv_gate_items([record]))


def _cmd_translate(args: argparse.Namespace) -> int:
    from repro.metrics.translatestats import (render_translate_matrix,
                                              translate_matrix)
    from repro.translate import translate_pair, translate_suite
    from repro.tv import CertStatus

    if args.all_ports:
        records = translate_suite(jobs=_jobs(args))
    else:
        if not args.benchmark or not args.src or not args.dst:
            raise UsageError("translate: BENCH SRC DST are required "
                             "unless --all is given")
        records = [_resolve_port("translate", translate_pair,
                                 args.benchmark, args.src, args.dst,
                                 variant=args.variant)]
    if args.json:
        print(json.dumps([rec.to_dict() for rec in records], indent=2))
    else:
        print(render_translate_matrix(translate_matrix(records)))
    refuted = [(rec, c) for rec in records for c in rec.certificates
               if c.status is CertStatus.REFUTED]
    if refuted and not args.json:
        print("\nREFUTED certificates:")
        for rec, c in refuted:
            print(f"  {rec.benchmark}/{rec.src}->{rec.dst}:{c.region}")
            print(f"    {c.detail}")
    if refuted:
        return 1
    items: list[tuple[str, str, str, str]] = []
    for rec in records:
        where = f"{rec.benchmark}/{rec.src}->{rec.dst}"
        items.extend((where, "XLAT-DROP", "warning", note)
                     for note in rec.notes if "dropped" in note)
        items.extend((f"{where}:{c.region}", "XLAT-UNKNOWN", "warning",
                      c.detail)
                     for c in rec.certificates
                     if c.status is CertStatus.UNKNOWN)
    return _fail_on_gate(args.fail_on, items)


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
                                         jobs=_jobs(args))
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
    jobs = _jobs(args)
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

    jobs = _jobs(args)
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


def _selfprof_pair_units(benchmark: str, model: str):
    """The single-pair selfprof workload: every applicable unit kind.

    (This mixes kinds over one pair, so it exercises every phase; the
    jobs-invariant metrics guarantee applies to ``--all``, whose
    stratified workload keeps the compile-once partition.)
    """
    from repro.harness.parallel import WorkUnit
    from repro.harness.runner import FIGURE1_MODELS, TABLE2_MODELS
    from repro.models import resolve_model

    model = _resolve_port("selfprof", resolve_model, model)
    _resolve_port("selfprof", get_benchmark, benchmark)
    directive = model in TABLE2_MODELS
    fig1 = model in FIGURE1_MODELS
    flags = (("coverage",) if directive else ()) + \
        (("speedups", "profile") if fig1 else ())
    units = [WorkUnit(kind="eval", bench=benchmark, model=model,
                      flags=flags, seq=0)]
    kinds = ["tv", "locality"] + (["lint", "xfer"] if directive else []) \
        + (["exec"] if fig1 else [])
    for kind in kinds:
        units.append(WorkUnit(kind=kind, bench=benchmark, model=model,
                              seq=len(units)))
    return units


def _cmd_selfprof(args: argparse.Namespace) -> int:
    from repro.harness.parallel import (SweepContext, run_sweep,
                                        selfprof_units)
    from repro.obs.flamegraph import write_collapsed
    from repro.obs.merge import absorb_payloads
    from repro.obs.metrics import (MetricsRegistry, collecting,
                                   render_metrics_json)
    from repro.obs.selfprof import attribute_spans, render_attribution
    from repro.obs.tracer import Tracer, tracing

    jobs = _jobs(args)
    _require_port_args("selfprof", args)
    if args.all_ports:
        units = selfprof_units()
    else:
        units = _selfprof_pair_units(args.benchmark, args.model)

    registry = MetricsRegistry()
    tracer = Tracer()
    with tracing(tracer), collecting(registry):
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


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.harness.loadgen import (DEFAULT_MIX, MixError, parse_mix,
                                       run_loadgen)
    from repro.obs.metrics import MetricsRegistry, collecting

    _jobs(args)
    if args.requests < 1:
        raise UsageError(f"loadgen: --requests must be >= 1 "
                         f"(got {args.requests})")
    mix = args.mix or DEFAULT_MIX
    try:
        parse_mix(mix)
    except MixError as exc:
        raise UsageError(f"loadgen: {exc}") from exc

    registry = MetricsRegistry()
    with collecting(registry):
        report = run_loadgen(requests=args.requests, seed=args.seed,
                             mix=mix, scale=args.scale)
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(registry.to_openmetrics())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.smoke:
        problems = report.smoke_failures()
        if problems:
            for problem in problems:
                print(f"loadgen smoke: {problem}", file=sys.stderr)
            return 1
        print("loadgen smoke: ok (warm hit rate "
              f"{report.warm.hit_rate:.1%})", file=sys.stderr)
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
    p_val.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       choices=BENCHMARK_ORDER + ("",) if False
                       else None)
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

    p_lint = sub.add_parser(
        "lint", help="run the directive verifier over one port or --all")
    p_lint.add_argument("benchmark", nargs="?", default=None,
                        help="benchmark name (e.g. jacobi)")
    p_lint.add_argument("model", nargs="?", default=None,
                        help="model name or alias (e.g. openacc)")
    p_lint.add_argument("--variant", default=None,
                        help="port variant (default: the model's best)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable findings")
    p_lint.add_argument("--sarif", action="store_true",
                        help="SARIF 2.1.0 output (GitHub code scanning)")
    p_lint.add_argument("--format", default=None,
                        choices=("text", "json", "sarif", "github"),
                        help="output format; 'github' emits "
                             "::error/::warning workflow annotations "
                             "(--json/--sarif remain as aliases)")
    p_lint.add_argument("--all", action="store_true", dest="all_ports",
                        help="lint every benchmark x model pair and print "
                             "the per-model density table")
    p_lint.add_argument("--fail-on", dest="fail_on", default=None,
                        choices=("error", "warning", "info"),
                        help="exit 1 if any finding is at/above "
                             "this severity")
    _add_jobs(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_x = sub.add_parser(
        "xfer", help="whole-program transfer coherence analysis: a "
                     "verdict per transfer for one port, or the per-model "
                     "rollup with --all (exits 2 on any COH error)")
    p_x.add_argument("benchmark", nargs="?", default=None,
                     help="benchmark name (e.g. jacobi)")
    p_x.add_argument("model", nargs="?", default=None,
                     help="model name or alias (e.g. openacc)")
    p_x.add_argument("--variant", default=None,
                     help="port variant (default: the model's best)")
    p_x.add_argument("--scale", default="test",
                     choices=("test", "paper"),
                     help="workload scale used for transfer byte sizes")
    p_x.add_argument("--json", action="store_true",
                     help="machine-readable verdicts with witnesses")
    p_x.add_argument("--all", action="store_true", dest="all_ports",
                     help="analyze every benchmark x model pair and print "
                          "the per-model verdict rollup")
    p_x.add_argument("--fail-on", dest="fail_on", default=None,
                     choices=("error", "warning"),
                     help="exit 1 if any XFER/COH finding is at/above "
                          "this severity (COH errors still exit 2)")
    _add_jobs(p_x)
    p_x.set_defaults(func=_cmd_xfer)

    p_loc = sub.add_parser(
        "locality", help="cache-locality suite: replayed L1/L2 metrics "
                         "side by side with the static reuse analyzer's "
                         "predictions for one port, or the per-model "
                         "rollup with --all")
    p_loc.add_argument("benchmark", nargs="?", default=None,
                       help="benchmark name (e.g. jacobi)")
    p_loc.add_argument("model", nargs="?", default=None,
                       help="model name or alias (e.g. openacc)")
    p_loc.add_argument("--variant", default=None,
                       help="port variant (default: the model's best)")
    p_loc.add_argument("--scale", default="test",
                       choices=("test", "paper"),
                       help="workload scale used for the trace replay")
    p_loc.add_argument("--json", action="store_true",
                       help="machine-readable per-kernel reports")
    p_loc.add_argument("--all", action="store_true", dest="all_ports",
                       help="analyze every benchmark x model pair "
                            "(all six models) and print the per-model "
                            "cache rollup")
    p_loc.add_argument("--fail-on", dest="fail_on", default=None,
                       choices=("error", "warning"),
                       help="exit 1 if the CACHE lint family reports a "
                            "finding at/above this severity")
    _add_jobs(p_loc)
    p_loc.set_defaults(func=_cmd_locality)

    p_tv = sub.add_parser(
        "tv", help="translation validator: equivalence certificates for "
                   "every lowered region")
    p_tv.add_argument("benchmark", nargs="?", default=None,
                      help="benchmark name (e.g. jacobi)")
    p_tv.add_argument("model", nargs="?", default=None,
                      help="model name or alias (e.g. openacc)")
    p_tv.add_argument("--variant", default=None,
                      help="port variant (default: the model's best)")
    p_tv.add_argument("--json", action="store_true",
                      help="machine-readable certificates")
    p_tv.add_argument("--all", action="store_true", dest="all_ports",
                      help="certify every benchmark x model pair and print "
                           "the per-model certificate matrix")
    p_tv.add_argument("--fail-on", dest="fail_on", default=None,
                      choices=("warning", "error"),
                      help="also exit 1 on UNKNOWN certificates "
                           "(REFUTED always exits 1)")
    _add_jobs(p_tv)
    p_tv.set_defaults(func=_cmd_tv)

    p_xl = sub.add_parser(
        "translate", help="cross-model directive translation through the "
                          "neutral IR, tv-certified against the source")
    p_xl.add_argument("benchmark", nargs="?", default=None,
                      help="benchmark name (e.g. jacobi)")
    p_xl.add_argument("src", nargs="?", default=None,
                      help="source model name or alias (e.g. openacc)")
    p_xl.add_argument("dst", nargs="?", default=None,
                      help="target model name or alias (e.g. omp-target)")
    p_xl.add_argument("--variant", default=None,
                      help="source port variant (default: the model's best)")
    p_xl.add_argument("--json", action="store_true",
                      help="machine-readable translation records")
    p_xl.add_argument("--all", action="store_true", dest="all_ports",
                      help="translate every benchmark across the shipped "
                           "pairs and print the per-pair matrix")
    p_xl.add_argument("--fail-on", dest="fail_on", default=None,
                      choices=("warning", "error"),
                      help="also exit 1 on dropped clauses or UNKNOWN "
                           "certificates (REFUTED always exits 1)")
    _add_jobs(p_xl)
    p_xl.set_defaults(func=_cmd_translate)

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
                      choices=("test", "paper"))
    p_sp.add_argument("--json", action="store_true",
                      help="machine-readable attribution + sweep stats")
    p_sp.add_argument("--top", type=int, default=8, metavar="N",
                      help="detail rows per phase in the text report")
    p_sp.add_argument("--flamegraph", default=None, metavar="PATH",
                      help="write collapsed stacks (flamegraph.pl / "
                           "speedscope folded format)")
    p_sp.add_argument("--metrics", default=None, metavar="PATH",
                      help="write the metrics registry as canonical JSON")
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

    p_lg = sub.add_parser(
        "loadgen", help="replay a seeded synthetic request stream cold "
                        "vs warm; report p50/p99 latency + throughput")
    p_lg.add_argument("--requests", type=int, default=40, metavar="N",
                      help="requests per phase (default 40)")
    p_lg.add_argument("--seed", type=int, default=0,
                      help="stream seed (the stream is a pure function "
                           "of it)")
    p_lg.add_argument("--mix", default=None,
                      help="request mix, e.g. compile=6,run=3,exec=1")
    p_lg.add_argument("--scale", default="test",
                      choices=("test", "paper"))
    p_lg.add_argument("--json", action="store_true",
                      help="machine-readable report")
    p_lg.add_argument("--openmetrics", default=None, metavar="PATH",
                      help="write OpenMetrics/Prometheus text exposition")
    p_lg.add_argument("--smoke", action="store_true",
                      help="CI gate: exit 1 unless the warm phase hit "
                           "the artifact store")
    _add_jobs(p_lg)
    p_lg.set_defaults(func=_cmd_loadgen)

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
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
