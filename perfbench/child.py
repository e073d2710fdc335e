"""One repeat of one workload, in a fresh process.

Started by ``run_bench.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  The protocol on standard output is two lines:

1. ``ready`` once set-up is done — the CLI module imported and the
   suite materialized with its programs built (the parent times
   set-up from process start to this line);
2. one JSON object: the measured interval's wall and CPU time, peak
   RSS, the output check, and with ``--trace`` the per-layer numbers.

``--setup-only`` stops after the first line (the parent's untimed
warm-up, which also leaves compiled bytecode behind).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, metavar="PATH",
                    help="with --trace, write the spans here as JSONL")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import repro
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"child: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    import repro.harness.cli  # noqa: F401  (the entry point users load)
    from repro.benchmarks.registry import iter_suite
    from repro.models.cache import cache_stats

    from layers import Recorder
    from workloads import WORKLOADS

    suite = list(iter_suite())
    for bench in suite:
        bench.program
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload]
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    output, stats = workload.run(suite, args.seed, workload.benchmarks)
    wall_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if recorder is not None:
        recorder.uninstall()
    attempted, failed = workload.check(output, workload.benchmarks)
    result = {
        "wall_s": wall_s,
        "cpu_s": (_cpu_s(self1) - _cpu_s(self0)
                  + _cpu_s(kids1) - _cpu_s(kids0)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "stats": stats,
    }
    if recorder is not None:
        result["layers"] = recorder.report()
        result["store"] = cache_stats()
        result["missing_sites"] = recorder.missing
        if args.spans:
            recorder.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
