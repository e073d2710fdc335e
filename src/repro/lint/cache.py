"""CACHE rules: predicted L1/L2 locality hazards in compiled kernels.

The static reuse analyzer (:mod:`repro.ir.analysis.reuse`) predicts
per-array miss ratios, reuse distances, and per-loop working sets from
the affine access functions alone.  These rules surface the hazards
the cache replay (:mod:`repro.gpusim.cache`) measures — without
running anything — at a fixed *lint scale*: every symbolic array
dimension is bound to :data:`LINT_EXTENT` so footprints and trip
counts resolve to numbers without a workload.

* ``CACHE001`` (warning): predicted L1 thrashing — the array has
  re-touch traffic whose carrying reuse distance exceeds the effective
  L1 line capacity, so every re-touch misses.  Arrays reached through
  data-dependent subscripts (the SPMUL/CG/BFS gathers) fire the
  approximate form: the static model can only bound them from below.
* ``CACHE002`` (warning): one iteration of a sequential loop touches a
  working set larger than L1 — the per-iteration reuse the loop
  carries cannot survive to the next trip.
* ``CACHE003`` (warning): low predicted line utilization — a strided
  reference uses less than :data:`MIN_LINE_UTILIZATION` of every
  cache line it fetches (the column-major JACOBI story, seen from the
  cache's side rather than the coalescer's).
* ``CACHE004`` (warning): set aliasing — the dominant line stride
  reaches only a fraction of the L1 sets (power-of-two row pitch), so
  the usable capacity shrinks by that factor before any capacity
  argument applies.

All four are warnings: a locality hazard is a performance fact about
a port, never a correctness error, so ``--fail-on error`` stays clean
on the whole suite by construction.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import LaunchError
from repro.gpusim.kernel import Kernel
from repro.ir.analysis.access import AccessPattern
from repro.ir.analysis.reuse import (KernelReuse, analyze_kernel_reuse,
                                     memoized_reuse)
from repro.lint.engine import LintContext, checker, declare
from repro.lint.findings import Finding, Severity

declare("CACHE001", Severity.WARNING,
        "predicted L1 thrashing: reuse distance exceeds the effective "
        "line capacity, re-touches all miss")
declare("CACHE002", Severity.WARNING,
        "sequential-loop working set exceeds the L1 cache")
declare("CACHE003", Severity.WARNING,
        "low line utilization: a strided reference uses a small "
        "fraction of every fetched cache line")
declare("CACHE004", Severity.WARNING,
        "set aliasing: the dominant stride reaches only a fraction of "
        "the L1 sets")

#: fixed extent bound to every symbolic array dimension at lint time —
#: large enough that genuinely capacity-bound loops overflow L1, small
#: enough that tiled working sets designed to fit still fit
LINT_EXTENT = 256

#: CACHE003 fires below this predicted fraction of each line used
MIN_LINE_UTILIZATION = 0.25

#: CACHE004 fires below this reachable-set fraction
MIN_SET_FRACTION = 1.0

#: the approximate CACHE001 form (unresolvable subscripts) needs at
#: least this many predicted line accesses — a handful of touches of a
#: reduction cell is not a locality hazard
MIN_APPROX_ACCESSES = 32.0


def _lint_bindings(ctx: LintContext) -> tuple[dict, dict]:
    """Bindings + extents with every symbolic dimension at lint scale."""
    symbols: set[str] = set()
    for decl in ctx.program.arrays.values():
        symbols.update(d for d in decl.shape if isinstance(d, str))
    sizes = {name: LINT_EXTENT for name in symbols}
    bindings = {name: float(LINT_EXTENT) for name in symbols}
    extents = {name: list(decl.resolve_shape(sizes))
               for name, decl in ctx.program.arrays.items()}
    return bindings, extents


def _analyze(kernel: Kernel, ctx: LintContext,
             bindings: dict, extents: dict) -> KernelReuse | None:
    try:
        return memoized_reuse(analyze_kernel_reuse, kernel, bindings,
                              extents, ctx.device, ctx.program.functions)
    except LaunchError:
        # a kernel whose launch the lint-scale bindings cannot resolve
        # (an unbound launch symbol) is skipped, not a crash
        return None


@checker("CACHE001", "CACHE002", "CACHE003", "CACHE004", scope="compiled")
def check_cache(ctx: LintContext) -> Iterator[Finding]:
    compiled = ctx.compiled
    assert compiled is not None
    spec = ctx.device
    line = spec.transaction_bytes
    l1_sets = max(1, spec.l1_bytes // (line * spec.l1_assoc))
    bindings, extents = _lint_bindings(ctx)

    for region in ctx.program.regions:
        result = compiled.results.get(region.name)
        if result is None or not result.translated:
            continue
        for kernel in result.kernels:
            reuse = _analyze(kernel, ctx, bindings, extents)
            if reuse is None:
                continue
            elem = kernel.elem_bytes()

            for name in sorted(reuse.arrays):
                pred = reuse.arrays[name]
                if name not in ctx.program.arrays:
                    continue
                if not pred.exact:
                    if pred.accesses >= MIN_APPROX_ACCESSES:
                        yield ctx.finding(
                            "CACHE001",
                            f"kernel {kernel.name!r} reaches {name!r} "
                            "through subscripts the affine analyzer "
                            "cannot resolve: the static model predicts "
                            "every L1 access misses (approximate — true "
                            "locality is input-dependent)",
                            region=region.name, kernel=kernel.name,
                            array=name)
                    continue
                eff_l1 = l1_sets * (spec.l1_assoc + 1) * pred.l1_set_fraction
                retouch = pred.line_accesses - pred.footprint_lines
                dist = pred.reuse_distance_lines
                if retouch > 1.0 and dist > eff_l1:
                    yield ctx.finding(
                        "CACHE001",
                        f"kernel {kernel.name!r} re-touches {name!r} at a "
                        f"reuse distance of ~{dist:.0f} lines; effective "
                        f"L1 capacity is {eff_l1:.0f} lines, so the "
                        f"{retouch:.0f} re-touches all miss",
                        region=region.name, kernel=kernel.name, array=name)
                if pred.l1_set_fraction < MIN_SET_FRACTION:
                    reach = max(1, round(l1_sets * pred.l1_set_fraction))
                    yield ctx.finding(
                        "CACHE004",
                        f"kernel {kernel.name!r}: the dominant line "
                        f"stride of {name!r} aliases into {reach} of the "
                        f"{l1_sets} L1 sets "
                        f"({pred.l1_set_fraction:.0%} of the capacity "
                        "usable)",
                        region=region.name, kernel=kernel.name, array=name)

            for ws in reuse.working_sets:
                if not ws.fits_l1 and ws.trips > 1.0:
                    level = "L2" if ws.fits_l2 else "DRAM"
                    yield ctx.finding(
                        "CACHE002",
                        f"kernel {kernel.name!r}: one iteration of loop "
                        f"{ws.loop!r} touches "
                        f"{ws.bytes_per_iteration / 1024:.0f} KiB "
                        f"(L1 is {spec.l1_bytes // 1024} KiB); "
                        f"cross-iteration reuse falls through to {level}",
                        region=region.name, kernel=kernel.name,
                        loop=ws.loop)

            # line utilization per reference class, from the same
            # coalescing model the counters report as gld efficiency
            from repro.gpusim.coalescing import transactions_per_warp
            from repro.ir.analysis.access import summarize_accesses
            sym_extents = {name: [None] * max(1, len(decl.shape))
                           for name, decl in ctx.program.arrays.items()}
            summary = summarize_accesses(
                kernel.body, kernel.thread_vars, sym_extents, {},
                indirect_carriers=kernel.indirect_carriers,
                monotone_carriers=kernel.monotone_carriers,
                pattern_overrides=kernel.pattern_overrides)
            seen: set[str] = set()
            for ref, _weight in summary.refs:
                if (ref.pattern is not AccessPattern.STRIDED
                        or ref.array in seen
                        or ref.array not in ctx.program.arrays):
                    continue
                txns = transactions_per_warp(ref, elem, spec)
                useful = spec.warp_size * elem
                util = useful / (txns * line) if txns else 1.0
                if util < MIN_LINE_UTILIZATION:
                    seen.add(ref.array)
                    yield ctx.finding(
                        "CACHE003",
                        f"kernel {kernel.name!r} accesses {ref.array!r} "
                        f"with stride {ref.stride}: {util:.0%} of every "
                        f"fetched {line}-byte line is used before "
                        "eviction",
                        region=region.name, kernel=kernel.name,
                        array=ref.array)
