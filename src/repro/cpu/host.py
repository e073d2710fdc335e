"""Serial host-CPU cost model — the speedup denominator.

The paper's baseline is the sequential CPU version "without OpenMP,
compiled with GCC 4.1.2 -O3" on a 2.8 GHz Xeon X5660 (Westmere).  We
model it with the same static analysis the GPU side uses (flop counts and
access summaries of the *same* IR, with every loop sequential), priced
against host throughput constants:

* ``flops_per_s`` — sustained scalar/moderately vectorized double
  throughput of one Westmere core under a 2006-era compiler;
* ``mem_bandwidth`` — sustained single-core stream bandwidth;
* access-pattern penalties — on a cache-hierarchy CPU, sequential *and*
  small-strided accesses stream well; truly indirect accesses take cache
  misses.

Since speedups are ratios, the absolute constants only set the scale of
Figure 1; the calibration test pins JACOBI to the paper's ~O(20x) band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.ir.analysis.access import (AccessPattern, AccessSummary,
                                      summarize_accesses)
from repro.ir.analysis.metrics import BodyTerms, body_work
from repro.ir.program import numpy_dtype
from repro.ir.stmt import Stmt


@dataclass(frozen=True)
class HostSpec:
    """One core of the Keeneland host node."""

    name: str = "Xeon X5660 (1 core, gcc -O3)"
    clock_ghz: float = 2.8
    flops_per_s: float = 2.2e9
    mem_bandwidth: float = 7.5e9
    #: penalty multiplier on bytes for data-dependent gathers
    indirect_penalty: float = 3.0
    #: penalty for large-strided walks (TLB/cache-line waste)
    strided_penalty: float = 1.6
    #: fraction of uniform (hot, cached) accesses that cost DRAM traffic
    uniform_miss: float = 0.02


KEENELAND_HOST = HostSpec()


def _bytes_for(summary: AccessSummary, elem_bytes: int,
               spec: HostSpec) -> float:
    total = 0.0
    for ref, count in summary.refs:
        if ref.pattern is AccessPattern.INDIRECT:
            factor = spec.indirect_penalty
        elif ref.pattern is AccessPattern.STRIDED and ref.stride > 8:
            factor = spec.strided_penalty
        elif ref.pattern is AccessPattern.UNIFORM:
            factor = spec.uniform_miss
        else:
            factor = 1.0
        total += count * elem_bytes * factor
    return total


def serial_stage(body: Stmt,
                 array_extents: Mapping[str, Sequence[Optional[int]]],
                 ) -> BodyTerms:
    """The host model's symbolic stage: ``body`` analysed with *no*
    thread indices, so parallel loops count as sequential trips and
    each reference is classified against the innermost loop index it
    reads (a single sequential walker)."""
    return BodyTerms(
        summarize_accesses(body, (), array_extents,
                           classify_against="innermost", symbolic=True),
        body_work(body, (), symbolic=True))


def price_serial(stage: BodyTerms, iterations: float,
                 bindings: Mapping[str, float], dtype: str = "double",
                 spec: HostSpec = KEENELAND_HOST) -> float:
    """The host model's numeric stage: serial time of executing the
    staged body ``iterations`` times under ``bindings``, the one binding
    of :func:`price_serial_columns`."""
    return price_serial_columns(stage, iterations, [stage.bound_key(bindings)],
                                dtype, spec)[0]


def price_serial_columns(stage: BodyTerms, iterations: float,
                         keys: Sequence[tuple], dtype: str = "double",
                         spec: HostSpec = KEENELAND_HOST) -> list[float]:
    """:func:`price_serial` of the bindings with loop-bound keys
    ``keys`` (:meth:`BodyTerms.bound_key`), at once."""
    elem = numpy_dtype(dtype).itemsize
    with np.errstate(all="ignore"):
        work, summary = stage.evaluate(stage.access.nest.key_columns(keys),
                                       len(keys))
        t_flops = work.flops / spec.flops_per_s
        t_bytes = _bytes_for(summary, elem, spec) / spec.mem_bandwidth
        # a scalar core overlaps compute and memory imperfectly
        per_pass = (np.where(t_bytes > t_flops, t_bytes, t_flops)
                    + 0.25 * np.where(t_bytes < t_flops, t_bytes, t_flops))
        return np.broadcast_to(per_pass * iterations, (len(keys),)).tolist()


def price_body_serial(body: Stmt, iterations: float,
                      array_extents: Mapping[str, Sequence[Optional[int]]],
                      bindings: Mapping[str, float],
                      dtype: str = "double",
                      spec: HostSpec = KEENELAND_HOST) -> float:
    """Serial time of executing ``body`` ``iterations`` times: the
    single-core execution of the original OpenMP-less program."""
    return price_serial(serial_stage(body, array_extents), iterations,
                        bindings, dtype, spec)

