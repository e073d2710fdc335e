#!/usr/bin/env python
"""Irregular applications on directive models: the SPMUL/CG story.

Sparse matrix-vector products traverse CSR structure: data-dependent
inner-loop bounds and gathers through the column-index array.  The paper
(Section V-A): OpenMPC's *loop collapsing* turns the val/colidx traffic
coalesced; the other models translate the loop as-is and eat the
indirect-access penalty.

This example compiles SPMUL's spmv region with PGI and OpenMPC, prints
what each compiler did, the resulting access classes, and the simulated
kernel times at paper scale.

Run:  python examples/irregular_spmv.py
"""

from collections import Counter

from repro.benchmarks.registry import get_benchmark
from repro.gpusim.timing import price_kernel
from repro.gpusim.device import TESLA_M2090

bench = get_benchmark("SPMUL")
wl = bench.workload("paper")
bindings = {k: float(x) for k, x in wl.scalars.items()}
extents = {n: list(shape) for n, (shape, _) in wl.shapes.items()}

for model in ("PGI Accelerator", "OpenMPC"):
    compiled = bench.compile(model, "best")
    result = compiled.results["spmv"]
    print(f"=== {model} ===")
    print(f"  applied: {result.applied or ['(straight translation)']}")
    kernel = result.kernels[0]
    desc = kernel.describe(bindings, extents)
    patterns = Counter()
    for ref, count in desc.access.refs:
        patterns[(ref.array, ref.pattern.value)] += count
    for (array, pattern), count in sorted(patterns.items()):
        print(f"    {array:<8} {pattern:<10} x{count:.0f} per thread")
    timing = price_kernel(desc, TESLA_M2090)
    print(f"  simulated spmv launch: {timing.summary()}")
    print()

print("OpenMPC's collapse makes val/colidx coalesced; only the x gather")
print("stays indirect — which is why its Figure 1 bars lead on SPMUL/CG.")

for model in ("PGI Accelerator", "OpenMPC", "Hand-Written CUDA"):
    out = bench.run(model, "best", scale="paper", execute=False,
                    validate=False)
    print(f"  SPMUL {model:<20} speedup {out.speedup.speedup:6.2f}x")
