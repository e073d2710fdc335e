#!/usr/bin/env python
"""The JACOBI tuning story (Section V-A) on the simulator.

The original OpenMP JACOBI parallelizes the outermost loop; translating
that 1:1 leaves every global access uncoalesced.  This example sweeps
the tuning variants the paper describes —

* ``naive``  — outer-loop-only translation (uncoalesced),
* ``best``   — manual parallel loop-swap in the input code,
* ``2d``     — both loops annotated (2-D blocks + PGI auto-tiling),

— for PGI Accelerator, shows OpenMPC doing the swap automatically, and
prints the per-variant coalescing evidence from the access analysis.

Run:  python examples/jacobi_tuning.py
"""

from repro.benchmarks.registry import get_benchmark
from repro.gpusim.coalescing import CoalescingReport
from repro.gpusim.device import TESLA_M2090

bench = get_benchmark("JACOBI")

print("JACOBI at paper scale (4096^2, 50 iterations), speedup over "
      "serial CPU\n")
print(f"{'model':<20}{'variant':<10}{'speedup':>10}{'kernel ms':>12}"
      f"{'xfer ms':>10}")
print("-" * 62)
for model in ("PGI Accelerator", "OpenACC", "HMPP", "OpenMPC",
              "Hand-Written CUDA"):
    for variant in bench.variants(model):
        out = bench.run(model, variant, scale="paper", execute=False,
                        validate=False)
        s = out.speedup
        print(f"{model:<20}{variant:<10}{s.speedup:>9.2f}x"
              f"{s.kernel_time_s * 1e3:>12.1f}"
              f"{s.transfer_time_s * 1e3:>10.1f}")
print()

# Why: look at the stencil kernel's access classification per variant.
print("Access-pattern evidence (stencil kernel, array 'a'):")
for variant in ("naive", "best"):
    compiled = bench.compile("PGI Accelerator", variant)
    kernel = compiled.results["stencil"].kernels[0]
    wl = bench.workload("paper")
    desc = kernel.describe({k: float(x) for k, x in wl.scalars.items()},
                           bench.extents_for("PGI Accelerator", variant,
                                             wl))
    loads = [(ref, c) for ref, c in desc.access.refs
             if ref.array == "a" and not ref.is_store]
    ref = loads[0][0]
    report = CoalescingReport.for_ref(ref, 8, TESLA_M2090)
    print(f"  {variant:<6}: pattern={report.pattern.value:<10} "
          f"transactions/warp={report.transactions:5.1f} "
          f"bus efficiency={report.efficiency * 100:5.1f}%")
print()
print("The naive variant pays ~32 transactions per warp access; the")
print("loop-swapped input brings it down to the 2-transaction minimum")
print("for doubles — the whole Figure 1 gap for JACOBI in one number.")
