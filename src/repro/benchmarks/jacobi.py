"""JACOBI — 2-D Poisson iteration kernel (Section V-A).

The paper's story: the original OpenMP version parallelizes the outermost
loop (rows) to minimize fork-join overhead.  Translating that directly
gives every GPU thread a row — large, *uncoalesced* global accesses.

* OpenMPC fixes it automatically with *parallel loop-swap*.
* PGI/OpenACC perform best when the swap is applied manually in the input
  and only the outermost loop is parallelized; annotating both loops
  (2-D mapping) also recovers coalescing and triggers PGI's automatic
  shared-memory tiling.
* HMPP can express the swap as a codelet-generator directive.
* The manual CUDA version uses 2-D thread blocks with tiling.

Regions (2): ``stencil`` and ``copyback`` — both affine (R-Stream maps
them fully automatically).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload
from repro.benchmarks.data import make_grid
from repro.ir.builder import aref, assign, idx, pfor, sfor, v
from repro.ir.program import (ArrayDecl, ParallelRegion, Program, ScalarDecl)
from repro.ir.transforms.tiling import TilingDecision
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_ITER_TEST = 4
_ITER_PAPER = 50


def _stencil_body():
    i, j = idx("i", "j")
    return assign(
        aref("b", i, j),
        0.25 * (aref("a", i - 1, j) + aref("a", i + 1, j)
                + aref("a", i, j - 1) + aref("a", i, j + 1)))


def _copy_body():
    i, j = idx("i", "j")
    return assign(aref("a", i, j), aref("b", i, j))


def _program_outer_parallel(iters: int) -> Program:
    """The original OpenMP form: outermost loop parallel, inner serial."""
    regions = [
        ParallelRegion(
            "stencil",
            pfor("i", 1, v("n") - 1,
                 sfor("j", 1, v("n") - 1, _stencil_body()),
                 private=["j"]),
            affine_hint=True, invocations=iters),
        ParallelRegion(
            "copyback",
            pfor("i", 1, v("n") - 1,
                 sfor("j", 1, v("n") - 1, _copy_body()),
                 private=["j"]),
            affine_hint=True, invocations=iters),
    ]
    return Program(
        "jacobi",
        arrays=[ArrayDecl("a", ("n", "n")), ArrayDecl("b", ("n", "n"),
                                                      intent="temp")],
        scalars=[ScalarDecl("n", "int")],
        regions=regions,
        domain="Iterative PDE solvers", driver_lines=33)


def _program_swapped(iters: int) -> Program:
    """Manually loop-swapped input: the parallel index walks columns."""
    regions = [
        ParallelRegion(
            "stencil",
            pfor("j", 1, v("n") - 1,
                 sfor("i", 1, v("n") - 1, _stencil_body()),
                 private=["i"]),
            affine_hint=True, invocations=iters),
        ParallelRegion(
            "copyback",
            pfor("j", 1, v("n") - 1,
                 sfor("i", 1, v("n") - 1, _copy_body()),
                 private=["i"]),
            affine_hint=True, invocations=iters),
    ]
    return Program(
        "jacobi",
        arrays=[ArrayDecl("a", ("n", "n")), ArrayDecl("b", ("n", "n"),
                                                      intent="temp")],
        scalars=[ScalarDecl("n", "int")],
        regions=regions,
        domain="Iterative PDE solvers", driver_lines=33)


def _program_2d(iters: int) -> Program:
    """Both loops annotated parallel (2-D thread-block mapping)."""
    regions = [
        ParallelRegion(
            "stencil",
            pfor("i", 1, v("n") - 1,
                 pfor("j", 1, v("n") - 1, _stencil_body())),
            affine_hint=True, invocations=iters),
        ParallelRegion(
            "copyback",
            pfor("i", 1, v("n") - 1,
                 pfor("j", 1, v("n") - 1, _copy_body())),
            affine_hint=True, invocations=iters),
    ]
    return Program(
        "jacobi",
        arrays=[ArrayDecl("a", ("n", "n")), ArrayDecl("b", ("n", "n"),
                                                      intent="temp")],
        scalars=[ScalarDecl("n", "int")],
        regions=regions,
        domain="Iterative PDE solvers", driver_lines=33)


class Jacobi(Benchmark):
    """JACOBI kernel benchmark."""

    name = "JACOBI"
    domain = "Iterative PDE solvers"

    def build_program(self) -> Program:
        return _program_outer_parallel(_ITER_PAPER)

    # -- workload ---------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        n = 48 if scale == "test" else 4096
        iters = _ITER_TEST if scale == "test" else _ITER_PAPER
        schedule: list[ScheduleStep] = []
        for _ in range(iters):
            schedule.append(ScheduleStep("stencil"))
            schedule.append(ScheduleStep("copyback"))
        grid = ((n, n), np.float64)
        return Workload(sizes={"n": n, "iters": iters},
                        shapes={"a": grid, "b": grid},
                        build=lambda: {"a": make_grid(n, seed=seed)},
                        scalars={"n": n},
                        schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        a = wl.arrays["a"].copy()
        b = np.zeros_like(a)
        for _ in range(wl.sizes["iters"]):
            b[1:-1, 1:-1] = 0.25 * (a[:-2, 1:-1] + a[2:, 1:-1]
                                    + a[1:-1, :-2] + a[1:-1, 2:])
            a[1:-1, 1:-1] = b[1:-1, 1:-1]
        return {"a": a}

    def output_arrays(self) -> tuple[str, ...]:
        return ("a",)

    # -- ports -------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC"):
            return ("best", "2d", "naive")
        if model in ("HMPP", "OpenMPC"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        iters = _ITER_PAPER
        data_region = DataRegionSpec(
            name="jacobi_data", regions=("stencil", "copyback"),
            copyin=("a",), copyout=("a",), create=("b",))
        if model in ("PGI Accelerator", "OpenACC"):
            if variant == "naive":
                prog = _program_outer_parallel(iters)
            elif variant == "2d":
                prog = _program_2d(iters)
            else:
                prog = _program_swapped(iters)
            return PortSpec(
                model=model, program=prog,
                directive_lines=6 if model == "PGI Accelerator" else 5,
                restructured_lines=2 if variant == "best" else 0,
                data_regions=(data_region,),
                notes=(f"variant={variant}",))
        if model == "HMPP":
            swap = variant == "best"
            opts = RegionOptions(request_loop_swap=swap)
            return PortSpec(
                model=model, program=_program_outer_parallel(iters),
                directive_lines=9,  # codelet/callsite/group/loads + permute
                restructured_lines=0,
                data_regions=(data_region,),
                region_options={"stencil": opts, "copyback": opts},
                notes=(f"variant={variant}",))
        if model == "OpenMPC":
            opts = RegionOptions(
                disable_auto_transforms=(variant == "naive"))
            return PortSpec(
                model=model, program=_program_outer_parallel(iters),
                directive_lines=1,  # one tuning env directive
                restructured_lines=0,
                region_options={"stencil": opts, "copyback": opts},
                notes=(f"variant={variant}",))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=_program_2d(iters),
                directive_lines=2,  # map pragmas on the two functions
                restructured_lines=0,
                notes=("fully automatic mapping",))
        if model == "Hand-Written CUDA":
            tile = TilingDecision(tile_dims=(16, 16), reuse_factor=3.5,
                                  smem_bytes_per_block=18 * 18 * 8,
                                  arrays=("a",))
            opts = RegionOptions(block_threads=256, tiling=(tile,))
            return PortSpec(
                model=model, program=_program_2d(iters),
                directive_lines=0, restructured_lines=34,
                data_regions=(data_region,),
                region_options={"stencil": opts,
                                "copyback": RegionOptions(block_threads=256)},
                notes=("hand-tuned 2-D tiled kernels",))
        return self.derived_port(model, variant)
