"""LUD — LU decomposition (Rodinia, Section V-B).

In-place LU factorization of a dense matrix (no pivoting — the inputs
are diagonally dominant, as Rodinia's are).  The OpenMP version is two
simple parallel loops per elimination step; the paper: "it is known to
be very difficult for compilers to analyze and generate efficient GPU
code, due to its unique access patterns.  The hand-written CUDA code
shows that algorithmic changes specialized for the underlying GPU memory
model can change its performance by an order of magnitude."

Our directive ports launch 2(n-1) per-step kernels whose column walks
(``a[i*n + k]``) the compilers cannot re-tile (the arrays are manually
linearized with a symbolic leading dimension, which also keeps R-Stream
out); OpenMPC's automatic loop-swap recovers coalescing on the trailing
update.  The manual port reproduces the blocked shared-memory algorithm
as an explicit tiling decision plus per-block scheduling.

Regions (4): ``init_a`` (copy-in), ``lud_scale`` (column scaling),
``lud_update`` (trailing submatrix), ``lud_norm`` (validation reduction).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shared_program
from repro.benchmarks.data import make_spd_dense
from repro.ir.builder import (accum, aref, assign, intrinsic, pfor,
                              reduce_clause, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.ir.transforms.tiling import TilingDecision
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_TILE = 16


@shared_program
def _build(two_d_update: bool, with_clauses: bool = True) -> Program:
    i, j, k = v("i"), v("j"), v("k")
    lin = lambda r, c: r * v("n") + c  # noqa: E731 - row-major linearized

    init_a = ParallelRegion(
        "init_a",
        pfor("i", 0, v("n"),
             sfor("j", 0, v("n"),
                  assign(aref("a", lin(i, j)), aref("a0", lin(i, j)))),
             private=["j"]))
    lud_scale = ParallelRegion(
        "lud_scale",
        pfor("i", v("k") + 1, v("n"),
             assign(aref("a", lin(i, k)),
                    aref("a", lin(i, k)) / aref("a", lin(k, k)))),
        invocations=1)
    update_body = accum(aref("a", lin(i, j)),
                        -(aref("a", lin(i, k)) * aref("a", lin(k, j))))
    if two_d_update:
        update_nest = pfor("i", v("k") + 1, v("n"),
                           pfor("j", v("k") + 1, v("n"), update_body))
    else:
        update_nest = pfor("i", v("k") + 1, v("n"),
                           sfor("j", v("k") + 1, v("n"), update_body),
                           private=["j"])
    lud_update = ParallelRegion("lud_update", update_nest, invocations=1)
    lud_norm = ParallelRegion(
        "lud_norm",
        pfor("i", 0, v("n"),
             sfor("j", 0, v("n"),
                  accum(aref("nrm", 0),
                        intrinsic("fabs", aref("a", lin(i, j))))),
             private=["j"],
             reductions=(reduce_clause("+", "nrm"),) if with_clauses else ()))
    return Program(
        "lud",
        arrays=[ArrayDecl("a0", ("nn",), intent="in"),
                ArrayDecl("a", ("nn",), intent="out"),
                ArrayDecl("nrm", (1,), intent="out")],
        scalars=[ScalarDecl("n", "int"), ScalarDecl("nn", "int"),
                 ScalarDecl("k", "int")],
        regions=[init_a, lud_scale, lud_update, lud_norm],
        domain="Dense linear algebra", driver_lines=50)


class Lud(Benchmark):
    """Rodinia LUD benchmark."""

    name = "LUD"
    domain = "Dense linear algebra"
    rtol = 1e-7
    atol = 1e-9

    def build_program(self) -> Program:
        return _build(two_d_update=False)

    # -- workload -----------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        n = 48 if scale == "test" else 2048
        schedule: list[ScheduleStep] = [ScheduleStep("init_a")]
        for k in range(n - 1):
            schedule.append(ScheduleStep("lud_scale", scalars={"k": k}))
            schedule.append(ScheduleStep("lud_update", scalars={"k": k}))
        schedule.append(ScheduleStep("lud_norm"))
        return Workload(
            sizes={"n": n},
            shapes={"a0": ((n * n,), np.float64),
                    "a": ((n * n,), np.float64), "nrm": ((1,), np.float64)},
            build=lambda: {
                "a0": make_spd_dense(n, seed=seed).reshape(-1).copy()},
            scalars={"n": n, "nn": n * n, "k": 0},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        n = wl.sizes["n"]
        a = wl.arrays["a0"].reshape(n, n).copy()
        for k in range(n - 1):
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
        return {"a": a.reshape(-1),
                "nrm": np.array([np.abs(a).sum()])}

    def output_arrays(self) -> tuple[str, ...]:
        return ("a", "nrm")

    # -- ports ---------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC", "HMPP", "OpenMPC"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        data = DataRegionSpec(
            name="lud_data",
            regions=("init_a", "lud_scale", "lud_update", "lud_norm"),
            copyin=("a0",), copyout=("a", "nrm"), create=("a",))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            prog = _build(two_d_update=(variant == "best"),
                          with_clauses=(model != "PGI Accelerator"))
            return PortSpec(
                model=model, program=prog,
                directive_lines=9,
                restructured_lines=4,
                data_regions=(data,),
                notes=(f"variant={variant}",
                       "per-step kernels; no blocked re-formulation "
                       "expressible"))
        if model == "OpenMPC":
            prog = _build(two_d_update=False)
            opts = RegionOptions(
                disable_auto_transforms=(variant == "naive"))
            return PortSpec(
                model=model, program=prog, directive_lines=2,
                restructured_lines=0,
                region_options={"lud_update": opts, "init_a": opts,
                                "lud_norm": opts},
                notes=(f"variant={variant}", "automatic loop-swap on the "
                       "trailing update"))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=_build(two_d_update=False),
                directive_lines=2, restructured_lines=6,
                notes=("linearized symbolic subscripts; dependences "
                       "unprovable",))
        if model == "Hand-Written CUDA":
            prog = _build(two_d_update=True)
            tile = TilingDecision(
                tile_dims=(_TILE, _TILE), reuse_factor=float(_TILE),
                smem_bytes_per_block=2 * _TILE * _TILE * 8,
                arrays=("a",))
            opts = RegionOptions(block_threads=128, tiling=(tile,))
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=150,
                data_regions=(data,),
                region_options={"lud_update": opts,
                                "lud_scale": RegionOptions(block_threads=128),
                                "init_a": RegionOptions(block_threads=256),
                                "lud_norm": RegionOptions(block_threads=256)},
                notes=("blocked shared-memory LU (diagonal/perimeter/"
                       "internal kernels)",))
        return self.derived_port(model, variant)
