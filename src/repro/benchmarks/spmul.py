"""SPMUL — sparse matrix-vector multiplication kernel (Section V-A).

A power-iteration-style driver: repeatedly ``y = A·x`` (CSR), then
normalize ``x = y / ||y||``.  The SpMV region is the canonical irregular
pattern: the inner loop's bounds come from ``rowstr[i]`` (data-dependent
trip counts → warp divergence) and ``x`` is gathered through ``colidx``
(indirect accesses).

* OpenMPC applies *loop collapsing* [21]: the flattened nonzero loop
  makes ``val``/``colidx`` traffic coalesced (modeled as pattern
  overrides; the gather of ``x`` stays indirect).
* PGI/OpenACC/HMPP translate the loop as-is; the PGI compiler leans on
  texture/L2 for the gathers (we grant the manual + OpenMPC versions
  texture placement of ``x``, which the other models cannot express).

Regions (3): ``spmv`` (non-affine), ``norm2`` (affine reduction into a
per-iteration slot), and ``scale`` (affine) — the latter two are the
SPMUL share of R-Stream's mappable set.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shapes_of
from repro.benchmarks.data import CsrMatrix, make_csr
from repro.gpusim.memory import MemorySpace
from repro.ir.builder import (accum, aref, assign, block, idx, intrinsic,
                              pfor, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_ITER_TEST = 3
_ITER_PAPER = 40


def _spmv_region(invocations: int) -> ParallelRegion:
    i, k = idx("i", "k")
    body = block(
        assign(aref("y", i), 0.0),
        sfor("k", aref("rowstr", i), aref("rowstr", i + 1),
             accum(aref("y", i),
                   aref("val", k) * aref("x", aref("colidx", k)))),
    )
    return ParallelRegion(
        "spmv",
        pfor("i", 0, v("n"), body, private=["k"]),
        invocations=invocations)


def _normalize_region(invocations: int, with_clause: bool) -> ParallelRegion:
    """Accumulate ||y||^2 into the per-iteration slot ``nrm[t]``.

    With ``with_clause`` the loop carries the OpenMP ``reduction(+: nrm)``
    annotation; the PGI port drops it (PGI has no reduction clause and
    must detect the pattern implicitly).
    """
    from repro.ir.builder import reduce_clause

    i = v("i")
    clauses = (reduce_clause("+", "nrm"),) if with_clause else ()
    return ParallelRegion(
        "norm2",
        pfor("i", 0, v("n"),
             accum(aref("nrm", v("t")), aref("y", i) * aref("y", i)),
             reductions=clauses),
        invocations=invocations)


def _scale_region(invocations: int) -> ParallelRegion:
    i = v("i")
    return ParallelRegion(
        "scale",
        pfor("i", 0, v("n"),
             assign(aref("x", i),
                    aref("y", i) / intrinsic("sqrt", aref("nrm", v("t"))))),
        invocations=invocations)


def _build_program(iters: int, with_clauses: bool = True) -> Program:
    return Program(
        "spmul",
        arrays=[
            ArrayDecl("rowstr", ("n1",), dtype="int", intent="in"),
            ArrayDecl("colidx", ("nnz",), dtype="int", intent="in"),
            ArrayDecl("val", ("nnz",), intent="in"),
            ArrayDecl("x", ("n",)),
            ArrayDecl("y", ("n",), intent="out"),
            ArrayDecl("nrm", ("iters",), intent="temp"),
        ],
        scalars=[ScalarDecl("n", "int"), ScalarDecl("n1", "int"),
                 ScalarDecl("nnz", "int"), ScalarDecl("t", "int"),
                 ScalarDecl("iters", "int")],
        regions=[_spmv_region(iters),
                 _normalize_region(iters, with_clauses),
                 _scale_region(iters)],
        domain="Sparse linear algebra", driver_lines=38)


class Spmul(Benchmark):
    """SPMUL kernel benchmark."""

    name = "SPMUL"
    domain = "Sparse linear algebra"
    rtol = 1e-7
    atol = 1e-9

    def build_program(self) -> Program:
        return _build_program(_ITER_PAPER)

    # -- workload --------------------------------------------------------
    def _matrix(self, scale: str, seed: int) -> CsrMatrix:
        n = 200 if scale == "test" else 150_000
        return make_csr(n, avg_nnz_per_row=16, seed=seed)

    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        mat = self._matrix(scale, seed)
        iters = _ITER_TEST if scale == "test" else _ITER_PAPER
        rng = np.random.default_rng(seed + 1)
        x = rng.random(mat.n)
        schedule: list[ScheduleStep] = []
        for t in range(iters):
            schedule.append(ScheduleStep("spmv"))
            schedule.append(ScheduleStep("norm2", scalars={"t": t}))
            schedule.append(ScheduleStep("scale", scalars={"t": t}))
        # nnz depends on the matrix: the data is built here
        arrays = {"rowstr": mat.rowstr.copy(), "colidx": mat.colidx.copy(),
                  "val": mat.values.copy(), "x": x,
                  "y": np.zeros(mat.n), "nrm": np.zeros(iters)}
        return Workload(
            sizes={"n": mat.n, "nnz": mat.nnz, "iters": iters},
            shapes=shapes_of(arrays), build=lambda: arrays,
            scalars={"n": mat.n, "n1": mat.n + 1, "nnz": mat.nnz,
                     "t": 0, "iters": iters},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        rowstr = wl.arrays["rowstr"]
        colidx = wl.arrays["colidx"]
        val = wl.arrays["val"]
        n = wl.sizes["n"]
        x = wl.arrays["x"].copy()
        y = np.zeros(n)
        src = np.repeat(np.arange(n), np.diff(rowstr))
        for _ in range(wl.sizes["iters"]):
            y = np.zeros(n)
            np.add.at(y, src, val * x[colidx])
            x = y / np.sqrt((y * y).sum())
        return {"x": x, "y": y}

    def output_arrays(self) -> tuple[str, ...]:
        return ("x", "y")

    # -- ports -------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model == "OpenMPC":
            return ("best", "naive")
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        prog = _build_program(_ITER_PAPER,
                              with_clauses=(model != "PGI Accelerator"))
        data = DataRegionSpec(
            name="spmul_data", regions=("spmv", "norm2", "scale"),
            copyin=("rowstr", "colidx", "val", "x"),
            copyout=("x", "y"), create=("nrm",))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            dr = (data,) if variant == "best" else ()
            return PortSpec(
                model=model, program=prog,
                directive_lines=9,
                restructured_lines=2,
                data_regions=dr,
                notes=(f"variant={variant}",))
        if model == "OpenMPC":
            opts = RegionOptions(
                disable_auto_transforms=(variant == "naive"))
            return PortSpec(
                model=model, program=prog, directive_lines=2,
                restructured_lines=0,
                region_options={"spmv": opts},
                notes=(f"variant={variant}",))
        if model == "R-Stream":
            # the SpMV inner loop is not affine; the whole program is
            # ported anyway to measure coverage (with dummy affine
            # summaries, the paper's masking workflow — hence the
            # restructuring cost despite low coverage)
            return PortSpec(
                model=model, program=prog, directive_lines=3,
                restructured_lines=8,
                notes=("irregular regions not mappable",))
        if model == "Hand-Written CUDA":
            opts = RegionOptions(
                block_threads=128,
                placements={"x": MemorySpace.TEXTURE},
                pattern_overrides={},
            )
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=60,
                data_regions=(data,),
                region_options={"spmv": opts},
                notes=("CSR-vector style hand kernel, texture-cached x",))
        return self.derived_port(model, variant)
