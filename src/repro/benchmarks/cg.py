"""CG — NAS Conjugate Gradient benchmark (Section V-A).

Estimates the smallest eigenvalue of a sparse SPD matrix with inverse
power iteration; each outer iteration runs ``cgitmax`` conjugate-gradient
steps.  The paper's CG story:

* parallel loops span several procedures → complex CPU↔GPU transfer
  patterns.  OpenMPC optimizes them automatically (interprocedural data
  flow); every other model needs extensive data clauses (our ports carry
  a program-wide data region and the directive-line cost that goes with
  it).
* OpenMPC wins on kernel time through *loop collapsing* of the CSR
  traversal; the PGI compiler instead leans on shared memory.

Regions (12): two irregular SpMV regions (``spmv_q``, ``spmv_r``), and
ten affine vector regions (init, dots with reduction clauses, AXPYs, the
final scaling) — the mappable share of CG for R-Stream.

Per-iteration reduction slots (``rho[k]``, ``dpq[k]``) keep the program
race-free without host-side scalars: ``alpha``/``beta`` are recomputed
from the slots inside the consuming kernels (uniform loads).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shapes_of
from repro.benchmarks.data import CsrMatrix, make_csr
from repro.gpusim.memory import MemorySpace
from repro.ir.builder import (accum, aref, assign, block, idx, intrinsic,
                              pfor, reduce_clause, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_CGIT_TEST = 4
_CGIT_PAPER = 25


def _spmv(name: str, dest: str, src: str, invocations: int) -> ParallelRegion:
    i, k = idx("i", "k")
    body = block(
        assign(aref(dest, i), 0.0),
        sfor("k", aref("rowstr", i), aref("rowstr", i + 1),
             accum(aref(dest, i),
                   aref("a", k) * aref(src, aref("colidx", k)))),
    )
    return ParallelRegion(name, pfor("i", 0, v("n"), body, private=["k"]),
                          invocations=invocations)


def _dot(name: str, slot_array: str, xa: str, ya: str, slot: str,
         invocations: int, with_clause: bool) -> ParallelRegion:
    i = v("i")
    clauses = (reduce_clause("+", slot_array),) if with_clause else ()
    return ParallelRegion(
        name,
        pfor("i", 0, v("n"),
             accum(aref(slot_array, v(slot)), aref(xa, i) * aref(ya, i)),
             reductions=clauses),
        invocations=invocations)


def _build(cgitmax: int, with_clauses: bool = True) -> Program:
    i = v("i")
    k = v("k")

    init_x = ParallelRegion(
        "init_x", pfor("i", 0, v("n"), assign(aref("x", i), 1.0)))
    init_cg = ParallelRegion(
        "init_cg",
        pfor("i", 0, v("n"), block(
            assign(aref("q", i), 0.0),
            assign(aref("z", i), 0.0),
            assign(aref("r", i), aref("x", i)),
            assign(aref("p", i), aref("x", i)),
        )))
    rho0 = _dot("rho0", "rho", "r", "r", "kk", 1, with_clauses)
    spmv_q = _spmv("spmv_q", "q", "p", cgitmax)
    dot_pq = _dot("dot_pq", "dpq", "p", "q", "kk", cgitmax, with_clauses)

    alpha = aref("rho", k) / aref("dpq", k)
    update_zr = ParallelRegion(
        "update_zr",
        pfor("i", 0, v("n"), block(
            accum(aref("z", i), alpha * aref("p", i)),
            accum(aref("r", i), -(alpha * aref("q", i))),
        )),
        invocations=cgitmax)
    rho_new = _dot("rho_new", "rho", "r", "r", "k1", cgitmax, with_clauses)
    beta = aref("rho", v("k1")) / aref("rho", k)
    update_p = ParallelRegion(
        "update_p",
        pfor("i", 0, v("n"),
             assign(aref("p", i), aref("r", i) + beta * aref("p", i))),
        invocations=cgitmax)

    spmv_r = _spmv("spmv_r", "r2", "z", 1)
    residual = ParallelRegion(
        "residual",
        pfor("i", 0, v("n"),
             accum(aref("sumr", 0),
                   (aref("x", i) - aref("r2", i))
                   * (aref("x", i) - aref("r2", i))),
             reductions=(reduce_clause("+", "sumr"),) if with_clauses else ()))
    norm_z = _dot("norm_z", "znorm", "z", "z", "zero", 1, with_clauses)
    scale_x = ParallelRegion(
        "scale_x",
        pfor("i", 0, v("n"),
             assign(aref("x", i),
                    aref("z", i) / intrinsic("sqrt", aref("znorm", 0)))))

    n_slots = cgitmax + 1
    return Program(
        "cg",
        arrays=[
            ArrayDecl("rowstr", ("n1",), dtype="int", intent="in"),
            ArrayDecl("colidx", ("nnz",), dtype="int", intent="in"),
            ArrayDecl("a", ("nnz",), intent="in"),
            ArrayDecl("x", ("n",)),
            ArrayDecl("z", ("n",), intent="temp"),
            ArrayDecl("p", ("n",), intent="temp"),
            ArrayDecl("q", ("n",), intent="temp"),
            ArrayDecl("r", ("n",), intent="temp"),
            ArrayDecl("r2", ("n",), intent="temp"),
            ArrayDecl("rho", (n_slots,), intent="temp"),
            ArrayDecl("dpq", (n_slots,), intent="temp"),
            ArrayDecl("sumr", (1,), intent="out"),
            ArrayDecl("znorm", (1,), intent="temp"),
        ],
        scalars=[ScalarDecl("n", "int"), ScalarDecl("n1", "int"),
                 ScalarDecl("nnz", "int"), ScalarDecl("k", "int"),
                 ScalarDecl("k1", "int"), ScalarDecl("kk", "int"),
                 ScalarDecl("zero", "int")],
        regions=[init_x, init_cg, rho0, spmv_q, dot_pq, update_zr,
                 rho_new, update_p, spmv_r, residual, norm_z, scale_x],
        domain="Sparse linear algebra / eigenvalue estimation", driver_lines=156)


class Cg(Benchmark):
    """NAS CG benchmark."""

    name = "CG"
    domain = "Sparse linear algebra"
    rtol = 1e-6
    atol = 1e-8

    def build_program(self) -> Program:
        return _build(_CGIT_PAPER)

    # -- workload -----------------------------------------------------------
    def _matrix(self, scale: str, seed: int) -> CsrMatrix:
        n = 150 if scale == "test" else 75_000
        return make_csr(n, avg_nnz_per_row=13, seed=seed)

    def _cgitmax(self, scale: str) -> int:
        return _CGIT_TEST if scale == "test" else _CGIT_PAPER

    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        mat = self._matrix(scale, seed)
        cgitmax = self._cgitmax(scale)
        schedule: list[ScheduleStep] = [
            ScheduleStep("init_x"),
            ScheduleStep("init_cg"),
            ScheduleStep("rho0", scalars={"kk": 0}),
        ]
        for k in range(cgitmax):
            schedule.append(ScheduleStep("spmv_q"))
            schedule.append(ScheduleStep("dot_pq", scalars={"kk": k, "k": k}))
            schedule.append(ScheduleStep("update_zr", scalars={"k": k}))
            schedule.append(ScheduleStep("rho_new",
                                         scalars={"k1": k + 1, "kk": k + 1}))
            schedule.append(ScheduleStep("update_p",
                                         scalars={"k": k, "k1": k + 1}))
        schedule.append(ScheduleStep("spmv_r"))
        schedule.append(ScheduleStep("residual"))
        schedule.append(ScheduleStep("norm_z", scalars={"zero": 0}))
        schedule.append(ScheduleStep("scale_x"))
        n_slots = _CGIT_PAPER + 1 if scale != "test" else _CGIT_TEST + 1
        # nnz depends on the matrix: the data is built here
        arrays = {"rowstr": mat.rowstr.copy(), "colidx": mat.colidx.copy(),
                  "a": mat.values.copy(),
                  "x": np.zeros(mat.n), "z": np.zeros(mat.n),
                  "p": np.zeros(mat.n), "q": np.zeros(mat.n),
                  "r": np.zeros(mat.n), "r2": np.zeros(mat.n),
                  "rho": np.zeros(n_slots), "dpq": np.zeros(n_slots),
                  "sumr": np.zeros(1), "znorm": np.zeros(1)}
        return Workload(
            sizes={"n": mat.n, "nnz": mat.nnz, "cgitmax": cgitmax},
            shapes=shapes_of(arrays), build=lambda: arrays,
            scalars={"n": mat.n, "n1": mat.n + 1, "nnz": mat.nnz,
                     "k": 0, "k1": 0, "kk": 0, "zero": 0},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        rowstr, colidx = wl.arrays["rowstr"], wl.arrays["colidx"]
        a = wl.arrays["a"]
        n = wl.sizes["n"]
        src = np.repeat(np.arange(n), np.diff(rowstr))

        def spmv(vec: np.ndarray) -> np.ndarray:
            out = np.zeros(n)
            np.add.at(out, src, a * vec[colidx])
            return out

        x = np.ones(n)
        z = np.zeros(n)
        r = x.copy()
        p = x.copy()
        rho = float(r @ r)
        for _ in range(wl.sizes["cgitmax"]):
            q = spmv(p)
            alpha = rho / float(p @ q)
            z = z + alpha * p
            r = r - alpha * q
            rho_new = float(r @ r)
            beta = rho_new / rho
            p = r + beta * p
            rho = rho_new
        r2 = spmv(z)
        sumr = float(((x - r2) ** 2).sum())
        znorm = float(z @ z)
        x = z / np.sqrt(znorm)
        return {"x": x, "sumr": np.array([sumr])}

    def output_arrays(self) -> tuple[str, ...]:
        return ("x", "sumr")

    # -- ports ---------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC", "HMPP", "OpenMPC"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        cgitmax = _CGIT_PAPER
        prog = _build(cgitmax, with_clauses=(model != "PGI Accelerator"))
        all_regions = tuple(r.name for r in prog.regions)
        arrays_in = ("rowstr", "colidx", "a")
        data = DataRegionSpec(
            name="cg_data", regions=all_regions,
            copyin=arrays_in,
            copyout=("x", "sumr"),
            create=("z", "p", "q", "r", "r2", "rho", "dpq", "znorm"))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            # "all the other GPU models demand extensive use of data
            # clauses to optimize the complex communication patterns"
            dr = (data,) if variant == "best" else ()
            return PortSpec(
                model=model, program=prog,
                directive_lines=30,
                restructured_lines=10,
                data_regions=dr,
                notes=(f"variant={variant}",
                       "extensive data clauses across procedures"))
        if model == "OpenMPC":
            opts = RegionOptions(
                disable_auto_transforms=(variant == "naive"))
            return PortSpec(
                model=model, program=prog, directive_lines=4,
                restructured_lines=0,
                region_options={"spmv_q": opts, "spmv_r": opts},
                notes=(f"variant={variant}",
                       "interprocedural transfer optimization + loop "
                       "collapsing"))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=prog, directive_lines=4,
                restructured_lines=12,
                notes=("SpMV regions are non-affine; vector regions map",))
        if model == "Hand-Written CUDA":
            spmv_opts = RegionOptions(
                block_threads=128,
                placements={"p": MemorySpace.TEXTURE,
                            "z": MemorySpace.TEXTURE})
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=120,
                data_regions=(data,),
                region_options={"spmv_q": spmv_opts, "spmv_r": spmv_opts},
                notes=("hand CUDA CG with texture-cached gather vectors",))
        return self.derived_port(model, variant)
