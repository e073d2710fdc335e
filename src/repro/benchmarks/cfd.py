"""CFD — unstructured-grid 3-D Euler solver (Rodinia euler3d, §V-B).

Finite-volume solver on an unstructured mesh: per element, fluxes are
accumulated over the (up to four) neighbouring elements reached through
the ``elements_surrounding`` indirection table, then an explicit time
step advances the conserved variables.

The paper's CFD story: the five conserved variables per element are
stored interleaved in one 1-D array (``variables[i*NVAR + j]``) — a 2-D
matrix in a 1-D array with "complex subscript expressions" that the
compilers cannot re-layout.  The stride-5 interleaving makes every
access uncoalesced; the manual version changes the layout to
structure-of-arrays (``variables[j*nelr + i]``) and after the same
change is applied to the *input* code, all models get close; OpenMPC
edges ahead with constant/texture caching of the read-only mesh data.

Regions (7): ``init_flat`` (``% NVAR`` recovery — non-affine),
``copy_old`` (affine), ``step_factor`` (calls helper functions —
non-affine for R-Stream), ``flux`` (indirection + calls — non-affine),
``time_step`` (affine), ``reduce_rms`` (affine reduction),
``apply_bc`` (boundary indirection — non-affine).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shared_program
from repro.benchmarks.data import make_graph
from repro.gpusim.memory import MemorySpace
from repro.ir.builder import (accum, aref, assign, block, call, iff,
                              intrinsic, local, pfor, reduce_clause, sfor, v)
from repro.ir.program import (ArrayDecl, Function, Param, ParallelRegion,
                              Program, ScalarDecl)
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

NVAR = 5
_ITER_TEST = 2
_ITER_PAPER = 200
GAMMA = 1.4


def _vidx(soa: bool, i, j):
    """Index of variable ``j`` of element ``i`` under either layout."""
    if soa:
        return j * v("nelr") + i
    return i * NVAR + j


def _speed_fn() -> Function:
    """sqrt of the momentum magnitude over density (helper, inlinable)."""
    body = block(
        assign(aref("out", v("oi")),
               intrinsic("sqrt", (v("mx") * v("mx") + v("my") * v("my"))
                         / (v("rho") * v("rho")))),
    )
    return Function("compute_speed",
                    params=[Param("out", is_array=True), Param("oi"),
                            Param("mx"), Param("my"), Param("rho")],
                    body=body, inlinable=True)


def _step_factor_region(soa: bool, invocations: int) -> ParallelRegion:
    i = v("i")
    body = block(
        local("rho", init=aref("variables", _vidx(soa, i, 0))),
        local("mx", init=aref("variables", _vidx(soa, i, 1))),
        local("my", init=aref("variables", _vidx(soa, i, 2))),
        call("compute_speed", v("speed_tmp"), i, v("mx"), v("my"), v("rho")),
        assign(aref("step_factors", i),
               0.5 / (intrinsic("sqrt", aref("areas", i))
                      * (aref("speed_tmp", i) + 1.0))),
    )
    return ParallelRegion("step_factor",
                          pfor("i", 0, v("nelr"), body),
                          invocations=invocations)


def _flux_region(soa: bool, invocations: int) -> ParallelRegion:
    i, k, j = v("i"), v("k"), v("j")
    nb = aref("elements_surrounding", i * 4 + k)
    inner = iff(nb.ge(0), block(
        sfor("j", 0, NVAR,
             accum(aref("fluxes", _vidx(soa, i, j)),
                   aref("normals", (i * 4 + k)) *
                   (aref("variables", _vidx(soa, nb, j))
                    - aref("variables", _vidx(soa, i, j))))),
    ))
    body = block(
        sfor("j", 0, NVAR,
             assign(aref("fluxes", _vidx(soa, i, j)), 0.0)),
        sfor("k", 0, 4, inner),
    )
    return ParallelRegion("flux",
                          pfor("i", 0, v("nelr"), body, private=["k", "j"]),
                          invocations=invocations)


@shared_program
def _build(iters: int, soa: bool = False,
           with_clauses: bool = True) -> Program:
    i, j, idx, b = v("i"), v("j"), v("idx"), v("b")
    rk = iters * 3  # three RK substeps per iteration

    init_flat = ParallelRegion(
        "init_flat",
        pfor("idx", 0, v("ntotal"),
             assign(aref("variables", idx), aref("ff", idx % NVAR))
             if not soa else
             assign(aref("variables", idx),
                    aref("ff", idx // v("nelr")))))
    copy_old = ParallelRegion(
        "copy_old",
        pfor("idx", 0, v("ntotal"),
             assign(aref("old_variables", idx), aref("variables", idx))),
        invocations=iters, affine_hint=True)
    time_step = ParallelRegion(
        "time_step",
        pfor("idx", 0, v("ntotal"),
             assign(aref("variables", idx),
                    aref("old_variables", idx)
                    + v("rkcoef") * aref("fluxes", idx))),
        invocations=rk, affine_hint=True)
    reduce_rms = ParallelRegion(
        "reduce_rms",
        pfor("idx", 0, v("ntotal"),
             accum(aref("rms", 0),
                   (aref("variables", idx) - aref("old_variables", idx))
                   * (aref("variables", idx) - aref("old_variables", idx))),
             reductions=(reduce_clause("+", "rms"),) if with_clauses else ()),
        affine_hint=True)
    apply_bc = ParallelRegion(
        "apply_bc",
        pfor("b", 0, v("nbound"), block(
            sfor("j", 0, NVAR,
                 assign(aref("variables",
                             _vidx(soa, aref("boundary", b), j)),
                        aref("ff", j))),
        ), private=["j"]))

    return Program(
        "cfd",
        arrays=[
            ArrayDecl("variables", ("ntotal",)),
            ArrayDecl("old_variables", ("ntotal",), intent="temp"),
            ArrayDecl("fluxes", ("ntotal",), intent="temp"),
            ArrayDecl("step_factors", ("nelr",), intent="temp"),
            ArrayDecl("speed_tmp", ("nelr",), intent="temp"),
            ArrayDecl("areas", ("nelr",), intent="in"),
            ArrayDecl("normals", ("nfour",), intent="in"),
            ArrayDecl("elements_surrounding", ("nfour",), dtype="int",
                      intent="in"),
            ArrayDecl("boundary", ("nbound",), dtype="int", intent="in"),
            ArrayDecl("ff", (NVAR,), intent="in"),
            ArrayDecl("rms", (1,), intent="out"),
        ],
        scalars=[ScalarDecl("nelr", "int"), ScalarDecl("ntotal", "int"),
                 ScalarDecl("nfour", "int"), ScalarDecl("nbound", "int"),
                 ScalarDecl("rkcoef")],
        regions=[init_flat, copy_old,
                 _step_factor_region(soa, iters * 3),
                 _flux_region(soa, rk),
                 time_step, reduce_rms, apply_bc],
        functions=[_speed_fn()],
        domain="Fluid dynamics", driver_lines=138)


class Cfd(Benchmark):
    """Rodinia CFD (euler3d) benchmark."""

    name = "CFD"
    domain = "Fluid dynamics"
    rtol = 1e-7
    atol = 1e-9

    def build_program(self) -> Program:
        return _build(_ITER_PAPER)

    # -- workload -----------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        nelr = 300 if scale == "test" else 200_000
        iters = _ITER_TEST if scale == "test" else _ITER_PAPER
        nbound = max(1, nelr // 50)

        def build() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            mesh = make_graph(nelr, avg_degree=4, seed=seed)
            # exactly 4 neighbour slots per element (-1 = boundary face)
            elem = np.full(nelr * 4, -1, dtype=np.int64)
            for i in range(nelr):
                lo, hi = mesh.node_start[i], min(mesh.node_start[i] + 4,
                                                 mesh.node_start[i + 1])
                nbrs = mesh.edges[lo:hi]
                elem[i * 4:i * 4 + len(nbrs)] = nbrs
            return {"areas": 1.0 + rng.random(nelr),
                    "normals": rng.standard_normal(nelr * 4) * 0.01,
                    "elements_surrounding": elem,
                    "boundary": rng.choice(nelr, size=nbound,
                                           replace=False).astype(np.int64),
                    "ff": np.array([1.4, 0.1, 0.0, 0.0, 2.5])}

        ntotal = nelr * NVAR
        schedule: list[ScheduleStep] = [ScheduleStep("init_flat")]
        for _ in range(iters):
            schedule.append(ScheduleStep("copy_old"))
            for rk in range(3):
                coef = 1.0 / (3 - rk)
                schedule.append(ScheduleStep("step_factor"))
                schedule.append(ScheduleStep("flux"))
                schedule.append(ScheduleStep("time_step",
                                             scalars={"rkcoef": coef}))
        schedule.append(ScheduleStep("apply_bc"))
        schedule.append(ScheduleStep("reduce_rms"))
        return Workload(
            sizes={"nelr": nelr, "iters": iters},
            shapes={"variables": ((ntotal,), np.float64),
                    "old_variables": ((ntotal,), np.float64),
                    "fluxes": ((ntotal,), np.float64),
                    "step_factors": ((nelr,), np.float64),
                    "speed_tmp": ((nelr,), np.float64),
                    "areas": ((nelr,), np.float64),
                    "normals": ((nelr * 4,), np.float64),
                    "elements_surrounding": ((nelr * 4,), np.int64),
                    "boundary": ((nbound,), np.int64),
                    "ff": ((NVAR,), np.float64),
                    "rms": ((1,), np.float64)},
            build=build,
            scalars={"nelr": nelr, "ntotal": ntotal, "nfour": nelr * 4,
                     "nbound": nbound, "rkcoef": 1.0},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        nelr = wl.sizes["nelr"]
        elem = wl.arrays["elements_surrounding"].reshape(nelr, 4)
        normals = wl.arrays["normals"].reshape(nelr, 4)
        ff = wl.arrays["ff"]
        variables = np.tile(ff, nelr).astype(np.float64)
        var2 = variables.reshape(nelr, NVAR)
        valid = elem >= 0
        safe = np.where(valid, elem, 0)
        for _ in range(wl.sizes["iters"]):
            old = var2.copy()
            for rk in range(3):
                coef = 1.0 / (3 - rk)
                # fluxes
                fluxes = np.zeros_like(var2)
                for k in range(4):
                    nbv = var2[safe[:, k], :]
                    contrib = normals[:, k:k + 1] * (nbv - var2)
                    fluxes += np.where(valid[:, k:k + 1], contrib, 0.0)
                var2 = old + coef * fluxes
            # loop continues with updated var2
        variables = var2.reshape(-1).copy()
        b = wl.arrays["boundary"]
        var2 = variables.reshape(nelr, NVAR)
        var2[b, :] = ff
        old_flat = old.reshape(-1)
        rms = float(((var2.reshape(-1) - old_flat) ** 2).sum())
        return {"variables": var2.reshape(-1), "rms": np.array([rms])}

    def output_arrays(self) -> tuple[str, ...]:
        return ("variables", "rms")

    def canonical_output(self, name, array, model, variant, wl):
        soa = (variant == "best" and model != "R-Stream") \
            or model == "Hand-Written CUDA"
        if name == "variables" and soa:
            nelr = wl.sizes["nelr"]
            return array.reshape(NVAR, nelr).T.reshape(-1)
        return array

    # -- ports ---------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC", "HMPP", "OpenMPC"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        iters = _ITER_PAPER
        # "best" ports apply the manual layout change (SoA) to the input
        # code, as the paper describes; "naive" keeps the interleaved
        # layout with its stride-NVAR accesses.
        soa = variant == "best"
        prog = _build(iters, soa=soa,
                      with_clauses=(model != "PGI Accelerator"))
        regions = tuple(r.name for r in prog.regions)
        data = DataRegionSpec(
            name="cfd_data", regions=regions,
            copyin=("areas", "normals", "elements_surrounding", "boundary",
                    "ff"),
            copyout=("variables", "rms"),
            create=("old_variables", "fluxes", "step_factors", "speed_tmp"))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            return PortSpec(
                model=model, program=prog,
                directive_lines=16,
                restructured_lines=18 if soa else 4,
                data_regions=(data,),
                notes=(f"variant={variant}", "SoA layout change in input"))
        if model == "OpenMPC":
            opts = RegionOptions(placements={
                "elements_surrounding": MemorySpace.TEXTURE,
                "normals": MemorySpace.TEXTURE,
                "ff": MemorySpace.CONSTANT})
            return PortSpec(
                model=model, program=prog, directive_lines=6,
                restructured_lines=18 if soa else 4,
                region_options={"flux": opts, "apply_bc": opts},
                notes=(f"variant={variant}",
                       "constant/texture caching of mesh data"))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=_build(iters, soa=False),
                directive_lines=4, restructured_lines=14,
                notes=("indirection + helper calls block most regions",))
        if model == "Hand-Written CUDA":
            opts = RegionOptions(
                block_threads=192,
                placements={"elements_surrounding": MemorySpace.TEXTURE,
                            "normals": MemorySpace.TEXTURE,
                            "ff": MemorySpace.CONSTANT})
            return PortSpec(
                model=model, program=_build(iters, soa=True),
                directive_lines=0, restructured_lines=140,
                data_regions=(data,),
                region_options={name: opts for name in regions},
                notes=("Rodinia euler3d CUDA structure",))
        return self.derived_port(model, variant)
