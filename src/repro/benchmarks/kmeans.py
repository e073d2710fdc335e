"""KMEANS — clustering (Rodinia, Section V-B).

One k-means iteration loop: assign each point to its nearest center,
accumulate per-cluster feature sums, recompute centers, measure the
membership churn (delta).

The paper's KMEANS story:

* the original OpenMP code avoids array reductions (OpenMP has none) by
  using per-thread expanded partial arrays reduced on the CPU; most GPU
  models keep that pattern — our non-OpenMPC ports restructure it into
  a cluster-owned accumulation (each of the k threads scans all points),
  which every model can translate but which parallelizes poorly;
* for OpenMPC the pattern was rewritten as **critical sections** so the
  compiler recognizes the array reduction and generates a two-level tree
  reduction — "resulting better performance than other models";
* the hand-written CUDA version implements the two-level reduction with
  the partial outputs cached in **shared memory** (complex subscript
  manipulation), performing much better than OpenMPC — expressing that
  would need directive extensions for shared memory and thread IDs.

Regions (3): ``assign_membership`` (divergent argmin — non-affine),
``update_centers`` (clear + accumulate + divide work-sharing loops in
one region; linearized symbolic subscripts — non-affine),
``compute_rmse`` (membership gather — non-affine).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload
from repro.benchmarks.data import make_clusters
from repro.ir.builder import (accum, aref, assign, block, critical, iff,
                              intrinsic, local, maximum, pfor, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.ir.transforms.tiling import TilingDecision
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_ITER_TEST = 3
_ITER_PAPER = 20


def _assign_region(iters: int) -> ParallelRegion:
    i, c, f = v("i"), v("c"), v("f")
    dist_term = (aref("points", i, f) - aref("centers", c * v("nf") + f))
    body = block(
        local("best", dtype="int", init=0),
        local("bestd", init=1e300),
        sfor("c", 0, v("k"), block(
            local("d", init=0.0),
            sfor("f", 0, v("nf"), accum(v("d"), dist_term * dist_term)),
            iff(v("d").lt(v("bestd")), block(
                assign(v("bestd"), v("d")),
                assign(v("best"), v("c")),
            )),
        )),
        iff(aref("membership", i).ne(v("best")),
            accum(aref("delta", v("t")), 1.0)),
        assign(aref("membership", i), v("best")),
    )
    return ParallelRegion(
        "assign_membership",
        pfor("i", 0, v("npoints"), body,
             private=["c", "f", "best", "bestd", "d"]),
        invocations=iters)


def _update_region(iters: int, style: str) -> ParallelRegion:
    """``style``: "critical" (OpenMPC), "cluster-owned" (other models)."""
    i, c, f, idx = v("i"), v("c"), v("f"), v("idx")
    clear = pfor("idx", 0, v("k") * v("nf"),
                 assign(aref("csums", idx), 0.0))
    clear_counts = pfor("c", 0, v("k"), assign(aref("ccounts", c), 0.0))
    if style == "critical":
        accumulate = pfor(
            "i", 0, v("npoints"),
            critical(block(
                sfor("f", 0, v("nf"),
                     accum(aref("csums",
                                aref("membership", i) * v("nf") + f),
                           aref("points", i, f))),
                accum(aref("ccounts", aref("membership", i)), 1.0),
            )), private=["f"])
    else:
        accumulate = pfor(
            "c", 0, v("k"),
            sfor("i", 0, v("npoints"),
                 iff(aref("membership", i).eq(c), block(
                     sfor("f", 0, v("nf"),
                          accum(aref("csums", c * v("nf") + f),
                                aref("points", i, f))),
                     accum(aref("ccounts", c), 1.0),
                 ))), private=["i", "f"])
    divide = pfor(
        "c", 0, v("k"),
        sfor("f", 0, v("nf"),
             assign(aref("centers", c * v("nf") + f),
                    aref("csums", c * v("nf") + f)
                    / maximum(aref("ccounts", c), 1.0))),
        private=["f"])
    return ParallelRegion(
        "update_centers",
        block(clear, clear_counts, accumulate, divide),
        invocations=iters)


def _rmse_region() -> ParallelRegion:
    i, f = v("i"), v("f")
    term = (aref("points", i, f)
            - aref("centers", aref("membership", i) * v("nf") + f))
    return ParallelRegion(
        "compute_rmse",
        pfor("i", 0, v("npoints"), block(
            local("d", init=0.0),
            sfor("f", 0, v("nf"), accum(v("d"), term * term)),
            accum(aref("rmse", 0), v("d")),
        ), private=["f", "d"]))


def _build(iters: int, style: str) -> Program:
    return Program(
        "kmeans",
        arrays=[
            ArrayDecl("points", ("npoints", "nf"), intent="in"),
            ArrayDecl("centers", ("kf",)),
            ArrayDecl("csums", ("kf",), intent="temp"),
            ArrayDecl("ccounts", ("k",), intent="temp"),
            ArrayDecl("membership", ("npoints",), dtype="int"),
            ArrayDecl("delta", ("iters",), intent="out"),
            ArrayDecl("rmse", (1,), intent="out"),
        ],
        scalars=[ScalarDecl("npoints", "int"), ScalarDecl("nf", "int"),
                 ScalarDecl("k", "int"), ScalarDecl("kf", "int"),
                 ScalarDecl("t", "int"), ScalarDecl("iters", "int")],
        regions=[_assign_region(iters), _update_region(iters, style),
                 _rmse_region()],
        domain="Data mining", driver_lines=52)


class Kmeans(Benchmark):
    """Rodinia KMEANS benchmark."""

    name = "KMEANS"
    domain = "Data mining"
    rtol = 1e-8
    atol = 1e-10

    def build_program(self) -> Program:
        return _build(_ITER_PAPER, style="cluster-owned")

    # -- workload -----------------------------------------------------------
    def _dims(self, scale: str) -> tuple[int, int, int]:
        if scale == "test":
            return 240, 8, 5
        return 200_000, 32, 16

    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        npoints, nf, k = self._dims(scale)
        iters = _ITER_TEST if scale == "test" else _ITER_PAPER

        def build() -> dict[str, np.ndarray]:
            points = make_clusters(npoints, nf, k, seed=seed)
            return {"points": points,
                    "centers": points[:k].reshape(-1).copy(),
                    "membership": np.full(npoints, -1, dtype=np.int64)}

        schedule: list[ScheduleStep] = []
        for t in range(iters):
            schedule.append(ScheduleStep("assign_membership",
                                         scalars={"t": t}))
            schedule.append(ScheduleStep("update_centers"))
        schedule.append(ScheduleStep("compute_rmse"))
        return Workload(
            sizes={"npoints": npoints, "nf": nf, "k": k, "iters": iters},
            shapes={"points": ((npoints, nf), np.float64),
                    "centers": ((k * nf,), np.float64),
                    "csums": ((k * nf,), np.float64),
                    "ccounts": ((k,), np.float64),
                    "membership": ((npoints,), np.int64),
                    "delta": ((iters,), np.float64),
                    "rmse": ((1,), np.float64)},
            build=build,
            scalars={"npoints": npoints, "nf": nf, "k": k, "kf": k * nf,
                     "t": 0, "iters": iters},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        points = wl.arrays["points"]
        k, nf = wl.sizes["k"], wl.sizes["nf"]
        centers = wl.arrays["centers"].reshape(k, nf).copy()
        membership = np.full(wl.sizes["npoints"], -1, dtype=np.int64)
        delta = np.zeros(wl.sizes["iters"])
        for t in range(wl.sizes["iters"]):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            best = np.argmin(d2, axis=1)
            delta[t] = float((membership != best).sum())
            membership = best
            csums = np.zeros((k, nf))
            counts = np.zeros(k)
            np.add.at(csums, membership, points)
            np.add.at(counts, membership, 1.0)
            centers = csums / np.maximum(counts, 1.0)[:, None]
        diff = points - centers[membership]
        rmse = float((diff * diff).sum())
        return {"centers": centers.reshape(-1), "membership": membership,
                "delta": delta, "rmse": np.array([rmse])}

    def output_arrays(self) -> tuple[str, ...]:
        return ("centers", "membership", "delta", "rmse")

    # -- ports ---------------------------------------------------------------
    def port(self, model: str, variant: str = "best") -> PortSpec:
        iters = _ITER_PAPER
        data = DataRegionSpec(
            name="kmeans_data",
            regions=("assign_membership", "update_centers", "compute_rmse"),
            copyin=("points", "centers", "membership"),
            copyout=("centers", "membership", "delta", "rmse"),
            create=("csums", "ccounts"))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            prog = _build(iters, style="cluster-owned")
            return PortSpec(
                model=model, program=prog,
                directive_lines=10,
                restructured_lines=8,
                data_regions=(data,),
                notes=("cluster-owned accumulation (no array reduction)",))
        if model == "OpenMPC":
            prog = _build(iters, style="critical")
            return PortSpec(
                model=model, program=prog, directive_lines=2,
                restructured_lines=4,
                notes=("reductions rewritten as critical sections so the "
                       "compiler recognizes them",))
        if model == "R-Stream":
            return PortSpec(
                model=model,
                program=_build(iters, style="cluster-owned"),
                directive_lines=2, restructured_lines=8,
                notes=("divergent argmin + linearized center arrays",))
        if model == "Hand-Written CUDA":
            prog = _build(iters, style="critical")
            from repro.ir.analysis.access import AccessPattern

            smem_tile = TilingDecision(
                tile_dims=(16,), reuse_factor=24.0,
                smem_bytes_per_block=16 * 32 * 8,
                arrays=("csums", "ccounts"))
            opts = RegionOptions(block_threads=256, tiling=(smem_tile,))
            # the hand kernel transposes the point matrix (feature-major)
            # so lanes read consecutive points of one feature
            assign_opts = RegionOptions(
                block_threads=256,
                pattern_overrides={"points": AccessPattern.COALESCED})
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=90,
                data_regions=(data,),
                region_options={"update_centers": opts,
                                "assign_membership": assign_opts,
                                "compute_rmse": assign_opts},
                notes=("two-level reduction, partials cached in shared "
                       "memory via subscript manipulation",))
        return self.derived_port(model, variant)
