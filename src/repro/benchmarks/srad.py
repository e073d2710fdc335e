"""SRAD — Speckle Reducing Anisotropic Diffusion (Rodinia, Section V-B).

Removes locally-correlated noise from ultrasound images by solving a
PDE: per iteration, (1) image statistics reduction over the ROI, (2) a
diffusion-coefficient pass using the Rodinia-style *subscript arrays*
``iN/iS/jW/jE`` for clamped neighbours, (3) the update pass.

The paper's SRAD story:

* OpenMPC gets coalescing from automatic *parallel loop-swap* on the
  row-parallel input loops; the other models rely on multi-dimensional
  partitioning as the manual version does (our PGI/OpenACC/HMPP/manual
  ports annotate both loops).
* The manual version replaces the subscript arrays with direct index
  computation — fewer global loads but more divergence; the measured
  trade-off *loses* (we reproduce it as a manual-port variant whose
  clamping arithmetic adds divergence, priced by the timing model).

Regions (4): ``extract`` (affine — exp on values only),
``reduce_stats`` (affine reduction), ``diffusion`` and ``update``
(subscript arrays → indirect, non-affine).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shared_program
from repro.benchmarks.data import make_grid
from repro.ir.builder import (accum, aref, assign, block, iff, intrinsic,
                              local, maximum, minimum, pfor, reduce_clause,
                              sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_ITER_TEST = 2
_ITER_PAPER = 100


def _q0sqr():
    """Image statistic q0^2 recomputed from the reduction slots."""
    mean = aref("sums", 2 * v("t")) / v("size")
    var = aref("sums", 2 * v("t") + 1) / v("size") - mean * mean
    return var / (mean * mean)


def _diffusion_body(direct_index: bool):
    i, j = v("i"), v("j")
    jc = aref("J", i, j)
    if direct_index:
        # direct index computation with divergent boundary branches, as
        # in the hand-written kernel (Section V-B: the saved subscript
        # loads are paid back in control-flow divergence)
        boundary = [
            local("dn", init=-jc), local("ds", init=-jc),
            local("dw", init=-jc), local("de", init=-jc),
            iff(i.gt(0), accum(v("dn"), aref("J", i - 1, j)),
                accum(v("dn"), jc)),
            iff(i.lt(v("rows") - 1), accum(v("ds"), aref("J", i + 1, j)),
                accum(v("ds"), jc)),
            iff(j.gt(0), accum(v("dw"), aref("J", i, j - 1)),
                accum(v("dw"), jc)),
            iff(j.lt(v("cols") - 1), accum(v("de"), aref("J", i, j + 1)),
                accum(v("de"), jc)),
        ]
    else:
        north = aref("J", aref("iN", i), j)
        south = aref("J", aref("iS", i), j)
        west = aref("J", i, aref("jW", j))
        east = aref("J", i, aref("jE", j))
        boundary = [
            local("dn", init=north - jc),
            local("ds", init=south - jc),
            local("dw", init=west - jc),
            local("de", init=east - jc),
        ]
    return block(
        *boundary,
        local("g2", init=(v("dn") * v("dn") + v("ds") * v("ds")
                          + v("dw") * v("dw") + v("de") * v("de"))
              / (jc * jc)),
        local("l_", init=(v("dn") + v("ds") + v("dw") + v("de")) / jc),
        local("num", init=(0.5 * v("g2"))
              - ((1.0 / 16.0) * (v("l_") * v("l_")))),
        local("den", init=1.0 + 0.25 * v("l_")),
        local("qsqr", init=v("num") / (v("den") * v("den"))),
        local("q0", init=_q0sqr()),
        local("cval", init=1.0 / (1.0 + ((v("qsqr") - v("q0"))
                                         / (v("q0") * (1.0 + v("q0")))))),
        iff(v("cval").lt(0.0), assign(v("cval"), 0.0),
            iff(v("cval").gt(1.0), assign(v("cval"), 1.0))),
        assign(aref("c", i, j), v("cval")),
        assign(aref("dN", i, j), v("dn")),
        assign(aref("dS", i, j), v("ds")),
        assign(aref("dW", i, j), v("dw")),
        assign(aref("dE", i, j), v("de")),
    )


def _update_body(direct_index: bool):
    i, j = v("i"), v("j")
    if direct_index:
        c_s = aref("c", minimum(i + 1, v("rows") - 1), j)
        c_e = aref("c", i, minimum(j + 1, v("cols") - 1))
    else:
        c_s = aref("c", aref("iS", i), j)
        c_e = aref("c", i, aref("jE", j))
    d = (aref("c", i, j) * aref("dN", i, j)
         + c_s * aref("dS", i, j)
         + aref("c", i, j) * aref("dW", i, j)
         + c_e * aref("dE", i, j))
    return accum(aref("J", i, j), 0.25 * v("lam") * d)


def _nest(body, two_d: bool):
    if two_d:
        return pfor("i", 0, v("rows"), pfor("j", 0, v("cols"), body))
    return pfor("i", 0, v("rows"), sfor("j", 0, v("cols"), body),
                private=["j"])


@shared_program
def _build(iters: int, two_d: bool = False, direct_index: bool = False,
           with_clauses: bool = True) -> Program:
    i, j = v("i"), v("j")
    extract = ParallelRegion(
        "extract",
        _nest(assign(aref("J", i, j),
                     intrinsic("exp", aref("img", i, j) / 255.0)), two_d),
        affine_hint=True)
    reduce_stats = ParallelRegion(
        "reduce_stats",
        pfor("i", 0, v("rows"),
             sfor("j", 0, v("cols"), block(
                 accum(aref("sums", 2 * v("t")), aref("J", i, j)),
                 accum(aref("sums", 2 * v("t") + 1),
                       aref("J", i, j) * aref("J", i, j)),
             )),
             private=["j"],
             reductions=(reduce_clause("+", "sums"),) if with_clauses else ()),
        invocations=iters, affine_hint=True)
    diffusion = ParallelRegion(
        "diffusion", _nest(_diffusion_body(direct_index), two_d),
        invocations=iters)
    update = ParallelRegion(
        "update", _nest(_update_body(direct_index), two_d),
        invocations=iters)
    arrays = [
        ArrayDecl("img", ("rows", "cols"), intent="in"),
        ArrayDecl("J", ("rows", "cols"), intent="out"),
        ArrayDecl("c", ("rows", "cols"), intent="temp"),
        ArrayDecl("dN", ("rows", "cols"), intent="temp"),
        ArrayDecl("dS", ("rows", "cols"), intent="temp"),
        ArrayDecl("dW", ("rows", "cols"), intent="temp"),
        ArrayDecl("dE", ("rows", "cols"), intent="temp"),
        ArrayDecl("sums", ("nslots",), intent="temp"),
    ]
    if not direct_index:
        arrays += [
            ArrayDecl("iN", ("rows",), dtype="int", intent="in",
                      monotone_content=True),
            ArrayDecl("iS", ("rows",), dtype="int", intent="in",
                      monotone_content=True),
            ArrayDecl("jW", ("cols",), dtype="int", intent="in",
                      monotone_content=True),
            ArrayDecl("jE", ("cols",), dtype="int", intent="in",
                      monotone_content=True),
        ]
    return Program(
        "srad",
        arrays=arrays,
        scalars=[ScalarDecl("rows", "int"), ScalarDecl("cols", "int"),
                 ScalarDecl("size", "int"), ScalarDecl("t", "int"),
                 ScalarDecl("lam"), ScalarDecl("nslots", "int")],
        regions=[extract, reduce_stats, diffusion, update],
        domain="Medical imaging", driver_lines=33)


class Srad(Benchmark):
    """Rodinia SRAD benchmark."""

    name = "SRAD"
    domain = "Medical imaging"
    rtol = 1e-8
    atol = 1e-10

    def build_program(self) -> Program:
        return _build(_ITER_PAPER)

    # -- workload -----------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        rows = cols = 48 if scale == "test" else 2048
        iters = _ITER_TEST if scale == "test" else _ITER_PAPER

        def build() -> dict[str, np.ndarray]:
            ri, ci = np.arange(rows), np.arange(cols)
            return {
                "img": 255.0 * make_grid(rows, cols, seed=seed),
                "iN": np.maximum(ri - 1, 0).astype(np.int64),
                "iS": np.minimum(ri + 1, rows - 1).astype(np.int64),
                "jW": np.maximum(ci - 1, 0).astype(np.int64),
                "jE": np.minimum(ci + 1, cols - 1).astype(np.int64)}

        schedule: list[ScheduleStep] = [ScheduleStep("extract")]
        for t in range(iters):
            schedule.append(ScheduleStep("reduce_stats", scalars={"t": t}))
            schedule.append(ScheduleStep("diffusion", scalars={"t": t}))
            schedule.append(ScheduleStep("update"))
        grid = ((rows, cols), np.float64)
        return Workload(
            sizes={"rows": rows, "cols": cols, "iters": iters},
            shapes={"img": grid, "J": grid, "c": grid, "dN": grid,
                    "dS": grid, "dW": grid, "dE": grid,
                    "sums": ((2 * iters,), np.float64),
                    "iN": ((rows,), np.int64), "iS": ((rows,), np.int64),
                    "jW": ((cols,), np.int64), "jE": ((cols,), np.int64)},
            build=build,
            scalars={"rows": rows, "cols": cols, "size": rows * cols,
                     "t": 0, "lam": 0.5, "nslots": 2 * iters},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        rows, cols = wl.sizes["rows"], wl.sizes["cols"]
        lam = wl.scalars["lam"]
        j_img = np.exp(wl.arrays["img"] / 255.0)
        i_n = wl.arrays["iN"]
        i_s = wl.arrays["iS"]
        j_w = wl.arrays["jW"]
        j_e = wl.arrays["jE"]
        for _ in range(wl.sizes["iters"]):
            total = j_img.sum()
            total2 = (j_img * j_img).sum()
            mean = total / (rows * cols)
            var = total2 / (rows * cols) - mean * mean
            q0 = var / (mean * mean)
            dn = j_img[i_n, :] - j_img
            ds = j_img[i_s, :] - j_img
            dw = j_img[:, j_w] - j_img
            de = j_img[:, j_e] - j_img
            g2 = (dn * dn + ds * ds + dw * dw + de * de) / (j_img * j_img)
            l_ = (dn + ds + dw + de) / j_img
            num = 0.5 * g2 - (1.0 / 16.0) * (l_ * l_)
            den = 1.0 + 0.25 * l_
            qsqr = num / (den * den)
            cmat = 1.0 / (1.0 + (qsqr - q0) / (q0 * (1.0 + q0)))
            cmat = np.clip(cmat, 0.0, 1.0)
            d = (cmat * dn + cmat[i_s, :] * ds
                 + cmat * dw + cmat[:, j_e] * de)
            j_img = j_img + 0.25 * lam * d
        return {"J": j_img}

    def output_arrays(self) -> tuple[str, ...]:
        return ("J",)

    # -- ports ---------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC", "HMPP", "OpenMPC"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        iters = _ITER_PAPER
        data = DataRegionSpec(
            name="srad_data",
            regions=("extract", "reduce_stats", "diffusion", "update"),
            copyin=("img", "iN", "iS", "jW", "jE"),
            copyout=("J",),
            create=("c", "dN", "dS", "dW", "dE", "sums"))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            # multi-dimensional loop partitioning, as in the manual version
            prog = _build(iters, two_d=(variant == "best"),
                          with_clauses=(model != "PGI Accelerator"))
            return PortSpec(
                model=model, program=prog,
                directive_lines=12,
                restructured_lines=4,
                data_regions=(data,),
                notes=(f"variant={variant}", "2-D loop partitioning"))
        if model == "OpenMPC":
            prog = _build(iters)
            opts = RegionOptions(
                disable_auto_transforms=(variant == "naive"))
            return PortSpec(
                model=model, program=prog, directive_lines=2,
                restructured_lines=0,
                region_options={"extract": opts, "diffusion": opts,
                                "update": opts},
                notes=(f"variant={variant}", "automatic parallel loop-swap"))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=_build(iters), directive_lines=2,
                restructured_lines=8,
                notes=("subscript-array regions are not static control",))
        if model == "Hand-Written CUDA":
            # direct index computation instead of subscript arrays: fewer
            # loads, more clamping arithmetic/divergence (the measured
            # trade-off in the paper favours the subscript arrays)
            prog = _build(iters, two_d=True, direct_index=True)
            data2 = DataRegionSpec(
                name="srad_data",
                regions=("extract", "reduce_stats", "diffusion", "update"),
                copyin=("img",), copyout=("J",),
                create=("c", "dN", "dS", "dW", "dE", "sums"))
            opts = RegionOptions(block_threads=256)
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=70,
                data_regions=(data2,),
                region_options={n: opts for n in
                                ("extract", "reduce_stats", "diffusion",
                                 "update")},
                notes=("direct index computation (no subscript arrays)",))
        return self.derived_port(model, variant)
