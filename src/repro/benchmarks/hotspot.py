"""HOTSPOT — thermal simulation (Rodinia, Section V-B).

Estimates processor temperature from a power map by iterating a 5-point
stencil with boundary clamping (Rodinia's MIN/MAX macros — quasi-affine
subscripts, which keeps R-Stream out).  The paper's porting story is
about *thread count*: parallelizing only the outer row loop "does not
provide enough threads to hide the global memory latency";

* the manual CUDA version uses 2-D partitioning + shared-memory tiling,
* OpenMPC gets the same effect from the OpenMP ``collapse`` clause,
* the other models used *manual collapsing* in the input code (a flat
  loop with ``t // cols`` / ``t % cols`` index recovery) because the
  needed mapping features were not implemented.

Regions (2): ``step_ab`` and ``step_ba`` (ping-pong buffers).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shared_program
from repro.benchmarks.data import make_grid
from repro.ir.builder import (aref, assign, block, local, maximum, minimum,
                              pfor, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.ir.transforms.tiling import TilingDecision
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_ITER_TEST = 4
_ITER_PAPER = 360


def _delta(src: str, r, c):
    """The Rodinia hotspot update term for cell (r, c) of ``src``."""
    t_c = aref(src, r, c)
    t_n = aref(src, maximum(r - 1, 0), c)
    t_s = aref(src, minimum(r + 1, v("rows") - 1), c)
    t_w = aref(src, r, maximum(c - 1, 0))
    t_e = aref(src, r, minimum(c + 1, v("cols") - 1))
    return (v("cap") * (aref("power", r, c)
                        + (t_s + t_n - 2.0 * t_c) * v("ry")
                        + (t_e + t_w - 2.0 * t_c) * v("rx")
                        + (v("amb") - t_c) * v("rz")))


def _step_body(src: str, dst: str, r, c):
    return assign(aref(dst, r, c), aref(src, r, c) + _delta(src, r, c))


def _step_region(name: str, src: str, dst: str, iters: int,
                 style: str) -> ParallelRegion:
    """``style``: "rows" (outer-only), "collapse" (clause), "2d", "flat"."""
    r, c, t = v("r"), v("c"), v("t")
    if style == "flat":
        body = _step_body(src, dst, t // v("cols"), t % v("cols"))
        nest = pfor("t", 0, v("rows") * v("cols"), body)
    elif style == "2d":
        nest = pfor("r", 0, v("rows"),
                    pfor("c", 0, v("cols"), _step_body(src, dst, r, c)))
    elif style == "collapse":
        nest = pfor("r", 0, v("rows"),
                    sfor("c", 0, v("cols"), _step_body(src, dst, r, c)),
                    private=["c"], collapse=2)
    else:  # "rows"
        nest = pfor("r", 0, v("rows"),
                    sfor("c", 0, v("cols"), _step_body(src, dst, r, c)),
                    private=["c"])
    return ParallelRegion(name, nest, invocations=(iters + 1) // 2)


@shared_program
def _build(iters: int, style: str) -> Program:
    return Program(
        "hotspot",
        arrays=[ArrayDecl("temp", ("rows", "cols")),
                ArrayDecl("temp2", ("rows", "cols"), intent="temp"),
                ArrayDecl("power", ("rows", "cols"), intent="in")],
        scalars=[ScalarDecl("rows", "int"), ScalarDecl("cols", "int"),
                 ScalarDecl("cap"), ScalarDecl("rx"), ScalarDecl("ry"),
                 ScalarDecl("rz"), ScalarDecl("amb")],
        regions=[_step_region("step_ab", "temp", "temp2", iters, style),
                 _step_region("step_ba", "temp2", "temp", iters, style)],
        domain="Physical simulation", driver_lines=53)


class Hotspot(Benchmark):
    """Rodinia HOTSPOT benchmark."""

    name = "HOTSPOT"
    domain = "Physical simulation"
    rtol = 1e-8
    atol = 1e-10

    def build_program(self) -> Program:
        return _build(_ITER_PAPER, style="rows")

    # -- workload -----------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        rows = cols = 64 if scale == "test" else 1024
        iters = _ITER_TEST if scale == "test" else _ITER_PAPER
        assert iters % 2 == 0
        schedule: list[ScheduleStep] = []
        for it in range(iters):
            schedule.append(ScheduleStep("step_ab" if it % 2 == 0
                                         else "step_ba"))
        grid = ((rows, cols), np.float64)
        return Workload(
            sizes={"rows": rows, "cols": cols, "iters": iters},
            shapes={"temp": grid, "temp2": grid, "power": grid},
            build=lambda: {
                "temp": 323.0 + 10.0 * make_grid(rows, cols, seed=seed),
                "power": make_grid(rows, cols, seed=seed + 1) * 0.5},
            scalars={"rows": rows, "cols": cols, "cap": 0.5,
                     "rx": 0.1, "ry": 0.1, "rz": 0.05, "amb": 80.0},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        rows, cols = wl.sizes["rows"], wl.sizes["cols"]
        cap, rx, ry = (wl.scalars[k] for k in ("cap", "rx", "ry"))
        rz, amb = wl.scalars["rz"], wl.scalars["amb"]
        temp = wl.arrays["temp"].copy()
        power = wl.arrays["power"]
        r = np.arange(rows)
        c = np.arange(cols)
        rn = np.maximum(r - 1, 0)
        rs = np.minimum(r + 1, rows - 1)
        cw = np.maximum(c - 1, 0)
        ce = np.minimum(c + 1, cols - 1)
        for _ in range(wl.sizes["iters"]):
            t_n = temp[rn, :]
            t_s = temp[rs, :]
            t_w = temp[:, cw]
            t_e = temp[:, ce]
            delta = cap * (power + (t_s + t_n - 2 * temp) * ry
                           + (t_e + t_w - 2 * temp) * rx
                           + (amb - temp) * rz)
            temp = temp + delta
        return {"temp": temp}

    def output_arrays(self) -> tuple[str, ...]:
        return ("temp",)

    # -- ports ---------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC", "HMPP", "OpenMPC"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        iters = _ITER_PAPER
        data = DataRegionSpec(
            name="hotspot_data", regions=("step_ab", "step_ba"),
            copyin=("temp", "power"), copyout=("temp",), create=("temp2",))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            # manual collapsing in the input code (flat index recovery)
            style = "flat" if variant == "best" else "rows"
            return PortSpec(
                model=model, program=_build(iters, style),
                directive_lines=7 if model != "HMPP" else 8,
                restructured_lines=6 if variant == "best" else 0,
                data_regions=(data,),
                notes=(f"variant={variant}", "manually collapsed loops"))
        if model == "OpenMPC":
            style = "collapse" if variant == "best" else "rows"
            return PortSpec(
                model=model, program=_build(iters, style),
                directive_lines=2, restructured_lines=1,
                notes=(f"variant={variant}", "OpenMP collapse clause"))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=_build(iters, "2d"),
                directive_lines=2, restructured_lines=5,
                notes=("clamped (min/max) subscripts are quasi-affine",))
        if model == "Hand-Written CUDA":
            tile = TilingDecision(tile_dims=(16, 16), reuse_factor=3.5,
                                  smem_bytes_per_block=18 * 18 * 8,
                                  arrays=("temp", "temp2"))
            opts = RegionOptions(block_threads=256, tiling=(tile,))
            return PortSpec(
                model=model, program=_build(iters, "2d"),
                directive_lines=0, restructured_lines=60,
                data_regions=(data,),
                region_options={"step_ab": opts, "step_ba": opts},
                notes=("2-D partitioning + shared-memory tiling",))
        return self.derived_port(model, variant)
