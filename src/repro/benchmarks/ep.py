"""EP — NAS Embarrassingly Parallel benchmark (Section V-A).

Each thread generates pseudo-random pairs (a per-chunk LCG stream),
transforms the uniform pairs to Gaussians (Box-Muller acceptance), and
tallies the maxima into ten annulus counters.  The OpenMP version keeps
a *private array* ``qq[10]`` per thread and merges it into the global
``q`` in a critical section — the exact construct the paper uses to
contrast the models:

* OpenMPC accepts the critical-section array reduction and expands the
  private array **column-wise** (Matrix Transpose [21]) → coalesced.
* PGI/OpenACC/HMPP need the critical decomposed into ten scalar-slot
  reductions in the input, and expand the private array **row-wise** →
  uncoalesced; this is the Figure 1 gap OpenMPC wins by.
* The manual CUDA version additionally removes the redundant private
  array (two-level reduction with local registers) and is fastest.
* The private-array expansion can overflow device memory when the
  parallel loop is too large — reproduced by ``examples/ep_overflow.py``
  via strip-mining.

Region (1): ``ep_main`` — non-affine (LCG modulus, data-dependent
branch).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload
from repro.ir.builder import (accum, aref, assign, block, c, cast, critical,
                              iff, intrinsic, local, maximum, pfor, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.models.base import PortSpec, RegionOptions, ScheduleStep

_NQ = 10
_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 2147483648  # 2^31


def _lcg_next(s):
    return (c(_LCG_A) * s + c(_LCG_C)) % c(_LCG_M)


def _ep_body(decomposed_critical: bool):
    """The per-chunk generation/tally loop."""
    i, j = v("i"), v("j")
    s = v("s")
    stmts = [
        local("s", dtype="int",
              init=(v("seed0") + i * c(2654435761)) % c(_LCG_M)),
        local("qq", shape=(_NQ,)),
        local("tsx", init=0.0),
        local("tsy", init=0.0),
        sfor("j", 0, v("chunk"), block(
            assign(s, _lcg_next(s)),
            local("x1", init=2.0 * (s / c(float(_LCG_M))) - 1.0),
            assign(s, _lcg_next(s)),
            local("x2", init=2.0 * (s / c(float(_LCG_M))) - 1.0),
            local("tt", init=v("x1") * v("x1") + v("x2") * v("x2")),
            iff(v("tt").le(1.0).logical_and(v("tt").gt(0.0)), block(
                local("tln", init=intrinsic(
                    "sqrt", -2.0 * intrinsic("log", v("tt")) / v("tt"))),
                local("y1", init=v("x1") * v("tln")),
                local("y2", init=v("x2") * v("tln")),
                local("l", dtype="int",
                      init=cast("int", maximum(intrinsic("fabs", v("y1")),
                                               intrinsic("fabs", v("y2"))))),
                accum(aref("qq", v("l")), 1.0),
                accum(v("tsx"), v("y1")),
                accum(v("tsy"), v("y2")),
            )),
        )),
    ]
    if decomposed_critical:
        for l in range(_NQ):
            stmts.append(accum(aref("q", l), aref("qq", l)))
    else:
        stmts.append(critical(
            sfor("l2", 0, _NQ, accum(aref("q", v("l2")), aref("qq", v("l2"))))))
    stmts.append(accum(aref("sx", 0), v("tsx")))
    stmts.append(accum(aref("sy", 0), v("tsy")))
    return block(*stmts)


def _build(decomposed_critical: bool) -> Program:
    region = ParallelRegion(
        "ep_main",
        pfor("i", 0, v("nk"), _ep_body(decomposed_critical),
             private=["j", "s", "qq", "tsx", "tsy"]),
        invocations=1)
    return Program(
        "ep",
        arrays=[ArrayDecl("q", (_NQ,), intent="out"),
                ArrayDecl("sx", (1,), intent="out"),
                ArrayDecl("sy", (1,), intent="out")],
        scalars=[ScalarDecl("nk", "int"), ScalarDecl("chunk", "int"),
                 ScalarDecl("seed0", "int")],
        regions=[region],
        domain="Monte Carlo", driver_lines=73)


class Ep(Benchmark):
    """NAS EP benchmark."""

    name = "EP"
    domain = "Monte Carlo"
    rtol = 1e-9
    atol = 1e-12

    def build_program(self) -> Program:
        return _build(decomposed_critical=False)

    # -- workload ---------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        if scale == "test":
            nk, chunk = 128, 64
        else:
            nk, chunk = 65536, 256  # 2^24 pairs
        return Workload(
            sizes={"nk": nk, "chunk": chunk},
            shapes={"q": ((_NQ,), np.float64), "sx": ((1,), np.float64),
                    "sy": ((1,), np.float64)},
            build=dict,
            scalars={"nk": nk, "chunk": chunk, "seed0": 271828 + seed},
            schedule=[ScheduleStep("ep_main")])

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        nk, chunk = wl.sizes["nk"], wl.sizes["chunk"]
        seed0 = int(wl.scalars["seed0"])
        s = (seed0 + np.arange(nk, dtype=np.int64) * 2654435761) % _LCG_M
        q = np.zeros(_NQ)
        tsx = np.zeros(nk)
        tsy = np.zeros(nk)
        with np.errstate(invalid="ignore", divide="ignore"):
            for _ in range(chunk):
                s = (_LCG_A * s + _LCG_C) % _LCG_M
                x1 = 2.0 * (s / float(_LCG_M)) - 1.0
                s = (_LCG_A * s + _LCG_C) % _LCG_M
                x2 = 2.0 * (s / float(_LCG_M)) - 1.0
                tt = x1 * x1 + x2 * x2
                ok = (tt <= 1.0) & (tt > 0.0)
                tln = np.sqrt(-2.0 * np.log(tt) / tt)
                y1 = x1 * tln
                y2 = x2 * tln
                l = np.trunc(np.maximum(np.abs(y1), np.abs(y2))
                             ).astype(np.int64)
                np.add.at(q, l[ok], 1.0)
                tsx = tsx + np.where(ok, y1, 0.0)
                tsy = tsy + np.where(ok, y2, 0.0)
        return {"q": q, "sx": np.array([tsx.sum()]),
                "sy": np.array([tsy.sum()])}

    def output_arrays(self) -> tuple[str, ...]:
        return ("q", "sx", "sy")

    # -- ports ---------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            return ("best", "transposed")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            # critical decomposed to ten scalar-slot reductions; private
            # array expanded row-wise by default.  The "transposed"
            # variant applies the Matrix Transpose technique manually in
            # the input code instead of using the private clause.
            opts = RegionOptions(
                private_orientations={"qq": "column"}
                if variant == "transposed" else {})
            return PortSpec(
                model=model, program=_build(decomposed_critical=True),
                directive_lines=5,
                restructured_lines=14 if variant == "best" else 20,
                region_options={"ep_main": opts},
                notes=(f"variant={variant}",
                       "critical decomposed to scalar reductions"))
        if model == "OpenMPC":
            return PortSpec(
                model=model, program=_build(decomposed_critical=False),
                directive_lines=2, restructured_lines=0,
                notes=("critical-section array reduction handled natively",))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=_build(decomposed_critical=False),
                directive_lines=1, restructured_lines=7,
                notes=("non-affine: LCG modulus and data-dependent branch",))
        if model == "Hand-Written CUDA":
            # two-level reduction without the redundant private array:
            # qq stays register/shared-resident
            opts = RegionOptions(block_threads=128,
                                 private_orientations={"qq": "register"})
            return PortSpec(
                model=model, program=_build(decomposed_critical=True),
                directive_lines=0, restructured_lines=80,
                region_options={"ep_main": opts},
                notes=("two-level tree reduction, no redundant private "
                       "array",))
        return self.derived_port(model, variant)
