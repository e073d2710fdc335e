"""FT — NAS 3-D FFT PDE benchmark (Section V-A).

Computes a 3-D FFT of a pseudo-random field and applies spectral
evolution factors, then checksums.  Complex data is stored as separate
re/im arrays, linearized — the paper's hand-written CUDA FT "transposes
the whole 3-D matrix so the 1st dimension is always parallelized for all
1-D FFT computations" and "linearizes all 2-D and 3-D arrays"; after
those same changes were applied to the *input* OpenMP code, all models
performed comparably.  Our port follows that final form: each FFT round
is a sequence of Stockham butterfly stages along the contiguous
dimension (ping-ponging between x and y buffers), then a cube rotation
brings the next dimension into the contiguous position.

The butterfly calls a ``fftz2``-style helper (as NAS FT factors its
butterflies), so the stage regions are interprocedural: OpenMPC
translates the call natively, PGI/OpenACC/HMPP auto-inline it, and
R-Stream rejects the stages (calls break extended static control) while
mapping the elementwise/rotation/copy/checksum regions.

Regions (9): ``indexmap`` (integer division chains, non-affine),
``init`` (LCG fill, non-affine), ``evolve`` (affine), ``stage_ab`` /
``stage_ba`` (function call, non-affine), ``rotate_ab`` (affine),
``copy_yx`` (affine), ``checksum`` (affine reduction), plus the final
``scale``-free checksum path — see the schedule.
"""

from __future__ import annotations

import math

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shared_program
from repro.ir.builder import (accum, aref, assign, block, c, call, idx,
                              local, pfor, reduce_clause, sfor, v)
from repro.ir.program import (ArrayDecl, Function, Param, ParallelRegion,
                              Program, ScalarDecl)
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 2147483648


def _fftz2_function() -> Function:
    """One butterfly pair: Y[o0], Y[o1] from X[i0], X[i1] and twiddle w."""
    body = block(
        local("t_re", init=aref("fxr", v("i0")) - aref("fxr", v("i1"))),
        local("t_im", init=aref("fxi", v("i0")) - aref("fxi", v("i1"))),
        assign(aref("fyr", v("o0")),
               aref("fxr", v("i0")) + aref("fxr", v("i1"))),
        assign(aref("fyi", v("o0")),
               aref("fxi", v("i0")) + aref("fxi", v("i1"))),
        assign(aref("fyr", v("o1")),
               v("t_re") * v("w_re") - v("t_im") * v("w_im")),
        assign(aref("fyi", v("o1")),
               v("t_re") * v("w_im") + v("t_im") * v("w_re")),
    )
    return Function(
        "fftz2",
        params=[Param("fxr", is_array=True), Param("fxi", is_array=True),
                Param("fyr", is_array=True), Param("fyi", is_array=True),
                Param("i0"), Param("i1"), Param("o0"), Param("o1"),
                Param("w_re"), Param("w_im")],
        body=body, inlinable=True)


def _vranlc_function() -> Function:
    """NAS-style RNG: two LCG draws into re/im at element ``e``."""
    body = block(
        assign(v("vs"), (c(_LCG_A) * v("vs") + c(_LCG_C)) % c(_LCG_M)),
        assign(aref("vre", v("ve")), v("vs") / c(float(_LCG_M))),
        assign(v("vs"), (c(_LCG_A) * v("vs") + c(_LCG_C)) % c(_LCG_M)),
        assign(aref("vim", v("ve")), v("vs") / c(float(_LCG_M))),
    )
    return Function(
        "vranlc",
        params=[Param("vre", is_array=True), Param("vim", is_array=True),
                Param("ve"), Param("vs")],
        body=body, inlinable=True)


def _stage_region(name: str, xr: str, xi: str, yr: str, yi: str,
                  invocations: int) -> ParallelRegion:
    """One Stockham stage over all lines.

    Per-stage scalars: ``l`` (butterfly groups) and ``m`` (group size),
    with ``l*m == n/2``.  ``line`` and ``jj`` are the parallel grid.
    """
    line, jj, k = idx("line", "jj", "k")
    base = line * v("n")
    body = sfor(
        "k", 0, v("m"),
        block(
            local("i0x", dtype="int", init=base + k + jj * v("m")),
            local("i1x", dtype="int",
                  init=base + k + jj * v("m") + v("l") * v("m")),
            local("o0x", dtype="int", init=base + k + 2 * jj * v("m")),
            local("o1x", dtype="int",
                  init=base + k + 2 * jj * v("m") + v("m")),
            local("wre", init=aref("wtab_re", jj * v("m"))),
            local("wim", init=aref("wtab_im", jj * v("m"))),
            call("fftz2", v(xr), v(xi), v(yr), v(yi),
                 v("i0x"), v("i1x"), v("o0x"), v("o1x"),
                 v("wre"), v("wim")),
        ))
    nest = pfor("line", 0, v("nlines"),
                pfor("jj", 0, v("l"), body, private=["k"]))
    return ParallelRegion(name, nest, invocations=invocations)


@shared_program
def _build(n_stage_invocations: int, with_clauses: bool = True) -> Program:
    e = v("e")
    i, j, k = idx("i", "j", "k")

    indexmap = ParallelRegion(
        "indexmap",
        pfor("e", 0, v("ntotal"), block(
            local("kx", dtype="int", init=(e % v("n"))),
            local("ky", dtype="int", init=((e // v("n")) % v("n"))),
            local("kz", dtype="int", init=(e // v("n2"))),
            local("kx2", init=(v("kx")
                               - (v("kx") // (v("n") // 2)) * v("n"))),
            local("ky2", init=(v("ky")
                               - (v("ky") // (v("n") // 2)) * v("n"))),
            local("kz2", init=(v("kz")
                               - (v("kz") // (v("n") // 2)) * v("n"))),
            # store through the reconstructed linear index, as NAS FT's
            # indexmap does (kz*n2 + ky*n + kx == e by construction) —
            # the data-dependent subscript is what keeps R-Stream out
            assign(aref("tw", v("kz") * v("n2") + v("ky") * v("n")
                        + v("kx")),
                   v("alpha") * (v("kx2") * v("kx2") + v("ky2") * v("ky2")
                                 + v("kz2") * v("kz2"))),
        )))
    # the pseudo-random fill goes through a vranlc-style RNG helper, as
    # in NAS FT (a user function call: interprocedural for OpenMPC,
    # inlined by PGI/HMPP, rejected by the polyhedral front end)
    init = ParallelRegion(
        "init",
        pfor("e", 0, v("ntotal"), block(
            local("s", dtype="int",
                  init=(v("seed0") + e * c(2654435761)) % c(_LCG_M)),
            call("vranlc", v("xr"), v("xi"), e, v("s")),
        ), private=["s"]))
    evolve = ParallelRegion(
        "evolve",
        pfor("e", 0, v("ntotal"), block(
            assign(aref("xr", e), aref("xr", e) * aref("tw", e)),
            assign(aref("xi", e), aref("xi", e) * aref("tw", e)),
        )), affine_hint=True)
    rotate = ParallelRegion(
        "rotate_ab",
        pfor("i", 0, v("n"),
             pfor("j", 0, v("n"),
                  sfor("k", 0, v("n"), block(
                      assign(aref("yr", k * v("n2") + i * v("n") + j),
                             aref("xr", i * v("n2") + j * v("n") + k)),
                      assign(aref("yi", k * v("n2") + i * v("n") + j),
                             aref("xi", i * v("n2") + j * v("n") + k)),
                  )), private=["k"])),
        invocations=3)
    copy_yx = ParallelRegion(
        "copy_yx",
        pfor("e", 0, v("ntotal"), block(
            assign(aref("xr", e), aref("yr", e)),
            assign(aref("xi", e), aref("yi", e)),
        )), invocations=3, affine_hint=True)
    # NAS FT checksums through the modular stride (5*j) mod ntotal — a
    # non-affine subscript (gcd(5, 2^k) = 1, so it is a permutation and
    # the sums equal the plain totals)
    perm = (5 * e) % v("ntotal")
    checksum = ParallelRegion(
        "checksum",
        pfor("e", 0, v("ntotal"), block(
            accum(aref("chk", 0), aref("xr", perm)),
            accum(aref("chk", 1), aref("xi", perm)),
        ), reductions=(reduce_clause("+", "chk"),) if with_clauses else ()))

    return Program(
        "ft",
        arrays=[
            ArrayDecl("xr", ("ntotal",)), ArrayDecl("xi", ("ntotal",)),
            ArrayDecl("yr", ("ntotal",), intent="temp"),
            ArrayDecl("yi", ("ntotal",), intent="temp"),
            ArrayDecl("tw", ("ntotal",), intent="temp"),
            ArrayDecl("wtab_re", ("nhalf",), intent="in"),
            ArrayDecl("wtab_im", ("nhalf",), intent="in"),
            ArrayDecl("chk", (2,), intent="out"),
        ],
        scalars=[ScalarDecl("n", "int"), ScalarDecl("n2", "int"),
                 ScalarDecl("ntotal", "int"), ScalarDecl("nhalf", "int"),
                 ScalarDecl("nlines", "int"), ScalarDecl("l", "int"),
                 ScalarDecl("m", "int"), ScalarDecl("seed0", "int"),
                 ScalarDecl("alpha")],
        regions=[indexmap, init, evolve,
                 _stage_region("stage_ab", "xr", "xi", "yr", "yi",
                               n_stage_invocations),
                 _stage_region("stage_ba", "yr", "yi", "xr", "xi",
                               n_stage_invocations),
                 rotate, copy_yx, checksum],
        functions=[_fftz2_function(), _vranlc_function()],
        domain="Spectral methods", driver_lines=138)


class Ft(Benchmark):
    """NAS FT benchmark."""

    name = "FT"
    domain = "Spectral methods"
    rtol = 1e-7
    atol = 1e-9

    def build_program(self) -> Program:
        # 3 dims x log2(n)/2 invocations of each ping/pong stage
        return _build(n_stage_invocations=12)

    # -- workload -----------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        n = 16 if scale == "test" else 256
        log_n = int(math.log2(n))
        assert log_n % 2 == 0, "FT sizes must have even log2 (ping-pong)"
        n2 = n * n
        ntotal = n2 * n
        nhalf = n // 2

        def build() -> dict[str, np.ndarray]:
            wtab = np.exp(-2j * np.pi * np.arange(nhalf) / n)
            return {"wtab_re": wtab.real.copy(), "wtab_im": wtab.imag.copy()}

        steps: list[ScheduleStep] = [
            ScheduleStep("indexmap"), ScheduleStep("init")]
        for _dim in range(3):
            l, m = n // 2, 1
            for s in range(log_n):
                steps.append(ScheduleStep(
                    "stage_ab" if s % 2 == 0 else "stage_ba",
                    scalars={"l": l, "m": m}))
                l //= 2
                m *= 2
            # even log2(n): the round ends in the x buffers
            steps.append(ScheduleStep("rotate_ab"))
            steps.append(ScheduleStep("copy_yx"))
        steps.append(ScheduleStep("evolve"))
        steps.append(ScheduleStep("checksum"))
        cube = ((ntotal,), np.float64)
        half = ((nhalf,), np.float64)
        shapes = {"xr": cube, "xi": cube, "yr": cube, "yi": cube, "tw": cube,
                  "wtab_re": half, "wtab_im": half, "chk": ((2,), np.float64)}
        scalars = {"n": n, "n2": n2, "ntotal": ntotal, "nhalf": nhalf,
                   "nlines": n2, "l": 1, "m": 1,
                   "seed0": 314159 + seed, "alpha": 1e-6}
        return Workload(sizes={"n": n, "ntotal": ntotal, "log_n": log_n},
                        shapes=shapes, build=build, scalars=scalars,
                        schedule=steps)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        n = wl.sizes["n"]
        ntotal = wl.sizes["ntotal"]
        seed0 = int(wl.scalars["seed0"])
        alpha = wl.scalars["alpha"]
        e = np.arange(ntotal, dtype=np.int64)
        s = (seed0 + e * 2654435761) % _LCG_M
        s = (_LCG_A * s + _LCG_C) % _LCG_M
        xr = s / float(_LCG_M)
        s = (_LCG_A * s + _LCG_C) % _LCG_M
        xi = s / float(_LCG_M)
        x = (xr + 1j * xi).reshape(n, n, n)
        for _dim in range(3):
            x = np.fft.fft(x, axis=2)
            x = np.transpose(x, (2, 0, 1))
        kx = e % n
        ky = (e // n) % n
        kz = e // (n * n)
        half = n // 2
        kx2 = kx - (kx // half) * n
        ky2 = ky - (ky // half) * n
        kz2 = kz - (kz // half) * n
        tw = alpha * (kx2 * kx2 + ky2 * ky2 + kz2 * kz2)
        flat = x.reshape(-1) * tw
        return {"xr": flat.real.copy(), "xi": flat.imag.copy(),
                "chk": np.array([flat.real.sum(), flat.imag.sum()])}

    def output_arrays(self) -> tuple[str, ...]:
        return ("xr", "xi", "chk")

    # -- ports ---------------------------------------------------------------
    def port(self, model: str, variant: str = "best") -> PortSpec:
        prog = _build(n_stage_invocations=12,
                      with_clauses=(model != "PGI Accelerator"))
        all_regions = tuple(r.name for r in prog.regions)
        data = DataRegionSpec(
            name="ft_data", regions=all_regions,
            copyin=("wtab_re", "wtab_im"),
            copyout=("xr", "xi", "chk"),
            create=("yr", "yi", "tw"))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            return PortSpec(
                model=model, program=prog,
                directive_lines=18,
                restructured_lines=22,  # transposition + linearization
                data_regions=(data,),
                notes=("input transposed + linearized as in the "
                       "hand-written CUDA version",))
        if model == "OpenMPC":
            return PortSpec(
                model=model, program=prog, directive_lines=3,
                restructured_lines=22,
                notes=("same input restructuring; interprocedural "
                       "translation of the fftz2 call",))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=prog, directive_lines=3,
                restructured_lines=26,
                notes=("FFT stages call fftz2: not static control",))
        if model == "Hand-Written CUDA":
            opts = RegionOptions(block_threads=256)
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=90,
                data_regions=(data,),
                region_options={name: RegionOptions(block_threads=256)
                                for name in all_regions},
                notes=("Hpcgpu-project-style FT",))
        return self.derived_port(model, variant)
