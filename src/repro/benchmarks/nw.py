"""NW — Needleman-Wunsch sequence alignment (Rodinia, Section V-B).

Global DP alignment of two length-n sequences.  The score matrix is
filled along anti-diagonals (the only parallel dimension); each cell
takes the max of three predecessors plus the substitution score looked
up through the sequences (``blosum[seq1[i]][seq2[j]]`` — indirect).

The paper: "To achieve the optimal GPU performance, a tiling
optimization using shared memory is essential.  Due to the boundary
access patterns, however, our tested compilers could not generate
efficient tiling codes" — the directive ports launch one kernel per
anti-diagonal (tiny grids, thousands of launches), while the manual
CUDA port processes 16x16 tiles along *block* diagonals with the tile
resident in shared memory (fewer launches, big reuse).

Regions (3): ``init_refs`` (substitution matrix + borders; indirect),
``wave_upper`` and ``wave_lower`` (anti-diagonal sweeps; symbolically
linearized subscripts and unprovable parallelism keep R-Stream out).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload
from repro.benchmarks.data import make_blosum, make_sequences
from repro.ir.builder import (aref, assign, block, iff, local, maximum,
                              pfor, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.ir.transforms.tiling import TilingDecision
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

_TILE = 16


def _dp_update(i, j):
    """items[i][j] = max3(diag + ref, left - p, up - p)."""
    diag = aref("items", i - 1, j - 1) + aref("refm", i - 1, j - 1)
    left = aref("items", i, j - 1) - v("penalty")
    up = aref("items", i - 1, j) - v("penalty")
    return assign(aref("items", i, j), maximum(maximum(diag, left), up))


def _build_wavefront() -> Program:
    i, j, t, d = v("i"), v("j"), v("t"), v("d")
    init_refs = ParallelRegion(
        "init_refs",
        block(
            pfor("i", 0, v("n"),
                 sfor("j", 0, v("n"),
                      assign(aref("refm", i, j),
                             aref("blosum", aref("seq1", i),
                                  aref("seq2", j)))),
                 private=["j"]),
            pfor("i", 0, v("n") + 1,
                 assign(aref("items", i, 0), -v("penalty") * i)),
            pfor("j", 0, v("n") + 1,
                 assign(aref("items", 0, j), -v("penalty") * j)),
        ))
    wave_upper = ParallelRegion(
        "wave_upper",
        pfor("t", 0, v("d") + 1, _dp_update(t + 1, d - t + 1)),
        invocations=1)
    wave_lower = ParallelRegion(
        "wave_lower",
        pfor("t", 0, 2 * v("n") - 1 - v("d"),
             _dp_update(v("d") - v("n") + 2 + t, v("n") - t)),
        invocations=1)
    return Program(
        "nw",
        arrays=[
            ArrayDecl("seq1", ("n",), dtype="int", intent="in"),
            ArrayDecl("seq2", ("n",), dtype="int", intent="in"),
            ArrayDecl("blosum", ("alpha", "alpha"), intent="in"),
            ArrayDecl("refm", ("n", "n"), intent="temp"),
            ArrayDecl("items", ("n1", "n1"), intent="out"),
        ],
        scalars=[ScalarDecl("n", "int"), ScalarDecl("n1", "int"),
                 ScalarDecl("alpha", "int"), ScalarDecl("penalty"),
                 ScalarDecl("d", "int"), ScalarDecl("blo", "int"),
                 ScalarDecl("bcount", "int"), ScalarDecl("bd", "int")],
        regions=[init_refs, wave_upper, wave_lower],
        domain="Bioinformatics", driver_lines=116)


def _build_blocked() -> Program:
    """Manual-CUDA structure: 16x16 tiles along block anti-diagonals.

    One thread sequentially fills one tile (cross-tile dependencies are
    satisfied by the block-diagonal launch order; in the real kernel a
    thread block cooperates with __syncthreads, which our model folds
    into the tiling decision).
    """
    b, ii, jj = v("b"), v("ii"), v("jj")
    bi = v("blo") + b
    bj = v("bd") - bi
    i = bi * _TILE + ii + 1
    j = bj * _TILE + jj + 1
    tile_body = sfor("ii", 0, _TILE,
                     sfor("jj", 0, _TILE, _dp_update(i, j)))
    prog = _build_wavefront()
    block_wave = ParallelRegion(
        "block_wave",
        pfor("b", 0, v("bcount"), tile_body, private=["ii", "jj"]),
        invocations=1)
    return Program(
        "nw",
        arrays=list(prog.arrays.values()),
        scalars=list(prog.scalars.values()),
        regions=[prog.region("init_refs"), block_wave],
        domain="Bioinformatics", driver_lines=116)


class Nw(Benchmark):
    """Rodinia Needleman-Wunsch benchmark."""

    name = "NW"
    domain = "Bioinformatics"
    rtol = 0.0
    atol = 1e-12

    def build_program(self) -> Program:
        return _build_wavefront()

    # -- workload -----------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        n = 64 if scale == "test" else 2048
        assert n % _TILE == 0
        alpha = 4

        def build() -> dict[str, np.ndarray]:
            seq1, seq2 = make_sequences(n, alphabet=alpha, seed=seed)
            return {"seq1": seq1, "seq2": seq2,
                    "blosum": make_blosum(alphabet=alpha, seed=seed + 1)}

        schedule: list[ScheduleStep] = [ScheduleStep("init_refs")]
        for d in range(n):
            schedule.append(ScheduleStep("wave_upper", scalars={"d": d}))
        for d in range(n, 2 * n - 1):
            schedule.append(ScheduleStep("wave_lower", scalars={"d": d}))
        return Workload(
            sizes={"n": n, "alpha": alpha},
            shapes={"seq1": ((n,), np.int64), "seq2": ((n,), np.int64),
                    "blosum": ((alpha, alpha), np.float64),
                    "refm": ((n, n), np.float64),
                    "items": ((n + 1, n + 1), np.float64)},
            build=build,
            scalars={"n": n, "n1": n + 1, "alpha": alpha,
                     "penalty": 10.0, "d": 0, "blo": 0, "bcount": 1,
                     "bd": 0},
            schedule=schedule)

    def schedule_for(self, model: str, variant: str, wl: Workload):
        if model != "Hand-Written CUDA":
            return wl.schedule
        n = wl.sizes["n"]
        nb = n // _TILE
        steps = [ScheduleStep("init_refs")]
        for bd in range(2 * nb - 1):
            blo = max(0, bd - nb + 1)
            bhi = min(bd, nb - 1)
            steps.append(ScheduleStep(
                "block_wave",
                scalars={"bd": bd, "blo": blo, "bcount": bhi - blo + 1}))
        return steps

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        n = wl.sizes["n"]
        penalty = wl.scalars["penalty"]
        refm = wl.arrays["blosum"][wl.arrays["seq1"][:, None],
                                   wl.arrays["seq2"][None, :]]
        items = np.zeros((n + 1, n + 1))
        items[:, 0] = -penalty * np.arange(n + 1)
        items[0, :] = -penalty * np.arange(n + 1)
        for d in range(2 * n - 1):
            i_lo = max(1, d - n + 2)
            i_hi = min(d + 1, n)
            ii = np.arange(i_lo, i_hi + 1)
            jj = d + 2 - ii
            items[ii, jj] = np.maximum(
                np.maximum(items[ii - 1, jj - 1] + refm[ii - 1, jj - 1],
                           items[ii, jj - 1] - penalty),
                items[ii - 1, jj] - penalty)
        return {"items": items}

    def output_arrays(self) -> tuple[str, ...]:
        return ("items",)

    # -- ports ---------------------------------------------------------------
    def port(self, model: str, variant: str = "best") -> PortSpec:
        prog = _build_wavefront()
        data = DataRegionSpec(
            name="nw_data",
            regions=("init_refs", "wave_upper", "wave_lower", "block_wave"),
            copyin=("seq1", "seq2", "blosum"),
            copyout=("items",),
            create=("refm", "items"))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            return PortSpec(
                model=model, program=prog,
                directive_lines=12,
                restructured_lines=14,  # wavefront restructuring of the DP
                data_regions=(data,),
                notes=("per-diagonal kernels; no shared-memory tiling",))
        if model == "OpenMPC":
            return PortSpec(
                model=model, program=prog, directive_lines=3,
                restructured_lines=12,
                notes=("per-diagonal kernels",))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=prog, directive_lines=2,
                restructured_lines=7,
                notes=("wavefront parallelism not provable; linearized "
                       "subscripts",))
        if model == "Hand-Written CUDA":
            from repro.ir.analysis.access import AccessPattern

            tile = TilingDecision(
                tile_dims=(_TILE, _TILE), reuse_factor=8.0,
                smem_bytes_per_block=(_TILE + 1) * (_TILE + 1) * 8 * 2,
                arrays=("items", "refm"))
            # the real kernel stages tile rows through shared memory with
            # coalesced row loads; one cooperative block per tile
            opts = RegionOptions(
                block_threads=64, tiling=(tile,),
                pattern_overrides={"items": AccessPattern.COALESCED,
                                   "refm": AccessPattern.COALESCED})
            return PortSpec(
                model=model, program=_build_blocked(), directive_lines=0,
                restructured_lines=110,
                data_regions=(data,),
                region_options={"block_wave": opts},
                notes=("16x16 shared-memory tiles along block diagonals",))
        return self.derived_port(model, variant)
