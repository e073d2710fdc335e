"""BACKPROP — neural-network training (Rodinia, Section V-B).

One epoch of back-propagation on a 2-layer perceptron: forward pass,
output/hidden error, weight adjustment with momentum.

Porting facts reproduced from the paper:

* the original allocates weight matrices as pointer-to-pointer rows
  (``float**``) — every port repacks them into dense 2-D arrays except
  R-Stream's, whose front end then rejects all regions
  (pointer-based allocation);
* the naive translation is "very poor, due to uncoalesced accesses":
  weights are stored ``w[j][i]`` (per-unit rows) and the parallel unit
  index walks rows.  *Parallel loop-swap* fixes it, but "the current
  OpenMPC compiler could not perform the optimization automatically due
  to its complexity" (the loop body is an imperfect nest with a
  reduction), so every best port applies the transposed layout
  ``wt[i][j]`` manually in the input code;
* the layout change surfaces array-reduction patterns that the non-
  OpenMPC models cannot handle, requiring further manual transformation
  (accounted as restructuring lines).

Regions (6): ``forward_hidden``, ``forward_output``, ``output_error``,
``hidden_error``, ``adjust_w2``, ``adjust_w1`` — only ``output_error``
(which touches no weight matrix) is R-Stream-mappable.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Benchmark, Workload, shared_program
from repro.ir.builder import (accum, aref, assign, block, intrinsic, local,
                              pfor, reduce_clause, sfor, ternary, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)

ETA = 0.3
MOMENTUM = 0.3


def _w1(transposed: bool, i, j):
    """weight input->hidden: canonical layout w1[j][i] (unit-major)."""
    return aref("w1", i, j) if transposed else aref("w1", j, i)


def _w2(transposed: bool, j, k):
    return aref("w2", k, j) if transposed else aref("w2", j, k)


def _sigmoid(x):
    return 1.0 / (1.0 + intrinsic("exp", -x))


@shared_program
def _build(transposed: bool, contiguous: bool,
           with_clauses: bool = True) -> Program:
    i, j, k = v("i"), v("j"), v("k")

    forward_hidden = ParallelRegion(
        "forward_hidden",
        pfor("j", 0, v("nh"), block(
            local("s", init=_w1(transposed, 0, j)),  # bias row i=0
            sfor("i", 1, v("ni1"),
                 accum(v("s"), _w1(transposed, i, j) * aref("inp", i - 1))),
            assign(aref("hidden", j), _sigmoid(v("s"))),
        ), private=["i", "s"]))
    forward_output = ParallelRegion(
        "forward_output",
        pfor("k", 0, v("no"), block(
            local("s", init=_w2(transposed, 0, k)),
            sfor("j", 1, v("nh1"),
                 accum(v("s"), _w2(transposed, j, k) * aref("hidden", j - 1))),
            assign(aref("out", k), _sigmoid(v("s"))),
        ), private=["j", "s"]))
    output_error = ParallelRegion(
        "output_error",
        pfor("k", 0, v("no"), block(
            assign(aref("delta_o", k),
                   aref("out", k) * (1.0 - aref("out", k))
                   * (aref("target", k) - aref("out", k))),
            accum(aref("errsum", 0),
                  intrinsic("fabs", aref("delta_o", k))),
        ), reductions=(reduce_clause("+", "errsum"),) if with_clauses else ()))
    hidden_error = ParallelRegion(
        "hidden_error",
        pfor("j", 0, v("nh"), block(
            local("s", init=0.0),
            sfor("k", 0, v("no"),
                 accum(v("s"), aref("delta_o", k)
                       * _w2(transposed, j + 1, k))),
            assign(aref("delta_h", j),
                   aref("hidden", j) * (1.0 - aref("hidden", j)) * v("s")),
            accum(aref("errsum", 1), intrinsic("fabs", aref("delta_h", j))),
        ), private=["k", "s"],
            reductions=(reduce_clause("+", "errsum"),) if with_clauses else ()))
    hval = ternary(j.eq(0), 1.0, aref("hidden", j - 1))
    adjust_w2 = ParallelRegion(
        "adjust_w2",
        pfor("k", 0, v("no"),
             sfor("j", 0, v("nh1"), block(
                 local("dw", init=ETA * aref("delta_o", k) * hval
                       + MOMENTUM * (aref("oldw2", k, j) if transposed
                                     else aref("oldw2", j, k))),
                 accum(_w2(transposed, j, k), v("dw")),
                 assign(aref("oldw2", k, j) if transposed
                        else aref("oldw2", j, k), v("dw")),
             )), private=["j", "dw"]))
    ival = ternary(i.eq(0), 1.0, aref("inp", i - 1))
    adjust_w1 = ParallelRegion(
        "adjust_w1",
        pfor("j", 0, v("nh"),
             sfor("i", 0, v("ni1"), block(
                 local("dw", init=ETA * aref("delta_h", j) * ival
                       + MOMENTUM * (aref("oldw1", i, j) if transposed
                                     else aref("oldw1", j, i))),
                 accum(_w1(transposed, i, j), v("dw")),
                 assign(aref("oldw1", i, j) if transposed
                        else aref("oldw1", j, i), v("dw")),
             )), private=["i", "dw"]))

    if transposed:
        w_shapes = {"w1": ("ni1", "nh"), "oldw1": ("ni1", "nh"),
                    "w2": ("no", "nh1"), "oldw2": ("no", "nh1")}
    else:
        w_shapes = {"w1": ("nh", "ni1"), "oldw1": ("nh", "ni1"),
                    "w2": ("nh1", "no"), "oldw2": ("nh1", "no")}
    return Program(
        "backprop",
        arrays=[
            ArrayDecl("w1", w_shapes["w1"], contiguous=contiguous),
            ArrayDecl("oldw1", w_shapes["oldw1"], contiguous=contiguous),
            ArrayDecl("w2", w_shapes["w2"], contiguous=contiguous),
            ArrayDecl("oldw2", w_shapes["oldw2"], contiguous=contiguous),
            ArrayDecl("inp", ("ni",), intent="in"),
            ArrayDecl("hidden", ("nh",), intent="out"),
            ArrayDecl("out", ("no",), intent="out"),
            ArrayDecl("target", ("no",), intent="in"),
            ArrayDecl("delta_o", ("no",), intent="temp"),
            ArrayDecl("delta_h", ("nh",), intent="temp"),
            ArrayDecl("errsum", (2,), intent="out"),
        ],
        scalars=[ScalarDecl("ni", "int"), ScalarDecl("ni1", "int"),
                 ScalarDecl("nh", "int"), ScalarDecl("nh1", "int"),
                 ScalarDecl("no", "int")],
        regions=[forward_hidden, forward_output, output_error,
                 hidden_error, adjust_w2, adjust_w1],
        domain="Machine learning", driver_lines=114)


class Backprop(Benchmark):
    """Rodinia BACKPROP benchmark."""

    name = "BACKPROP"
    domain = "Machine learning"
    rtol = 1e-8
    atol = 1e-10

    def build_program(self) -> Program:
        # the original allocates the weight matrices as float** rows
        return _build(transposed=False, contiguous=False)

    #: training epochs per run (weights stay device-resident across
    #: epochs thanks to the data region / interprocedural planning)
    EPOCHS_TEST = 3
    EPOCHS_PAPER = 10

    # -- workload -----------------------------------------------------------
    def _dims(self, scale: str) -> tuple[int, int, int]:
        if scale == "test":
            return 96, 32, 8
        return 8192, 1024, 256

    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        ni, nh, no = self._dims(scale)

        def build() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            return {"w1": rng.standard_normal((nh, ni + 1)) * 0.1,
                    "w2": rng.standard_normal((nh + 1, no)) * 0.1,
                    "inp": rng.random(ni), "target": rng.random(no)}

        w1 = ((nh, ni + 1), np.float64)   # canonical [j][i]
        w2 = ((nh + 1, no), np.float64)   # canonical [j][k]
        return Workload(
            sizes={"ni": ni, "nh": nh, "no": no},
            shapes={"w1": w1, "oldw1": w1, "w2": w2, "oldw2": w2,
                    "inp": ((ni,), np.float64),
                    "target": ((no,), np.float64),
                    "hidden": ((nh,), np.float64),
                    "out": ((no,), np.float64),
                    "delta_o": ((no,), np.float64),
                    "delta_h": ((nh,), np.float64),
                    "errsum": ((2,), np.float64)},
            build=build,
            scalars={"ni": ni, "ni1": ni + 1, "nh": nh, "nh1": nh + 1,
                     "no": no},
            schedule=[ScheduleStep(r)
                      for _ in range(self.EPOCHS_TEST if scale == "test"
                                     else self.EPOCHS_PAPER)
                      for r in ("forward_hidden", "forward_output",
                                "output_error", "hidden_error",
                                "adjust_w2", "adjust_w1")])

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        w1 = wl.arrays["w1"].copy()   # [j][i]
        w2 = wl.arrays["w2"].copy()   # [j][k]
        oldw1 = np.zeros_like(w1)
        oldw2 = np.zeros_like(w2)
        inp = wl.arrays["inp"]
        target = wl.arrays["target"]
        ib = np.concatenate([[1.0], inp])
        epochs = len(wl.schedule) // 6
        err_o = err_h = 0.0
        for _ in range(epochs):
            s_h = w1 @ ib
            hidden = 1.0 / (1.0 + np.exp(-s_h))
            hb = np.concatenate([[1.0], hidden])
            s_o = w2.T @ hb
            out = 1.0 / (1.0 + np.exp(-s_o))
            delta_o = out * (1.0 - out) * (target - out)
            err_o += np.abs(delta_o).sum()
            s = w2[1:, :] @ delta_o
            delta_h = hidden * (1.0 - hidden) * s
            err_h += np.abs(delta_h).sum()
            dw2 = ETA * np.outer(hb, delta_o) + MOMENTUM * oldw2
            w2 = w2 + dw2
            oldw2 = dw2
            dw1 = ETA * np.outer(delta_h, ib) + MOMENTUM * oldw1
            w1 = w1 + dw1
            oldw1 = dw1
        return {"w1": w1, "w2": w2, "hidden": hidden, "out": out,
                "errsum": np.array([err_o, err_h])}

    def output_arrays(self) -> tuple[str, ...]:
        return ("w1", "w2", "hidden", "out", "errsum")

    def layout(self, model, variant, arrays):
        transposed = (model != "R-Stream"
                      and (variant == "best"
                           or model == "Hand-Written CUDA"))
        if transposed:
            for name in ("w1", "oldw1", "w2", "oldw2"):
                arrays[name] = arrays[name].T
        return arrays

    def canonical_output(self, name, array, model, variant, wl):
        transposed = (model != "R-Stream"
                      and (variant == "best"
                           or model == "Hand-Written CUDA"))
        if transposed and name in ("w1", "w2"):
            return array.T
        return array

    # -- ports ---------------------------------------------------------------
    def variants(self, model: str) -> tuple[str, ...]:
        if model in ("PGI Accelerator", "OpenACC", "HMPP", "OpenMPC"):
            return ("best", "naive")
        return ("best",)

    def port(self, model: str, variant: str = "best") -> PortSpec:
        transposed = variant == "best"
        data_regions = (DataRegionSpec(
            name="backprop_data",
            regions=("forward_hidden", "forward_output", "output_error",
                     "hidden_error", "adjust_w2", "adjust_w1"),
            copyin=("w1", "w2", "oldw1", "oldw2", "inp", "target"),
            copyout=("w1", "w2", "hidden", "out", "errsum"),
            create=("delta_o", "delta_h")),)
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            prog = _build(transposed=transposed, contiguous=True,
                          with_clauses=(model != "PGI Accelerator"))
            return PortSpec(
                model=model, program=prog,
                directive_lines=14,
                restructured_lines=16 if transposed else 6,
                data_regions=data_regions,
                notes=(f"variant={variant}",
                       "float** repacked; transposed weight layout, "
                       "array-reduction side effects removed manually"))
        if model == "OpenMPC":
            prog = _build(transposed=transposed, contiguous=True)
            return PortSpec(
                model=model, program=prog, directive_lines=2,
                restructured_lines=10 if transposed else 4,
                notes=(f"variant={variant}",
                       "parallel loop-swap too complex for the automatic "
                       "pass; layout transposed manually"))
        if model == "R-Stream":
            return PortSpec(
                model=model,
                program=_build(transposed=False, contiguous=False),
                directive_lines=2, restructured_lines=5,
                notes=("float** weight rows: pointer-based allocation",))
        if model == "Hand-Written CUDA":
            prog = _build(transposed=True, contiguous=True)
            opts = RegionOptions(block_threads=256)
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=70,
                data_regions=data_regions,
                region_options={r.name: opts for r in prog.regions},
                notes=("Rodinia CUDA backprop structure",))
        return self.derived_port(model, variant)
