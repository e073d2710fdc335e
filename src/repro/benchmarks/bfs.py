"""BFS — breadth-first search (Rodinia, Section V-B).

Frontier-based level-synchronous traversal of a random graph in CSR
adjacency form.  "Even though it has a very simple algorithm, its
irregular access patterns using a subscript array make it difficult to
achieve performance on the GPU.  Therefore, none of tested models
achieved reasonable performance" — every port here lands near 1x, and
the Luo/Wong/Hwu-style queue-based implementation that does beat the CPU
is *not expressible* in the directive models (Section V-B), so there is
deliberately no fast manual variant.

Regions (3):

* ``bfs_expand`` — visit the frontier, relax neighbours (indirect);
* ``bfs_update`` — promote the updating mask to the next frontier;
* ``level_histogram`` — an OpenMP *critical-section array reduction*
  with a data-dependent subscript (``hist[cost[i]] += 1``).  This is the
  **one region of the 58** only OpenMPC translates: the subscript's
  extent is runtime data, so it cannot be decomposed into scalar
  reductions the way EP's fixed ten counters were, and PGI/OpenACC/HMPP
  reject critical sections outright.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import (Benchmark, Workload, shapes_of,
                                   shared_program)
from repro.benchmarks.data import Graph, make_graph
from repro.ir.builder import (accum, aref, assign, block, critical, iff,
                              pfor, sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.models.base import (DataRegionSpec, PortSpec, RegionOptions,
                               ScheduleStep)


@shared_program
def _build() -> Program:
    i, k = v("i"), v("k")
    nbr = aref("edges", k)
    expand = ParallelRegion(
        "bfs_expand",
        pfor("i", 0, v("n_nodes"), block(
            iff(aref("mask", i).eq(1), block(
                assign(aref("mask", i), 0),
                sfor("k", aref("node_start", i), aref("node_start", i + 1),
                     iff(aref("visited", nbr).eq(0), block(
                         assign(aref("cost", nbr), aref("cost", i) + 1),
                         assign(aref("updating", nbr), 1),
                     ))),
            )),
        ), private=["k"]))
    update = ParallelRegion(
        "bfs_update",
        pfor("i", 0, v("n_nodes"), block(
            iff(aref("updating", i).eq(1), block(
                assign(aref("mask", i), 1),
                assign(aref("visited", i), 1),
                assign(aref("updating", i), 0),
            )),
        )))
    histogram = ParallelRegion(
        "level_histogram",
        pfor("i", 0, v("n_nodes"),
             iff(aref("cost", i).ge(0),
                 critical(accum(aref("hist", aref("cost", i)), 1.0)))))
    return Program(
        "bfs",
        arrays=[
            ArrayDecl("node_start", ("n1",), dtype="int", intent="in"),
            ArrayDecl("edges", ("n_edges",), dtype="int", intent="in"),
            ArrayDecl("cost", ("n_nodes",), dtype="int"),
            ArrayDecl("mask", ("n_nodes",), dtype="int"),
            ArrayDecl("updating", ("n_nodes",), dtype="int", intent="temp"),
            ArrayDecl("visited", ("n_nodes",), dtype="int"),
            ArrayDecl("hist", ("n_nodes",), intent="out"),
        ],
        scalars=[ScalarDecl("n_nodes", "int"), ScalarDecl("n1", "int"),
                 ScalarDecl("n_edges", "int")],
        regions=[expand, update, histogram],
        domain="Graph algorithms", driver_lines=31)


def _bfs_levels(graph: Graph, source: int) -> np.ndarray:
    """Reference BFS levels (NumPy/level-synchronous)."""
    cost = np.full(graph.n_nodes, -1, dtype=np.int64)
    cost[source] = 0
    frontier = np.array([source], dtype=np.int64)
    visited = np.zeros(graph.n_nodes, dtype=bool)
    visited[source] = True
    level = 0
    while frontier.size:
        # gather every frontier node's adjacency slice in one index
        # array: position p of node f's run maps to node_start[f] + p
        starts = graph.node_start[frontier]
        counts = graph.node_start[frontier + 1] - starts
        run_base = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        neigh = graph.edges[np.arange(int(counts.sum())) + run_base]
        # sorted distinct unvisited neighbours, via a node mask (cheaper
        # than np.unique's hash pass at a million nodes)
        reached = np.zeros(graph.n_nodes, dtype=bool)
        reached[neigh] = True
        new = np.flatnonzero(reached & ~visited)
        if new.size == 0:
            break
        level += 1
        visited[new] = True
        cost[new] = level
        frontier = new
    return cost


class Bfs(Benchmark):
    """Rodinia BFS benchmark."""

    name = "BFS"
    domain = "Graph algorithms"
    rtol = 0.0
    atol = 0.0

    def build_program(self) -> Program:
        return _build()

    # -- workload -----------------------------------------------------------
    def workload(self, scale: str = "test", seed: int = 0) -> Workload:
        n = 500 if scale == "test" else 1_000_000
        graph = make_graph(n, avg_degree=6, seed=seed)
        source = 0
        cost = np.full(n, -1, dtype=np.int64)
        cost[source] = 0
        mask = np.zeros(n, dtype=np.int64)
        mask[source] = 1
        visited = np.zeros(n, dtype=np.int64)
        visited[source] = 1
        # the host driver loops until the frontier is empty; the level
        # count is a property of the input, precomputed here so the
        # schedule is static (required for timing-only runs)
        ref_cost = _bfs_levels(graph, source)
        n_levels = int(ref_cost.max()) + 1 if ref_cost.max() >= 0 else 1
        schedule: list[ScheduleStep] = []
        for _ in range(n_levels):
            schedule.append(ScheduleStep("bfs_expand"))
            schedule.append(ScheduleStep("bfs_update"))
        schedule.append(ScheduleStep("level_histogram"))
        arrays = {"node_start": graph.node_start.copy(),
                  "edges": graph.edges.copy(),
                  "cost": cost, "mask": mask,
                  "updating": np.zeros(n, dtype=np.int64),
                  "visited": visited,
                  "hist": np.zeros(n)}
        return Workload(
            sizes={"n_nodes": n, "n_edges": graph.n_edges,
                   "n_levels": n_levels},
            shapes=shapes_of(arrays), build=lambda: arrays,
            scalars={"n_nodes": n, "n1": n + 1, "n_edges": graph.n_edges},
            schedule=schedule)

    def reference(self, wl: Workload) -> dict[str, np.ndarray]:
        graph = Graph(n_nodes=wl.sizes["n_nodes"],
                      node_start=wl.arrays["node_start"],
                      edges=wl.arrays["edges"])
        cost = _bfs_levels(graph, 0)
        hist = np.zeros(wl.sizes["n_nodes"])
        reached = cost[cost >= 0]
        np.add.at(hist, reached, 1.0)
        return {"cost": cost, "hist": hist}

    def output_arrays(self) -> tuple[str, ...]:
        return ("cost", "hist")

    # -- ports ---------------------------------------------------------------
    def port(self, model: str, variant: str = "best") -> PortSpec:
        prog = _build()
        data = DataRegionSpec(
            name="bfs_data",
            regions=("bfs_expand", "bfs_update", "level_histogram"),
            copyin=("node_start", "edges", "cost", "mask", "visited"),
            copyout=("cost", "hist"),
            create=("updating",))
        if model in ("PGI Accelerator", "OpenACC", "HMPP"):
            return PortSpec(
                model=model, program=prog,
                directive_lines=8,
                restructured_lines=3,
                data_regions=(data,),
                notes=("histogram region untranslatable: critical-section "
                       "array reduction with runtime extent",))
        if model == "OpenMPC":
            return PortSpec(
                model=model, program=prog, directive_lines=2,
                restructured_lines=0,
                notes=("critical-section array reduction handled",))
        if model == "R-Stream":
            return PortSpec(
                model=model, program=prog, directive_lines=1,
                restructured_lines=6,
                notes=("data-dependent control flow throughout",))
        if model == "Hand-Written CUDA":
            opts = RegionOptions(block_threads=256)
            return PortSpec(
                model=model, program=prog, directive_lines=0,
                restructured_lines=40,
                data_regions=(data,),
                region_options={"bfs_expand": opts, "bfs_update": opts,
                                "level_histogram": opts},
                notes=("Rodinia-style mask-based CUDA BFS (the faster "
                       "queue-based algorithm is out of scope for all "
                       "models)",))
        return self.derived_port(model, variant)
