"""Host-side functional execution of the OpenMP input programs.

Validation of every model port needs a ground truth; rather than trusting
each benchmark's hand-written NumPy reference alone, the suite can also
*run the input IR itself* on the host.  :func:`run_region_host` executes a
parallel region with OpenMP semantics (work-sharing loops over the whole
iteration space, shared arrays in place) by reusing the vectorizing
interpreter with the region's work-sharing nest as the "grid".

This doubles as the single-source check the paper's methodology implies:
the *same* program text produces the CPU baseline results and, through a
model compiler, the GPU results.
"""

from __future__ import annotations

from typing import Mapping, MutableMapping, Optional, Union

import numpy as np

from repro.errors import IRError
from repro.gpusim.kernel import Kernel
from repro.gpusim.executor import execute_kernel
from repro.gpusim.memo import LaunchMemo
from repro.ir.analysis.regionmemo import block_digest, memoized
from repro.ir.program import Function, ParallelRegion, Program
from repro.ir.stmt import Block, For, LocalDecl, Stmt

Value = Union[int, float]


def _grid_vars(region: ParallelRegion) -> list[str]:
    """The outermost work-sharing nest of the region (as the grid)."""
    loops = region.worksharing_loops()
    if len(loops) != 1:
        # multiple sibling work-sharing loops: execute them one at a time
        return []
    nest = [loops[0].var]
    node = loops[0]
    while True:
        inner = [s for s in node.body.stmts if isinstance(s, For) and s.parallel]
        others = [s for s in node.body.stmts
                  if not isinstance(s, (For, LocalDecl))]
        if len(inner) == 1 and not others:
            nest.append(inner[0].var)
            node = inner[0]
        else:
            break
    return nest


def _host_kernels(region: ParallelRegion, arrays: tuple[str, ...],
                  scalars: tuple[str, ...]) -> list[Optional[Kernel]]:
    """The kernels :func:`run_region_host` runs, built once per region
    content and array and scalar names, so their content hashes (the
    launch-memo key) are computed once too; None marks a work-sharing
    loop whose grid nest cannot be identified."""
    key = (block_digest(region.body), region.name, region.private,
           arrays, scalars)
    return memoized("host-kernels", key,
                    lambda: _split_region(region, arrays, scalars))


def _split_region(region: ParallelRegion, arrays: tuple[str, ...],
                  scalars: tuple[str, ...]) -> list[Optional[Kernel]]:
    # Split sibling work-sharing loops into successive "kernels".
    kernels: list[Optional[Kernel]] = []
    pending: list[Stmt] = []

    def flush_serial() -> None:
        if pending:
            # serial (master) statements between work-sharing loops:
            # run them as a 1-thread grid
            wrapper = For("__serial", 0, 1, Block(list(pending)),
                          parallel=True)
            kernels.append(Kernel(f"{region.name}__serial", wrapper,
                                  ["__serial"], arrays=arrays,
                                  scalars=scalars))
            pending.clear()

    for stmt in region.body.stmts:
        if isinstance(stmt, For) and stmt.parallel:
            flush_serial()
            sub_region = ParallelRegion(f"{region.name}__ws", stmt,
                                        private=region.private)
            nest = _grid_vars(sub_region)
            kernels.append(Kernel(f"{region.name}__{stmt.var}", stmt, nest,
                                  arrays=arrays, scalars=scalars)
                           if nest else None)
        else:
            pending.append(stmt)
    flush_serial()
    return kernels


def run_region_host(region: ParallelRegion,
                    arrays: MutableMapping[str, np.ndarray],
                    scalars: Mapping[str, Value],
                    functions: Optional[Mapping[str, Function]] = None,
                    memo: Optional[LaunchMemo] = None) -> None:
    """Execute one parallel region in place with OpenMP semantics.

    ``memo`` is handed to every launch (see :func:`execute_kernel`).
    """
    for kern in _host_kernels(region, tuple(sorted(arrays)),
                              tuple(sorted(scalars))):
        if kern is None:
            raise IRError(
                f"region {region.name!r}: cannot identify grid nest")
        execute_kernel(kern, arrays, dict(scalars), functions, memo)


def run_program_host(program: Program,
                     arrays: MutableMapping[str, np.ndarray],
                     scalars: Mapping[str, Value],
                     region_order: Optional[list[str]] = None) -> None:
    """Execute a program's regions (each once) in the given order."""
    order = region_order or [r.name for r in program.regions]
    for name in order:
        run_region_host(program.region(name), arrays, scalars,
                        program.functions)
