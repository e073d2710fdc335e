"""CUDA occupancy calculator (compute capability 2.0 rules).

Occupancy — the ratio of resident warps to the SM's maximum — determines
how well global-memory latency is hidden.  The paper's HOTSPOT story
("parallelizing the outer loops ... does not provide enough number of
threads to hide the global memory latency") is an occupancy/parallelism
effect; the EP story's strip-mining interacts with it through block
counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.errors import LaunchError
from repro.gpusim.device import DeviceSpec


@dataclass(frozen=True)
class Occupancy:
    """Result of the occupancy computation for one kernel launch."""

    blocks_per_sm: int
    warps_per_sm: int
    occupancy: float          # resident warps / max warps
    limited_by: str           # "threads" | "blocks" | "smem" | "regs" | "grid"
    #: fraction of the device's SMs that have at least one block
    sm_utilization: float


@functools.lru_cache(maxsize=1024)
def compute_occupancy(spec: DeviceSpec, block_threads: int, grid_blocks: int,
                      smem_per_block: int = 0,
                      regs_per_thread: int = 24) -> Occupancy:
    """Occupancy of a launch on ``spec``.

    Raises :class:`LaunchError` on configurations the hardware rejects
    (too many threads per block, block exceeding shared memory, zero
    sizes).  Memoized by value: pricing a descriptor and deriving its
    counters both ask for the same launch.
    """
    if block_threads <= 0 or grid_blocks <= 0:
        raise LaunchError(
            f"invalid launch: grid={grid_blocks}, block={block_threads}")
    if block_threads > spec.max_threads_per_block:
        raise LaunchError(
            f"block of {block_threads} threads exceeds device limit "
            f"{spec.max_threads_per_block}")
    if smem_per_block > spec.shared_mem_per_sm:
        raise LaunchError(
            f"block needs {smem_per_block} B shared memory; SM has "
            f"{spec.shared_mem_per_sm} B")

    warps_per_block = math.ceil(block_threads / spec.warp_size)
    max_warps = spec.max_threads_per_sm // spec.warp_size

    by_threads = spec.max_threads_per_sm // block_threads
    by_blocks = spec.max_blocks_per_sm
    by_smem = (spec.shared_mem_per_sm // smem_per_block
               if smem_per_block > 0 else spec.max_blocks_per_sm)
    regs_per_block = regs_per_thread * block_threads
    by_regs = (spec.registers_per_sm // regs_per_block
               if regs_per_block > 0 else spec.max_blocks_per_sm)

    limits = {"threads": by_threads, "blocks": by_blocks,
              "smem": by_smem, "regs": by_regs}
    limiter = min(limits, key=lambda k: limits[k])
    blocks_per_sm = max(0, limits[limiter])
    if blocks_per_sm == 0:
        raise LaunchError(
            f"kernel cannot fit a single block per SM (limited by {limiter})")

    # a small grid may not even fill the SMs
    if grid_blocks < spec.num_sms * blocks_per_sm:
        blocks_per_sm_eff = max(1, grid_blocks // spec.num_sms)
        if grid_blocks < spec.num_sms:
            limiter = "grid"
        blocks_per_sm = min(blocks_per_sm, max(blocks_per_sm_eff, 1))

    warps_per_sm = min(blocks_per_sm * warps_per_block, max_warps)
    occ = warps_per_sm / max_warps
    sm_util = min(1.0, grid_blocks / spec.num_sms)
    return Occupancy(blocks_per_sm=blocks_per_sm, warps_per_sm=warps_per_sm,
                     occupancy=occ, limited_by=limiter,
                     sm_utilization=sm_util)


def block_shape_occupancy(spec: DeviceSpec, block_threads: int,
                          smem_per_block: int = 0,
                          regs_per_thread: int = 24) -> "Occupancy | None":
    """Occupancy of a block shape assuming a saturated grid.

    Pure query for static checkers (repro.lint): evaluates the block
    shape alone, with enough blocks to fill every SM, and returns
    ``None`` instead of raising when the shape cannot launch at all.
    """
    saturated = spec.num_sms * spec.max_blocks_per_sm
    try:
        return compute_occupancy(spec, block_threads, saturated,
                                 smem_per_block=smem_per_block,
                                 regs_per_thread=regs_per_thread)
    except LaunchError:
        return None


def latency_hiding_factor(occ: Occupancy) -> float:
    """How much of peak memory throughput the launch can sustain.

    Fermi needs roughly half the maximal resident warps to saturate DRAM.
    Below the saturation point throughput falls off with the square root
    of occupancy (memory-level parallelism within each warp — multiple
    outstanding loads per thread — partially compensates for few warps),
    and a grid too small to populate all SMs caps it linearly.
    """
    saturation = min(1.0, occ.occupancy / 0.5) ** 0.5
    return max(0.02, saturation * occ.sm_utilization)
