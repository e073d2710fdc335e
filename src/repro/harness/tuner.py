"""Launch-configuration autotuner (the Section VI-C tunability story).

"Directive-based GPU programming models may enable an easy tuning
environment that assists users in generating GPU programs in many
optimization variants" — OpenMPC shipped built-in tuning tools; this
module provides the equivalent for our stack: sweep per-kernel launch
configurations (block size, optionally register pressure) through the
deterministic timing model and report the best point plus the whole
response surface.

Because the simulator prices kernels analytically, a full sweep is
cheap and exactly reproducible — the "many optimization variants
without detailed knowledge of the complex GPU programming and memory
models" workflow the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.errors import LaunchError
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.kernel import Kernel
from repro.gpusim.timing import TimingConfig, price_kernel

#: the block sizes a CUDA tuner would typically sweep
DEFAULT_BLOCK_SIZES: tuple[int, ...] = (32, 64, 96, 128, 192, 256, 384,
                                        512, 768, 1024)


@dataclass(frozen=True)
class TunePoint:
    """One evaluated configuration."""

    block_threads: int
    time_s: float
    occupancy: float
    bound: str

    def summary(self) -> str:
        return (f"block={self.block_threads:<5} "
                f"t={self.time_s * 1e3:9.4f} ms  occ={self.occupancy:4.2f} "
                f"({self.bound}-bound)")


@dataclass
class TuneResult:
    """Response surface for one kernel."""

    kernel: str
    points: list[TunePoint] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def best(self) -> TunePoint:
        if not self.points:
            raise LaunchError(
                f"kernel {self.kernel!r}: no feasible configuration")
        return min(self.points, key=lambda p: p.time_s)

    @property
    def worst(self) -> TunePoint:
        if not self.points:
            raise LaunchError(
                f"kernel {self.kernel!r}: no feasible configuration")
        return max(self.points, key=lambda p: p.time_s)

    @property
    def tuning_gain(self) -> float:
        """worst/best time ratio — how much tuning was worth."""
        return self.worst.time_s / self.best.time_s

    def report(self) -> str:
        lines = [f"kernel {self.kernel}:"]
        best = self.best
        for p in sorted(self.points, key=lambda p: p.block_threads):
            marker = "  <-- best" if p is best else ""
            lines.append(f"  {p.summary()}{marker}")
        for block, reason in self.skipped:
            lines.append(f"  block={block:<5} infeasible ({reason})")
        lines.append(f"  tuning gain: {self.tuning_gain:.2f}x")
        return "\n".join(lines)


def _with_block(kernel: Kernel, block: int) -> Kernel:
    return Kernel(kernel.name, kernel.body, kernel.thread_vars,
                  arrays=kernel.arrays, scalars=kernel.scalars,
                  block_threads=block, dtype=kernel.dtype,
                  placements=kernel.placements, tiling=kernel.tiling,
                  regs_per_thread=kernel.regs_per_thread,
                  indirect_carriers=kernel.indirect_carriers,
                  monotone_carriers=kernel.monotone_carriers,
                  pattern_overrides=kernel.pattern_overrides,
                  private_orientations=kernel.private_orientations)


def tune_kernel(kernel: Kernel, bindings: Mapping[str, float],
                array_extents: Mapping[str, Sequence[Optional[int]]],
                block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
                device: DeviceSpec = TESLA_M2090,
                timing: Optional[TimingConfig] = None) -> TuneResult:
    """Sweep block sizes for one kernel; returns the response surface."""
    result = TuneResult(kernel=kernel.name)
    for block in block_sizes:
        candidate = _with_block(kernel, block)
        try:
            desc = candidate.describe(bindings, array_extents)
            priced = price_kernel(desc, device, timing)
        except LaunchError as exc:
            result.skipped.append((block, str(exc)))
            continue
        result.points.append(TunePoint(
            block_threads=block, time_s=priced.time_s,
            occupancy=priced.occupancy, bound=priced.bound))
    return result


def tune_benchmark(bench, model: str, variant: str = "best",
                   scale: str = "paper",
                   block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
                   device: DeviceSpec = TESLA_M2090) -> dict[str, TuneResult]:
    """Tune every translated kernel of one benchmark port."""
    compiled = bench.compile(model, variant)
    wl = bench.workload(scale)
    extents = bench.extents_for(model, variant, wl)
    bindings = {k: float(x) for k, x in wl.scalars.items()}
    results: dict[str, TuneResult] = {}
    for name, region in compiled.results.items():
        if not region.translated:
            continue
        for kernel in region.kernels:
            results[kernel.name] = tune_kernel(
                kernel, bindings, extents, block_sizes, device)
    return results
