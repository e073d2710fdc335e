"""Exception hierarchy for the repro package.

Every layer of the stack (IR, analyses, model compilers, GPU simulator)
raises a subclass of :class:`ReproError` so callers can distinguish
"your input program is malformed" from "this directive model cannot
express that construct" from "the simulated device ran out of memory".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IRError(ReproError):
    """Malformed IR: bad node types, unbound variables, invalid shapes."""


class IRTypeError(IRError):
    """An IR node was constructed with an operand of the wrong kind."""


class TransformError(ReproError):
    """A requested loop transformation is illegal or inapplicable."""


class UnsupportedFeatureError(ReproError):
    """A directive model cannot translate a construct.

    Carries the *feature* name so coverage accounting (Table II) can report
    which limitation of Section III was hit.
    """

    def __init__(self, feature: str, detail: str = "",
                 region: str = "") -> None:
        self.feature = feature
        self.detail = detail
        self.region = region  # the rejecting region, when known
        msg = feature if not detail else f"{feature}: {detail}"
        super().__init__(msg)


class CompileError(ReproError):
    """A directive compiler failed for a reason other than model limits."""


class GpuSimError(ReproError):
    """Base class for GPU-simulator runtime errors."""


class DeviceMemoryError(GpuSimError):
    """Simulated device allocation exceeded global-memory capacity."""


class LaunchError(GpuSimError):
    """Invalid kernel launch configuration (grid/block limits, smem)."""


class ExecutionError(GpuSimError):
    """The kernel interpreter failed while executing an IR body."""


class BenchmarkError(ReproError):
    """A benchmark application was configured or validated incorrectly."""
