"""Translation validation over the whole benchmark suite.

:func:`validate_port` certifies every region of one (benchmark, model,
variant) port; :func:`validate_suite` sweeps 13 benchmarks × all six
models (the five directive models plus the hand-written CUDA baseline),
reusing the memoized compilations from :mod:`repro.models.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs import tracer as obs
from repro.tv.certify import Certificate, CertStatus, validate_compiled

def _models() -> tuple[str, ...]:
    # the hand-written baseline is certified too — its "lowering" is the
    # manually restructured CUDA, the hardest case for the validator
    from repro.models import DIRECTIVE_MODELS
    return tuple(DIRECTIVE_MODELS) + ("Hand-Written CUDA",)


@dataclass
class TvRecord:
    """All certificates of one (benchmark, model) port."""

    benchmark: str
    model: str
    variant: str
    certificates: list[Certificate] = field(default_factory=list)

    def count(self, status: CertStatus) -> int:
        return sum(1 for c in self.certificates if c.status is status)

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant,
                "certificates": [c.to_dict() for c in self.certificates]}


def validate_port(benchmark: str, model: str,
                  variant: Optional[str] = None,
                  elide: bool = False) -> TvRecord:
    """Certify every region of one compiled port.

    ``elide`` certifies the elide-transfers flavour — the transfer
    plan changes but the lowered kernels must not, so the certificate
    set (and its PROVED count) must match the default compile exactly.
    """
    from repro.benchmarks import get_benchmark
    from repro.models.cache import compile_port

    port, compiled, chosen = compile_port(benchmark, model, variant,
                                          elide=elide)
    with obs.span("analysis.tv", "analysis", kind="tv",
                  benchmark=benchmark, model=compiled.model):
        certs = validate_compiled(port.program, compiled)
    return TvRecord(benchmark=get_benchmark(benchmark).name,
                    model=compiled.model, variant=chosen,
                    certificates=certs)


def validate_suite(models: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   jobs: int = 1) -> list[TvRecord]:
    """Certificates for every available benchmark × model pair, in
    suite order (``jobs>1`` shards the pairs, see
    :func:`repro.harness.parallel.sweep_ports`)."""
    from repro.benchmarks import get_benchmark
    from repro.harness.parallel import suite_pairs, sweep_ports

    pairs = [(bench, model) for bench, model in suite_pairs(
                 benchmarks, models if models is not None else _models())
             if get_benchmark(bench).variants(model)]
    return sweep_ports("tv", pairs, jobs)
