"""Cross-model translation over the benchmark suite, tv-certified.

:data:`TRANSLATION_PAIRS` names the shipped source→target pairs:

* **OpenACC → OpenMP-Target** — the forward migration path Section VI
  anticipates (the directive models converging into the base language
  standard);
* **OpenMP-Target → OpenACC** — the reverse direction, which exercises
  the OpenACC model's narrower legality (loops-only regions, inlinable
  calls, no critical sections) against ports written for the wider
  OpenMP model;
* **OpenMPC → HMPP** — a 2012-era pair: the OpenMP-annotation model's
  ports re-expressed as codelets, with the interprocedural transfer
  plan synthesized into explicit ``advancedload``/``delegatedstore``
  groups.

Every translated port is compiled by the target's own pipeline and
certified region-by-region against the *source* program by the
translation-validation layer (:mod:`repro.tv`), plus the data-motion
soundness check (:func:`repro.translate.rewrite.motion_certificates`).
A REFUTED certificate anywhere fails the suite — the CI gate ships
zero refuted translations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.tv.certify import Certificate, CertStatus
from repro.translate.rewrite import motion_certificates, translate_port

#: the shipped (source, target) translation pairs
TRANSLATION_PAIRS: tuple[tuple[str, str], ...] = (
    ("OpenACC", "OpenMP-Target"),
    ("OpenMP-Target", "OpenACC"),
    ("OpenMPC", "HMPP"),
)


@dataclass
class TranslationRecord:
    """One benchmark translated across one (source, target) pair."""

    benchmark: str
    src: str
    dst: str
    variant: str
    regions_total: int
    #: regions the source model's own compilation accepts
    src_translated: int
    #: regions the target accepts *via the translated port*
    via_translated: int
    #: regions the target's own native port accepts
    native_translated: int
    #: translated-port provenance: drops, synthesized scopes
    notes: tuple[str, ...] = ()
    certificates: list[Certificate] = field(default_factory=list)

    def count(self, status: CertStatus) -> int:
        return sum(1 for c in self.certificates if c.status is status)

    @property
    def dropped(self) -> int:
        """Clauses the target's capability set could not express."""
        return sum(1 for n in self.notes if "dropped" in n)

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "src": self.src,
                "dst": self.dst, "variant": self.variant,
                "regions_total": self.regions_total,
                "src_translated": self.src_translated,
                "via_translated": self.via_translated,
                "native_translated": self.native_translated,
                "notes": list(self.notes),
                "certificates": [c.to_dict() for c in self.certificates]}


def translate_pair(benchmark: str, src: str, dst: str,
                   variant: Optional[str] = None) -> TranslationRecord:
    """Translate one benchmark's ``src`` port to ``dst`` and certify it.

    The source port is compiled first — translation starts from the
    *effective* source discipline (the compiled data regions), so
    source models with synthesized transfer plans translate too.  The
    target's native port is compiled alongside for the coverage
    comparison (native vs via-translation), through the shared memoized
    compile cache.
    """
    from repro.benchmarks import get_benchmark
    from repro.models import get_compiler, resolve_model
    from repro.models.cache import compile_port
    from repro.tv.certify import validate_compiled

    src = resolve_model(src)
    dst = resolve_model(dst)
    if src == dst:
        raise KeyError(f"cannot translate {src!r} to itself")
    bench = get_benchmark(benchmark)
    src_port, src_compiled, chosen = compile_port(benchmark, src, variant)
    synthesized = () if src_port.data_regions else src_compiled.data_regions
    dst_port = translate_port(src_port, dst, synthesized_data=synthesized)
    dst_compiled = get_compiler(dst).compile_program(dst_port)
    certs = validate_compiled(src_port.program, dst_compiled)
    certs += motion_certificates(src_port.program, dst_compiled,
                                 src_compiled)
    _, native_compiled, _ = compile_port(benchmark, dst)
    return TranslationRecord(
        benchmark=bench.name, src=src, dst=dst, variant=chosen,
        regions_total=dst_compiled.regions_total,
        src_translated=src_compiled.regions_translated,
        via_translated=dst_compiled.regions_translated,
        native_translated=native_compiled.regions_translated,
        notes=tuple(dst_port.notes),
        certificates=certs)


def translate_suite(pairs: Optional[Sequence[tuple[str, str]]] = None,
                    benchmarks: Optional[Sequence[str]] = None,
                    jobs: int = 1) -> list[TranslationRecord]:
    """Translate every benchmark across every pair, pair-major order.

    ``jobs>1`` shards the (benchmark, src, dst) triples (see
    :func:`repro.harness.parallel.sweep_ports`); the records merge back in
    the same order, so the rollup is byte-identical for any worker
    count.
    """
    from repro.benchmarks import BENCHMARK_ORDER
    from repro.harness.parallel import sweep_ports
    from repro.models import resolve_model

    work = [(bench, resolve_model(src), resolve_model(dst))
            for src, dst in (pairs if pairs is not None
                             else TRANSLATION_PAIRS)
            for bench in (benchmarks if benchmarks is not None
                          else BENCHMARK_ORDER)]
    return sweep_ports("translate", work, jobs)
