"""Equivalence certificates for lowered parallel regions.

For every region of a compiled port the validator compares the symbolic
store summary of the source loop nest against the summary of the
concatenated lowered kernels and issues a :class:`Certificate`:

* ``PROVED`` — every observable store fact matched one-to-one after
  canonicalization, and no proof-blocking construct was seen.
* ``REFUTED`` — a concrete divergent store was exhibited (see
  :mod:`repro.tv.witness`); the certificate carries the witness.
* ``UNKNOWN`` — the summaries differ (or contain a construct the
  analysis cannot model) but no concrete divergence could be
  confirmed; ``blocking`` names the construct or mismatch.
* ``SKIPPED`` — the model rejected the region (no kernels to certify).

Certificate checking is intentionally one-sided: a PROVED verdict
requires exact matching of observable effects, while REFUTED requires
numeric evidence, so normalization gaps degrade to UNKNOWN rather than
to a wrong verdict in either direction.

Non-PROVED certificates are additionally *localized* against the
pipeline's per-pass snapshots: a note names the first pass whose state
snapshot changed the canonical store summary, so a refutation points at
the transform that introduced it rather than at "the compiler".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.ir.analysis.regionmemo import (block_digest, memoized,
                                          program_digests)
from repro.ir.program import Program
from repro.ir.stmt import Block, Stmt
from repro.models.base import CompiledProgram, RegionResult
from repro.tv.summary import (CanonFact, canonicalize, summarize_stores)
from repro.tv.witness import Witness, find_divergence


class CertStatus(str, Enum):
    PROVED = "PROVED"
    REFUTED = "REFUTED"
    UNKNOWN = "UNKNOWN"
    SKIPPED = "SKIPPED"


@dataclass
class Certificate:
    """Outcome of validating one region of one lowered port."""

    program: str
    model: str
    region: str
    status: CertStatus
    detail: str = ""
    #: for UNKNOWN: the construct or mismatch that blocked the proof
    blocking: str = ""
    witness: Optional[Witness] = None
    stores_source: int = 0
    stores_kernel: int = 0
    matched: int = 0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "program": self.program, "model": self.model,
            "region": self.region, "status": self.status.value,
            "detail": self.detail, "blocking": self.blocking,
            "stores_source": self.stores_source,
            "stores_kernel": self.stores_kernel, "matched": self.matched,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _group(facts: list[CanonFact]) -> dict[str, list[CanonFact]]:
    groups: dict[str, list[CanonFact]] = {}
    for f in facts:
        groups.setdefault(f.target, []).append(f)
    return groups


def _store_facts(program: Program, body: Stmt, body_key,
                 ) -> tuple[tuple[CanonFact, ...], tuple[str, ...]]:
    """``(canonical store facts, blocking constructs)`` of ``body``,
    memoized by ``body_key`` (the digest of ``body``), the program's
    visible names and its functions (the inliner reads them)."""
    def compute() -> tuple[tuple[CanonFact, ...], tuple[str, ...]]:
        summary = summarize_stores(body, program)
        return (tuple(canonicalize(summary, program)),
                tuple(summary.blocking))
    digests = program_digests(program)
    return memoized("stores", (digests.names, digests.functions, body_key),
                    compute)


def _first_diverging_pass(program: Program,
                          result: RegionResult) -> Optional[tuple[str, str]]:
    """Localize a divergence within the pipeline: the first pass whose
    state snapshot changed the canonical store summary relative to the
    pipeline's input (the intake snapshot).

    Returns ``(pass_name, stage)`` or ``None`` when no snapshot changed
    the summary — then the mismatch predates the pipeline (the port's
    restructured source) or arose in kernel assembly.
    """
    base: Optional[list] = None
    for rec in result.passes:
        if rec.ir is None:
            continue
        try:
            facts, _ = _store_facts(program, rec.ir, block_digest(rec.ir))
            keys = sorted(f.match_key() for f in facts)
        except Exception:
            continue  # a snapshot the summarizer cannot model
        if base is None:
            base = keys
        elif keys != base:
            return rec.name, rec.stage
    return None


def _localize(cert: Certificate, program: Program,
              result: RegionResult) -> None:
    """Attach the pass attribution of a non-PROVED verdict (notes only,
    so PROVED certificates — the pinned suite output — are untouched)."""
    hit = _first_diverging_pass(program, result)
    if hit is not None:
        name, stage = hit
        cert.notes.append(f"store summary first diverges after pass "
                          f"{name!r} (stage {stage})")
    elif result.passes:
        cert.notes.append("no pipeline pass changed the store summary; "
                          "divergence originates in the port's "
                          "restructured source or in kernel assembly")


def validate_region(program: Program, model: str,
                    result: RegionResult) -> Certificate:
    """Certify one region's lowered kernels against its source body."""
    region = program.region(result.region)
    cert = Certificate(program=program.name, model=model, region=region.name,
                       status=CertStatus.PROVED)
    if not result.translated:
        reasons = "; ".join(d.message for d in result.diagnostics[:2])
        cert.status = CertStatus.SKIPPED
        cert.detail = f"region rejected by model: {reasons or 'untranslated'}"
        return cert

    src_facts, src_blocking = _store_facts(program, region.body,
                                           block_digest(region.body))
    ker_facts, ker_blocking = _store_facts(
        program, Block(tuple(k.body for k in result.kernels)),
        tuple(k.body_digest for k in result.kernels))
    blocking = src_blocking + ker_blocking
    cert.stores_source = len(src_facts)
    cert.stores_kernel = len(ker_facts)

    # one-to-one structural matching per target, in store order
    used = [False] * len(ker_facts)
    unmatched_src: list[CanonFact] = []
    for sf in src_facts:
        key = sf.match_key()
        hit = None
        for j, kf in enumerate(ker_facts):
            if not used[j] and kf.match_key() == key:
                hit = j
                break
        if hit is None:
            unmatched_src.append(sf)
        else:
            used[hit] = True
            cert.matched += 1
    unmatched_ker = [kf for j, kf in enumerate(ker_facts) if not used[j]]

    # host-side local initializations outside the worksharing loops are
    # not part of the lowered kernels; they carry no observable store.
    dropped_locals = [sf for sf in unmatched_src
                      if sf.is_local and not sf.loops]
    unmatched_src = [sf for sf in unmatched_src if sf not in dropped_locals]
    if dropped_locals:
        cert.notes.append(
            f"{len(dropped_locals)} host-local initialization(s) outside "
            "worksharing loops not represented in kernels")

    ker_groups = _group(ker_facts)
    for sf in unmatched_src:
        group = ker_groups.get(sf.target, [])
        if sf.is_local:
            continue  # locals are unobservable: handled via value matching
        candidates = [kf for kf in group
                      if kf in unmatched_ker] or [None]
        witness = find_divergence(sf, candidates[0],
                                  group, program)
        if witness is not None:
            cert.status = CertStatus.REFUTED
            cert.witness = witness
            cert.detail = witness.describe()
            _localize(cert, program, result)
            return cert

    if unmatched_src or unmatched_ker:
        cert.status = CertStatus.UNKNOWN
        first = (unmatched_src or unmatched_ker)[0]
        side = "source" if unmatched_src else "kernel"
        cert.blocking = blocking[0] if blocking else (
            f"unmatched {side} store: {first.describe()} "
            "(no concrete divergence found)")
        cert.detail = (f"{cert.matched}/{cert.stores_source} source stores "
                       f"matched; {len(unmatched_src)} source and "
                       f"{len(unmatched_ker)} kernel stores unmatched")
        _localize(cert, program, result)
        return cert

    if blocking:
        cert.status = CertStatus.UNKNOWN
        cert.blocking = blocking[0]
        cert.detail = (f"all {cert.matched} stores matched but the region "
                       "contains a construct outside the analysis")
        return cert

    cert.detail = (f"{cert.matched} store fact(s) matched one-to-one "
                   f"across {len(result.kernels)} kernel(s)")
    return cert


def validate_compiled(program: Program,
                      compiled: CompiledProgram) -> list[Certificate]:
    """Certificates for every region of a compiled port, program order."""
    return [validate_region(program, compiled.model, result)
            for result in compiled.results.values()]
