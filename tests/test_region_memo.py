"""The region-analysis memo against fresh analyses.

lint, tv, xfer and translate share one content-keyed memo of per-region
analyses (:mod:`repro.ir.analysis.regionmemo`): canonical store facts,
feature scans and upward-exposed reads.  Every record a warm memo
produces must equal, byte for byte, the record of a run that
recomputes every analysis (the memo bypassed, the compile store
cleared before each port), whatever order the suites run in; a deep
copy modified after the pristine port was analyzed must be analyzed
afresh; and each distinct region analysis runs once.
"""

import collections
import copy
import functools
import json

import pytest

import repro.dataflow.cfg as cfg_mod
import repro.dataflow.suite as xfer_mod
import repro.lint.suite as lint_mod
import repro.pipeline.passes as passes_mod
import repro.translate.suite as translate_mod
import repro.tv.certify as certify_mod
import repro.tv.suite as tv_mod
from repro.benchmarks import get_benchmark
from repro.ir.analysis.features import scan_region
from repro.ir.stmt import Assign, Block
from repro.models.cache import clear_compile_cache, compile_port
from repro.tv.certify import CertStatus, validate_compiled

#: a slice with host fallbacks (CG, SRAD), scalar reductions (CG),
#: ports that drop arrays (SRAD) and an inlined user function (CFD)
SLICE = ("JACOBI", "CG", "SRAD", "CFD")

#: the perfbench ``gates`` slice
GATES = ("JACOBI", "EP", "FT", "SRAD", "CFD", "BFS", "HOTSPOT",
         "BACKPROP", "KMEANS", "NW", "LUD")

#: each suite over a benchmark list, and the one-port function its
#: sweep calls (looked up at call time, so a patch applies to it)
SUITES = {
    "lint": (lambda b: lint_mod.lint_suite(benchmarks=b),
             lint_mod, "lint_record"),
    "tv": (lambda b: tv_mod.validate_suite(benchmarks=b),
           tv_mod, "validate_port"),
    "xfer": (lambda b: xfer_mod.xfer_suite(benchmarks=b),
             xfer_mod, "xfer_port"),
    "translate": (lambda b: translate_mod.translate_suite(benchmarks=b),
                  translate_mod, "translate_pair"),
}


def _records(order, benchmarks=SLICE):
    """Each suite's records over ``benchmarks``, suites run in
    ``order``, as canonical JSON lines keyed by suite."""
    return {name: [json.dumps(rec.to_dict(), sort_keys=True)
                   for rec in SUITES[name][0](list(benchmarks))]
            for name in order}


def _fresh_per_port(fn):
    @functools.wraps(fn)
    def run(*args, **kwargs):
        clear_compile_cache()
        return fn(*args, **kwargs)
    return run


@pytest.fixture(scope="module")
def fresh_records():
    """Every record computed with the memo and compile store cleared
    before each port, and every region analysis run afresh (the memo's
    call sites bypass it), so no analysis reuses another's result."""
    with pytest.MonkeyPatch.context() as patch:
        for _, module, name in SUITES.values():
            patch.setattr(module, name,
                          _fresh_per_port(getattr(module, name)))
        for module in (certify_mod, passes_mod, cfg_mod):
            patch.setattr(module, "memoized",
                          lambda _kind, _key, compute: compute())
        records = _records(SUITES)
    clear_compile_cache()
    return records


@pytest.mark.parametrize("order", [("lint", "tv", "xfer", "translate"),
                                   ("translate", "xfer", "tv", "lint")],
                         ids=["forward", "reverse"])
def test_warm_memo_records_match_fresh(fresh_records, order):
    clear_compile_cache()
    warm = _records(order)
    for name in SUITES:
        assert warm[name] == fresh_records[name], name


def test_memoized_features_equal_fresh_scans(monkeypatch):
    """Every region of every compiled port in the slice: the features
    the pipeline used (a memo hit now) equal a fresh scan."""
    from repro.lint.suite import LINT_MODELS

    clear_compile_cache()
    _records(SUITES)
    ports = []
    for bench in SLICE:
        for model in LINT_MODELS + ("Hand-Written CUDA",):
            if get_benchmark(bench).variants(model):
                ports.append(compile_port(bench, model)[0])

    def no_scan(*_args):
        raise AssertionError("feature scan missed the memo")
    monkeypatch.setattr(passes_mod, "scan_region", no_scan)
    checked = 0
    for port in ports:
        for region in port.program.regions:
            assert passes_mod.region_features(region, port.program) \
                == scan_region(region, port.program)
            checked += 1
    assert checked


def test_memoized_exposed_reads_equal_fresh_walks():
    """Every region of every xfer port in the slice, with and without
    augmented targets: the memoized exposed reads equal a fresh walk."""
    from repro.ir.analysis.liveness import array_upward_exposed_reads
    from repro.models import DIRECTIVE_MODELS

    clear_compile_cache()
    _records(("xfer",))
    checked = 0
    for bench in SLICE:
        for model in DIRECTIVE_MODELS:
            if not get_benchmark(bench).variants(model):
                continue
            compiled = compile_port(bench, model)[1]
            program, builder = compiled.program, cfg_mod._Builder(compiled)
            for region in program.regions:
                for augmented in (True, False):
                    assert builder._exposed(region, augmented) == frozenset(
                        array_upward_exposed_reads(
                            region.body, program.functions,
                            include_augmented_targets=augmented,
                            arrays=program.arrays))
                    checked += 1
    assert checked


def _strip_reduction(compiled, region, target):
    bad = copy.deepcopy(compiled)
    for kernel in bad.results[region].kernels:
        for stmt in kernel.body.walk():
            if isinstance(stmt, Assign) and stmt.op == "+" \
                    and getattr(stmt.target, "name", None) == target:
                stmt.op = None
                return bad
    raise AssertionError(f"no reduction store to {target!r} found")


def test_modified_copies_are_certified_afresh():
    """The pristine ports are certified first, so their facts are in
    the memo when the broken copies are certified."""
    def certify(port, compiled):
        return {c.region: c for c in validate_compiled(port.program,
                                                       compiled)}

    cg, cg_compiled, _ = compile_port("CG", "OpenACC")
    jacobi, jacobi_compiled, _ = compile_port("JACOBI", "OpenACC")
    assert certify(cg, cg_compiled)["rho0"].status is CertStatus.PROVED

    cert = certify(cg, _strip_reduction(cg_compiled, "rho0", "rho"))["rho0"]
    assert cert.status is CertStatus.REFUTED
    assert cert.witness is not None and "rho" in cert.detail

    bad = copy.deepcopy(jacobi_compiled)
    name, result = next(iter(bad.results.items()))
    for kernel in result.kernels:
        kernel.body = Block(())
    cert = certify(jacobi, bad)[name]
    assert cert.status is CertStatus.REFUTED
    assert "never write" in cert.detail

    for port, compiled in ((cg, cg_compiled), (jacobi, jacobi_compiled)):
        certs = certify(port, compiled)
        assert all(c.status in (CertStatus.PROVED, CertStatus.SKIPPED)
                   for c in certs.values())
    assert certify(cg, cg_compiled)["rho0"].status is CertStatus.PROVED


def test_gates_work_counts(monkeypatch):
    """Over the gates slice (lint, tv, translate, xfer from a cold
    store) each distinct region analysis runs once: 150 store-fact
    canonicalizations, 75 feature scans and 135 exposed-read sets,
    against 1,132, 429 and 1,482 without the memo."""
    calls = collections.Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, run)

    counting(certify_mod, "canonicalize")
    counting(passes_mod, "scan_region")
    counting(cfg_mod, "array_upward_exposed_reads")
    clear_compile_cache()
    _records(("lint", "tv", "translate", "xfer"), GATES)
    assert calls == {"canonicalize": 150, "scan_region": 75,
                     "array_upward_exposed_reads": 135}


def test_copies_and_pickles_digest_afresh():
    import pickle

    from repro.ir.analysis import regionmemo

    program = get_benchmark("CG").program
    body = program.regions[0].body
    digest = regionmemo.block_digest(body)
    digests = regionmemo.program_digests(program)
    for clone in (copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
        assert id(clone) not in regionmemo._DIGESTS
        assert id(clone.regions[0].body) not in regionmemo._DIGESTS
        assert regionmemo.program_digests(clone) == digests
        assert regionmemo.block_digest(clone.regions[0].body) == digest
    clone = copy.deepcopy(body)
    store = next(s for s in clone.walk() if isinstance(s, Assign))
    store.op = "+" if store.op is None else None
    assert regionmemo.block_digest(clone) != digest
