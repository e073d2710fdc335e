"""The content-addressed artifact store (:mod:`repro.models.cache`).

Pins the sharing semantics every consumer (harness sweeps, lint, tv,
profile, baseline gate, the ``passes`` report) relies on: registry ports
compile once per process via the fast-key path; non-registry benchmark
instances are content-addressed, so identical content *shares* the
artifact while divergent content (an overridden port) gets its own; and
``clear_compile_cache`` gives tests full isolation.
"""

import dataclasses

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.models.cache import (STORE, cache_stats, clear_compile_cache,
                                compile_bench, compile_port)


@pytest.fixture(autouse=True)
def _fresh_store():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _subclass_instance(name="jacobi", mutate_port=False):
    """A non-registry instance of a registry benchmark's class."""
    base_cls = type(get_benchmark(name))

    class Variant(base_cls):
        if mutate_port:
            def port(self, model, variant="best"):
                spec = super().port(model, variant)
                return dataclasses.replace(
                    spec, directive_lines=spec.directive_lines + 1)

    return Variant()


class TestRegistryPath:
    def test_repeat_compilations_hit(self):
        bench = get_benchmark("jacobi")
        _, c1 = compile_bench(bench, "OpenACC", "best")
        _, c2 = compile_bench(bench, "OpenACC", "best")
        assert c1 is c2
        stats = cache_stats()
        assert stats == {"hits": 1, "misses": 1, "entries": 1}

    def test_compile_port_and_compile_bench_share(self):
        _, c1, _ = compile_port("jacobi", "openacc")
        _, c2 = compile_bench(get_benchmark("jacobi"), "OpenACC", "best")
        assert c1 is c2

    def test_variant_is_part_of_key(self):
        bench = get_benchmark("jacobi")
        _, best = compile_bench(bench, "OpenACC", "best")
        _, naive = compile_bench(bench, "OpenACC", "naive")
        assert best is not naive
        assert cache_stats()["entries"] == 2

    def test_unknown_variant_raises_keyerror(self):
        with pytest.raises(KeyError, match="bogus"):
            compile_bench(get_benchmark("jacobi"), "OpenACC", "bogus")


class TestContentAddressing:
    def test_identical_instance_shares_registry_artifact(self):
        """A test subclass whose port is byte-identical to the
        registry's lands on the same artifact — no double compile."""
        _, registry = compile_bench(get_benchmark("jacobi"),
                                    "OpenACC", "best")
        _, instance = compile_bench(_subclass_instance(), "OpenACC", "best")
        assert instance is registry
        assert cache_stats()["entries"] == 1

    def test_divergent_port_gets_its_own_artifact(self):
        _, registry = compile_bench(get_benchmark("jacobi"),
                                    "OpenACC", "best")
        _, instance = compile_bench(
            _subclass_instance(mutate_port=True), "OpenACC", "best")
        assert instance is not registry
        assert cache_stats()["entries"] == 2

    def test_model_is_part_of_key(self):
        bench = get_benchmark("jacobi")
        _, acc = compile_bench(bench, "OpenACC", "best")
        _, pgi = compile_bench(bench, "PGI Accelerator", "best")
        assert acc is not pgi

    def test_key_covers_pass_list(self):
        """The config hash digests the compiler's pass names, so a
        different pipeline cannot alias an existing artifact."""
        from repro.models import get_compiler
        from repro.models.cache import _config_hash

        bench = get_benchmark("jacobi")
        port = bench.port("OpenACC", "best")
        compiler = get_compiler("OpenACC")
        h1 = _config_hash("OpenACC", "best", port, compiler)
        trimmed = get_compiler("OpenACC")
        trimmed.__dict__["_pipeline"] = get_compiler("pgi").pipeline
        h2 = _config_hash("OpenACC", "best", port, trimmed)
        assert h1 != h2


class TestIsolation:
    def test_clear_resets_everything(self):
        compile_port("jacobi", "openacc")
        assert cache_stats()["entries"] == 1
        clear_compile_cache()
        assert cache_stats() == {"hits": 0, "misses": 0, "entries": 0}
        assert not STORE._fast

    def test_clear_invalidates_fast_path(self):
        _, c1, _ = compile_port("jacobi", "openacc")
        clear_compile_cache()
        _, c2, _ = compile_port("jacobi", "openacc")
        assert c1 is not c2

    def test_artifact_carries_pass_records(self):
        """The stored artifact is the full pipeline output — per-pass
        provenance included — not just the kernels."""
        _, compiled, _ = compile_port("jacobi", "openacc")
        for res in compiled.results.values():
            assert res.passes and res.passes[0].name == "intake"
