"""Simulated counters and bottleneck attribution.

Golden values below were produced by the counter derivation itself and
are locked in to catch unintended drift in the underlying analyses
(coalescing rules, occupancy calculator, divergence estimate) — the
same role the committed baseline plays for the timing numbers, but at
unit-test granularity and test scale.
"""

import pytest

from repro.gpusim.timing import KernelTiming
from repro.obs.bottleneck import classify_kernel, classify_run
from repro.obs.counters import KernelCounters
from repro.obs.profile import profile_run


def kernel_counters(profile, name):
    for k in profile.kernels:
        if k.kernel == name:
            return k
    raise AssertionError(
        f"no kernel {name!r} in {[k.kernel for k in profile.kernels]}")


#: (benchmark, model, kernel) -> expected counter subset at test scale
GOLDEN = {
    ("JACOBI", "OpenACC", "jacobi_stencil_k0"): dict(
        gld_transactions=736.0, gst_transactions=184.0,
        gld_efficiency=1.0, gst_efficiency=1.0,
        achieved_occupancy=pytest.approx(1 / 6, abs=1e-4),
        occupancy_limiter="grid", branch_divergence=0.0,
        shared_bank_conflicts=0.0),
    ("JACOBI", "Hand-Written CUDA", "jacobi_stencil_k0"): dict(
        gld_transactions=536.0, gst_transactions=134.0,
        occupancy_limiter="grid",
        # the manual version tiles into shared memory; a 16x16 double
        # tile has 32-word rows -> worst-case 32-way column conflicts
        shared_bank_conflicts=32.0),
    ("SPMUL", "OpenACC", "spmul_spmv_k0"): dict(
        gld_transactions=8484.0, gst_transactions=238.0,
        gld_efficiency=pytest.approx(0.1089, abs=1e-3),
        gst_efficiency=1.0,
        branch_divergence=pytest.approx(0.25, abs=1e-4)),
    ("SPMUL", "Hand-Written CUDA", "spmul_spmv_k0"): dict(
        gld_transactions=5740.0,
        gld_efficiency=pytest.approx(0.122, abs=1e-3),
        achieved_occupancy=pytest.approx(1 / 12, abs=1e-4)),
    ("HOTSPOT", "HMPP", "hotspot_step_ab_k0"): dict(
        gld_transactions=2304.0, gst_transactions=256.0,
        gld_efficiency=1.0, gst_efficiency=1.0,
        occupancy_limiter="regs", shared_bank_conflicts=0.0),
    ("HOTSPOT", "Hand-Written CUDA", "hotspot_step_ab_k0"): dict(
        gld_transactions=2304.0, occupancy_limiter="regs",
        shared_bank_conflicts=32.0),
}

#: expected attribution at test scale
GOLDEN_BOTTLENECKS = {
    ("JACOBI", "OpenACC", "jacobi_stencil_k0"):
        ("latency", "achieved_occupancy"),
    ("SPMUL", "OpenACC", "spmul_spmv_k0"):
        ("latency", "achieved_occupancy"),
    ("HOTSPOT", "HMPP", "hotspot_step_ab_k0"):
        ("memory", "gld_transactions"),
    ("HOTSPOT", "Hand-Written CUDA", "hotspot_step_ab_k0"):
        ("memory", "gld_transactions"),
}


class TestGoldenCounters:
    @pytest.mark.parametrize("bench,model,kernel",
                             sorted({k[:3] for k in GOLDEN}))
    def test_counters(self, bench, model, kernel):
        profile = profile_run(bench, model, scale="test")
        counters = kernel_counters(profile, kernel).counters
        for field, expected in GOLDEN[(bench, model, kernel)].items():
            assert getattr(counters, field) == expected, field

    @pytest.mark.parametrize("bench,model,kernel",
                             sorted(GOLDEN_BOTTLENECKS))
    def test_bottlenecks(self, bench, model, kernel):
        profile = profile_run(bench, model, scale="test")
        b = kernel_counters(profile, kernel).bottleneck
        assert (b.kind, b.dominant_counter) == \
            GOLDEN_BOTTLENECKS[(bench, model, kernel)]

    def test_every_figure1_kernel_gets_a_bottleneck(self):
        # acceptance: every benchmark x model pair names a limiter
        from repro.benchmarks import BENCHMARK_ORDER
        from repro.harness.runner import FIGURE1_MODELS
        for bench in BENCHMARK_ORDER:
            for model in FIGURE1_MODELS:
                profile = profile_run(bench, model, scale="test")
                for k in profile.kernels:
                    assert k.bottleneck.kind in ("memory", "compute",
                                                 "latency")
                    assert k.bottleneck.dominant_counter
                    assert k.counters.occupancy_limiter
                assert profile.run_bound in ("kernel", "transfer")


def _timing(memory_s, compute_s):
    total = max(memory_s, compute_s)
    return KernelTiming(name="k", time_s=total, compute_s=compute_s,
                        memory_s=memory_s, launch_s=0.0, occupancy=0.5,
                        dram_bytes=1e6, flops=1e6,
                        bound="memory" if memory_s >= compute_s
                        else "compute")


def _counters(**overrides):
    base = dict(gld_transactions=100.0, gst_transactions=10.0,
                gld_efficiency=1.0, gst_efficiency=1.0,
                cached_special_transactions=0.0, branch_divergence=0.0,
                shared_bank_conflicts=0.0, achieved_occupancy=0.5,
                occupancy_limiter="threads", latency_hiding=1.0,
                warps=100, flops=1e6, dram_bytes=1e6)
    base.update(overrides)
    return KernelCounters(**base)


class TestClassification:
    def test_memory_bound_names_transactions(self):
        b = classify_kernel(_timing(2e-3, 1e-3), _counters())
        assert (b.kind, b.dominant_counter) == ("memory",
                                                "gld_transactions")

    def test_memory_bound_poor_coalescing_names_efficiency(self):
        b = classify_kernel(_timing(2e-3, 1e-3),
                            _counters(gld_efficiency=0.1))
        assert (b.kind, b.dominant_counter) == ("memory", "gld_efficiency")

    def test_store_side_dominates(self):
        b = classify_kernel(
            _timing(2e-3, 1e-3),
            _counters(gst_transactions=500.0, gst_efficiency=0.2))
        assert (b.kind, b.dominant_counter) == ("memory", "gst_efficiency")

    def test_low_hiding_is_latency_bound(self):
        b = classify_kernel(_timing(2e-3, 1e-3),
                            _counters(latency_hiding=0.1,
                                      achieved_occupancy=0.05,
                                      occupancy_limiter="grid"))
        assert (b.kind, b.dominant_counter) == ("latency",
                                                "achieved_occupancy")
        assert "grid" in b.detail

    def test_compute_bound_divergence(self):
        b = classify_kernel(_timing(1e-3, 2e-3),
                            _counters(branch_divergence=0.6))
        assert (b.kind, b.dominant_counter) == ("compute",
                                                "branch_divergence")

    def test_compute_bound_flops(self):
        b = classify_kernel(_timing(1e-3, 2e-3), _counters())
        assert (b.kind, b.dominant_counter) == ("compute", "flops")

    def test_run_level_transfer_bound(self):
        assert classify_run(1e-3, 2e-3) == "transfer"
        assert classify_run(2e-3, 1e-3) == "kernel"


class TestInstrumentation:
    def test_span_tree_covers_all_layers(self):
        from repro.obs.profile import profile_suite
        from repro.models.cache import clear_compile_cache

        clear_compile_cache()  # compile spans only appear on a cache miss
        profiles, tracer = profile_suite(models=["OpenACC"],
                                         benchmarks=["JACOBI"],
                                         scale="test")
        assert len(profiles) == 1
        cats = {s.category for s in tracer.spans}
        assert {"harness", "harness.unit", "compile", "gpu.launch",
                "gpu.transfer"} <= cats
        launches = tracer.find(category="gpu.launch")
        assert launches and all("gld_transactions" in s.counters
                                for s in launches)
        transfers = tracer.find(category="gpu.transfer")
        assert transfers and all("pcie_bytes" in s.counters
                                 for s in transfers)
        # every launch nests under the bench.run harness span
        runs = tracer.find(name="bench.run", category="harness")
        assert len(runs) == 1
        run_id = runs[0].span_id
        assert all(s.parent_id == run_id for s in launches)
        assert runs[0].attrs["benchmark"] == "JACOBI"
        assert "speedup" in runs[0].attrs

    def test_compile_reject_span_carries_diagnostic(self):
        from repro.obs.tracer import Tracer, tracing
        from repro.models.cache import clear_compile_cache

        clear_compile_cache()
        tracer = Tracer()
        with tracing(tracer):
            # R-Stream rejects most CG regions (non-affine accesses)
            from repro.models import get_compiler
            from repro.benchmarks import get_benchmark
            bench = get_benchmark("SPMUL")
            port = bench.port("R-Stream", "best")
            get_compiler("R-Stream").compile_program(port)
        clear_compile_cache()
        regions = tracer.find(name="compile.region", category="compile")
        assert regions
        rejected = [s for s in regions if s.attrs.get("translated") is False]
        assert rejected, "expected at least one rejected region"
        for s in rejected:
            assert s.attrs["feature"]
            assert s.attrs["rule"].startswith("COV-")
            assert s.attrs["message"]
        accepted = [s for s in regions if s.attrs.get("translated")]
        for s in accepted:
            assert s.attrs["kernels"] >= 1
