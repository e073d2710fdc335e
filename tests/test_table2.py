"""Table II reproduction: coverage and code-size match the paper."""

import pytest

from repro.harness.runner import run_evaluation

#: the paper's Table II
PAPER_COVERAGE = {
    "PGI Accelerator": (57, 58),
    "OpenACC": (57, 58),
    "HMPP": (57, 58),
    "OpenMPC": (58, 58),
    "R-Stream": (22, 58),
}

PAPER_CODESIZE = {
    "PGI Accelerator": 18.2,
    "OpenACC": 18.0,
    "HMPP": 18.5,
    "OpenMPC": 5.2,
    "R-Stream": 9.5,
}


@pytest.fixture(scope="module")
def results():
    return run_evaluation(coverage=True)[0]


class TestCoverage:
    @pytest.mark.parametrize("model", sorted(PAPER_COVERAGE))
    def test_coverage_matches_paper_exactly(self, results, model):
        translated, total = PAPER_COVERAGE[model]
        cov = results.coverage[model]
        assert cov.total == total
        assert cov.translated == translated

    def test_single_failure_is_bfs_histogram(self, results):
        for model in ("PGI Accelerator", "OpenACC", "HMPP"):
            assert results.coverage[model].failures == [
                ("bfs", "level_histogram",
                 results.coverage[model].failures[0][2])]

    def test_openmpc_translates_everything(self, results):
        assert results.coverage["OpenMPC"].failures == []

    def test_rstream_failures_are_analysis_driven(self, results):
        features = {f[2] for f in results.coverage["R-Stream"].failures}
        assert features <= {"non-affine", "no-provable-parallelism",
                            "pointer-based-allocation",
                            "mapping-complexity"}


class TestCodeSize:
    @pytest.mark.parametrize("model", sorted(PAPER_CODESIZE))
    def test_average_within_half_percent(self, results, model):
        measured = results.codesize[model].average_percent
        assert measured == pytest.approx(PAPER_CODESIZE[model], abs=0.5)

    def test_openmpc_is_cheapest(self, results):
        avg = {m: r.average_percent for m, r in results.codesize.items()}
        assert avg["OpenMPC"] == min(avg.values())

    def test_pgi_openacc_hmpp_similar(self, results):
        avg = {m: r.average_percent for m, r in results.codesize.items()}
        trio = [avg["PGI Accelerator"], avg["OpenACC"], avg["HMPP"]]
        assert max(trio) - min(trio) < 1.0
