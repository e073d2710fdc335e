"""The dataflow framework, the transfer analyses, and the elision pass.

Four layers, tested bottom-up: the generic worklist solver
(``repro.ir.analysis.dataflow``), the region-sequence CFG builder
(``repro.dataflow.cfg``), the verdict/problem report
(``repro.dataflow.report``), and the analysis-guided transfer-elision
pass wired through compilation, execution, lint, and tv.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.benchmarks.registry import get_benchmark
from repro.dataflow.cfg import ALLOC, DTOH, HTOD, build_xfer_cfg
from repro.dataflow.report import analyze_compiled, plan_elisions
from repro.dataflow.suite import xfer_port, xfer_suite
from repro.ir.analysis.dataflow import (BACKWARD, FORWARD, Analysis, Cfg,
                                        DataflowError, Solution,
                                        intersect_join, may_analysis,
                                        pointwise_meet, solve, union_join)
from repro.models.cache import compile_port


# ---------------------------------------------------------------------------
# the generic solver
# ---------------------------------------------------------------------------

class TestCfg:
    def test_empty_rejected(self):
        with pytest.raises(DataflowError):
            Cfg([])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DataflowError):
            Cfg([1, 1])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(DataflowError):
            Cfg([1, 2], [(1, 3)])

    def test_entry_and_exits(self):
        cfg = Cfg([1, 2, 3], [(1, 2), (1, 3)])
        assert cfg.entry == 1
        assert cfg.exits == (2, 3)

    def test_cyclic_graph_exit_falls_back_to_last(self):
        cfg = Cfg([1, 2], [(1, 2), (2, 1)])
        assert cfg.exits == (2,)


def _genkill(gen, kill):
    def transfer(node, state):
        return (state - kill.get(node, frozenset())) \
            | gen.get(node, frozenset())
    return transfer


class TestSolver:
    #: a diamond with a loop on one arm:
    #:     1 -> 2 -> 4,  1 -> 3 -> 4,  3 -> 3
    DIAMOND = Cfg([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4), (3, 3)])

    def test_forward_may_reaches_union(self):
        gen = {2: frozenset("a"), 3: frozenset("b")}
        an = may_analysis(FORWARD, _genkill(gen, {}))
        sol = solve(self.DIAMOND, an)
        assert sol.before(4) == frozenset("ab")

    def test_forward_must_meets_intersection(self):
        gen = {2: frozenset("ab"), 3: frozenset("b")}
        an = Analysis(direction=FORWARD, join=intersect_join,
                      identity=frozenset("ab"), boundary=frozenset(),
                      transfer=_genkill(gen, {}))
        sol = solve(self.DIAMOND, an)
        # only "b" is generated on *every* path into 4
        assert sol.before(4) == frozenset("b")

    def test_backward_liveness_through_branch(self):
        gen = {4: frozenset("x")}
        an = may_analysis(BACKWARD, _genkill(gen, {2: frozenset("x")}))
        sol = solve(self.DIAMOND, an)
        # x is live before 4, killed across 2, live before/after 3
        assert "x" in sol.before(4, BACKWARD)
        assert "x" not in sol.before(2, BACKWARD)
        assert "x" in sol.before(3, BACKWARD)

    def test_before_after_are_program_order(self):
        gen = {1: frozenset("a")}
        an = may_analysis(FORWARD, _genkill(gen, {}))
        sol = solve(Cfg([1, 2], [(1, 2)]), an)
        assert isinstance(sol, Solution)
        assert sol.before(1) == frozenset()
        assert sol.after(1) == frozenset("a")

    def test_boundary_applies_at_entry(self):
        an = may_analysis(FORWARD, lambda n, s: s,
                          boundary=frozenset("q"))
        sol = solve(Cfg([1, 2], [(1, 2)]), an)
        assert sol.before(1) == frozenset("q")
        assert sol.before(2) == frozenset("q")

    def test_unreachable_node_keeps_identity(self):
        gen = {1: frozenset("a")}
        an = may_analysis(FORWARD, _genkill(gen, {}))
        sol = solve(Cfg([1, 2, 9], [(1, 2)]), an)
        assert sol.after(9) == frozenset()

    def test_bad_direction_rejected(self):
        with pytest.raises(DataflowError):
            Analysis(direction="sideways", join=union_join,
                     identity=frozenset(), boundary=frozenset(),
                     transfer=lambda n, s: s)

    def test_bad_worklist_order_rejected(self):
        an = may_analysis(FORWARD, lambda n, s: s)
        with pytest.raises(DataflowError):
            solve(Cfg([1, 2], [(1, 2)]), an, order=[1])

    def test_divergent_transfer_raises_instead_of_spinning(self):
        calls = {"n": 0}

        def fresh_value_every_call(node, state):
            calls["n"] += 1  # an unbounded lattice: never reaches a fixpoint
            return frozenset({calls["n"]})

        an = may_analysis(FORWARD, fresh_value_every_call)
        with pytest.raises(DataflowError, match="fixpoint"):
            solve(Cfg([1, 2], [(1, 2), (2, 1)]), an)

    def test_pointwise_meet_is_logical_and_with_top_identity(self):
        a = {"x": (True, False)}
        b = {"x": (True, True), "y": (False, True)}
        met = pointwise_meet(a, b)
        assert met == {"x": (True, False), "y": (False, True)}


# ---------------------------------------------------------------------------
# the region-sequence CFG builder
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def jacobi_openacc():
    _, compiled, _ = compile_port("jacobi", "OpenACC")
    return compiled


class TestXferCfgBuilder:
    def test_loop_is_peeled_with_back_edge(self, jacobi_openacc):
        xcfg = build_xfer_cfg(jacobi_openacc)
        uids = [n.uid for n in xcfg.nodes]
        # first iteration peeled (x1), steady state carries the rest
        assert "stencil#0" in uids and "stencil#1" in uids
        trips = {n.uid: n.trips for n in xcfg.nodes}
        assert trips["stencil#0"] == 1
        assert trips["stencil#1"] == trips["copyback#1"] > 1
        edges = {(a.uid, b.uid) for a, b in xcfg.cfg.edges}
        assert ("copyback#1", "stencil#1") in edges  # the back edge

    def test_scope_entry_emits_copyin_and_alloc(self, jacobi_openacc):
        xcfg = build_xfer_cfg(jacobi_openacc)
        enter = next(n for n in xcfg.nodes if n.kind == "scope_enter")
        kinds = {(e.kind, e.array, e.origin) for e in enter.events}
        assert (HTOD, "a", "copyin") in kinds
        # "b" is a create array: allocation (zero-filled by the
        # simulated runtime) defines its device copy
        assert (ALLOC, "b", "alloc") in kinds

    def test_scope_exit_and_final_close_the_graph(self, jacobi_openacc):
        xcfg = build_xfer_cfg(jacobi_openacc, outputs=["a"])
        assert xcfg.nodes[-1].kind == "final"
        assert xcfg.outputs == ("a",)
        closer = next(n for n in xcfg.nodes if n.kind == "scope_exit")
        assert (DTOH, "a", "close") in {(e.kind, e.array, e.origin)
                                        for e in closer.events}

    def test_unknown_schedule_region_rejected(self, jacobi_openacc):
        class Step:
            region = "nonesuch"
            times = 1

        with pytest.raises(DataflowError, match="nonesuch"):
            build_xfer_cfg(jacobi_openacc, schedule=[Step()])

    def test_universe_covers_all_event_arrays(self, jacobi_openacc):
        xcfg = build_xfer_cfg(jacobi_openacc)
        touched = {e.array for n in xcfg.nodes for e in n.events}
        assert touched <= xcfg.universe

    def test_node_hash_agrees_with_equality(self, jacobi_openacc):
        nodes = build_xfer_cfg(jacobi_openacc).nodes
        again = build_xfer_cfg(jacobi_openacc).nodes
        assert [hash(n) for n in nodes] == [hash(n) for n in again]
        assert list(nodes) == list(again)
        assert len({hash(n) for n in nodes}) == len(nodes)
        # equality still compares every field: same uid, other events
        node = next(n for n in nodes if n.events)
        assert replace(node, events=()) != node


# ---------------------------------------------------------------------------
# verdicts and coherence problems
# ---------------------------------------------------------------------------

class TestVerdicts:
    def test_steady_state_redundant_copyins_found(self):
        # SPMUL/R-Stream re-ships nrm/y every invocation although the
        # device copy is valid in the steady state — the paper's JACC
        # observation, proved by the must-analysis
        _, compiled, _ = compile_port("spmul", "rstream")
        analysis = analyze_compiled(compiled)
        redundant = {(v.array, v.node)
                     for v in analysis.with_verdict("redundant")}
        assert ("nrm", "scale#0") in redundant
        assert ("y", "scale#0") in redundant
        # every non-required verdict carries a concrete witness
        for v in analysis.verdicts:
            assert v.witness
        assert analysis.coh_errors == ()

    def test_whole_program_dead_copyin_spmul_openmpc(self):
        # the Section III-D2 regression from examples/lint_audit.py:
        # OpenMPC ships y although spmv fully overwrites it before any
        # read.  DATA003 sees it per-scope; the backward live-device
        # analysis must agree at whole-program granularity.
        _, compiled, _ = compile_port("spmul", "openmpc")
        analysis = analyze_compiled(compiled)
        dead = {(v.direction, v.array)
                for v in analysis.with_verdict("dead")}
        assert (HTOD, "y") in dead
        assert analysis.coh_errors == ()

    def test_bfs_host_fallback_needs_update_to(self):
        # the histogram region falls back to host on PGI; its write to
        # hist feeds later device consumers — COH003, warning not error
        _, compiled, _ = compile_port("bfs", "pgi")
        analysis = analyze_compiled(compiled)
        rules = {(p.rule, p.array) for p in analysis.problems}
        assert ("COH003", "hist") in rules
        assert analysis.coh_errors == ()

    def test_shipped_ports_have_no_coherence_errors(self):
        # the CI gate in miniature: a cross-section of models/benchmarks
        for bench, model in [("jacobi", "OpenACC"), ("cg", "rstream"),
                             ("kmeans", "OpenMPC"), ("bfs", "hmpp"),
                             ("srad", "cuda")]:
            rec = xfer_port(bench, model)
            assert rec.analysis.coh_errors == (), (bench, model)

    def test_bytes_accounting_weighs_trips(self):
        rec = xfer_port("spmul", "rstream")
        analysis = rec.analysis
        assert analysis.bytes_total() == sum(
            v.nbytes * v.trips for v in analysis.verdicts)
        assert 0 < analysis.bytes_elidable() < analysis.bytes_total()


class TestXferSuite:
    def test_records_cover_requested_grid(self):
        records = xfer_suite(models=["OpenACC", "rstream"],
                             benchmarks=["jacobi", "spmul"])
        assert [(r.benchmark, r.model) for r in records] == [
            ("JACOBI", "OpenACC"), ("JACOBI", "R-Stream"),
            ("SPMUL", "OpenACC"), ("SPMUL", "R-Stream")]

    def test_to_dict_witnesses_survive_serialization(self):
        rec = xfer_port("spmul", "rstream")
        payload = rec.to_dict()
        assert payload["benchmark"] == "SPMUL"
        assert payload["model"] == "R-Stream"
        assert all(v["witness"] for v in payload["verdicts"])

    def test_rollup_aggregates_by_model(self):
        from repro.metrics.xferstats import (render_xfer_rollup,
                                             xfer_rollup)
        records = xfer_suite(models=["rstream"],
                             benchmarks=["jacobi", "spmul", "cg"])
        rows = xfer_rollup(records)
        assert len(rows) == 1 and rows[0].model == "R-Stream"
        assert rows[0].ports == 3
        assert rows[0].transfers == sum(rows[0].by_verdict.values())
        assert rows[0].coh_errors == 0
        table = render_xfer_rollup(rows)
        assert "R-Stream" in table and "Elidable%" in table


# ---------------------------------------------------------------------------
# the certified transfer-elision pass
# ---------------------------------------------------------------------------

class TestElision:
    def test_plan_defer_implies_skip(self):
        _, compiled, _ = compile_port("spmul", "rstream")
        plan = plan_elisions(compiled)
        assert set(plan.skip_htod) >= {"nrm", "y"}
        assert set(plan.defer_dtoh) <= set(plan.skip_htod)

    def test_clean_port_gets_empty_plan(self):
        _, compiled, _ = compile_port("jacobi", "OpenACC")
        plan = plan_elisions(compiled)
        assert not plan.skip_htod and not plan.defer_dtoh

    def test_elide_flag_changes_artifact_key(self):
        _, default, _ = compile_port("spmul", "rstream")
        _, elide, _ = compile_port("spmul", "rstream", elide=True)
        assert default is not elide
        assert not default.port.elide_transfers
        assert elide.port.elide_transfers
        assert elide.elisions is not None and elide.elisions.skip_htod

    def test_elided_run_validates_and_saves_bytes(self):
        bench = get_benchmark("spmul")
        base = bench.run("R-Stream", scale="test")
        elided = bench.run("R-Stream", scale="test", elide_transfers=True)
        assert base.validated and elided.validated
        for name, ref in base.arrays.items():
            np.testing.assert_allclose(elided.arrays[name], ref)
        assert base.executable.elided_transfers == 0
        assert elided.executable.elided_transfers > 0
        assert elided.executable.elided_bytes > 0

    def test_tv_certificates_unchanged_by_elision(self):
        from repro.tv import CertStatus, validate_port
        default = validate_port("spmul", "rstream")
        elided = validate_port("spmul", "rstream", elide=True)
        assert default.count(CertStatus.REFUTED) == 0
        assert elided.count(CertStatus.REFUTED) == 0
        assert ([c.region for c in default.certificates]
                == [c.region for c in elided.certificates])
        assert (default.count(CertStatus.PROVED)
                == elided.count(CertStatus.PROVED))


# ---------------------------------------------------------------------------
# lint integration (the XFER/COH family)
# ---------------------------------------------------------------------------

class TestLintFamily:
    def test_xfer003_matches_data003_on_spmul(self):
        from repro.lint import lint_port
        report = lint_port("spmul", "openmpc")
        assert any(f.rule == "DATA003" and f.array == "y"
                   for f in report.findings)
        assert any(f.rule == "XFER003" and f.array == "y"
                   for f in report.findings)

    def test_coh_rules_match_report_severities(self):
        from repro.dataflow.report import COH_SEVERITY
        from repro.lint.engine import RULES
        for rule_id, severity in COH_SEVERITY.items():
            assert str(RULES[rule_id].severity) == severity

    def test_github_annotations_encode_findings(self):
        from repro.lint import lint_port
        from repro.lint.findings import github_annotations
        report = lint_port("spmul", "openmpc")
        out = github_annotations(report)
        lines = out.splitlines()
        assert lines and all(l.startswith(("::error", "::warning",
                                           "::notice")) for l in lines)
        assert any("XFER003" in l for l in lines)
        assert not any("\n" in l for l in lines)

    def test_sarif_descriptors_deduplicated_with_help(self):
        from repro.lint.sarif import _sarif_rule
        one = _sarif_rule("COV-NON-AFFINE")
        two = _sarif_rule("COV-NON-AFFINE")
        assert one is two  # memoized, not re-synthesized
        assert "non affine" in one["shortDescription"]["text"]
        assert one["helpUri"].endswith("#cov-model-coverage")
        xfer = _sarif_rule("XFER001")
        assert xfer["helpUri"].endswith("#xfer001")
        assert xfer["fullDescription"]["text"]
