"""Tests for the combined analysis report."""

import pytest

from repro.analysis import analyze, classify
from repro.graph import composed, figure1, figure2, pipeline, tree


class TestClassify:
    def test_tree(self):
        assert classify(tree(2)) == "tree / pipeline (feed-forward)"

    def test_pipeline(self):
        assert classify(pipeline(3)) == "tree / pipeline (feed-forward)"

    def test_reconvergent(self):
        assert classify(figure1()) == "reconvergent feed-forward"

    def test_feedback(self):
        assert classify(figure2()) == "feedback"

    def test_composed(self):
        assert classify(composed()) == \
            "feed-forward combination of self-interacting loops"


class TestAnalyze:
    def test_figure1_report(self):
        report = analyze(figure1())
        assert report.formulas_agree
        assert report.shells == 3
        assert report.relays_full == 3
        assert str(report.simulated_throughput) == "4/5"
        assert report.period == 5

    def test_figure2_report(self):
        report = analyze(figure2())
        assert report.formulas_agree
        assert len(report.loops) == 1
        assert report.critical_cycle

    def test_render_mentions_key_facts(self):
        text = analyze(figure1()).render()
        assert "4/5" in text
        assert "i=1" in text and "m=5" in text
        assert "live" in text

    def test_render_disagreement_would_be_flagged(self):
        report = analyze(pipeline(2))
        assert "[agree]" in report.render()

    def test_variant_named_in_report(self):
        from repro.lid.variant import ProtocolVariant

        report = analyze(pipeline(2), variant=ProtocolVariant.CARLONI)
        assert report.variant == "carloni"


class TestAnalyzeDerivesEachFactOnce:
    """One run to period and one max-flow per candidate pair."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import networkx as nx

        from repro.skeleton.sim import SkeletonSim

        counts = {"run": 0, "max_flow": 0}
        run, max_flow = SkeletonSim.run, nx.node_disjoint_paths

        def counted_run(self, *args, **kwargs):
            counts["run"] += 1
            return run(self, *args, **kwargs)

        def counted_max_flow(*args, **kwargs):
            counts["max_flow"] += 1
            return max_flow(*args, **kwargs)

        monkeypatch.setattr(SkeletonSim, "run", counted_run)
        monkeypatch.setattr(nx, "node_disjoint_paths", counted_max_flow)
        return counts

    @staticmethod
    def candidate_pairs(graph):
        from repro.ir import lower

        low = lower(graph)
        joins = [n.name for n in low.nodes
                 if n.kind == "shell" and len(low.in_edges(n.name)) >= 2]
        return sum(1 for div in low.nodes if div.kind != "sink"
                   for join in joins if join != div.name)

    @pytest.mark.parametrize("spec", ["figure1", "composed", "butterfly",
                                      "gals-ring:rates=1+2/3+3/5,depth=1"])
    def test_non_ambiguous_design(self, spec, calls):
        from repro.graph.specs import parse_topology

        graph = parse_topology(spec)
        analyze(graph)
        assert calls == {"run": 1, "max_flow": self.candidate_pairs(graph)}

    def test_ambiguous_design_adds_only_the_pessimistic_probe(self, calls):
        from repro.graph import ring
        from repro.skeleton.sim import SkeletonSim

        graph = ring(2, relays_per_arc=[["half"], ["half"]])
        assert SkeletonSim(graph)._may_be_ambiguous
        analyze(graph)
        assert calls == {"run": 2, "max_flow": self.candidate_pairs(graph)}

    def test_inconclusive_run_raises_periodicity_timeout(self):
        from repro.errors import PeriodicityTimeout

        with pytest.raises(PeriodicityTimeout,
                           match=r"^figure2: no periodicity within 1 cycles"
                                 r" \(state space larger than expected\)$"):
            analyze(figure2(), max_cycles=1)
