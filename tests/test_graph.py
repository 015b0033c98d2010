"""Data model, STP parsing, and the elementary graph algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_instance, solution_of, tie_heavy_instance
from steinmerge import (
    InfeasibleError,
    ParseError,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    WeightedGraph,
    edge_key,
    parse_stp,
    prune,
    solution_violations,
    write_stp,
)
from steinmerge.graph import minimum_spanning_edges, strip_leaves
from steinmerge.synth import random_connected_instance

STP_HEADER = "33D32945 STP File, STP Format Version 1.0"


def stp_text(body):
    return f"{STP_HEADER}\n{body}\nEOF\n"


SAMPLE = stp_text(
    """
SECTION Comment
Name    "toy"
END

SECTION Graph
Nodes 4
Edges 4
E 1 2 1
E 2 3 1
E 3 4 1
E 1 4 10
END

SECTION Terminals
Terminals 2
T 1
T 4
END
"""
)


class TestWeightedGraph:
    def test_build_normalizes_edges(self):
        g = WeightedGraph.build([0, 1, 2], [(2, 0, 5), (0, 1, 3)])
        assert g.weight(0, 2) == 5
        assert g.weight(1, 0) == 3
        assert g.has_edge(2, 0)
        assert g.n_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            WeightedGraph.build([0], [(0, 0, 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            WeightedGraph.build([0, 1], [(0, 1, -1)])

    def test_weight_beyond_64_bits_rejected(self):
        assert WeightedGraph.build([0, 1], [(0, 1, 2**63 - 1)]).weight(0, 1) == 2**63 - 1
        with pytest.raises(ValidationError, match="exceeds"):
            WeightedGraph.build([0, 1], [(0, 1, 2**63)])

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            WeightedGraph.build([0, 1], [(0, 1, 2), (1, 0, 3)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            WeightedGraph.build([0, 1], [(0, 2, 1)])

    def test_adjacency_sorted(self):
        g = WeightedGraph.build([0, 1, 2, 3], [(3, 1, 1), (1, 0, 1), (1, 2, 1)])
        assert g.adjacency[1] == (0, 2, 3)

    def test_connectivity(self):
        g = WeightedGraph.build([0, 1, 2, 3], [(0, 1, 1), (2, 3, 1)])
        assert not g.is_connected()
        g2 = WeightedGraph.build([0, 1], [(0, 1, 1)])
        assert g2.is_connected()
        # ids need not be dense, as in a union subgraph
        assert WeightedGraph.build([2, 5, 9], [(2, 9, 1), (5, 9, 2)]).is_connected()
        assert not WeightedGraph.build([2, 5, 9], [(2, 9, 1)]).is_connected()
        assert WeightedGraph.build([3], []).is_connected()
        assert not WeightedGraph.build([0, 1], []).is_connected()


class TestInstanceAndSolution:
    def test_create_checks_terminals(self):
        g = WeightedGraph.build([0, 1], [(0, 1, 1)])
        with pytest.raises(ValidationError):
            SteinerInstance.create(g, [])
        with pytest.raises(ValidationError):
            SteinerInstance.create(g, [5])

    @pytest.mark.parametrize("vertices", [(0, 2), (1, 2)])
    def test_create_requires_vertices_zero_to_n_minus_one(self, vertices):
        # a vertex id is its own index in every array view
        g = WeightedGraph.build(vertices, [(*vertices, 1)])
        with pytest.raises(ValidationError, match="0..n-1"):
            SteinerInstance.create(g, vertices)

    def test_create_checks_connected(self):
        g = WeightedGraph.build([0, 1, 2], [(0, 1, 1)])
        with pytest.raises(ValidationError):
            SteinerInstance.create(g, [0, 2])

    def test_solution_weight_cached(self):
        inst = build_instance([(0, 1, 2), (1, 2, 3)], [0, 2])
        sol = solution_of(inst, [(0, 1), (1, 2)])
        assert sol.weight == 5
        assert sol.vertices == {0, 1, 2}
        assert sol.canonical_edges() == ((0, 1), (1, 2))

    def test_violations_catch_cycle(self):
        inst = build_instance(
            [(0, 1, 1), (1, 2, 1), (0, 2, 1)], [0, 1, 2]
        )
        sol = solution_of(inst, [(0, 1), (1, 2), (0, 2)])
        assert any("cycle" in v for v in solution_violations(inst, sol))
        # a cycle plus a separate component has |E| = |V| - 1 like a tree
        inst = build_instance(
            [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1)], [0, 3, 4]
        )
        sol = solution_of(inst, [(0, 1), (1, 2), (0, 2), (3, 4)])
        problems = solution_violations(inst, sol)
        assert sum("closes a cycle" in v for v in problems) == 1
        assert "solution is disconnected" in problems

    def test_violations_catch_missing_terminal(self):
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 2])
        sol = solution_of(inst, [(0, 1)])
        assert any("not spanned" in v for v in solution_violations(inst, sol))

    def test_violations_catch_steiner_leaf(self):
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 1])
        sol = solution_of(inst, [(0, 1), (1, 2)])
        assert any("non-terminal leaf" in v for v in solution_violations(inst, sol))

    def test_violations_name_a_non_edge_and_a_wrong_weight(self):
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 2])
        assert solution_violations(inst, SteinerSolution(frozenset({(0, 2)}), 1)) == [
            "edge (1, 3) not in instance graph"]
        lying = SteinerSolution(frozenset({(0, 1), (1, 2)}), 9)
        assert solution_violations(inst, lying) == ["cached weight 9 != edge total 2"]

    def test_valid_solution_passes(self):
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 2])
        sol = solution_of(inst, [(0, 1), (1, 2)])
        assert solution_violations(inst, sol) == []

    def test_empty_solution_single_terminal_only(self):
        single = build_instance([(0, 1, 1)], [0])
        assert solution_violations(single, SteinerSolution(frozenset(), 0)) == []
        double = build_instance([(0, 1, 1)], [0, 1])
        assert solution_violations(double, SteinerSolution(frozenset(), 0))


class TestStpFormat:
    def test_parse_sample(self):
        inst = parse_stp(SAMPLE)
        assert inst.name == "toy"
        assert inst.graph.n_vertices == 4
        assert inst.graph.n_edges == 4
        assert inst.terminals == {0, 3}
        assert inst.graph.weight(0, 3) == 10

    def test_missing_magic(self):
        with pytest.raises(ParseError):
            parse_stp("SECTION Graph\nEND\nEOF\n")

    def test_missing_eof(self):
        with pytest.raises(ParseError):
            parse_stp(SAMPLE.replace("EOF", ""))

    def test_arc_lines_rejected(self):
        bad = SAMPLE.replace("E 1 2 1", "A 1 2 1")
        with pytest.raises(ParseError):
            parse_stp(bad)

    def test_edge_count_mismatch(self):
        bad = SAMPLE.replace("Edges 4", "Edges 5")
        with pytest.raises(ParseError):
            parse_stp(bad)

    def test_terminal_out_of_range(self):
        bad = SAMPLE.replace("T 4", "T 9")
        with pytest.raises(ParseError, match="out of range"):
            parse_stp(bad)

    @pytest.mark.parametrize(
        "line, bare", [("Nodes 4", "Nodes"), ("Edges 4", "Edges"),
                       ("Terminals 2", "Terminals"), ("T 4", "T")]
    )
    def test_line_without_its_number(self, line, bare):
        with pytest.raises(ParseError, match="missing"):
            parse_stp(SAMPLE.replace(line, bare))

    @pytest.mark.parametrize("line", ["Nodes 4", "Edges 4", "Terminals 2"])
    def test_second_count_line_rejected(self, line):
        # the earlier line's count is wrong and the later one right: neither
        # may silently win
        key = line.split()[0]
        bad = SAMPLE.replace(line, f"{key} 9\n{line}")
        with pytest.raises(ParseError, match=rf"line \d+: second {key} line"):
            parse_stp(bad)

    def test_weight_bound_is_the_largest_signed_64_bit_integer(self):
        top = parse_stp(SAMPLE.replace("E 1 4 10", f"E 1 4 {2**63 - 1}"))
        assert top.graph.weight(0, 3) == 2**63 - 1
        with pytest.raises(ParseError, match=r"weight \d+ on edge \(1, 4\) exceeds"):
            parse_stp(SAMPLE.replace("E 1 4 10", f"E 1 4 {2**63}"))

    def test_huge_node_count_is_rejected_before_allocation(self):
        with pytest.raises(ValidationError, match="cannot connect"):
            parse_stp(SAMPLE.replace("Nodes 4", "Nodes 99999999999999"))

    def test_negative_weight_rejected(self):
        with pytest.raises(ParseError, match=r"^negative weight -1 on edge \(1, 4\)$"):
            parse_stp(SAMPLE.replace("E 1 4 10", "E 1 4 -1"))

    def test_self_loop_dropped(self):
        looped = SAMPLE.replace("Edges 4", "Edges 5").replace("E 1 4 10", "E 1 4 10\nE 2 2 5")
        inst = parse_stp(looped)
        assert inst.graph.weights == parse_stp(SAMPLE).graph.weights

    def test_terminals_section_without_a_terminal(self):
        bad = SAMPLE.replace("Terminals 2\nT 1\nT 4", "Terminals 0")
        with pytest.raises(ValidationError, match="^instance has no terminals$"):
            parse_stp(bad)

    def test_duplicate_edge_keeps_minimum(self):
        body = """
SECTION Graph
Nodes 2
Edges 2
E 1 2 7
E 2 1 3
END
SECTION Terminals
Terminals 2
T 1
T 2
END
"""
        inst = parse_stp(stp_text(body))
        assert inst.graph.weight(0, 1) == 3

    def test_disconnected_graph_is_validation_error(self):
        body = """
SECTION Graph
Nodes 4
Edges 2
E 1 2 1
E 3 4 1
END
SECTION Terminals
Terminals 2
T 1
T 3
END
"""
        with pytest.raises(ValidationError):
            parse_stp(stp_text(body))

    def test_roundtrip(self):
        inst = parse_stp(SAMPLE)
        again = parse_stp(write_stp(inst))
        assert again.graph.weights == inst.graph.weights
        assert again.terminals == inst.terminals
        assert again.name == inst.name

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, seed):
        inst = random_connected_instance(seed, 12, 20, 4)
        again = parse_stp(write_stp(inst))
        assert again.graph.weights == inst.graph.weights
        assert again.terminals == inst.terminals


class TestAlgorithms:
    def test_mst_prefers_light_edges(self):
        g = WeightedGraph.build(
            [0, 1, 2], [(0, 1, 1), (1, 2, 2), (0, 2, 3)]
        )
        ranks = g.edge_ranks
        spare = []
        chosen = minimum_spanning_edges(3, ranks.tail, ranks.head, range(3), spare)
        assert sorted(ranks.edges[r] for r in chosen) == [(0, 1), (1, 2)]
        assert [ranks.edges[r] for r in spare] == [(0, 2)]
        # with the spanning count given, Kruskal stops and the rest is spare
        spare = []
        stopped = minimum_spanning_edges(3, ranks.tail, ranks.head, range(3), spare, 2)
        assert stopped == chosen
        assert spare == [2]

    def test_prune_strips_steiner_leaves(self):
        inst = build_instance(
            [(0, 1, 1), (1, 2, 1), (2, 3, 1)], [0, 2]
        )
        sol = prune(inst, [(0, 1), (1, 2), (2, 3)])
        assert sol.edges == {(0, 1), (1, 2)}
        assert sol.weight == 2

    def test_prune_takes_minimum_forest(self):
        inst = build_instance(
            [(0, 1, 5), (0, 2, 1), (2, 1, 1)], [0, 1]
        )
        sol = prune(inst, [(0, 1), (0, 2), (1, 2)])
        assert sol.weight == 2

    def test_prune_rejects_disconnected_terminals(self):
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 2])
        with pytest.raises(InfeasibleError):
            prune(inst, [(0, 1)])

    def test_prune_rejects_an_edge_outside_the_instance(self):
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 2])
        message = r"^edge \(0, 2\) is not part of the instance graph$"
        with pytest.raises(ValidationError, match=message):
            prune(inst, [(0, 1), (2, 0)])

    def test_prune_empty_for_single_terminal(self):
        inst = build_instance([(0, 1, 1)], [0])
        assert prune(inst, []).weight == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_prune_output_always_valid(self, seed):
        inst = random_connected_instance(seed, 14, 25, 4)
        sol = prune(inst, inst.graph.edges)
        assert solution_violations(inst, sol) == []

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_strip_leaves_is_prune_of_a_forest_below_the_bound(self, seed, data):
        inst = tie_heavy_instance(seed)
        ranks = inst.graph.edge_ranks
        picked = data.draw(st.sets(st.sampled_from(range(len(ranks.edges)))))
        forest = minimum_spanning_edges(
            inst.graph.n_vertices, ranks.tail, ranks.head, sorted(picked)
        )
        try:
            tree = prune(inst, [ranks.edges[r] for r in forest])
        except InfeasibleError:
            assert strip_leaves(inst, forest) is None
            return
        assert strip_leaves(inst, forest) == tree
        assert strip_leaves(inst, forest, tree.weight + 1) == tree
        assert strip_leaves(inst, forest, tree.weight) is None

    def test_edge_key_orders(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)
