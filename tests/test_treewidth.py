"""Elimination orders, decompositions, the nice refinement, and .td files."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_instance, compacted, reversed_ids, tie_heavy_instance
from steinmerge import (
    ParseError,
    ValidationError,
    WeightedGraph,
    decomposition_from_order,
    greedy_degree,
    greedy_degree_capped,
    make_nice,
    read_td,
    validate_decomposition,
    validate_nice,
    write_td,
)
from steinmerge import kernels
from steinmerge.synth import (
    clique_instance,
    cycle_instance,
    grid_with_holes,
    random_connected_instance,
)
from steinmerge.treewidth import (
    FORGET,
    EliminationOrder,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    NiceDecomposition,
    NiceNode,
    TreeDecomposition,
)


def path_graph(n):
    return WeightedGraph.build(
        range(n), [(i, i + 1, 1) for i in range(n - 1)]
    )


class TestGreedyDegree:
    def test_single_vertex(self):
        g = WeightedGraph(frozenset([7]), {})
        order = greedy_degree(g)
        assert order.order == (7,)
        assert order.width == 0

    def test_path_width_one(self):
        order = greedy_degree(path_graph(6))
        assert order.width == 1
        assert sorted(order.order) == list(range(6))

    def test_cycle_width_two(self):
        g = cycle_instance(8).graph
        assert greedy_degree(g).width == 2

    def test_clique_width(self):
        g = clique_instance(6).graph
        assert greedy_degree(g).width == 5

    def test_tie_breaks_low_by_default(self):
        # all degrees equal on a cycle, so the order starts at vertex 0
        g = cycle_instance(5).graph
        assert greedy_degree(g).order[0] == 0

    def test_capped_accepts_within_cap(self):
        res = greedy_degree_capped(cycle_instance(10).graph, 2)
        assert not res.exceeded
        assert res.width == 2

    def test_capped_aborts_above_cap(self):
        res = greedy_degree_capped(clique_instance(6).graph, 3)
        assert res.exceeded
        assert res.order is None
        assert res.width > 3
        # the breaking degree: every vertex of K6 has degree 5
        assert res == EliminationOrder(None, 5)

    def test_capped_matches_full_when_within(self):
        g = random_connected_instance(3, 15, 25, 4).graph
        full = greedy_degree(g)
        capped = greedy_degree_capped(g, full.width)
        assert capped.order == full.order
        assert capped.width == full.width

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            greedy_degree_capped(path_graph(3), -1)

    @given(st.integers(0, 100_000), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_uncapped_is_the_elimination_capped_at_n(self, seed, n):
        g = random_connected_instance(seed, n, 3 * n, 2).graph
        full = greedy_degree(g)
        capped = greedy_degree_capped(g, g.n_vertices)
        assert (full.order, full.width, full.bags) == (
            capped.order, capped.width, capped.bags)
        assert not full.exceeded


class TestDecomposition:
    def test_path_decomposition_valid(self):
        g = path_graph(5)
        td = decomposition_from_order(g, greedy_degree(g))
        assert validate_decomposition(g, td) == []
        assert td.width == 1

    def test_order_must_be_permutation(self):
        g = path_graph(3)
        found = greedy_degree(g)
        short = EliminationOrder(found.order[:2], found.width, found.bags, found.masks)
        with pytest.raises(ValidationError, match="permutation"):
            decomposition_from_order(g, short)

    def test_elimination_of_another_graph_rejected(self):
        # same vertices, other edges: its bags would not decompose this graph
        path, star = path_graph(4), WeightedGraph.build(range(4), [(0, i, 1) for i in (1, 2, 3)])
        assert path.vertices == star.vertices
        with pytest.raises(ValidationError, match="another graph"):
            decomposition_from_order(path, greedy_degree(star))
        # an equal graph built apart eliminates the same masks
        again = path_graph(4)
        assert decomposition_from_order(again, greedy_degree(path)) == (
            decomposition_from_order(path, greedy_degree(path)))

    def test_elimination_that_broke_its_cap_rejected(self):
        g = clique_instance(5).graph
        broken = greedy_degree_capped(g, 2)
        assert broken.exceeded
        with pytest.raises(ValidationError, match="broke its cap"):
            decomposition_from_order(g, broken)

    def test_validator_flags_uncovered_edge(self):
        g = path_graph(3)
        td = TreeDecomposition(
            (frozenset([0, 1]), frozenset([2])), ((0, 1),), 1
        )
        # internal edge (1, 2), named by its file ids
        assert any("edge (2, 3)" in v for v in validate_decomposition(g, td))

    def test_validator_flags_missing_vertex(self):
        g = path_graph(3)
        td = TreeDecomposition((frozenset([0, 1]),), (), 1)
        assert any("vertices in no bag" in v for v in validate_decomposition(g, td))

    def test_validator_flags_disconnected_occurrence(self):
        g = path_graph(3)
        td = TreeDecomposition(
            (frozenset([0, 1]), frozenset([1, 2]), frozenset([0, 2])),
            ((0, 1), (1, 2)),
            1,
        )
        problems = validate_decomposition(g, td)
        assert any("not connected" in v for v in problems)

    def test_validator_flags_wrong_width_field(self):
        g = path_graph(3)
        td = decomposition_from_order(g, greedy_degree(g))
        lying = TreeDecomposition(td.bags, td.tree_edges, td.width + 1)
        assert any("width field" in v for v in validate_decomposition(g, lying))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_always_valid(self, seed):
        inst = random_connected_instance(seed, 16, 30, 3)
        # the renamed copy's decomposition breaks degree ties toward high ids
        for g in (inst.graph, reversed_ids(inst).graph):
            td = decomposition_from_order(g, greedy_degree(g))
            assert validate_decomposition(g, td) == []


def reference_validate_decomposition(graph, td):
    """``validate_decomposition`` as first written: conditions 2 and 3 scan
    every bag for each edge and each vertex. Messages use file ids."""
    out = []
    n = len(td.bags)
    if n == 0:
        return ["decomposition has no bags"]
    adj = {i: [] for i in range(n)}
    for i, j in td.tree_edges:
        if not (0 <= i < n and 0 <= j < n):
            out.append(f"tree edge ({i + 1}, {j + 1}) references a missing node")
            continue
        adj[i].append(j)
        adj[j].append(i)
    if len(td.tree_edges) != n - 1:
        out.append(f"{len(td.tree_edges)} tree edges for {n} nodes (not a tree)")
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        out.append("decomposition tree is disconnected")
    covered = set()
    for b in td.bags:
        covered |= b
    if covered != graph.vertices:
        missing = [v + 1 for v in sorted(graph.vertices - covered)]
        extra = [v + 1 for v in sorted(covered - graph.vertices)]
        if missing:
            out.append(f"condition 1: vertices in no bag: {missing}")
        if extra:
            out.append(f"condition 1: bags mention non-vertices: {extra}")
    for u, v in sorted(graph.weights):
        if not any(u in b and v in b for b in td.bags):
            out.append(f"condition 2: edge ({u + 1}, {v + 1}) not inside any bag")
    for v in sorted(graph.vertices):
        nodes = [i for i in range(n) if v in td.bags[i]]
        if not nodes:
            continue
        reach = {nodes[0]}
        stack = [nodes[0]]
        node_set = set(nodes)
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j in node_set and j not in reach:
                    reach.add(j)
                    stack.append(j)
        if len(reach) != len(nodes):
            out.append(f"condition 3: bags containing vertex {v + 1} are not connected")
    true_width = max(len(b) for b in td.bags) - 1
    if td.width != true_width:
        out.append(f"width field {td.width} != largest bag size minus one {true_width}")
    return out


class TestValidatorMatchesReference:
    @given(
        st.integers(0, 100_000),
        st.integers(1, 16),
        st.lists(st.sampled_from(["vertex", "tree-edge", "split"]), max_size=3),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_messages(self, seed, n, corruptions, data):
        extra = data.draw(st.integers(0, 2 * n))
        g = random_connected_instance(seed, n, n - 1 + extra, 1).graph
        td = decomposition_from_order(g, greedy_degree(g))
        bags, edges = list(td.bags), list(td.tree_edges)
        for kind in corruptions:
            if kind == "vertex":
                # drop one vertex from one bag
                i = data.draw(st.integers(0, len(bags) - 1))
                if bags[i]:
                    bags[i] = bags[i] - {data.draw(st.sampled_from(sorted(bags[i])))}
            elif kind == "tree-edge":
                if edges:
                    del edges[data.draw(st.integers(0, len(edges) - 1))]
            else:
                # a new leaf bag holding v, hung off a bag that does not
                v = data.draw(st.sampled_from(sorted(g.vertices)))
                hosts = [i for i, b in enumerate(bags) if v not in b]
                if hosts:
                    edges.append((data.draw(st.sampled_from(hosts)), len(bags)))
                    bags.append(frozenset([v]))
        broken = TreeDecomposition(tuple(bags), tuple(edges), td.width)
        got = validate_decomposition(g, broken)
        assert got == reference_validate_decomposition(g, broken)
        if not corruptions:
            assert got == []


class TestSubgraphWithHoles:
    """A subgraph keeps its host's ids; eliminating it must agree with
    eliminating its compaction onto 0..k-1, mapped back."""

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_as_on_the_compaction(self, seed, data):
        g = tie_heavy_instance(seed).graph
        keep = data.draw(st.sets(st.sampled_from(sorted(g.vertices)), min_size=1))
        sub = WeightedGraph.build(
            keep, [(u, v, w) for (u, v), w in g.weights.items() if u in keep and v in keep]
        )
        dense, ids = compacted(sub)
        # the elimination bitmasks are as wide as the subgraph, not its host
        assert sub.adjacency_masks == (tuple(ids), dense.adjacency_masks[1])

        def back(order):
            return None if order is None else tuple(ids[i] for i in order)

        got = greedy_degree(sub)
        want = greedy_degree(dense)
        assert got == EliminationOrder(back(want.order), want.width)
        for cap in range(1, 5):
            capped = greedy_degree_capped(sub, cap)
            expect = greedy_degree_capped(dense, cap)
            assert (capped.width, capped.order) == (expect.width, back(expect.order))
        td = decomposition_from_order(sub, got)
        want_td = decomposition_from_order(dense, want)
        assert td.bags == tuple(frozenset(back(b)) for b in want_td.bags)
        assert (td.tree_edges, td.width) == (want_td.tree_edges, want_td.width)
        assert validate_decomposition(sub, td) == []


class TestNiceForm:
    def test_single_edge_shape(self):
        inst = build_instance([(0, 1, 3)], [0, 1])
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, 0)
        kinds = [nd.kind for nd in nice.nodes]
        assert kinds == [LEAF, INTRODUCE, INTRODUCE_EDGE, FORGET]
        assert nice.nodes[-1].bag == (0,)
        assert validate_nice(inst.graph, nice) == []

    def test_every_edge_introduced_once(self):
        inst = random_connected_instance(11, 14, 26, 4)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, min(inst.terminals))
        introduced = [nd.edge for nd in nice.nodes if nd.kind == INTRODUCE_EDGE]
        assert sorted(introduced) == sorted(inst.graph.edges)
        assert validate_nice(inst.graph, nice) == []

    def test_width_inflation_at_most_one(self):
        for seed in range(20):
            inst = random_connected_instance(seed, 18, 35, 4)
            td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
            nice = make_nice(inst.graph, td, min(inst.terminals))
            assert nice.width <= td.width + 1

    def test_pinned_vertex_everywhere(self):
        inst = random_connected_instance(5, 12, 20, 3)
        root = min(inst.terminals)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, root)
        assert all(root in nd.bag for nd in nice.nodes)

    def test_root_vertex_must_exist(self):
        inst = build_instance([(0, 1, 1)], [0, 1])
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        with pytest.raises(ValidationError):
            make_nice(inst.graph, td, 99)

    @pytest.mark.parametrize("edge", [(0, 2), (-1, 0)])
    def test_tree_edge_to_a_missing_node_rejected(self, edge):
        # a negative index would wrap round a list to the last node
        g = path_graph(3)
        td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), (edge,), 1)
        with pytest.raises(ValidationError, match="missing node"):
            make_nice(g, td, 0)

    def test_td_missing_an_edge_rejected(self):
        # bags {1,2}, {2,3}, {4} in file ids: no bag holds edge (3, 4), and
        # the pinned root 0 does not close the gap
        g = path_graph(4)
        td = read_td("s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 4\n1 2\n2 3\n")
        assert validate_decomposition(g, td) == [
            "condition 2: edge (3, 4) not inside any bag"]
        with pytest.raises(ValidationError, match=r"^edge \(2, 3\) is covered by no bag$"):
            make_nice(g, td, 0)

    def test_large_chain_no_recursion_blowup(self):
        # a long path produces a decomposition chain far past the default
        # recursion limit; the refinement must stay iterative
        g = path_graph(4000)
        td = decomposition_from_order(g, greedy_degree(g))
        nice = make_nice(g, td, 0)
        assert validate_nice(g, nice) == []

    def test_validator_catches_bad_root(self):
        inst = build_instance([(0, 1, 1)], [0, 1])
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, 0)
        broken = nice.__class__(nice.nodes[:-1], nice.root_vertex, nice.width)
        assert validate_nice(inst.graph, broken)


def _nice_for_mutation():
    inst = random_connected_instance(11, 14, 26, 4)
    td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
    return inst.graph, make_nice(inst.graph, td, min(inst.terminals))


def _first(nodes, kind):
    return next(i for i, nd in enumerate(nodes) if nd.kind == kind)


def _edited(nodes, i, **fields):
    return nodes[:i] + (nodes[i]._replace(**fields),) + nodes[i + 1 :]


def _dropped(nodes, i):
    """``nodes`` without node ``i``, whose parent adopts its one child."""
    (child,) = nodes[i].children
    kept = nodes[:i] + nodes[i + 1 :]
    return tuple(
        nd._replace(
            children=tuple(child if c == i else c - (c > i) for c in nd.children)
        )
        for nd in kept
    )


def _spare_leaf_first(nodes, t0):
    """A leaf nothing refers to, put before every other node."""
    shifted = tuple(nd._replace(children=tuple(c + 1 for c in nd.children)) for nd in nodes)
    return (NiceNode(LEAF, (t0,)),) + shifted


def _mutation(rule, graph, nodes, t0):
    """(the mutated nodes, the message ``rule`` gives for them)."""
    if rule == "no nodes":
        return (), "no nodes"
    if rule == "root bag":
        return _edited(nodes, len(nodes) - 1, bag=()), f"root bag () is not ({t0},)"
    if rule == "pinned vertex":
        i = _first(nodes, INTRODUCE)
        bag = tuple(v for v in nodes[i].bag if v != t0)
        return _edited(nodes, i, bag=bag), f"node {i}: pinned vertex {t0} missing from bag"
    if rule == "non-vertex":
        return _edited(nodes, 0, bag=(t0, 10**6)), "node 0: bag contains non-vertices"
    if rule == "post-order":
        i = _first(nodes, INTRODUCE)
        return _edited(nodes, i, children=(i,)), f"node {i}: child {i} does not precede it"
    if rule == "unknown kind":
        return _edited(nodes, 1, kind="twig"), "node 1: unknown kind 'twig'"
    if rule == "child count":
        i = _first(nodes, INTRODUCE)
        return _edited(nodes, i, kind=LEAF), f"node {i}: {LEAF} has 1 children"
    if rule == "leaf bag":
        i = _first(nodes, INTRODUCE)
        v = nodes[i].vertex
        return _edited(nodes, 0, bag=tuple(sorted((t0, v)))), "node 0: leaf bag"
    if rule == "introduce":
        i = _first(nodes, INTRODUCE)
        return _edited(nodes, i, vertex=t0), f"node {i}: introduce({t0}) bag mismatch"
    if rule == "forget":
        i = _first(nodes, FORGET)
        return _edited(nodes, i, vertex=t0), f"node {i}: forget({t0}) bag mismatch"
    if rule == "edge bag":
        i = _first(nodes, INTRODUCE_EDGE)
        extra = min(graph.vertices - set(nodes[i].bag))
        bag = tuple(sorted(nodes[i].bag + (extra,)))
        return _edited(nodes, i, bag=bag), f"node {i}: edge node changes the bag"
    if rule == "no edge":
        i = _first(nodes, INTRODUCE_EDGE)
        return _edited(nodes, i, edge=None), f"node {i}: edge node without an edge"
    if rule == "non-edge":
        i, e = next(
            (i, (a, b))
            for i, nd in enumerate(nodes)
            if nd.kind == INTRODUCE_EDGE
            for a in nd.bag
            for b in nd.bag
            if a < b and (a, b) not in graph.weights
        )
        return _edited(nodes, i, edge=e), f"node {i}: edge {e} not in the graph"
    if rule == "edge outside the bag":
        i = _first(nodes, INTRODUCE_EDGE)
        e = next(e for e in sorted(graph.weights) if not set(e) <= set(nodes[i].bag))
        return _edited(nodes, i, edge=e), f"node {i}: edge {e} endpoints not in the bag"
    if rule == "join bags":
        i = _first(nodes, JOIN)
        bag = tuple(v for v in nodes[i].bag if v != max(nodes[i].bag))
        c = nodes[i].children[0]
        return _edited(nodes, i, bag=bag), f"node {i}: join child {c} bag differs"
    if rule == "unreachable":
        return _spare_leaf_first(nodes, t0), "node 0 is not reachable from the root"
    if rule == "edge count":
        i = _first(nodes, INTRODUCE_EDGE)
        e = nodes[i].edge
        return _dropped(nodes, i), f"edge {e} introduced 0 times (want exactly 1)"
    raise KeyError(rule)


NICE_RULES = [
    "no nodes",
    "root bag",
    "pinned vertex",
    "non-vertex",
    "post-order",
    "unknown kind",
    "child count",
    "leaf bag",
    "introduce",
    "forget",
    "edge bag",
    "no edge",
    "non-edge",
    "edge outside the bag",
    "join bags",
    "unreachable",
    "edge count",
]


@pytest.mark.parametrize("rule", NICE_RULES)
def test_validate_nice_names_each_broken_rule(rule):
    # one mutation of a valid refinement per rule; its message must appear
    graph, nice = _nice_for_mutation()
    assert validate_nice(graph, nice) == []
    nodes, message = _mutation(rule, graph, nice.nodes, nice.root_vertex)
    broken = NiceDecomposition(nodes, nice.root_vertex, nice.width)
    assert any(line.startswith(message) for line in validate_nice(graph, broken))


class TestTdFormat:
    def test_roundtrip(self):
        g = random_connected_instance(2, 10, 18, 3).graph
        td = decomposition_from_order(g, greedy_degree(g))
        again = read_td(write_td(td, g.n_vertices))
        assert again.bags == td.bags
        assert sorted(again.tree_edges) == sorted(td.tree_edges)
        assert again.width == td.width
        assert validate_decomposition(g, again) == []

    def test_read_requires_solution_line(self):
        with pytest.raises(ParseError):
            read_td("b 1 1 2\n")

    def test_read_skips_comments(self):
        td = read_td("c a comment\ns td 1 2 2\nb 1 1 2\n")
        assert td.bags == (frozenset({0, 1}),)
        assert td.width == 1

    def test_read_bag_id_out_of_range(self):
        with pytest.raises(ParseError):
            read_td("s td 1 2 2\nb 5 1 2\n")

    @pytest.mark.parametrize(
        "text",
        ["s td 1 2 2\nb x 1 2\n", "s td x 2 2\nb 1 1 2\n", "s td 2 2 2\nb\n",
         "s td 2 2 2\nb 1 1\nb 2 2\n1\n", "s td 2 2 2\nb 1 1\nb 2 2\n1 y\n"],
    )
    def test_read_malformed_lines(self, text):
        with pytest.raises(ParseError, match="line"):
            read_td(text)

    @pytest.mark.parametrize(
        "text", ["s td 99999999999999 2 2\n", "s td 3 2 2\nb 1 1 2\n", "s td -1 2 2\n"]
    )
    def test_read_bag_count_must_fit_the_file(self, text):
        # a count the file cannot hold is refused before any bag is built
        with pytest.raises(ParseError, match="bags declared"):
            read_td(text)

    def test_read_repeated_bag_id(self):
        # a second "b 1" would silently replace the first bag
        with pytest.raises(ParseError, match="line 3: bag id 1 given twice"):
            read_td("s td 2 2 2\nb 1 1 2\nb 1 2\nb 2 1\n1 2\n")

    def test_read_second_solution_line(self):
        # a second s-line would re-declare the bag count and drop bags
        with pytest.raises(ParseError, match="line 4: second s-line"):
            read_td("s td 2 2 2\nb 1 1 2\nb 2 2\ns td 1 2 2\n1 2\n")

    def test_read_edge_line_with_extra_field(self):
        # "1 2 3" would be read as the edge (1, 2)
        with pytest.raises(ParseError, match="line 4: edge line needs two bag ids"):
            read_td("s td 2 2 2\nb 1 1 2\nb 2 2\n1 2 3\n")

    def test_header_width_preserved_for_validation(self):
        # a lying header width must survive parsing so validation can flag it
        g = path_graph(2)
        td = read_td("s td 1 2 2\nb 1 1 2\n")
        ok = validate_decomposition(g, td)
        assert ok == []
        lying = read_td("s td 1 3 2\nb 1 1 2\n")
        assert any("width field" in v for v in validate_decomposition(g, lying))


def reference_make_nice(graph, td, root_vertex):
    """``make_nice`` as first written: a sorted copy of the bag per node and,
    per graph edge, a scan of the bags in index order."""
    bags = [frozenset(b) | {root_vertex} for b in td.bags]
    n = len(bags)
    adj = {i: [] for i in range(n)}
    for i, j in td.tree_edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = [-1] * n
    bfs = [0]
    seen = {0}
    for i in bfs:
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                parent[j] = i
                bfs.append(j)
    children = {i: [] for i in range(n)}
    for j in bfs[1:]:
        children[parent[j]].append(j)
    assigned = {i: [] for i in range(n)}
    for u, v in sorted(graph.weights):
        for i in range(n):
            if u in bags[i] and v in bags[i]:
                assigned[i].append((u, v))
                break
    nodes = []

    def emit(kind, bag, ch=(), vertex=-1, edge=None):
        nodes.append(NiceNode(kind, tuple(sorted(bag)), tuple(ch), vertex, edge))
        return len(nodes) - 1

    def adapt(top, from_bag, to_bag):
        cur, bag = top, set(from_bag)
        for v in sorted(from_bag - to_bag):
            bag.discard(v)
            cur = emit(FORGET, bag, (cur,), vertex=v)
        for v in sorted(to_bag - from_bag):
            bag.add(v)
            cur = emit(INTRODUCE, bag, (cur,), vertex=v)
        return cur

    top_of = {}
    for i in reversed(bfs):
        kids = children[i]
        if not kids:
            cur = emit(LEAF, (root_vertex,))
            bag = {root_vertex}
            for v in sorted(bags[i] - {root_vertex}):
                bag.add(v)
                cur = emit(INTRODUCE, bag, (cur,), vertex=v)
        else:
            adapted = [adapt(top_of[c], bags[c], bags[i]) for c in kids]
            cur = adapted[0]
            for a in adapted[1:]:
                cur = emit(JOIN, bags[i], (cur, a))
        for e in assigned[i]:
            cur = emit(INTRODUCE_EDGE, bags[i], (cur,), edge=e)
        top_of[i] = cur
    cur = top_of[0]
    bag = set(bags[0])
    for v in sorted(bags[0] - {root_vertex}):
        bag.discard(v)
        cur = emit(FORGET, bag, (cur,), vertex=v)
    width = max(len(nd.bag) for nd in nodes) - 1
    return NiceDecomposition(tuple(nodes), root_vertex, width)


def relabelled(td, perm):
    """The same decomposition with bag i renumbered to perm[i]."""
    bags = [None] * len(td.bags)
    for i, b in enumerate(td.bags):
        bags[perm[i]] = b
    edges = tuple((perm[i], perm[j]) for i, j in td.tree_edges)
    return TreeDecomposition(tuple(bags), edges, td.width)


class TestNiceMatchesReference:
    @given(
        st.integers(0, 100_000),
        st.integers(1, 18),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_node_sequence(self, seed, n, backwards, data):
        extra = data.draw(st.integers(0, 2 * n))
        inst = random_connected_instance(seed, n, n - 1 + extra, 1)
        if backwards:
            inst = reversed_ids(inst)
        g = inst.graph
        td = decomposition_from_order(g, greedy_degree(g))
        # a renumbering moves node 0, the tree's root, and changes which
        # node is the lowest-index one covering an edge
        perm = data.draw(st.permutations(range(len(td.bags))))
        td = relabelled(td, perm)
        root = data.draw(st.sampled_from(sorted(g.vertices)))
        nice = make_nice(g, td, root)
        assert nice == reference_make_nice(g, td, root)
        assert validate_nice(g, nice) == []
        assert all(type(nd) is NiceNode for nd in nice.nodes)


def identity_family():
    """Fixed synth graphs of 2-40 vertices: random, grid, cycle and clique."""
    for seed in range(100):
        n = 6 + seed % 35
        yield random_connected_instance(seed, n, n - 1 + (seed % 4) * n // 2, 2 + seed % 5)
    for seed in range(4):
        yield grid_with_holes(seed, 6, 7, 0.15, 5)
    for n in range(3, 13):
        yield cycle_instance(n, 3, seed=n)
    for n in range(2, 9):
        yield clique_instance(n, 3, seed=n)


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestIdentityOverAFixedFamily:
    """Elimination and the nice refinement give, digit for digit, what they
    gave before their loops were tightened: sha256 digests recorded then
    over ``identity_family``. Any reordering of a pop, a bag or a node
    changes them."""

    def test_eliminations(self):
        rows = []
        for inst in identity_family():
            _, masks = inst.graph.adjacency_masks
            rows.append([kernels.eliminate(masks, cap) for cap in (len(masks), 2, 3, 6)])
        assert digest(rows) == (
            "a4573d627f2672961f25f3aaac0d3da4def4ca8c7aaa09c5c897b31ab3331a46"
        )

    def test_nice_nodes(self):
        rows = []
        for inst in identity_family():
            g = inst.graph
            td = decomposition_from_order(g, greedy_degree(g))
            for root in (min(inst.terminals), max(inst.terminals)):
                rows.append([tuple(nd) for nd in make_nice(g, td, root).nodes])
        assert digest(rows) == (
            "45b59975a8891df8de76b6e47adbf99bb82947850cdec40b48f6a2d63114c00f"
        )
