"""Both exact solvers: the decomposition DP and the terminal-subset DP."""

import heapq
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_weight,
    build_instance,
    four_cycle,
    path_distance,
    reversed_ids,
    tie_heavy_instance,
)
from steinmerge import (
    CapacityError,
    DeadlineError,
    InfeasibleError,
    InvariantError,
    SteinerSolution,
    ValidationError,
    WeightedGraph,
    decomposition_from_order,
    dp_solve,
    dreyfus_wagner,
    edge_key,
    greedy_degree,
    make_nice,
    prune,
    solution_violations,
    solve_with_decomposition,
)
from steinmerge import exact, kernels
from steinmerge.exact import DW_TERMINAL_CAP, _bell
from steinmerge.treewidth import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    NiceDecomposition,
)
from steinmerge.synth import random_connected_instance, sparse_instance


def small_instance(seed):
    return random_connected_instance(seed, 12, 22, 4, max_weight=20)


# the kernel that computes each node kind's table; the DP passes each of
# them its deadline as the last positional argument
DP_KERNELS = {
    INTRODUCE: "dp_introduce_vertex",
    INTRODUCE_EDGE: "dp_introduce_edge",
    FORGET: "dp_forget",
    JOIN: "dp_join",
}


def only_kernel_sees_deadline(monkeypatch, name):
    """Run every DP kernel but ``name`` without the deadline the DP passes."""
    for other in DP_KERNELS.values():
        if other != name:
            real = getattr(kernels, other)
            monkeypatch.setattr(kernels, other, lambda *a, _real=real: _real(*a[:-1]))


class TestBellNumbers:
    def test_known_prefix(self):
        assert [_bell(i) for i in range(7)] == [1, 1, 2, 5, 15, 52, 203]


class TestReconstructionCheck:
    """A reconstructed tree that disagrees with the DP value is an error,
    also under ``python -O``."""

    @pytest.mark.parametrize("solver", [solve_with_decomposition, dreyfus_wagner])
    def test_weight_mismatch_raises(self, monkeypatch, solver):
        monkeypatch.setattr(
            exact, "prune", lambda instance, edges: SteinerSolution(frozenset(), -1)
        )
        with pytest.raises(InvariantError, match="DP value"):
            solver(four_cycle())


class TestDreyfusWagner:
    def test_single_terminal_is_empty(self):
        inst = build_instance([(0, 1, 5)], [0])
        sol = dreyfus_wagner(inst)
        assert sol.edges == frozenset()
        assert sol.weight == 0

    def test_two_terminals_take_shortest_path(self):
        # the direct edge is heavier than the two-hop detour
        inst = build_instance([(0, 2, 9), (0, 1, 3), (1, 2, 4)], [0, 2])
        sol = dreyfus_wagner(inst)
        assert sol.weight == 7
        assert sol.vertices == frozenset({0, 1, 2})

    def test_star_uses_the_center(self):
        inst = build_instance(
            [(0, 3, 1), (1, 3, 1), (2, 3, 1), (0, 1, 3), (1, 2, 3)], [0, 1, 2]
        )
        sol = dreyfus_wagner(inst)
        assert sol.weight == 3
        assert 3 in sol.vertices

    def test_four_cycle_value(self):
        # connecting the endpoints of the heavy edge goes the long way round
        sol = dreyfus_wagner(four_cycle(heavy=10))
        assert sol.weight == 3
        assert len(sol.edges) == 3

    def test_four_cycle_prefers_heavy_edge_when_cheap(self):
        sol = dreyfus_wagner(four_cycle(heavy=2))
        assert sol.weight == 2
        assert len(sol.edges) == 1

    def test_terminal_cap(self):
        inst = sparse_instance(0, 40, DW_TERMINAL_CAP + 1)
        with pytest.raises(CapacityError):
            dreyfus_wagner(inst)
        dreyfus_wagner(inst, terminal_cap=DW_TERMINAL_CAP + 1)

    def test_cell_budget_refuses_before_any_row(self, monkeypatch):
        # 6 terminals on 40 vertices: 31 subset rows of 40 cells
        inst = sparse_instance(0, 40, 6)
        expected = reference_dreyfus_wagner(inst)
        searches = []
        real = kernels.dijkstra_multi

        def recording(*args):
            searches.append(None)
            return real(*args)

        monkeypatch.setattr(kernels, "dijkstra_multi", recording)
        monkeypatch.setattr(exact, "DW_CELL_BUDGET", 31 * 40 - 1)
        with pytest.raises(CapacityError, match="31 x 40 cells"):
            dreyfus_wagner(inst)
        assert searches == []
        monkeypatch.setattr(exact, "DW_CELL_BUDGET", 31 * 40)
        assert dreyfus_wagner(inst) == expected
        assert len(searches) == 31

    def test_deadline_stops_between_rows_and_inside_a_split(self, monkeypatch):
        # 4 terminals: rows 1 and 2 are singletons, row 3 has one split
        inst = sparse_instance(0, 30, 4)
        whole = dreyfus_wagner(inst)
        rows = []
        real = kernels.dijkstra_multi

        def recording(*args):
            rows.append(None)
            return real(*args)

        monkeypatch.setattr(kernels, "dijkstra_multi", recording)
        for passed_after, where in ((1, "row 2 of 7"), (3, "row 3 of 7")):
            reads = []

            def clock():
                reads.append(None)
                return 0.0 if len(reads) <= passed_after else 2.0

            monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=clock))
            rows.clear()
            with pytest.raises(DeadlineError, match=where):
                dreyfus_wagner(inst, deadline=1.0)
            # the read after the last one before the deadline stopped it:
            # before row 2, or before row 3's split once row 3 had begun
            assert len(reads) == passed_after + 1
            assert len(rows) == min(passed_after, 2)
        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=lambda: 0.0))
        assert dreyfus_wagner(inst, deadline=1.0) == whole

    def test_matches_exhaustive_search(self):
        for seed in range(25):
            inst = random_connected_instance(seed, 8, 13, 3, max_weight=12)
            assert dreyfus_wagner(inst).weight == brute_force_weight(inst)

    def test_result_is_valid(self):
        for seed in range(10):
            inst = small_instance(seed)
            sol = dreyfus_wagner(inst)
            assert solution_violations(inst, sol) == []


def reference_dreyfus_wagner(instance):
    """``dreyfus_wagner`` before its larger rows went through the kernel:
    those rows run a heap loop of their own, and the singleton rows keep
    their predecessor lists, walked back to the terminal."""
    q = sorted(instance.terminals)
    k = len(q)
    if k == 1:
        return SteinerSolution(frozenset(), 0)

    graph = instance.graph
    indptr, nbr, wts = graph.csr
    n = graph.n_vertices
    base = q[:-1]
    root = q[-1]
    full = (1 << len(base)) - 1
    inf = float("inf")

    tpred = []
    dp = {}
    for i, t in enumerate(base):
        dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, [(0, t)], n)
        dp[1 << i] = dist
        tpred.append(pred)

    back = {}
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        vals = [inf] * n
        bk = array("q", [0]) * n
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                a, b = dp[sub], dp[mask ^ sub]
                for v in range(n):
                    c = a[v] + b[v]
                    if c < vals[v]:
                        vals[v] = c
                        bk[v] = sub
            sub = (sub - 1) & mask
        heap = [(vals[v], v) for v in range(n) if vals[v] < inf]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > vals[v]:
                continue
            for j in range(indptr[v], indptr[v + 1]):
                u = nbr[j]
                c = d + wts[j]
                if c < vals[u]:
                    vals[u] = c
                    bk[u] = -1 - v
                    heapq.heappush(heap, (c, u))
        dp[mask] = vals
        back[mask] = bk

    value = dp[full][root]
    edges = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            i = mask.bit_length() - 1
            src = base[i]
            cur = v
            while cur != src:
                p = tpred[i][cur]
                edges.add(edge_key(cur, p))
                cur = p
            continue
        tag = back[mask][v]
        if tag > 0:
            stack.append((tag, v))
            stack.append((mask ^ tag, v))
        else:
            u = -1 - tag
            edges.add(edge_key(v, u))
            stack.append((mask, u))
    tree = prune(instance, edges)
    assert tree.weight == value
    return tree


class TestDreyfusWagnerRows:
    """Every row through ``kernels.dijkstra_multi`` gives the same trees."""

    def test_same_tree_as_the_reference(self):
        cases = []
        for seed in range(120):
            # weights 0..3: many ties and zero-weight edges; 1 to 6 terminals
            cases.append(tie_heavy_instance(seed, 14, 30, 1 + seed % 6))
        for seed in range(60):
            n = 15 + seed % 40
            cases.append(random_connected_instance(seed, n, n + n // 2, 2 + seed % 5))
        for seed in range(40):
            # dense, weights 1..3
            cases.append(random_connected_instance(seed, 12, 60, 3, max_weight=3))
        for inst in cases:
            assert dreyfus_wagner(inst) == reference_dreyfus_wagner(inst)
        assert {len(inst.terminals) for inst in cases} >= {1, 2}


class TestDpSolve:
    def test_single_terminal_is_empty(self):
        inst = build_instance([(0, 1, 5), (1, 2, 2)], [1])
        sol = solve_with_decomposition(inst)
        assert sol.weight == 0
        assert sol.edges == frozenset()

    def test_two_terminals_take_shortest_path(self):
        inst = build_instance([(0, 2, 9), (0, 1, 3), (1, 2, 4)], [0, 2])
        assert solve_with_decomposition(inst).weight == 7

    def test_two_terminal_weight_is_graph_distance(self):
        for seed in range(10):
            inst = random_connected_instance(seed, 14, 26, 2, max_weight=30)
            a, b = sorted(inst.terminals)
            assert solve_with_decomposition(inst).weight == path_distance(inst, a, b)

    def test_matches_terminal_subset_dp(self):
        for seed in range(30):
            inst = small_instance(seed)
            assert solve_with_decomposition(inst).weight == dreyfus_wagner(inst).weight

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_instances(self, seed):
        inst = random_connected_instance(seed, 11, 19, 4, max_weight=25)
        sol = solve_with_decomposition(inst)
        assert solution_violations(inst, sol) == []
        assert sol.weight == dreyfus_wagner(inst).weight

    def test_value_ignores_decomposition_knobs(self):
        inst = small_instance(3)
        baseline = solve_with_decomposition(inst).weight
        top = inst.graph.n_vertices - 1
        backwards = reversed_ids(inst)
        assert solve_with_decomposition(
            backwards, root_vertex=top - min(inst.terminals)).weight == baseline
        for root in sorted(inst.terminals):
            assert solve_with_decomposition(inst, root_vertex=root).weight == baseline

    def test_value_ignores_elimination_order(self):
        # the renamed copy is eliminated with degree ties broken the other way
        inst = small_instance(4)
        baseline = solve_with_decomposition(inst).weight
        backwards = reversed_ids(inst)
        top = inst.graph.n_vertices - 1
        assert solve_with_decomposition(
            backwards, root_vertex=top - min(inst.terminals)).weight == baseline

    def test_root_must_be_terminal(self):
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 1])
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, 2)
        with pytest.raises(ValidationError):
            dp_solve(inst, nice)

    def test_unknown_node_kind_rejected(self):
        inst = small_instance(2)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, min(inst.terminals))
        nodes = list(nice.nodes)
        nodes[1] = nodes[1]._replace(kind="bogus")
        broken = NiceDecomposition(tuple(nodes), nice.root_vertex, nice.width)
        with pytest.raises(ValidationError, match="^unknown node kind 'bogus'$"):
            dp_solve(inst, broken)

    def test_decomposition_without_a_connecting_edge_is_infeasible(self):
        # the host path 0-1-2 joins its terminals 0 and 2, but the
        # decomposition comes from the subgraph holding edge (0, 1) alone
        inst = build_instance([(0, 1, 1), (1, 2, 1)], [0, 2])
        sub = WeightedGraph.build({0, 1, 2}, [(0, 1, 1)])
        nice = make_nice(sub, decomposition_from_order(sub, greedy_degree(sub)), 0)
        with pytest.raises(
            InfeasibleError, match="^terminals cannot be connected in this graph$"
        ):
            dp_solve(inst, nice)

    def test_state_budget_aborts(self):
        inst = small_instance(5)
        with pytest.raises(CapacityError):
            solve_with_decomposition(inst, state_budget=8)

    def test_budget_error_does_not_corrupt_later_runs(self):
        inst = small_instance(6)
        with pytest.raises(CapacityError):
            solve_with_decomposition(inst, state_budget=8)
        assert solve_with_decomposition(inst).weight == dreyfus_wagner(inst).weight

    def test_deadline_stops_mid_dp(self, monkeypatch):
        inst = small_instance(8)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, min(inst.terminals))
        reads = []

        def clock():
            # time passes the deadline after the fifth node has started
            reads.append(None)
            return 0.0 if len(reads) <= 5 else 2.0

        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=clock))
        # joins read the kernels' clock; it stays before the deadline here
        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 0.0))
        with pytest.raises(DeadlineError):
            dp_solve(inst, nice, deadline=1.0)
        # one clock read per node: the sixth node saw the deadline pass
        assert len(reads) == 6 < len(nice.nodes)
        # a deadline that never passes changes nothing
        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=lambda: 0.0))
        assert dp_solve(inst, nice, deadline=1.0) == dp_solve(inst, nice)

    def test_deadline_stops_inside_a_join(self, monkeypatch):
        inst = small_instance(8)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, min(inst.terminals))
        joins = []
        real_join = kernels.dp_join

        def recording(left, right, parts, deadline=None):
            joins.append((left, right, parts))
            return real_join(left, right, parts, deadline)

        monkeypatch.setattr(kernels, "dp_join", recording)
        whole = dp_solve(inst, nice)
        left, right, parts = max(joins, key=lambda join: len(join[0]))
        assert len(left) > 3
        reads = []

        def clock():
            # the deadline passes after the third left state
            reads.append(None)
            return 0.0 if len(reads) <= 3 else 2.0

        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=clock))
        assert real_join(left, right, parts, 1.0) is None
        assert len(reads) == 4
        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 0.0))
        assert real_join(left, right, parts, 1.0) == real_join(left, right, parts)
        # in the DP, with only the joins given the deadline: the nodes' own
        # checks never see it pass, the first join does
        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=lambda: 0.0))
        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 2.0))
        only_kernel_sees_deadline(monkeypatch, "dp_join")
        with pytest.raises(DeadlineError, match="node") as info:
            dp_solve(inst, nice, deadline=1.0)
        idx = int(str(info.value).rsplit(" ", 1)[1])
        assert nice.nodes[idx].kind == JOIN
        assert idx == min(i for i, nd in enumerate(nice.nodes) if nd.kind == JOIN)
        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 0.0))
        assert dp_solve(inst, nice, deadline=1.0) == whole

    @pytest.mark.parametrize("kind", [INTRODUCE, INTRODUCE_EDGE, FORGET])
    def test_deadline_stops_inside_each_other_kernel(self, monkeypatch, kind):
        inst = small_instance(8)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, min(inst.terminals))
        name = DP_KERNELS[kind]
        real = getattr(kernels, name)
        calls = []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, name, recording)
        whole = dp_solve(inst, nice)
        monkeypatch.setattr(kernels, name, real)
        # the call with the largest input table, without its deadline
        args = max(calls, key=lambda a: len(a[0]))[:-1]
        assert len(args[0]) > 3
        reads = []

        def clock():
            # the deadline passes after the third input state
            reads.append(None)
            return 0.0 if len(reads) <= 3 else 2.0

        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=clock))
        assert real(*args, 1.0) is None
        assert len(reads) == 4
        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 0.0))
        assert real(*args, 1.0) == real(*args)
        # in the DP, with only this kernel given the deadline: the first
        # node of its kind stops, and the error names that node
        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=lambda: 0.0))
        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 2.0))
        only_kernel_sees_deadline(monkeypatch, name)
        with pytest.raises(DeadlineError, match="node") as info:
            dp_solve(inst, nice, deadline=1.0)
        idx = int(str(info.value).rsplit(" ", 1)[1])
        assert idx == min(i for i, nd in enumerate(nice.nodes) if nd.kind == kind)
        monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 0.0))
        assert dp_solve(inst, nice, deadline=1.0) == whole

    def test_stats_rows(self):
        inst = small_instance(7)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        nice = make_nice(inst.graph, td, min(inst.terminals))
        stats = []
        dp_solve(inst, nice, stats=stats)
        assert len(stats) == len(nice.nodes)
        for idx, kind, bag_size, table_size in stats:
            assert nice.nodes[idx].kind == kind
            assert table_size <= (1 << bag_size) * _bell(bag_size)


def reference_budget_needs(instance, nice):
    """Per node, the smallest state budget that lets the DP get past it.

    Before a transform, stored states plus the most it can emit (twice the
    child for an introduce, the child for a forget, the mask-matching pairs
    for a join) must fit; after it, the stored total must.
    """
    tables = []
    parts = kernels.Partitions()
    stored = 0
    needs = []
    for nd in nice.nodes:
        child = [tables[c] for c in nd.children]
        if nd.kind == LEAF:
            predicted, table = 0, kernels.dp_leaf()
        elif nd.kind == INTRODUCE:
            predicted = 2 * len(child[0])
            table = kernels.dp_introduce_vertex(
                child[0], nd.bag.index(nd.vertex), nd.vertex in instance.terminals, parts
            )
        elif nd.kind == INTRODUCE_EDGE:
            u, v = nd.edge
            predicted = 2 * len(child[0])
            table = kernels.dp_introduce_edge(
                child[0], nd.bag.index(u), nd.bag.index(v), instance.graph.weight(u, v),
                parts,
            )
        elif nd.kind == FORGET:
            predicted = len(child[0])
            table = kernels.dp_forget(
                child[0], nice.nodes[nd.children[0]].bag.index(nd.vertex), parts
            )
        else:
            left, right = child
            predicted = sum(1 for a in left for b in right if a[0] == b[0])
            table = kernels.dp_join(left, right, parts)
        needs.append(max(stored + predicted, stored + len(table)))
        stored += len(table)
        tables.append(table)
    return needs


class TestStateBudgetRules:
    def test_dp_stops_where_the_rules_say(self):
        for seed in range(4):
            inst = random_connected_instance(seed, 12, 22, 4, max_weight=3)
            td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
            nice = make_nice(inst.graph, td, min(inst.terminals))
            needs = reference_budget_needs(inst, nice)
            # the first node of each kind to need more than the nodes
            # before it, tried one state short of its need and at it
            firsts = {}
            for idx, nd in enumerate(nice.nodes):
                if needs[idx] > max(needs[:idx], default=0):
                    firsts.setdefault(nd.kind, idx)
            assert JOIN in firsts
            for idx in firsts.values():
                for budget in (needs[idx] - 1, needs[idx]):
                    stop = next((i for i, n in enumerate(needs) if n > budget), None)
                    stats = []
                    if stop is None:
                        dp_solve(inst, nice, state_budget=budget, stats=stats)
                        assert len(stats) == len(nice.nodes)
                        continue
                    with pytest.raises(CapacityError) as info:
                        dp_solve(inst, nice, state_budget=budget, stats=stats)
                    assert str(info.value) == (
                        f"dynamic program needs more than {budget} states"
                    )
                    # a node's row is written only once both checks passed
                    assert len(stats) == stop
