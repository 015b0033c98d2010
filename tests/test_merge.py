"""Union selection, the ranking rounds, and the end-to-end merge pipeline."""

import gc
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import (
    build_instance,
    compacted,
    late_union_solves,
    solution_of,
    tie_heavy_instance,
)
from steinmerge import (
    CapacityError,
    DEFAULT_STATE_BUDGET,
    GeneratorConfig,
    MergeConfig,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    WeightedGraph,
    decomposition_from_order,
    dreyfus_wagner,
    generate_pool,
    greedy_degree,
    greedy_steiner_union,
    make_nice,
    parse_stp,
    prune,
    ranking_procedure,
    read_pool,
    run_smh,
    write_pool,
    write_stp,
)
from steinmerge import exact, merge
from steinmerge.exact import tree_states_bound
from steinmerge.generator import SolutionPool, _derive_seed
from steinmerge.merge import RankIteration
from steinmerge.synth import dense_instance, grid_with_holes, sparse_instance, tree_instance
from steinmerge.treewidth import INTRODUCE_EDGE, EliminationOrder


def k4_instance():
    edges = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
    return build_instance(edges, [0, 1, 2, 3])


def star_instance():
    # three terminals around a hub; two rim edges offer a worse bypass
    return build_instance(
        [(0, 3, 1), (1, 3, 1), (2, 3, 1), (0, 1, 3), (1, 2, 3)], [0, 1, 2]
    )


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"final_width": 0},
            {"rank_width": 0},
            {"final_width": 3, "rank_width": 4},
            {"rank_iterations": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            MergeConfig(**kwargs)


class TestGreedyUnion:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            greedy_steiner_union(k4_instance(), [], 2)

    def test_identical_trees_all_join(self):
        inst = star_instance()
        tree = solution_of(inst, [(0, 3), (1, 3), (2, 3)])
        selected, union = greedy_steiner_union(inst, [tree, tree, tree], 1)
        assert selected == (0, 1, 2)
        assert union.width == 1

    def test_first_tree_unconditional(self):
        inst = star_instance()
        tree = solution_of(inst, [(0, 3), (1, 3), (2, 3)])
        # width cap below 1 still admits the seed tree
        selected, _ = greedy_steiner_union(inst, [tree], 0)
        assert selected == (0,)

    def test_cap_blocks_widening_union(self):
        inst = k4_instance()
        t1 = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        t2 = solution_of(inst, [(0, 2), (0, 3), (1, 3)])
        selected, _ = greedy_steiner_union(inst, [t1, t2], 2)
        assert selected == (0,)
        # the rejection was real: the two trees together fill out K4
        assert greedy_degree(inst.graph).width == 3

    def test_cap_three_admits_both(self):
        inst = k4_instance()
        t1 = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        t2 = solution_of(inst, [(0, 2), (0, 3), (1, 3)])
        selected, union = greedy_steiner_union(inst, [t1, t2], 3)
        assert selected == (0, 1)
        assert union.width == 3

    def test_union_keeps_original_weights(self):
        inst = star_instance()
        t1 = solution_of(inst, [(0, 3), (1, 3), (1, 2)])
        t2 = solution_of(inst, [(1, 3), (2, 3), (0, 1)])
        _, union = greedy_steiner_union(inst, [t1, t2], 4)
        for e, w in union.graph.weights.items():
            assert inst.graph.weights[e] == w

    def test_union_includes_all_terminals(self):
        # a single-vertex tree brings no edges, the terminal still shows up
        inst = build_instance([(0, 1, 2)], [0])
        _, union = greedy_steiner_union(inst, [solution_of(inst, [])], 2)
        assert 0 in union.graph.vertices


class TestRanking:
    def test_zero_iterations_mean_raw_weights(self):
        inst = sparse_instance(0, 25, 4)
        pool = generate_pool(inst, GeneratorConfig(pool_size=4, iterations_per_run=2))
        state = ranking_procedure(inst, pool, MergeConfig(rank_iterations=0))
        for i, w in enumerate(pool.weights):
            assert state.z[i] == (w,)
            assert state.f_a[i] == Fraction(w)
        assert state.incumbent is None
        assert state.iterations == ()

    def test_union_optimum_pulls_scores_down(self):
        inst = star_instance()
        pool = SolutionPool([
            solution_of(inst, [(0, 3), (1, 3), (1, 2)]),
            solution_of(inst, [(1, 3), (2, 3), (0, 1)]),
        ])
        assert pool.weights == [5, 5]
        state = ranking_procedure(
            inst, pool, MergeConfig(rank_width=4, final_width=4, rank_iterations=1)
        )
        # both trees joined a union whose optimum is the weight-3 star
        assert state.z == {0: (5, 3), 1: (5, 3)}
        assert state.f_a == {0: Fraction(4), 1: Fraction(4)}
        assert state.incumbent is not None
        assert state.incumbent.weight == 3

    def test_observed_multisets_grow_with_rounds(self):
        inst = sparse_instance(1, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=5, iterations_per_run=2))
        r = 6
        state = ranking_procedure(
            inst, pool, MergeConfig(rank_iterations=r, rank_width=6, final_width=6)
        )
        assert len(state.iterations) == r
        for i, w in enumerate(pool.weights):
            assert 1 <= len(state.z[i]) <= r + 1
            assert state.z[i][0] == w
            assert state.f_a[i] == Fraction(sum(state.z[i]), len(state.z[i]))

    def test_budget_miss_records_skip_not_value(self):
        inst = sparse_instance(2, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=4, iterations_per_run=2))
        state = ranking_procedure(
            inst, pool, MergeConfig(rank_iterations=3), state_budget=1
        )
        assert state.skipped == 3
        assert all(it.value is None for it in state.iterations)
        for i, w in enumerate(pool.weights):
            assert state.z[i] == (w,)

    def test_keep_best_false_drops_incumbent(self):
        inst = star_instance()
        pool = SolutionPool([
            solution_of(inst, [(0, 3), (1, 3), (1, 2)]),
            solution_of(inst, [(1, 3), (2, 3), (0, 1)]),
        ])
        state = ranking_procedure(
            inst,
            pool,
            MergeConfig(rank_width=4, final_width=4, rank_iterations=1, keep_best=False),
        )
        assert state.incumbent is None
        assert state.z[0] == (5, 3)

    def test_replay_determinism(self):
        inst = sparse_instance(3, 35, 6)
        pool = generate_pool(inst, GeneratorConfig(pool_size=5, iterations_per_run=2))
        cfg = MergeConfig(rank_iterations=5, seed=11)
        a = ranking_procedure(inst, pool, cfg)
        b = ranking_procedure(inst, pool, cfg)
        assert a.z == b.z
        assert a.f_a == b.f_a
        assert [(i.index, i.value, i.selected, i.width) for i in a.iterations] == [
            (i.index, i.value, i.selected, i.width) for i in b.iterations
        ]


class TestRunSmh:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            run_smh(k4_instance(), SolutionPool([]), MergeConfig())

    def test_single_tree_pool_is_a_fixed_point(self):
        inst = sparse_instance(4, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=1, iterations_per_run=2))
        report = run_smh(inst, pool, MergeConfig(rank_iterations=2))
        assert report.weight == pool.weights[0]
        assert report.trees_used == 1

    def test_merge_of_a_parsed_instance_builds_no_csr(self):
        # merging prunes over edge ranks, which need the edges alone; only
        # generation and the oracle read the CSR arrays
        base = sparse_instance(5, 120, 20, 4.0)
        cfg = GeneratorConfig(pool_size=6, iterations_per_run=1, perturbation_strength=0.7)
        text = write_pool(generate_pool(base, cfg))
        inst = parse_stp(write_stp(base))
        mcfg = MergeConfig(final_width=2, rank_width=2)
        report = run_smh(inst, read_pool(text, inst), mcfg)
        assert "edge_ranks" in inst.graph.__dict__
        assert "csr" not in inst.graph.__dict__
        # connectivity is checked by Kruskal over the edges, not a DFS
        assert "adjacency" not in inst.graph.__dict__
        assert report.solution == run_smh(base, read_pool(text, base), mcfg).solution

    def test_never_worse_than_pool(self):
        for seed in range(8):
            inst = sparse_instance(seed, 40, 6)
            pool = generate_pool(
                inst, GeneratorConfig(pool_size=5, iterations_per_run=2)
            )
            report = run_smh(inst, pool, MergeConfig(rank_iterations=4))
            assert report.weight <= min(pool.weights)

    def test_star_merge_beats_both_inputs(self):
        inst = star_instance()
        pool = SolutionPool([
            solution_of(inst, [(0, 3), (1, 3), (1, 2)]),
            solution_of(inst, [(1, 3), (2, 3), (0, 1)]),
        ])
        report = run_smh(
            inst, pool, MergeConfig(rank_width=4, final_width=4, rank_iterations=1)
        )
        assert report.weight == 3
        assert report.source == "final-dp"
        assert report.solution.canonical_edges() == ((0, 3), (1, 3), (2, 3))
        assert report.trees_used == 2

    def test_result_is_optimal_within_union(self):
        inst = sparse_instance(5, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=6, iterations_per_run=2))
        report = run_smh(inst, pool, MergeConfig(rank_iterations=3))
        if report.source == "final-dp":
            # restricting to the union can only lose edges, never gain them
            union = set()
            for i in report.ranking.z:
                union |= set(pool.entries[i].edges)
            assert set(report.solution.edges) <= union
        assert report.weight >= dreyfus_wagner(inst).weight

    def test_capacity_fallback_degrades_to_pool(self):
        inst = sparse_instance(6, 35, 6)
        pool = generate_pool(inst, GeneratorConfig(pool_size=4, iterations_per_run=2))
        report = run_smh(
            inst, pool, MergeConfig(rank_iterations=2), state_budget=1
        )
        assert report.capacity_fallback
        assert report.ranking.skipped == 2
        assert report.source == "pool"
        assert report.weight == min(pool.weights)

    def test_expired_deadline_times_out(self):
        inst = sparse_instance(7, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=3, iterations_per_run=2))
        report = run_smh(inst, pool, MergeConfig(rank_iterations=5), deadline=0.0)
        assert report.timed_out
        assert report.ranking.iterations == ()
        assert report.weight == min(pool.weights)
        assert report.source == "pool"

    def test_deadline_passing_during_the_final_pass_times_out(self, monkeypatch):
        # the final DP finishes, but the deadline has passed when the pass
        # ends: the report says so, and keeps the DP's tree
        inst = sparse_instance(7, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=3, iterations_per_run=2))
        cfg = MergeConfig(rank_iterations=0)
        plain = run_smh(inst, pool, cfg)
        late_union_solves(monkeypatch)
        report = run_smh(inst, pool, cfg, deadline=5.0)
        assert report.timed_out
        assert not report.capacity_fallback
        assert (report.solution, report.source) == (plain.solution, plain.source)

    def test_report_bookkeeping(self):
        inst = sparse_instance(8, 30, 5)
        inst_named = inst  # synth names instances; keep whatever it chose
        pool = generate_pool(inst, GeneratorConfig(pool_size=4, iterations_per_run=2))
        report = run_smh(inst_named, pool, MergeConfig(rank_iterations=2))
        assert report.pool_size == len(pool)
        assert report.pool_weights == tuple(pool.weights)
        assert report.weight == report.solution.weight
        assert 1 <= report.trees_used <= len(pool)
        assert report.merge_seconds == report.rank_seconds + report.final_seconds
        assert not report.timed_out

    def test_ranking_and_final_pass_run_with_the_collector_off(self, monkeypatch):
        # the merge makes no reference cycles; a full collection that
        # lands inside it only adds to its time
        inst = sparse_instance(8, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=4, iterations_per_run=2))
        seen = []
        for name in ("ranking_procedure", "greedy_steiner_union"):
            real = getattr(merge, name)

            def spy(*args, _real=real, **kwargs):
                seen.append(gc.isenabled())
                return _real(*args, **kwargs)

            monkeypatch.setattr(merge, name, spy)
        assert gc.isenabled()
        run_smh(inst, pool, MergeConfig(rank_iterations=2))
        assert seen and not any(seen)
        assert gc.isenabled()


def repeating_pool():
    # 5 trees whose 20 ranking rounds at caps 2/2 select only 4 distinct unions
    inst = sparse_instance(4, 120, 20, 4.0)
    cfg = GeneratorConfig(
        pool_size=6, iterations_per_run=1, perturbation_strength=0.7, seed=3
    )
    return inst, generate_pool(inst, cfg)


def spanning_tree(instance, weights):
    """Kruskal spanning tree of the instance graph under ``weights``."""
    root = {v: v for v in instance.graph.vertices}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    edges = []
    for e in sorted(instance.graph.weights, key=weights.get):
        a, b = find(e[0]), find(e[1])
        if a != b:
            root[a] = b
            edges.append(e)
    return edges


def nice_edges(nice):
    """The edge set of the graph a nice decomposition was made from."""
    return frozenset(nd.edge for nd in nice.nodes if nd.kind == INTRODUCE_EDGE)


def count_calls(monkeypatch, name, key):
    """Wrap ``merge.<name>`` so each call appends ``key(args, kwargs)``."""
    seen = []
    real = getattr(merge, name)

    def wrapper(*args, **kwargs):
        seen.append(key(args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(merge, name, wrapper)
    return seen


def outcome(selection):
    """A selection's indices and union edge set, comparable across memos."""
    selected, union = selection
    return selected, union.edges


class TestUnionMemo:
    def test_one_solve_and_one_width_check_per_distinct_key(self, monkeypatch):
        inst, pool = repeating_pool()
        solves = count_calls(
            monkeypatch, "dp_solve", lambda a, k: (nice_edges(a[1]), a[1].nodes)
        )
        checks = count_calls(
            monkeypatch, "greedy_degree_capped",
            lambda a, k: (a[1], frozenset(a[0].weights)),
        )
        cfg = MergeConfig(final_width=2, rank_width=2, seed=3)
        report = run_smh(inst, pool, cfg)
        distinct = {it.selected for it in report.ranking.iterations}
        assert len(report.ranking.iterations) == 20
        assert len(distinct) < 20
        assert solves and checks
        # a union's (edge set, decomposition) is solved once per run_smh
        assert len(solves) == len(set(solves))
        assert len(solves) <= len(distinct) + 1
        # a tentative (cap, union edge set) is width-checked once per run_smh
        assert len(checks) == len(set(checks))
        # a second run starts from an empty memo and repeats the same calls
        before = (list(solves), list(checks))
        again = run_smh(inst, pool, cfg)
        assert (solves[len(before[0]):], checks[len(before[1]):]) == before
        assert again.solution == report.solution

    @pytest.mark.parametrize("final_width, rank_width", [(2, 2), (3, 1)])
    def test_each_union_graph_is_built_at_most_once_per_run(
        self, monkeypatch, final_width, rank_width
    ):
        inst, pool = repeating_pool()
        builds = count_calls(monkeypatch, "WeightedGraph", lambda a, k: frozenset(a[1]))
        checks = count_calls(
            monkeypatch, "greedy_degree_capped", lambda a, k: frozenset(a[0].weights)
        )
        solves = count_calls(monkeypatch, "dp_solve", lambda a, k: nice_edges(a[1]))
        cfg = MergeConfig(final_width=final_width, rank_width=rank_width, seed=3)
        report = run_smh(inst, pool, cfg)
        assert len(report.ranking.iterations) == 20
        assert checks and solves
        # a union's graph is built only for a width check or a solve, and
        # once per edge set however many rounds or caps check or solve it
        assert 0 < len(builds) <= len(checks) + len(solves)
        assert len(builds) == len(set(builds))
        assert set(checks) | set(solves) <= set(builds)
        # the memo is dropped on return: a second run builds them again
        before = list(builds)
        run_smh(inst, pool, cfg)
        assert builds[len(before):] == before

    def test_memo_changes_no_result(self):
        inst, pool = repeating_pool()
        sols = pool.entries
        memo = {}
        for perm in ([0, 1, 2, 3, 4], [4, 2, 0, 1, 3], [0, 1, 2, 3, 4]):
            trees = [sols[p] for p in perm]
            for cap in (1, 2, 3):
                plain = outcome(greedy_steiner_union(inst, trees, cap))
                assert outcome(greedy_steiner_union(inst, trees, cap, memo=memo)) == plain

    def test_accepted_union_answers_every_cap(self, monkeypatch):
        inst = k4_instance()
        t1 = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        t2 = solution_of(inst, [(0, 2), (0, 3), (1, 3)])
        caps = (3, 5, 4, 2, 1, 3)
        plain = [outcome(greedy_steiner_union(inst, [t1, t2], cap)) for cap in caps]
        checks = count_calls(monkeypatch, "greedy_degree_capped", lambda a, k: a[1])
        memo = {}
        got = [outcome(greedy_steiner_union(inst, [t1, t2], cap, memo=memo)) for cap in caps]
        assert got == plain
        # K4 is accepted at cap 3 with width 3; that order answers the
        # caps above and rejects the caps below
        assert checks == [3]
        assert [selected for selected, _ in got] == [(0, 1)] * 3 + [(0,)] * 2 + [(0, 1)]

    def test_rejected_union_answers_every_cap_below_its_breaking_degree(
        self, monkeypatch
    ):
        inst = k4_instance()
        t1 = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        t2 = solution_of(inst, [(0, 2), (0, 3), (1, 3)])
        union = t1.edges | t2.edges
        caps = (1, 0, 2, 1, 3, 2)
        plain = [outcome(greedy_steiner_union(inst, [t1, t2], cap)) for cap in caps]
        checks = count_calls(monkeypatch, "greedy_degree_capped", lambda a, k: a[1])
        memo = {}
        got = [
            outcome(greedy_steiner_union(inst, [t1, t2], cap, memo=memo)) for cap in caps[:4]
        ]
        # every vertex of K4 has degree 3, so cap 1 breaks at degree 3 and
        # that answers caps 0 and 2 as well
        assert memo[union].verdict == EliminationOrder(None, 3)
        assert checks == [1]
        # cap 3 reaches the breaking degree: one more elimination, accepted
        got += [
            outcome(greedy_steiner_union(inst, [t1, t2], cap, memo=memo)) for cap in caps[4:]
        ]
        assert checks == [1, 3]
        assert got == plain
        assert [selected for selected, _ in got] == [(0,)] * 4 + [(0, 1), (0,)]

    def test_one_union_reached_twice_is_one_record(self):
        # two orders, and two selections of one order, give one edge set
        inst = k4_instance()
        t1 = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        t2 = solution_of(inst, [(0, 2), (0, 3), (1, 3)])
        memo = {}
        first = greedy_steiner_union(inst, [t1, t2], 3, memo=memo)
        swapped = greedy_steiner_union(inst, [t2, t1], 3, memo=memo)
        again = greedy_steiner_union(inst, [t1, t2], 3, memo=memo)
        assert first[0] == swapped[0] == again[0] == (0, 1)
        assert swapped[1] is first[1]
        assert again[1] is first[1]
        assert memo[t1.edges | t2.edges] is first[1]
        # a fresh memo makes a record of its own for the same edge set
        assert greedy_steiner_union(inst, [t1, t2], 3)[1] is not first[1]

    def test_repeated_union_of_the_same_trees_builds_no_edge_set(self):
        inst, pool = repeating_pool()
        unions = []

        class CountingEdges(frozenset):
            def __or__(self, other):
                unions.append(None)
                return CountingEdges(frozenset.__or__(self, other))

        trees = [SteinerSolution(CountingEdges(s.edges), s.weight) for s in pool.entries]
        memo = {}
        first = greedy_steiner_union(inst, trees, 2, memo=memo)
        built = len(unions)
        assert built == len(trees) - 1
        # every tentative union of a repeat is answered by the union it
        # extends and the tree it adds, before any edge set is built
        again = greedy_steiner_union(inst, trees, 2, memo=memo)
        assert len(unions) == built
        assert again == first
        assert outcome(again) == outcome(greedy_steiner_union(inst, trees, 2))

    def test_a_dropped_memo_is_freed_without_the_collector(self):
        # a tree whose edges lie inside the union it is tried with must not
        # make that union's record refer to itself
        inst, pool = repeating_pool()
        sols = pool.entries
        gc.collect()
        gc.disable()
        try:
            memo = {}
            for _ in range(2):
                greedy_steiner_union(inst, [sols[0], sols[1], sols[0]], 8, memo=memo)
            del memo
            run_smh(inst, pool, MergeConfig(final_width=3, rank_width=1, seed=3))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_host_and_union_instance_solve_alike(self):
        # zero weights and ties: the host's edge ranks and the union's
        # must order the union's edges the same way for prune to agree
        for seed in range(40):
            inst = tie_heavy_instance(seed, 12, 26, 4)
            rng = random.Random(seed)
            trees = []
            for _ in range(rng.randint(1, 3)):
                weights = {e: rng.random() for e in inst.graph.weights}
                trees.append(prune(inst, spanning_tree(inst, weights)))
            _, union = greedy_steiner_union(inst, trees, 6)
            td = decomposition_from_order(union.graph, union.elimination)
            nice = make_nice(union.graph, td, min(inst.terminals))
            on_host = exact.dp_solve(inst, nice)
            # the union as an instance of its own, relabelled monotonically
            # onto 0..k-1, whose elimination is the same order mapped across
            union_graph, ids = compacted(union.graph)
            label = {v: i for i, v in enumerate(ids)}
            union_instance = SteinerInstance.create(
                union_graph, [label[t] for t in inst.terminals]
            )
            union_order = greedy_degree(union_graph)
            order = union.elimination.order
            assert union_order.order == tuple(label[v] for v in order)
            union_td = decomposition_from_order(union_graph, union_order)
            union_nice = make_nice(union_graph, union_td, label[min(inst.terminals)])
            on_union = exact.dp_solve(union_instance, union_nice)
            back = [(ids[a], ids[b]) for a, b in on_union.edges]
            assert on_host == SteinerSolution.from_edges(inst.graph, back)
            assert on_host == union.solve(1 << 20)

    def test_repeated_capacity_miss_is_skipped_every_round(self, monkeypatch):
        inst, pool = repeating_pool()
        solves = count_calls(monkeypatch, "dp_solve", lambda a, k: a[1].nodes)
        rounds = 8
        state = ranking_procedure(
            inst, pool, MergeConfig(final_width=2, rank_width=2,
                                    rank_iterations=rounds, seed=3),
            state_budget=1,
        )
        distinct = {it.selected for it in state.iterations}
        assert len(distinct) < rounds
        assert len(solves) == len(distinct)
        assert state.skipped == rounds
        assert [it.value for it in state.iterations] == [None] * rounds
        for i, w in enumerate(pool.weights):
            assert state.z[i] == (w,)

    def test_memo_hit_returns_none_again_and_runs_no_second_dp(self, monkeypatch):
        inst, pool = repeating_pool()
        solves = count_calls(monkeypatch, "dp_solve", lambda a, k: k["state_budget"])
        _, union = greedy_steiner_union(inst, pool.entries, 2)
        assert [union.solve(1) for _ in range(2)] == [None, None]
        assert solves == [1]
        assert union.solved == {1: None}


def rounds_solved_afresh(instance, pool, cfg, state_budget):
    """Each ranking round's log entry, its union selected and solved on a fresh memo.

    Also returns how many rounds hit the state budget, and how many unions
    were trees.
    """
    sols = pool.entries
    rounds, misses, trees = [], 0, 0
    for it in range(cfg.rank_iterations):
        rng = random.Random(_derive_seed(cfg.seed, merge._RANK_SALT + it))
        perm = list(range(len(sols)))
        rng.shuffle(perm)
        selected, union = greedy_steiner_union(
            instance, [sols[p] for p in perm], cfg.rank_width, memo={}
        )
        tree = union.solve(state_budget)
        value = None if tree is None else tree.weight
        misses += tree is None
        trees += union.is_tree
        chosen = tuple(sorted(perm[j] for j in selected))
        rounds.append(RankIteration(it, value, chosen, union.width))
    return rounds, misses, trees


class TestSharedMemoAgainstFreshSolves:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: sparse_instance(4, 120, 20, 4.0),
            lambda: grid_with_holes(2, 12, 12),
            lambda: dense_instance(1, 40, 0.15, 10, max_weight=3),
        ],
        ids=["sparse", "grid", "dense"],
    )
    def test_every_round_logs_what_a_fresh_solve_gives(self, make):
        inst = make()
        pool = generate_pool(inst, GeneratorConfig(
            pool_size=8, iterations_per_run=1, perturbation_strength=0.7, seed=3
        ))
        assert len(pool.entries) > 4
        misses = trees = 0
        for cap in (1, 2, 3):
            cfg = MergeConfig(final_width=cap, rank_width=cap, rank_iterations=8, seed=5)
            for budget in (1, 64, DEFAULT_STATE_BUDGET):
                shared = ranking_procedure(inst, pool, cfg, state_budget=budget)
                fresh, missed, tree_unions = rounds_solved_afresh(inst, pool, cfg, budget)
                assert list(shared.iterations) == fresh
                misses += missed
                trees += tree_unions
        # budgets 1 and 64 refuse every DP; at the default budget cap 1
        # unions are trees and wider caps' unions complete their DP
        assert 0 < misses < 72
        assert 0 < trees < 72


def zero_weighted(instance, seed):
    """The instance with every weight redrawn from 0..1."""
    rng = random.Random(seed)
    graph = WeightedGraph.build(
        instance.graph.vertices,
        [(u, v, rng.randint(0, 1)) for u, v in sorted(instance.graph.weights)],
    )
    return SteinerInstance.create(graph, instance.terminals)


def tree_unions():
    """(instance, pool trees) whose union is a tree.

    Lone pruned trees; pruned trees beside a spanning tree that holds them,
    Steiner branches and all, so two trees make the union; random host
    trees, whole; and an instance of one terminal, whose tree has no edges.
    Many weights are zero, so the DP has ties to break.
    """
    cases = []
    for seed in range(12):
        inst = tie_heavy_instance(seed, 12, 26, 4)
        rng = random.Random(seed)
        for host in (inst, zero_weighted(inst, seed)):
            spanning = SteinerSolution.from_edges(
                host.graph,
                spanning_tree(host, {e: rng.random() for e in host.graph.weights}),
            )
            pruned = prune(host, spanning.edges)
            cases += [(host, [pruned]), (host, [pruned, spanning]), (host, [spanning, pruned])]
        tree = tree_instance(seed, 10 + seed, 2 + seed % 4)
        for host in (tree, zero_weighted(tree, seed)):
            cases.append((host, [SteinerSolution.from_edges(host.graph, host.graph.weights)]))
    cases.append((build_instance([(0, 1, 0), (1, 2, 3)], [1]), [SteinerSolution(frozenset(), 0)]))
    return cases


def dp_on_union(instance, union, **kwargs):
    """The DP over the union's decomposition; None when it runs out of states."""
    graph = union.graph
    td = decomposition_from_order(graph, union.elimination)
    nice = make_nice(graph, td, min(instance.terminals))
    try:
        return exact.dp_solve(instance, nice, **kwargs)
    except CapacityError:
        return None


class TestTreeUnion:
    def test_tree_union_gives_the_dp_tree_without_a_dp(self, monkeypatch):
        solves = count_calls(monkeypatch, "dp_solve", lambda a, k: None)
        for inst, trees in tree_unions():
            selected, union = greedy_steiner_union(inst, trees, 1)
            assert len(selected) == len(trees)
            assert union.width == min(len(union.edges), 1)
            got = union.solve(DEFAULT_STATE_BUDGET)
            assert got == dp_on_union(inst, union)
        assert solves == []

    def test_dp_runs_below_the_bound_and_not_from_it(self, monkeypatch):
        solves = count_calls(monkeypatch, "dp_solve", lambda a, k: k["state_budget"])
        for inst, trees in tree_unions()[::5]:
            _, union = greedy_steiner_union(inst, trees, 1)
            bound = tree_states_bound(union.graph.n_vertices)
            # the smallest budget the DP completes within
            lo, hi = 1, bound
            while lo < hi:
                mid = (lo + hi) // 2
                if dp_on_union(inst, union, state_budget=mid) is None:
                    lo = mid + 1
                else:
                    hi = mid
            below = sorted({b for b in (1, 8, 64, lo - 1, lo, bound - 1) if b > 0})
            for budget in below:
                del solves[:]
                got = union.solve(budget)
                assert got == dp_on_union(inst, union, state_budget=budget)
                assert (got is None) == (budget < lo)
                assert solves == [budget]
            for budget in (bound, bound + 1):
                del solves[:]
                got = union.solve(budget)
                assert got == dp_on_union(inst, union, state_budget=budget)
                assert isinstance(got, SteinerSolution)
                assert solves == []

    def test_dp_on_a_tree_union_stays_within_the_bound(self):
        for inst, trees in tree_unions():
            _, union = greedy_steiner_union(inst, trees, 1)
            n = union.graph.n_vertices
            td = decomposition_from_order(union.graph, union.elimination)
            nice = make_nice(union.graph, td, min(inst.terminals))
            stats = []
            exact.dp_solve(inst, nice, state_budget=tree_states_bound(n), stats=stats)
            # the figures the bound is derived from
            assert len(nice.nodes) < 9 * n
            assert max(size for _, _, _, size in stats) <= 40
            assert sum(size for _, _, _, size in stats) + 80 <= tree_states_bound(n)

    def test_lone_tree_is_eliminated_only_when_its_order_is_read(self, monkeypatch):
        # read, it is eliminated once, at a cap no degree reaches, which
        # gives the uncapped elimination
        checks = count_calls(monkeypatch, "greedy_degree_capped", lambda a, k: a[1])
        for inst, trees in tree_unions():
            memo = {}
            selected, union = greedy_steiner_union(inst, trees[:1], 1, memo=memo)
            assert selected == (0,)
            order = greedy_degree(union.graph)
            assert union.width == order.width
            assert checks == []
            assert memo[union.edges].verdict is None
            assert union.elimination == order
            assert memo[union.edges].verdict is union.elimination
            assert checks == [union.n_vertices]
            del checks[:]


def expiring_clock(monkeypatch, reads_left):
    """Make the DP see its deadline pass after ``reads_left`` clock reads."""
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= reads_left else float("inf")

    monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=clock))
    return reads


class TestDeadlineInsideTheDp:
    def test_expiry_ends_ranking_and_is_not_memoized(self, monkeypatch):
        inst, pool = repeating_pool()
        cfg = MergeConfig(final_width=2, rank_width=2, rank_iterations=4, seed=3)
        memo = {}
        far = 1e18  # never reached by the real clock between rounds
        expiring_clock(monkeypatch, 3)
        stopped = ranking_procedure(inst, pool, cfg, deadline=far, memo=memo)
        assert stopped.iterations == ()
        assert stopped.skipped == 0
        assert [u.solved for u in memo.values()] == [{}] * len(memo)
        # with time left, the same memo solves round 0 as a fresh run does
        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=lambda: 0.0))
        resumed = ranking_procedure(inst, pool, cfg, deadline=far, memo=memo)
        assert resumed.iterations[0].value == ranking_procedure(
            inst, pool, cfg
        ).iterations[0].value

    def test_expiry_in_the_final_pass_times_out_to_the_pool(self, monkeypatch):
        inst, pool = repeating_pool()
        expiring_clock(monkeypatch, 3)
        report = run_smh(
            inst, pool, MergeConfig(final_width=2, rank_width=2, rank_iterations=0),
            deadline=1e18,
        )
        assert report.timed_out
        assert not report.capacity_fallback
        assert report.source == "pool"
        assert report.weight == min(pool.weights)
