"""Union selection, the ranking rounds, and the end-to-end merge pipeline."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import build_instance, solution_of
from steinmerge import (
    CapacityError,
    GeneratorConfig,
    MergeConfig,
    UnionMemo,
    ValidationError,
    dreyfus_wagner,
    generate_pool,
    greedy_degree,
    greedy_steiner_union,
    ranking_procedure,
    run_smh,
)
from steinmerge import exact, merge
from steinmerge.generator import PoolEntry, SolutionPool
from steinmerge.synth import sparse_instance


def pool_of(instance, edge_lists):
    entries = [
        PoolEntry(solution_of(instance, edges), 0, i, 0)
        for i, edges in enumerate(edge_lists)
    ]
    return SolutionPool(entries)


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
        sel = greedy_steiner_union(inst, [tree, tree, tree], 1)
        assert sel.selected == (0, 1, 2)
        assert sel.width == 1

    def test_first_tree_unconditional(self):
        inst = star_instance()
        tree = solution_of(inst, [(0, 3), (1, 3), (2, 3)])
        # width cap below 1 still admits the seed tree
        sel = greedy_steiner_union(inst, [tree], 1)
        assert sel.selected == (0,)

    def test_cap_blocks_widening_union(self):
        inst = k4_instance()
        t1 = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        t2 = solution_of(inst, [(0, 2), (0, 3), (1, 3)])
        sel = greedy_steiner_union(inst, [t1, t2], 2)
        assert sel.selected == (0,)
        # the rejection was real: the two trees together fill out K4
        assert greedy_degree(inst.graph).width == 3

    def test_cap_three_admits_both(self):
        inst = k4_instance()
        t1 = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        t2 = solution_of(inst, [(0, 2), (0, 3), (1, 3)])
        sel = greedy_steiner_union(inst, [t1, t2], 3)
        assert sel.selected == (0, 1)
        assert sel.width == 3

    def test_union_keeps_original_weights(self):
        inst = star_instance()
        t1 = solution_of(inst, [(0, 3), (1, 3), (1, 2)])
        t2 = solution_of(inst, [(1, 3), (2, 3), (0, 1)])
        sel = greedy_steiner_union(inst, [t1, t2], 4)
        for e, w in sel.graph.weights.items():
            assert inst.graph.weights[e] == w

    def test_union_includes_all_terminals(self):
        # a single-vertex tree brings no edges, the terminal still shows up
        inst = build_instance([(0, 1, 2)], [0])
        sel = greedy_steiner_union(inst, [solution_of(inst, [])], 2)
        assert 0 in sel.graph.vertices


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
        pool = pool_of(
            inst, [[(0, 3), (1, 3), (1, 2)], [(1, 3), (2, 3), (0, 1)]]
        )
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
        pool = pool_of(
            inst, [[(0, 3), (1, 3), (1, 2)], [(1, 3), (2, 3), (0, 1)]]
        )
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
        pool = pool_of(
            inst, [[(0, 3), (1, 3), (1, 2)], [(1, 3), (2, 3), (0, 1)]]
        )
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
                union |= set(pool.solutions[i].edges)
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


def repeating_pool():
    # 5 trees whose 20 ranking rounds at caps 2/2 select only 4 distinct unions
    inst = sparse_instance(4, 120, 20, 4.0)
    cfg = GeneratorConfig(
        pool_size=6, iterations_per_run=1, perturbation_strength=0.7, seed=3
    )
    return inst, generate_pool(inst, cfg)


def count_calls(monkeypatch, name, key):
    """Wrap ``merge.<name>`` so each call appends ``key(args, kwargs)``."""
    seen = []
    real = getattr(merge, name)

    def wrapper(*args, **kwargs):
        seen.append(key(args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(merge, name, wrapper)
    return seen


class TestUnionMemo:
    def test_one_solve_and_one_width_check_per_distinct_key(self, monkeypatch):
        inst, pool = repeating_pool()
        solves = count_calls(
            monkeypatch, "dp_solve",
            lambda a, k: (frozenset(a[0].graph.weights), a[1].nodes),
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

    def test_union_graph_is_built_only_to_check_or_solve(self, monkeypatch):
        inst, pool = repeating_pool()
        builds = count_calls(monkeypatch, "_union_graph", lambda a, k: a[1])
        uses = [
            count_calls(monkeypatch, name, lambda a, k: None)
            for name in ("greedy_degree", "greedy_degree_capped", "dp_solve")
        ]
        report = run_smh(inst, pool, MergeConfig(final_width=2, rank_width=2, seed=3))
        assert len(report.ranking.iterations) == 20
        # memo hits read only the selection's edge set, never its graph
        assert len(builds) == sum(map(len, uses))

    def test_memo_changes_no_result(self):
        inst, pool = repeating_pool()
        sols = pool.solutions
        memo = UnionMemo()
        for perm in ([0, 1, 2, 3, 4], [4, 2, 0, 1, 3], [0, 1, 2, 3, 4]):
            trees = [sols[p] for p in perm]
            for cap in (1, 2, 3):
                plain = greedy_steiner_union(inst, trees, cap)
                assert greedy_steiner_union(inst, trees, cap, memo=memo) == plain

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

    def test_memo_hit_raises_a_fresh_capacity_error(self):
        inst, pool = repeating_pool()
        memo = UnionMemo()
        sel = greedy_steiner_union(inst, pool.solutions, 2, memo=memo)
        errors = []
        for _ in range(2):
            with pytest.raises(CapacityError) as info:
                merge._solve_union(inst, sel, 1, memo)
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert errors[0].args == errors[1].args


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
        memo = UnionMemo()
        far = 1e18  # never reached by the real clock between rounds
        expiring_clock(monkeypatch, 3)
        stopped = ranking_procedure(inst, pool, cfg, deadline=far, memo=memo)
        assert stopped.iterations == ()
        assert stopped.skipped == 0
        assert memo.solves == {}
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
