"""Pool generation: construction heuristic, local search, runs, pool files."""

import hashlib
import os
import random
import time
from collections import Counter
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_instance,
    four_cycle,
    in_process_pool,
    solution_of,
    tie_heavy_instance,
)
from steinmerge import (
    GeneratorConfig,
    InfeasibleError,
    InvariantError,
    ParseError,
    ValidationError,
    dreyfus_wagner,
    edge_key,
    generate_pool,
    kernels,
    local_search,
    prune,
    read_pool,
    solution_violations,
    sph_construct,
    write_pool,
)
from steinmerge import generator
from steinmerge.graph import strip_leaves
from steinmerge.generator import (
    Optima,
    _cheapest_reconnect,
    _PassForest,
    _derive_seed,
    _ExchangeCheck,
    _insertion_candidates,
)
from steinmerge.synth import (
    dense_instance,
    grid_with_holes,
    random_connected_instance,
    sparse_instance,
)


def rng_for(seed=0):
    return random.Random(seed)


class TestDerivedSeeds:
    def test_deterministic(self):
        assert _derive_seed(42, 3) == _derive_seed(42, 3)

    def test_runs_get_distinct_streams(self):
        seeds = {_derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_fits_in_64_bits(self):
        for i in range(100):
            assert 0 <= _derive_seed(2**63, i) < 2**64


class TestConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert (cfg.pool_size, cfg.iterations_per_run) == (16, 8)
        assert cfg.perturbation_strength == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pool_size": 0},
            {"iterations_per_run": 0},
            {"perturbation_strength": -0.1},
            {"perturbation_strength": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            GeneratorConfig(**kwargs)


class TestConstruction:
    def test_path_instance_exact(self):
        inst = build_instance(
            [(0, 1, 2), (1, 2, 3), (2, 3, 1)], [0, 3]
        )
        sol = sph_construct(inst, None, 0, rng_for())
        assert sol.weight == 6

    def test_single_terminal(self):
        inst = build_instance([(0, 1, 4)], [0])
        sol = sph_construct(inst, None, 0, rng_for())
        assert sol.edges == frozenset()

    def test_start_must_be_terminal(self):
        inst = build_instance([(0, 1, 4), (1, 2, 4)], [0, 2])
        with pytest.raises(ValidationError):
            sph_construct(inst, None, 1, rng_for())

    def test_output_is_valid_tree(self):
        for seed in range(15):
            inst = random_connected_instance(seed, 20, 40, 5, max_weight=50)
            start = min(inst.terminals)
            sol = sph_construct(inst, None, start, rng_for(seed))
            assert solution_violations(inst, sol) == []

    def test_within_twice_optimal(self):
        # the classic guarantee for path-joining construction
        for seed in range(20):
            inst = random_connected_instance(seed, 16, 32, 5, max_weight=40)
            opt = dreyfus_wagner(inst).weight
            sol = sph_construct(inst, None, min(inst.terminals), rng_for(seed))
            assert sol.weight <= 2 * opt

    def test_respects_perturbed_weights(self):
        # under inflated weight for the cheap edge, construction takes the
        # other route; reported weight still uses the originals
        inst = build_instance([(0, 1, 2), (0, 2, 3), (1, 2, 4)], [1, 2])
        fake = {(1, 2): 100.0, (0, 1): 1.0, (0, 2): 1.0}
        adj = inst.graph.adjacency
        per_slot = [fake[edge_key(v, u)] for v in range(3) for u in adj[v]]
        sol = sph_construct(inst, per_slot, 1, rng_for())
        assert sol.edges == frozenset({(0, 1), (0, 2)})
        assert sol.weight == 5

    @given(
        st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from([0.0, 0.2, 0.5, 0.99])
    )
    @settings(max_examples=100, deadline=None)
    def test_perturbed_weights_match_the_edge_dict(self, seed, draw, strength):
        # one draw per edge in sorted edge-key order, looked up per CSR slot
        # through a dict: the same floats, bit for bit, and the same rng state
        inst = random_connected_instance(seed, 25, 60, 5, max_weight=1000)
        adj = inst.graph.adjacency
        ref_rng, rng = rng_for(draw), rng_for(draw)
        ref = None
        if strength:
            drawn = {
                e: w * (1.0 + ref_rng.random() * strength)
                for e, w in sorted(inst.graph.weights.items())
            }
            ref = [drawn[edge_key(v, u)].hex() for v in range(25) for u in adj[v]]
        got = generator._perturbed_weights(inst, strength, rng)
        assert (got and [w.hex() for w in got]) == ref
        assert rng.getstate() == ref_rng.getstate()


class TestLocalSearch:
    def test_never_increases_weight(self):
        for seed in range(15):
            inst = random_connected_instance(seed, 18, 36, 5, max_weight=30)
            rng = rng_for(seed)
            start = sph_construct(inst, None, min(inst.terminals), rng)
            improved = local_search(inst, start, rng)
            assert improved.weight <= start.weight
            assert solution_violations(inst, improved) == []

    def test_optimal_tree_is_fixed_point(self):
        for seed in range(10):
            inst = random_connected_instance(seed, 12, 22, 4, max_weight=25)
            opt = dreyfus_wagner(inst)
            assert local_search(inst, opt, rng_for(seed)).weight == opt.weight

    def test_escapes_heavy_edge_on_cycle(self):
        # the edge swap walks off the single heavy edge onto the cheap rim
        inst = four_cycle(heavy=10)
        start = solution_of(inst, [(0, 3)])
        assert start.weight == 10
        assert local_search(inst, start, rng_for()).weight == 3

    def test_removes_useless_steiner_vertex(self):
        # terminals 0,2 joined through 1 (cost 8) when a direct edge costs 5
        inst = build_instance([(0, 1, 4), (1, 2, 4), (0, 2, 5)], [0, 2])
        start = solution_of(inst, [(0, 1), (1, 2)])
        assert local_search(inst, start, rng_for()).weight == 5

    def test_expired_deadline_returns_a_valid_tree(self):
        # the start tree is not a local optimum, so only the deadline
        # keeps the descent from moving
        inst = four_cycle(heavy=10)
        start = solution_of(inst, [(0, 3)])
        assert local_search(inst, start, rng_for()).weight < start.weight
        out = local_search(inst, start, rng_for(), deadline=time.monotonic() - 1.0)
        assert out.weight <= start.weight
        assert solution_violations(inst, out) == []
        assert out == start

    def test_exchange_path_is_searched_from_the_first_endpoint(self):
        # dropping (1, 2) leaves halves {0, 1} and {2, 3}, and two paths of
        # cost 3 rejoin them; searched from 1's half, the tie goes to the
        # lower vertex 2 of the other half, so 1-6-7-2 comes in. Searched
        # from 2's half it would be 3-5-4-0, and the result would weigh 3
        inst = build_instance(
            [(0, 1, 1), (1, 2, 10), (2, 3, 1), (0, 4, 1), (4, 5, 1), (5, 3, 1),
             (1, 6, 1), (6, 7, 1), (7, 2, 1)],
            [0, 3],
        )
        start = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        out = local_search(inst, start, rng_for())
        assert out == solution_of(inst, [(0, 1), (1, 6), (6, 7), (2, 7), (2, 3)])

    def test_inserts_profitable_steiner_vertex(self):
        # star center 3 beats the rim path connecting the three terminals
        inst = build_instance(
            [(0, 3, 1), (1, 3, 1), (2, 3, 1), (0, 1, 3), (1, 2, 3)], [0, 1, 2]
        )
        start = solution_of(inst, [(0, 1), (1, 2)])
        assert local_search(inst, start, rng_for()).weight == 3


class TestCertifiedOptima:
    """``local_search``'s memo of certified local optima: same trees, same draws."""

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_memo_changes_no_tree_and_no_draw(self, seed, draw):
        inst = tie_heavy_instance(seed)
        rng = rng_for(draw)
        starts = [
            sph_construct(inst, generator._perturbed_weights(inst, 0.5, rng), t, rng)
            for t in sorted(inst.terminals)
        ]

        def descend(start, i, memo):
            rng = rng_for(draw + i)
            return local_search(inst, start, rng, memo=memo), rng.getstate()

        warm = Optima()
        plain = []
        for i, start in enumerate(starts):
            plain.append(descend(start, i, None))
            assert descend(start, i, Optima()) == plain[i]
            assert descend(start, i, warm) == plain[i]
        # now every descent ends at a remembered tree
        for i, start in enumerate(starts):
            assert descend(start, i, warm) == plain[i]
        assert set(warm.optima) == {tree.edges for tree, _ in plain}

    def test_a_certified_tree_needs_no_move_checks(self, monkeypatch):
        inst = grid_with_holes(3, 8, 8)
        start = sph_construct(inst, None, min(inst.terminals), rng_for())
        calls = Counter()

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in ("_PassForest", "_ExchangeCheck"):
            monkeypatch.setattr(generator, name, counting(name, getattr(generator, name)))
        memo = Optima()
        best = local_search(inst, start, rng_for(), memo=memo)
        assert list(memo.optima) == [best.edges]
        assert min(calls.values()) > 0 and len(calls) == 2
        calls.clear()
        rng = rng_for(1)
        assert local_search(inst, best, rng, memo=memo) == best
        assert calls == Counter()
        plain = rng_for(1)
        local_search(inst, best, plain)
        assert rng.getstate() == plain.getstate()

    @pytest.mark.parametrize(
        "edges, terminals, tree",
        [
            # cut while inserting: 3 is a candidate with three tree neighbours
            ([(0, 3, 1), (1, 3, 1), (2, 3, 1), (0, 1, 3), (1, 2, 3)], [0, 1, 2],
             [(0, 1), (1, 2)]),
            # cut while deleting: no candidate, 1 is removable
            ([(0, 1, 4), (1, 2, 4), (0, 2, 5)], [0, 2], [(0, 1), (1, 2)]),
            # cut while exchanging: no candidate, nothing removable
            ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)], [0, 3], [(0, 3)]),
        ],
        ids=["insertion", "deletion", "exchange"],
    )
    def test_a_pass_cut_by_the_deadline_records_nothing(self, edges, terminals, tree):
        inst = build_instance(edges, terminals)
        start = solution_of(inst, tree)
        memo = Optima()
        out = local_search(
            inst, start, rng_for(), deadline=time.monotonic() - 1.0, memo=memo
        )
        assert out == start
        assert memo.optima == {}
        local_search(inst, start, rng_for(), memo=memo)
        assert memo.optima

    def test_runs_share_one_memo(self, monkeypatch):
        # on a holed grid, some restart ends at a tree an earlier one
        # certified: the memo then holds fewer trees than there were descents
        inst = grid_with_holes(2, 12, 12)
        cfg = GeneratorConfig(pool_size=8, iterations_per_run=2, seed=3)
        memos = []

        def recording(instance, tree, rng, deadline=None, memo=None):
            memos.append(memo)
            return local_search(instance, tree, rng, deadline, memo)

        monkeypatch.setattr(generator, "local_search", recording)
        generate_pool(inst, cfg)
        assert len(memos) == 16
        assert all(m is memos[0] for m in memos)
        assert 0 < len(memos[0].optima) < len(memos)

    def test_worker_processes_build_the_same_pool(self):
        inst = grid_with_holes(2, 12, 12)
        cfg = GeneratorConfig(pool_size=8, iterations_per_run=2, seed=3)
        assert generate_pool(inst, cfg, workers=2).entries == generate_pool(inst, cfg).entries


class TestInsertionVerdicts:
    """``Optima.verdicts``: each insertion scored once per pool, same trees, same draws."""

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_verdicts_change_no_tree_and_no_draw(self, seed, draw):
        inst = tie_heavy_instance(seed)
        rng = rng_for(draw)
        starts = [
            sph_construct(inst, generator._perturbed_weights(inst, 0.5, rng), t, rng)
            for t in sorted(inst.terminals)
        ]

        def descend(start, stream, memo):
            rng = rng_for(stream)
            return local_search(inst, start, rng, memo=memo), rng.getstate()

        warm = Optima()
        for i, start in enumerate(starts):
            # several scan orders from each start meet the same trees
            for stream in range(draw + 3 * i, draw + 3 * i + 3):
                plain = descend(start, stream, None)
                assert descend(start, stream, Optima()) == plain
                warm.optima.clear()  # forget the certified optima, keep the verdicts
                assert descend(start, stream, warm) == plain
        # an accepted insertion is lighter than the tree it was scored on
        assert all(
            tree is None or tree.weight < weight
            for (_, weight), scored in warm.verdicts.items()
            for tree in scored.values()
        )

    def test_no_insertion_is_scored_twice(self, monkeypatch):
        inst = grid_with_holes(3, 10, 10)
        start = sph_construct(inst, None, min(inst.terminals), rng_for())
        real = _PassForest.with_vertex

        def scores(memo):
            seen = Counter()

            def counted(forest, v, bound):
                seen[forest.members | {v}, bound] += 1
                return real(forest, v, bound)

            monkeypatch.setattr(_PassForest, "with_vertex", counted)
            # later descents pass through trees the first one visited
            for stream in range(4):
                local_search(inst, start, rng_for(stream), memo=memo)
            return seen

        # a fresh memo per descent: no insertion repeats within one
        without = scores(None)
        assert max(without.values()) > 1
        seen = scores(Optima())
        assert max(seen.values()) == 1
        assert set(seen) == set(without)

    def test_verdicts_are_kept_per_weight(self, monkeypatch):
        # two trees on {0, 1, 2}: 1-0-2 weighs 11 and 0-1-2 weighs 8. Adding
        # 3 gives the star at 3, weight 9: lighter than the first, not the
        # second. The descent from the first meets both trees
        inst = build_instance(
            [(0, 1, 4), (1, 2, 4), (0, 2, 7), (0, 3, 3), (1, 3, 3), (2, 3, 3)],
            [0, 1, 2],
        )
        heavy = solution_of(inst, [(0, 1), (0, 2)])
        light = solution_of(inst, [(0, 1), (1, 2)])
        star = solution_of(inst, [(0, 3), (1, 3), (2, 3)])
        # a wrong verdict would cycle star -> light -> star; the clock ends that
        fake_clock(monkeypatch, *[0.0] * 50, 9.0)
        memo = Optima()
        assert local_search(inst, heavy, rng_for(), deadline=5.0, memo=memo) == light
        assert memo.verdicts[light.vertices, 11] == {3: star}
        assert memo.verdicts[light.vertices, 8] == {3: None}


class TestDeletionVerdicts:
    """Deletions in ``Optima.verdicts``: each scored once per pool, same trees, same draws."""

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_deletion_verdicts_change_no_tree_and_no_draw(self, seed, draw):
        # constructed trees seldom keep a Steiner vertex worth deleting, so
        # the descents start from pruned MSTs of random vertex sets
        inst = random_connected_instance(seed, 20, 45, 4, max_weight=20)
        rng = rng_for(draw)
        starts = []
        for _ in range(3):
            members = set(inst.terminals) | {v for v in range(20) if rng.random() < 0.7}
            start = reference_induced_tree(inst, members)
            if start is not None:
                starts.append(start)

        def descend(start, stream, memo):
            rng = rng_for(stream)
            return local_search(inst, start, rng, memo=memo), rng.getstate()

        warm = Optima()
        for i, start in enumerate(starts):
            for stream in range(draw + 3 * i, draw + 3 * i + 3):
                plain = descend(start, stream, None)
                # keep only the deletion verdicts: the vertices scored inside a tree
                warm.optima.clear()
                for (tverts, _), scored in warm.verdicts.items():
                    for v in scored.keys() - tverts:
                        del scored[v]
                assert descend(start, stream, warm) == plain
        # every remembered deletion verdict is the one a fresh check gives
        for (tverts, weight), scored in warm.verdicts.items():
            forest = _PassForest(inst, tverts)
            for v in scored.keys() & tverts:
                assert scored[v] == forest.without(v, weight)

    def test_no_deletion_is_scored_twice(self, monkeypatch):
        inst = grid_with_holes(3, 10, 10)
        start = sph_construct(inst, None, min(inst.terminals), rng_for())
        real = _PassForest.without

        def scores(memo):
            seen = Counter()

            def counted(forest, v, bound):
                seen[forest.members, v, bound] += 1
                return real(forest, v, bound)

            monkeypatch.setattr(_PassForest, "without", counted)
            for stream in range(4):
                local_search(inst, start, rng_for(stream), memo=memo)
            return seen

        without = scores(None)
        assert max(without.values()) > 1
        seen = scores(Optima())
        assert max(seen.values()) == 1
        assert set(seen) == set(without)


class TestOneVerdictTable:
    """Insertions and deletions of one tree share its ``Optima.verdicts`` entry."""

    def test_each_move_reads_back_its_own_verdict(self, monkeypatch):
        # the path 0-2-1 weighs 4: inserting 3 gains nothing, deleting the
        # Steiner vertex 2 leaves the edge 0-1, weight 3
        inst = build_instance(
            [(0, 2, 2), (1, 2, 2), (0, 1, 3), (0, 3, 10), (1, 3, 10)], [0, 1]
        )
        path = solution_of(inst, [(0, 2), (1, 2)])
        edge = solution_of(inst, [(0, 1)])
        memo = Optima()
        rng = rng_for()
        assert local_search(inst, path, rng, memo=memo) == edge
        assert memo.verdicts[path.vertices, 4] == {3: None, 2: edge}
        state = rng.getstate()

        # scored again, each move would fail; both must come from the table
        def unscored(*args):
            raise AssertionError("a remembered move was scored again")

        monkeypatch.setattr(generator, "_PassForest", unscored)
        memo.optima.clear()
        rng = rng_for()
        assert local_search(inst, path, rng, memo=memo) == edge
        assert rng.getstate() == state

    def test_a_pass_builds_at_most_one_forest(self, monkeypatch):
        inst = grid_with_holes(3, 10, 10)
        start = sph_construct(inst, None, min(inst.terminals), rng_for())
        # what each pass did, in order: one list per pass
        passes = []
        candidates = generator._insertion_candidates

        def new_pass(instance, tverts):
            passes.append([])
            return candidates(instance, tverts)

        class Recorded(_PassForest):
            def __init__(self, instance, members):
                passes[-1].append("forest")
                super().__init__(instance, members)

            def with_vertex(self, v, bound):
                passes[-1].append("insertion")
                return super().with_vertex(v, bound)

            def without(self, v, bound):
                passes[-1].append("deletion")
                return super().without(v, bound)

        monkeypatch.setattr(generator, "_insertion_candidates", new_pass)
        monkeypatch.setattr(generator, "_PassForest", Recorded)
        memo = Optima()
        # later descents meet trees whose moves an earlier one scored
        for stream in range(4):
            local_search(inst, start, rng_for(stream), memo=memo)
        for done in passes:
            assert done == [] or (done[0] == "forest" and done.count("forest") == 1)
        # one forest scored both moves of a pass, and a pass scored nothing
        assert any("insertion" in done and "deletion" in done for done in passes)
        assert [] in passes


def triangle_with_hub():
    """Terminals 0, 1, 2; the paths 0-1-2 (8) and 1-0-2 (11), the star at 3 (9)."""
    inst = build_instance(
        [(0, 1, 4), (1, 2, 4), (0, 2, 7), (0, 3, 3), (1, 3, 3), (2, 3, 3)],
        [0, 1, 2],
    )
    light = solution_of(inst, [(0, 1), (1, 2)])
    star = solution_of(inst, [(0, 3), (1, 3), (2, 3)])
    return inst, light, star


class TestAcceptedMovesAreLighter:
    """A move that does not make the tree lighter is a fault, not a step."""

    def test_stale_insertion_verdict_fails_fast(self, monkeypatch):
        inst, light, star = triangle_with_hub()
        memo = Optima()
        # the verdict for the star scored against a heavier tree on the same
        # vertices, filed under the light tree's weight: it would cycle
        # light -> star -> (deletion) light. The clock ends a cycle that
        # nothing else stops
        memo.verdicts[light.vertices, light.weight] = {3: star}
        fake_clock(monkeypatch, *[0.0] * 50, 9.0)
        with pytest.raises(InvariantError, match="insertion weighs 9"):
            local_search(inst, light, rng_for(), deadline=5.0, memo=memo)

    def test_deletion_that_is_not_lighter_fails_fast(self, monkeypatch):
        inst, light, star = triangle_with_hub()
        assert local_search(inst, star, rng_for()) == light
        # a deletion check that hands back the tree it was given
        monkeypatch.setattr(_PassForest, "without", lambda self, v, bound: star)
        fake_clock(monkeypatch, *[0.0] * 50, 9.0)
        with pytest.raises(InvariantError, match="deletion weighs 9"):
            local_search(inst, star, rng_for(), deadline=5.0)

    def test_exchange_that_is_not_lighter_fails_fast(self, monkeypatch):
        # terminals 0 and 3 joined by their edge of weight 10 and bypassed
        # by the path 0-1-2-3 of weight 3: no vertex has two tree neighbours
        # to insert and none is a Steiner vertex to delete, so only an
        # exchange applies
        inst = four_cycle()
        tree = solution_of(inst, [(0, 3)])
        # a prune that hands back the tree it replaces
        monkeypatch.setattr(generator, "prune", lambda instance, edges: tree)
        with pytest.raises(InvariantError, match="exchange weighs 10"):
            local_search(inst, tree, rng_for())


def reference_prune(instance, edges):
    """``prune`` as a dict-backed pass: Kruskal, terminal check, leaf strip."""
    g = instance.graph
    terms = instance.terminals
    root = {}

    def find(x):
        root.setdefault(x, x)
        while root[x] != x:
            x = root[x]
        return x

    forest = []
    for _, u, v in sorted((g.weight(u, v), *edge_key(u, v)) for u, v in edges):
        if find(u) != find(v):
            root[find(u)] = find(v)
            forest.append((u, v))
    if len({find(t) for t in terms}) > 1:
        raise InfeasibleError("terminals are not connected")
    adj = {}
    for u, v in forest:
        if find(u) == find(min(terms)):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    leaves = [v for v, nb in adj.items() if len(nb) == 1 and v not in terms]
    while leaves:
        v = leaves.pop()
        for u in adj.pop(v):
            adj[u].discard(v)
            if len(adj[u]) == 1 and u not in terms:
                leaves.append(u)
    return solution_of(instance, {edge_key(u, v) for u in adj for v in adj[u]})


def reference_induced_tree(instance, vertices):
    """The pruned MST of G[vertices] as the reference prune finds it, or None."""
    g = instance.graph
    edges = [
        (v, u) for v in vertices for u in g.adjacency[v] if u > v and u in vertices
    ]
    try:
        return reference_prune(instance, edges)
    except InfeasibleError:
        return None


def under_bound(tree, bound):
    """``tree`` if it weighs less than ``bound``, else None."""
    return None if tree is None or tree.weight >= bound else tree


def reference_reconnect(instance, side, other):
    """Cheapest side-to-other path from an unbounded ``dijkstra_multi`` run."""
    indptr, nbr, wts = instance.graph.csr
    n = instance.graph.n_vertices
    dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, [(0, s) for s in sorted(side)], n)
    best = min(sorted(other), key=dist.__getitem__)
    if dist[best] == inf:
        return None
    path = []
    cur = best
    while pred[cur] >= 0:
        path.append(edge_key(cur, pred[cur]))
        cur = pred[cur]
    return dist[best], path


class TestIndexSpaceMoves:
    """The local-search moves against the slower routines they replace."""

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_candidates_match_the_full_graph_scan(self, seed, data):
        inst = tie_heavy_instance(seed, 30, 70, 6)
        indptr, nbr, _ = inst.graph.csr
        members, _ = random_tree(inst, data)
        tverts = frozenset(members)
        scan = [
            v
            for v in range(inst.graph.n_vertices)
            if v not in tverts
            and sum(nbr[i] in tverts for i in range(indptr[v], indptr[v + 1])) >= 2
        ]
        assert _insertion_candidates(inst, tverts) == scan

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_induced_tree_matches_prune_of_mst(self, seed, data):
        inst = tie_heavy_instance(seed)
        members, _ = random_tree(inst, data)
        tverts = frozenset(members)
        forest = _PassForest(inst, tverts)
        bound = data.draw(st.one_of(st.just(inf), st.integers(0, 30)))
        # every outside vertex, not only the candidates with two tree
        # neighbours: one with fewer is pruned off or leaves G[T + v] split
        for v in sorted(set(range(inst.graph.n_vertices)) - tverts):
            assert forest.with_vertex(v, bound) == under_bound(
                reference_induced_tree(inst, tverts | {v}), bound
            )

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_prune_matches_reference(self, seed, data):
        inst = tie_heavy_instance(seed)
        edges = data.draw(st.sets(st.sampled_from(sorted(inst.graph.edges))))
        try:
            ref = reference_prune(inst, edges)
        except InfeasibleError:
            ref = None
        if ref is None:
            with pytest.raises(InfeasibleError):
                prune(inst, edges)
        else:
            assert prune(inst, edges) == ref

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounded_reconnect_matches_full_search(self, seed, data):
        inst = tie_heavy_instance(seed)
        n = inst.graph.n_vertices
        side = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        rest = sorted(set(range(n)) - side)
        other = data.draw(st.sets(st.sampled_from(rest), min_size=1))
        limit = data.draw(st.integers(0, 8))
        ref = reference_reconnect(inst, side, other)
        got = _cheapest_reconnect(inst, side, other, limit)
        if ref is not None and ref[0] < limit:
            assert got == ref
        else:
            assert got is None


def random_tree(instance, data):
    """Vertices and edges of a random subtree of the instance graph.

    Grows from a random vertex by random tree-to-outside edges, for a drawn
    number of steps or until it spans the terminals.
    """
    indptr, nbr, _ = instance.graph.csr
    n = len(indptr) - 1
    members = {data.draw(st.integers(0, n - 1))}
    edges = []
    steps = data.draw(st.integers(1, n - 1))
    spanning = data.draw(st.booleans())
    terms = instance.terminals
    while (not terms <= members) if spanning else steps > 0:
        frontier = sorted(
            (x, nbr[i])
            for x in members
            for i in range(indptr[x], indptr[x + 1])
            if nbr[i] not in members
        )
        if not frontier:
            break
        x, y = data.draw(st.sampled_from(frontier))
        members.add(y)
        edges.append((x, y))
        steps -= 1
    return members, edges


class TestCurrentTreeChecks:
    """Vertex-move and exchange checks against the from-scratch routines."""

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_deletion_matches_induced_tree(self, seed, data):
        inst = tie_heavy_instance(seed)
        members, _ = random_tree(inst, data)
        tverts = frozenset(members)
        forest = _PassForest(inst, tverts)
        bound = data.draw(st.one_of(st.just(inf), st.integers(0, 30)))
        for v in sorted(tverts - inst.terminals):
            assert forest.without(v, bound) == under_bound(
                reference_induced_tree(inst, tverts - {v}), bound
            )

    def test_deletion_of_a_cut_vertex(self):
        # 1 is the only link between terminals 0 and 2 inside {0, 1, 2, 3}:
        # without it G[T - 1] falls apart, and without 3 it does not
        inst = build_instance(
            [(0, 1, 2), (1, 2, 2), (1, 3, 1), (0, 3, 1), (2, 4, 1), (3, 4, 9)],
            [0, 2],
        )
        check = _PassForest(inst, frozenset({0, 1, 2, 3}))
        assert check.without(1, inf) is None
        assert reference_induced_tree(inst, {0, 2, 3}) is None
        assert check.without(3, inf) == reference_induced_tree(inst, {0, 1, 2})
        assert check.without(3, inf).weight == 4

    def test_deletion_with_a_steiner_leaf_in_the_mst(self):
        # the MST of G[T] is the star 0-1, 1-2, 1-3 with Steiner leaf 3, so
        # deleting 1 leaves piece {3} apart from {0, 2} without losing the
        # terminals: 0-2 alone still joins them
        inst = build_instance([(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 2, 3)], [0, 2])
        check = _PassForest(inst, frozenset({0, 1, 2, 3}))
        assert not check.terminal_leaves
        assert check.without(1, inf) == reference_induced_tree(inst, {0, 2, 3})
        assert check.without(1, inf).weight == 3
        assert check.without(3, inf).weight == 2

    def test_unjoinable_pieces_skip_the_leaf_strip(self, monkeypatch):
        # the cut-vertex instance: every MST leaf is a terminal, and the
        # pieces deleting 1 leaves cannot be joined
        inst = build_instance(
            [(0, 1, 2), (1, 2, 2), (1, 3, 1), (0, 3, 1), (2, 4, 1), (3, 4, 9)],
            [0, 2],
        )
        check = _PassForest(inst, frozenset({0, 1, 2, 3}))
        assert check.terminal_leaves
        calls = []

        def counted(*args):
            calls.append(args)
            return strip_leaves(*args)

        monkeypatch.setattr(generator, "strip_leaves", counted)
        assert check.without(1, inf) is None
        assert calls == []
        assert check.without(3, inf).weight == 4
        assert len(calls) == 1

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_exchange_check_matches_reconnect(self, seed, data):
        inst = tie_heavy_instance(seed)
        members, edges = random_tree(inst, data)
        check = _ExchangeCheck(inst, edges, min(members))
        for a, b in edges:
            lower = check.lower(a, b)
            below = check.below(lower)
            above = members - below
            limit = inst.graph.weight(a, b)
            expect = _cheapest_reconnect(inst, below, above, limit) is not None
            assert (_cheapest_reconnect(inst, above, below, limit) is not None) == expect
            assert (lower in check.replaceable) == expect


# sha256 of write_pool(generate_pool(...)); a rewrite of local search must
# keep every tie-break, so these may not change. "grid", "dense" and
# "sparse" were captured at commit 18002ed, before local search moved to CSR
# index space; "grid-ties" (small integer weights, no perturbation, so many
# ties) and "zero-weights" at commit 376ab63, before deletions and exchanges
# were checked against the current tree
GOLDEN_POOLS = {
    "grid": (
        lambda: grid_with_holes(21, 12, 12),
        GeneratorConfig(pool_size=6, iterations_per_run=2, perturbation_strength=0.6, seed=5),
        "d3a475a089bc6772455068b8292f01285952d02d792698b652c4d1376db46773",
    ),
    "dense": (
        lambda: dense_instance(22, 40, 0.2, 10, max_weight=3),
        GeneratorConfig(pool_size=6, iterations_per_run=2, seed=6),
        "2df3f48c67ba6cca80a447ca01318b107faa3d3444ef0c955ddbb25da58dac1d",
    ),
    "sparse": (
        lambda: sparse_instance(23, 100, 15, avg_degree=4),
        GeneratorConfig(pool_size=6, iterations_per_run=2, perturbation_strength=0.6, seed=7),
        "805b0e9ddf169a166f447fbeb13c3e4e2c044d1ab29899f3208c63a200a46f34",
    ),
    "grid-ties": (
        lambda: grid_with_holes(40, 14, 14, max_weight=4, n_terminals=12),
        GeneratorConfig(pool_size=6, iterations_per_run=3, perturbation_strength=0.0, seed=40),
        "d9b5d1ce8f7471e0ca490c20dcc67a6de2f27ce981cffc801b40233c40da1acb",
    ),
    "zero-weights": (
        lambda: tie_heavy_instance(45, 80, 150, 12),
        GeneratorConfig(pool_size=6, iterations_per_run=3, perturbation_strength=0.5, seed=45),
        "057c8b65b68d80a2d3860b5702819ea6845c46139dba86cd4d4db0723b2c5798",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_POOLS))
def test_golden_pool(family):
    make, cfg, digest = GOLDEN_POOLS[family]
    text = write_pool(generate_pool(make(), cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the write_pool texts, concatenated, of pools shaped like the
# benchmark's, where many restarts end at a tree an earlier one returned:
# holed 12x12 grids at pool 8 x 2 and an 18x18 grid at the default pool
# 16 x 8. Captured before local search remembered certified optima
def benchmark_shaped_pools():
    for seed in range(6):
        yield grid_with_holes(seed, 12, 12, 0.15, 10), GeneratorConfig(
            pool_size=8, iterations_per_run=2, seed=seed
        )
    yield grid_with_holes(11, 18, 18), GeneratorConfig(
        pool_size=16, iterations_per_run=8, seed=11
    )


BENCHMARK_SHAPED_POOLS = "ceed6ee1103cefe3ada50c80878d1f75ac086886fe6be236288456b81d2dcabb"


def test_benchmark_shaped_pools():
    digest = hashlib.sha256()
    for inst, cfg in benchmark_shaped_pools():
        digest.update(write_pool(generate_pool(inst, cfg)).encode())
    assert digest.hexdigest() == BENCHMARK_SHAPED_POOLS


def fake_clock(monkeypatch, *readings):
    """Make the generator's clock read ``readings`` in turn, then the last forever."""
    left = list(readings)

    def monotonic():
        return left.pop(0) if len(left) > 1 else left[0]

    monkeypatch.setattr(generator, "time", SimpleNamespace(monotonic=monotonic))


def count_searches(monkeypatch):
    """Record each ``kernels.dijkstra_multi`` call the generator makes."""
    seen = []
    real = kernels.dijkstra_multi

    def recording(*args):
        seen.append(None)
        return real(*args)

    monkeypatch.setattr(kernels, "dijkstra_multi", recording)
    return seen


def joined_along_one_search(inst, start, weights=None):
    """Every terminal joined to ``start`` along one search's predecessor paths, pruned."""
    indptr, nbr, wts = inst.graph.csr
    dist, pred = kernels.dijkstra_multi(
        indptr, nbr, wts if weights is None else weights, [(0, start)], inst.graph.n_vertices
    )
    edges = set()
    for t in inst.terminals:
        while t != start:
            edges.add(edge_key(t, pred[t]))
            t = pred[t]
    return prune(inst, edges)


def first_restart_cut_at_once(inst, cfg, run):
    """Run ``run``'s first tree when its construction's first clock read
    is past the deadline: its draws, then one search."""
    rng = random.Random(_derive_seed(cfg.seed, run))
    weights = generator._perturbed_weights(inst, cfg.perturbation_strength, rng)
    start = rng.choice(sorted(inst.terminals))
    return joined_along_one_search(inst, start, weights)


def forbid_moves(monkeypatch):
    """Fail on any scored local-search move."""

    def unscored(*args):
        raise AssertionError("a local-search move was scored past the deadline")

    for name in ("_PassForest", "_cheapest_reconnect"):
        monkeypatch.setattr(generator, name, unscored)


class TestDeadlines:
    def test_construction_stops_between_terminals(self, monkeypatch):
        # and finishes its tree along the search it has just run
        inst = sparse_instance(3, 40, 6)
        start = min(inst.terminals)
        expected = joined_along_one_search(inst, start)
        searches = count_searches(monkeypatch)
        whole = sph_construct(inst, None, start, rng_for())
        assert len(searches) > 2
        # the first round attaches the nearest terminal; the second reads
        # the clock past the deadline and joins every other terminal along
        # its own search: one more search, then the prune
        fake_clock(monkeypatch, 0.0, 9.0)
        del searches[:]
        cut = sph_construct(inst, None, start, rng_for(), deadline=5.0)
        assert len(searches) == 2
        assert solution_violations(inst, cut) == []
        assert cut != whole
        # past the deadline at the first read, the tree is the first search's
        fake_clock(monkeypatch, 9.0)
        del searches[:]
        assert sph_construct(inst, None, start, rng_for(), deadline=5.0) == expected
        assert len(searches) == 1
        assert solution_violations(inst, expected) == []
        # a deadline that never passes changes nothing
        fake_clock(monkeypatch, 0.0)
        assert sph_construct(inst, None, start, rng_for(), deadline=5.0) == whole

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_zero_always_starts_its_first_restart(self, monkeypatch, workers):
        # and only that one: its construction finishes along its first
        # search, its descent scores no move, and no other restart starts
        inst = sparse_instance(3, 40, 6)
        cfg = GeneratorConfig(pool_size=4, iterations_per_run=2, seed=4)
        full = generate_pool(inst, cfg)
        first = first_restart_cut_at_once(inst, cfg, 0)
        assert solution_violations(inst, first) == []
        assert first.weight > min(full.weights)
        fake_clock(monkeypatch, 9.0)
        forbid_moves(monkeypatch)
        cut = generate_pool(inst, cfg, workers=workers, deadline=5.0)
        assert cut.entries == [first]

    def test_run_cut_in_its_first_construction_adds_its_finished_tree(
        self, monkeypatch
    ):
        # run 1 starts before the deadline, which passes at its
        # construction's first clock read: the run still returns a tree,
        # finished along that search, and starts no second restart
        inst = sparse_instance(3, 40, 6)
        cfg = GeneratorConfig(pool_size=3, iterations_per_run=2, seed=0)
        whole = generator._one_run(inst, cfg, None, Optima(), 1)
        first = first_restart_cut_at_once(inst, cfg, 1)
        assert first != whole
        fake_clock(monkeypatch, 0.0, 9.0)
        forbid_moves(monkeypatch)
        assert generator._one_run(inst, cfg, 5.0, Optima(), 1) == first
        # a run that would start past the deadline adds nothing
        fake_clock(monkeypatch, 9.0)
        assert generator._one_run(inst, cfg, 5.0, Optima(), 1) is None


class TestGeneratePool:
    def test_replay_is_bit_identical(self):
        inst = sparse_instance(1, 30, 5)
        cfg = GeneratorConfig(pool_size=6, iterations_per_run=3, seed=9)
        a = generate_pool(inst, cfg)
        b = generate_pool(inst, cfg)
        assert a.entries == b.entries

    def test_workers_do_not_change_the_pool(self):
        inst = sparse_instance(2, 35, 6)
        cfg = GeneratorConfig(pool_size=8, iterations_per_run=2, seed=4)
        seq = generate_pool(inst, cfg)
        par = generate_pool(inst, cfg, workers=4)
        assert seq.entries == par.entries

    @pytest.mark.parametrize("cpus", [None, 3, 64])
    def test_worker_count_is_clamped(self, monkeypatch, cpus):
        # a huge count asks for no more processes than runs and CPUs
        inst = sparse_instance(2, 35, 6)
        cfg = GeneratorConfig(pool_size=16, iterations_per_run=1, seed=4)
        seq = generate_pool(inst, cfg)
        built = in_process_pool(monkeypatch)
        if cpus is not None:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        par = generate_pool(inst, cfg, workers=10**6)
        expect = min(16, os.cpu_count() or 1)
        assert built == ([expect] if expect > 1 else [])
        assert par.entries == seq.entries

    def test_duplicates_collapse(self):
        # a tree instance admits exactly one Steiner tree per terminal set
        inst = build_instance([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [0, 3])
        pool = generate_pool(
            inst, GeneratorConfig(pool_size=5, iterations_per_run=2)
        )
        assert pool.entries == [solution_of(inst, [(0, 1), (1, 2), (2, 3)])]

    def test_every_entry_is_locally_optimal_and_valid(self):
        inst = sparse_instance(3, 40, 6)
        pool = generate_pool(inst, GeneratorConfig(pool_size=5, iterations_per_run=2))
        for tree in pool.entries:
            assert solution_violations(inst, tree) == []
            rerun = local_search(inst, tree, rng_for(0))
            assert rerun.weight == tree.weight

    def test_best_breaks_ties_by_position(self):
        inst = sparse_instance(4, 30, 5)
        pool = generate_pool(inst, GeneratorConfig(pool_size=6, iterations_per_run=2))
        best = pool.best_index()
        assert pool.weights[best] == min(pool.weights)
        assert all(w > pool.weights[best] for w in pool.weights[:best])

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_pool_never_beats_the_optimum(self, seed):
        inst = random_connected_instance(seed, 14, 26, 4, max_weight=20)
        pool = generate_pool(inst, GeneratorConfig(pool_size=4, iterations_per_run=2))
        assert min(pool.weights) >= dreyfus_wagner(inst).weight


class TestPoolFiles:
    def roundtrip(self, inst, cfg):
        pool = generate_pool(inst, cfg)
        again = read_pool(write_pool(pool), inst)
        assert [s.canonical_edges() for s in again.entries] == [
            s.canonical_edges() for s in pool.entries
        ]
        assert again.weights == pool.weights

    def test_roundtrip(self):
        self.roundtrip(
            sparse_instance(5, 30, 5), GeneratorConfig(pool_size=5, iterations_per_run=2)
        )

    def test_roundtrip_with_empty_tree(self):
        inst = build_instance([(0, 1, 4)], [0])
        self.roundtrip(inst, GeneratorConfig(pool_size=1, iterations_per_run=1))

    def test_missing_header(self):
        inst = four_cycle()
        with pytest.raises(ParseError):
            read_pool("tree 3 1 2\n", inst)

    def test_malformed_line(self):
        inst = four_cycle()
        with pytest.raises(ParseError) as err:
            read_pool("steinmerge-pool 1\ntree 3 1\n", inst)
        assert "line 2" in str(err.value)

    def test_vertex_out_of_range(self):
        inst = four_cycle()
        with pytest.raises(ParseError):
            read_pool("steinmerge-pool 1\ntree 3 1 9\n", inst)

    @pytest.mark.parametrize("pair", ["1 1", "1 3"])
    def test_non_edge_rejected(self, pair):
        inst = four_cycle()
        with pytest.raises(ValidationError, match="not an edge"):
            read_pool(f"steinmerge-pool 1\ntree 3 {pair} 2 3 3 4\n", inst)

    def test_wrong_stated_weight(self):
        inst = four_cycle()
        with pytest.raises(ValidationError):
            read_pool("steinmerge-pool 1\ntree 99 1 2 2 3 3 4\n", inst)

    def test_tree_must_span_terminals(self):
        inst = four_cycle()
        with pytest.raises(ValidationError):
            read_pool("steinmerge-pool 1\ntree 1 1 2\n", inst)

    def test_repeated_edge_counts_once(self):
        inst = four_cycle()
        pool = read_pool("steinmerge-pool 1\ntree 3 1 2 2 3 2 1 3 4\n", inst)
        assert pool.weights == [3]
        with pytest.raises(ValidationError, match="stated weight 4 != edge total 3"):
            read_pool("steinmerge-pool 1\ntree 4 1 2 2 3 2 1 3 4\n", inst)

    def test_no_trees(self):
        inst = four_cycle()
        with pytest.raises(ParseError):
            read_pool("steinmerge-pool 1\n# empty\n", inst)

    def test_comments_and_duplicates_skipped(self):
        inst = four_cycle()
        text = (
            "steinmerge-pool 1\n"
            "# a remark\n"
            "tree 3 1 2 2 3 3 4\n"
            "tree 3 2 1 3 2 4 3\n"
        )
        pool = read_pool(text, inst)
        assert len(pool) == 1
        assert pool.weights == [3]
