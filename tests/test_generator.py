"""Pool generation: construction heuristic, local search, runs, pool files."""

import hashlib
import random
import time
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_instance, four_cycle, solution_of
from steinmerge import (
    GeneratorConfig,
    InfeasibleError,
    ParseError,
    SteinerInstance,
    ValidationError,
    WeightedGraph,
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
    _cheapest_reconnect,
    _DeletionCheck,
    _derive_seed,
    _ExchangeCheck,
    _induced_tree,
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
        sol = sph_construct(inst, fake, 1, rng_for())
        assert sol.edges == frozenset({(0, 1), (0, 2)})
        assert sol.weight == 5


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
        # lower vertex 2 of the other half, so 1-7-8-2 comes in. Searched
        # from 2's half it would be 3-6-5-0, and the result would weigh 3
        inst = build_instance(
            [(0, 1, 1), (1, 2, 10), (2, 3, 1), (0, 5, 1), (5, 6, 1), (6, 3, 1),
             (1, 7, 1), (7, 8, 1), (8, 2, 1)],
            [0, 3],
        )
        start = solution_of(inst, [(0, 1), (1, 2), (2, 3)])
        out = local_search(inst, start, rng_for())
        assert out == solution_of(inst, [(0, 1), (1, 7), (7, 8), (2, 8), (2, 3)])

    def test_inserts_profitable_steiner_vertex(self):
        # star center 3 beats the rim path connecting the three terminals
        inst = build_instance(
            [(0, 3, 1), (1, 3, 1), (2, 3, 1), (0, 1, 3), (1, 2, 3)], [0, 1, 2]
        )
        start = solution_of(inst, [(0, 1), (1, 2)])
        assert local_search(inst, start, rng_for()).weight == 3


def tie_heavy_instance(seed, n_vertices=14, n_edges=30, n_terminals=4):
    """A random synth graph with weights redrawn from 0..3: many ties, some zeros."""
    base = random_connected_instance(seed, n_vertices, n_edges, n_terminals)
    rng = random.Random(seed)
    graph = WeightedGraph.build(
        base.graph.vertices,
        [(u, v, rng.randint(0, 3)) for u, v in sorted(base.graph.weights)],
    )
    return SteinerInstance.create(graph, base.terminals)


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


def reference_reconnect(instance, side, other):
    """Cheapest side-to-other path from an unbounded ``dijkstra_multi`` run."""
    order, _, indptr, nbr, wts = instance.graph.csr
    dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, sorted(side), len(order))
    best = min(sorted(other), key=dist.__getitem__)
    if dist[best] == inf:
        return None
    path = []
    cur = best
    while pred[cur] >= 0:
        path.append(edge_key(order[cur], order[pred[cur]]))
        cur = pred[cur]
    return dist[best], path


class TestIndexSpaceMoves:
    """The local-search moves against the slower routines they replace."""

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_induced_tree_matches_prune_of_mst(self, seed, data):
        inst = tie_heavy_instance(seed)
        g = inst.graph
        vertices = data.draw(st.sets(st.sampled_from(sorted(g.vertices))))
        if data.draw(st.booleans()):
            vertices |= inst.terminals
        members = {g.csr[1][v] for v in vertices}
        ref = reference_induced_tree(inst, vertices)
        assert _induced_tree(inst, members) == ref
        bound = data.draw(st.integers(0, 3 * g.n_vertices))
        got = _induced_tree(inst, members, bound)
        assert (got is None) == (ref is None or ref.weight >= bound)
        if got is not None:
            assert got == ref

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
    """CSR indices and edges of a random subtree of the instance graph.

    Grows from a random vertex by random tree-to-outside edges, for a drawn
    number of steps or until it spans the terminals.
    """
    _, index, indptr, nbr, _ = instance.graph.csr
    n = len(indptr) - 1
    members = {data.draw(st.integers(0, n - 1))}
    edges = []
    steps = data.draw(st.integers(1, n - 1))
    spanning = data.draw(st.booleans())
    terms = instance.terminal_index
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
    """Deletion and exchange checks against the from-scratch routines."""

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_deletion_matches_induced_tree(self, seed, data):
        inst = tie_heavy_instance(seed)
        members, _ = random_tree(inst, data)
        check = _DeletionCheck(inst, members)
        bound = data.draw(st.one_of(st.just(inf), st.integers(0, 30)))
        for v in sorted(members - inst.terminal_index):
            assert check.without(v, bound) == _induced_tree(inst, members - {v}, bound)

    def test_deletion_of_a_cut_vertex(self):
        # 1 is the only link between terminals 0 and 2 inside {0, 1, 2, 3}:
        # without it G[T - 1] falls apart, and without 3 it does not
        inst = build_instance(
            [(0, 1, 2), (1, 2, 2), (1, 3, 1), (0, 3, 1), (2, 4, 1), (3, 4, 9)],
            [0, 2],
        )
        members = {0, 1, 2, 3}
        check = _DeletionCheck(inst, members)
        assert check.without(1, inf) is None
        assert _induced_tree(inst, {0, 2, 3}) is None
        assert check.without(3, inf) == _induced_tree(inst, {0, 1, 2})
        assert check.without(3, inf).weight == 4

    def test_deletion_with_a_steiner_leaf_in_the_mst(self):
        # the MST of G[T] is the star 0-1, 1-2, 1-3 with Steiner leaf 3, so
        # deleting 1 leaves piece {3} apart from {0, 2} without losing the
        # terminals: 0-2 alone still joins them
        inst = build_instance([(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 2, 3)], [0, 2])
        members = {0, 1, 2, 3}
        check = _DeletionCheck(inst, members)
        assert not check.terminal_leaves
        assert check.without(1, inf) == _induced_tree(inst, {0, 2, 3})
        assert check.without(1, inf).weight == 3
        assert check.without(3, inf).weight == 2

    def test_unjoinable_pieces_skip_the_leaf_strip(self, monkeypatch):
        # the cut-vertex instance: every MST leaf is a terminal, and the
        # pieces deleting 1 leaves cannot be joined
        inst = build_instance(
            [(0, 1, 2), (1, 2, 2), (1, 3, 1), (0, 3, 1), (2, 4, 1), (3, 4, 9)],
            [0, 2],
        )
        check = _DeletionCheck(inst, {0, 1, 2, 3})
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
        order = inst.graph.csr[0]
        check = _ExchangeCheck(inst, edges, min(members))
        for a, b in edges:
            lower = check.lower(a, b)
            below = check.below(lower)
            above = members - below
            limit = inst.graph.weight(order[a], order[b])
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


def fake_clock(monkeypatch, *readings):
    """Make the generator's clock read ``readings`` in turn, then the last forever."""
    left = list(readings)

    def monotonic():
        return left.pop(0) if len(left) > 1 else left[0]

    monkeypatch.setattr(generator, "time", SimpleNamespace(monotonic=monotonic))


class TestDeadlines:
    def test_construction_stops_between_terminals(self, monkeypatch):
        inst = sparse_instance(3, 40, 6)
        start = min(inst.terminals)
        fake_clock(monkeypatch, 0.0, 0.0, 9.0)
        assert sph_construct(inst, None, start, rng_for(), deadline=5.0) is None
        fake_clock(monkeypatch, 0.0)
        whole = sph_construct(inst, None, start, rng_for(), deadline=5.0)
        assert whole == sph_construct(inst, None, start, rng_for())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_zero_ignores_the_deadline(self, monkeypatch, workers):
        inst = sparse_instance(3, 40, 6)
        cfg = GeneratorConfig(pool_size=4, iterations_per_run=2, seed=1)
        full = generate_pool(inst, cfg)
        fake_clock(monkeypatch, 9.0)
        cut = generate_pool(inst, cfg, workers=workers, deadline=5.0)
        assert cut.entries == full.entries[:1]

    def test_run_cut_before_its_first_tree_adds_nothing(self, monkeypatch):
        # run 1 starts before the deadline, which passes before its first
        # construction attaches a terminal; run 2 never starts
        inst = sparse_instance(3, 40, 6)
        cfg = GeneratorConfig(pool_size=3, iterations_per_run=2, seed=1)
        fake_clock(monkeypatch, 0.0, 9.0)
        pool = generate_pool(inst, cfg, deadline=5.0)
        assert [e.run for e in pool.entries] == [0]


class TestGeneratePool:
    def test_replay_is_bit_identical(self):
        inst = sparse_instance(1, 30, 5)
        cfg = GeneratorConfig(pool_size=6, iterations_per_run=3, seed=9)
        a = generate_pool(inst, cfg)
        b = generate_pool(inst, cfg)
        assert [e.solution.canonical_edges() for e in a.entries] == [
            e.solution.canonical_edges() for e in b.entries
        ]
        assert [(e.seed, e.run, e.iteration) for e in a.entries] == [
            (e.seed, e.run, e.iteration) for e in b.entries
        ]

    def test_workers_do_not_change_the_pool(self):
        inst = sparse_instance(2, 35, 6)
        cfg = GeneratorConfig(pool_size=8, iterations_per_run=2, seed=4)
        seq = generate_pool(inst, cfg)
        par = generate_pool(inst, cfg, workers=4)
        assert [e.solution.canonical_edges() for e in seq.entries] == [
            e.solution.canonical_edges() for e in par.entries
        ]

    def test_duplicates_collapse(self):
        # a tree instance admits exactly one Steiner tree per terminal set
        inst = build_instance([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [0, 3])
        pool = generate_pool(
            inst, GeneratorConfig(pool_size=5, iterations_per_run=2)
        )
        assert len(pool) == 1
        assert pool.entries[0].run == 0

    def test_every_entry_is_locally_optimal_and_valid(self):
        inst = sparse_instance(3, 40, 6)
        pool = generate_pool(inst, GeneratorConfig(pool_size=5, iterations_per_run=2))
        for entry in pool.entries:
            assert solution_violations(inst, entry.solution) == []
            rerun = local_search(inst, entry.solution, rng_for(0))
            assert rerun.weight == entry.solution.weight

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
        assert [s.canonical_edges() for s in again.solutions] == [
            s.canonical_edges() for s in pool.solutions
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
