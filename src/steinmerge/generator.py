"""Multistart generation of distinct locally optimal Steiner trees.

Each run perturbs the edge weights, grows a tree with the shortest-path
construction heuristic from a random terminal, then descends with a local
search. Runs use independently derived seeds so a concurrent pool build is
bit-identical to a sequential one.
"""

from __future__ import annotations

import heapq
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import inf

from . import kernels
from .graph import (
    Edge,
    InvariantError,
    ParseError,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    edge_key,
    minimum_spanning_edges,  # noqa: F401  (perfbench/layers.py wraps this name)
    prune,
    solution_violations,
    strip_leaves,
)

_M64 = (1 << 64) - 1


def _derive_seed(seed: int, idx: int) -> int:
    """Independent 64-bit stream seed for run ``idx`` (splitmix64 step)."""
    x = (seed + (idx + 1) * 0x9E3779B97F4A7C15) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the pool generator; defaults follow the benchmark protocol."""

    pool_size: int = 16
    iterations_per_run: int = 8
    perturbation_strength: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValidationError("pool_size must be at least 1")
        if self.iterations_per_run < 1:
            raise ValidationError("iterations_per_run must be at least 1")
        if not 0.0 <= self.perturbation_strength < 1.0:
            raise ValidationError("perturbation_strength must lie in [0, 1)")


@dataclass(frozen=True)
class PoolEntry:
    """A pool member plus the provenance that produced it."""

    solution: SteinerSolution
    seed: int
    run: int
    iteration: int


@dataclass
class SolutionPool:
    """Deduplicated, ordered collection of locally optimal trees."""

    entries: list[PoolEntry]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def solutions(self) -> list[SteinerSolution]:
        return [e.solution for e in self.entries]

    @property
    def weights(self) -> list[int]:
        return [e.solution.weight for e in self.entries]

    def best_index(self) -> int:
        ws = self.weights
        return min(range(len(ws)), key=lambda i: (ws[i], i))

    def best(self) -> SteinerSolution:
        return self.entries[self.best_index()].solution


def _perturbed_weights(
    instance: SteinerInstance, strength: float, rng: random.Random
) -> dict[Edge, float] | None:
    if strength == 0.0:
        return None
    return {
        e: w * (1.0 + rng.random() * strength)
        for e, w in sorted(instance.graph.weights.items())
    }


def sph_construct(
    instance: SteinerInstance,
    weights: dict[Edge, float] | None,
    start: int,
    rng: random.Random,
) -> SteinerSolution:
    """Shortest-path construction heuristic.

    Starting from one terminal, repeatedly attach the terminal nearest to
    the current tree (under the given, possibly perturbed, weights) along a
    shortest path; distance ties are broken by ``rng``. The result is pruned
    and weighted under the instance's original weights.
    """
    terms = instance.terminals
    if start not in terms:
        raise ValidationError("construction must start at a terminal")
    if len(terms) == 1:
        return SteinerSolution(frozenset(), 0)

    graph = instance.graph
    order, index, indptr, nbr, _ = graph.csr
    wlist = graph.csr_weight_list(weights)
    n = len(order)

    tree_idx = {index[start]}
    edges: set[Edge] = set()
    remaining = {index[t] for t in terms} - tree_idx
    while remaining:
        dist, pred = kernels.dijkstra_multi(indptr, nbr, wlist, sorted(tree_idx), n)
        best = min(dist[t] for t in remaining)
        candidates = sorted(t for t in remaining if dist[t] == best)
        target = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        cur = target
        while cur not in tree_idx:
            p = pred[cur]
            edges.add(edge_key(order[cur], order[p]))
            tree_idx.add(cur)
            cur = p
        remaining -= tree_idx
    return prune(instance, edges)


def _induced_tree(
    instance: SteinerInstance, members: set[int], bound: float = inf
) -> SteinerSolution | None:
    """Pruned MST of the subgraph induced by ``members`` (CSR indices).

    Equals ``prune(instance, minimum_spanning_edges(g, induced_edges))``
    when that is lighter than ``bound``, and is None otherwise, including
    when the members do not connect the terminals. Kruskal runs over edge
    ranks: their (w, u, v) order is strict, so the minimum spanning forest
    is unique and the same as the one ``minimum_spanning_edges`` picks.
    The forest then goes straight to ``strip_leaves``, because the MST that
    ``prune`` would take of it first is the forest itself.
    """
    g = instance.graph
    _, _, indptr, nbr, _ = g.csr
    ranks = g.edge_ranks
    slot, tail, head = ranks.slot, ranks.tail, ranks.head
    induced = sorted(
        slot[i]
        for v in members
        for i in range(indptr[v], indptr[v + 1])
        if nbr[i] > v and nbr[i] in members
    )
    parent = list(range(len(indptr) - 1))
    forest: list[int] = []
    need = len(members) - 1
    for r in induced:
        a = tail[r]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        b = head[r]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            forest.append(r)
            if len(forest) == need:
                break
    stripped = strip_leaves(instance, forest)
    if stripped is None or stripped[1] >= bound:
        return None
    kept, weight = stripped
    return SteinerSolution(frozenset(ranks.edges[r] for r in kept), weight)


def _cheapest_reconnect(
    instance: SteinerInstance, side: set[int], other: set[int], limit: int
) -> tuple[int, list[Edge]] | None:
    """Cheapest path from ``side`` to ``other`` (CSR indices) under ``limit``.

    A multi-source Dijkstra that never keeps a distance of ``limit`` or
    more. Every vertex closer than ``limit`` ends with the distance and
    predecessor the unbounded search gives it, since relaxations that
    reach ``limit`` can never improve on such a vertex. Returns None when
    no vertex of ``other`` is that close.
    """
    graph = instance.graph
    order, _, indptr, nbr, wts = graph.csr
    dist = [limit] * len(order)
    pred = [-1] * len(order)
    heap = []
    for s in side:
        dist[s] = 0
        heap.append((0, s))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for i in range(indptr[v], indptr[v + 1]):
            u = nbr[i]
            nd = d + wts[i]
            if nd < dist[u]:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
    best_v = min(sorted(other), key=dist.__getitem__)
    if dist[best_v] >= limit:
        return None
    path: list[Edge] = []
    cur = best_v
    while pred[cur] >= 0:
        p = pred[cur]
        path.append(edge_key(order[cur], order[p]))
        cur = p
    return dist[best_v], path


def local_search(
    instance: SteinerInstance,
    tree: SteinerSolution,
    rng: random.Random,
    deadline: float | None = None,
) -> SteinerSolution:
    """Descend from ``tree`` to a local optimum; weight never increases.

    Moves, tried in order until none improves: insert a non-tree vertex and
    rebuild the pruned MST over the enlarged vertex set; delete a Steiner
    vertex the same way; swap one tree edge for the cheapest path that
    reconnects the two halves. Scan orders are shuffled by ``rng``. Once
    ``deadline`` (a monotonic-clock timestamp) has passed, the current tree
    is returned before the next candidate is evaluated.
    """
    current = tree
    if len(instance.terminals) == 1:
        return current
    graph = instance.graph
    order, index, indptr, nbr, _ = graph.csr
    terms = instance.terminal_index

    def expired() -> bool:
        return deadline is not None and time.monotonic() > deadline

    while True:
        tverts = {index[v] for v in current.vertices}
        # insertion: only vertices with two tree neighbors can pay off,
        # anything attached by a single edge is pruned right back off
        candidates = [
            v
            for v in range(len(order))
            if v not in tverts
            and sum(nbr[i] in tverts for i in range(indptr[v], indptr[v + 1])) >= 2
        ]
        rng.shuffle(candidates)
        accepted = None
        for v in candidates:
            if expired():
                return current
            accepted = _induced_tree(instance, tverts | {v}, current.weight)
            if accepted is not None:
                break
        if accepted is not None:
            current = accepted
            continue

        removable = [v for v in sorted(tverts) if v not in terms]
        rng.shuffle(removable)
        for v in removable:
            if expired():
                return current
            accepted = _induced_tree(instance, tverts - {v}, current.weight)
            if accepted is not None:
                break
        if accepted is not None:
            current = accepted
            continue

        # edge exchange: drop one tree edge and reconnect the two halves
        # along the cheapest path in the whole graph; a path costing w(e)
        # or more cannot pay off, so the search stops below w(e)
        adj: dict[int, list[int]] = {}
        for a, b in current.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        tree_edges = list(current.canonical_edges())
        rng.shuffle(tree_edges)
        for e in tree_edges:
            if expired():
                return current
            # the half holding e[0]: the tree minus e, searched from e[0]
            seen = {e[0], e[1]}
            stack = [e[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            seen.discard(e[1])
            side = {index[v] for v in seen}
            found = _cheapest_reconnect(
                instance, side, tverts - side, graph.weights[e]
            )
            if found is None:
                continue
            rest = set(current.edges)
            rest.discard(e)
            cand = prune(instance, rest | set(found[1]))
            if cand.weight < current.weight:
                accepted = cand
                break
        if accepted is None:
            return current
        current = accepted


def _one_run(
    instance: SteinerInstance,
    cfg: GeneratorConfig,
    run: int,
    deadline: float | None,
) -> PoolEntry:
    run_seed = _derive_seed(cfg.seed, run)
    rng = random.Random(run_seed)
    best: SteinerSolution | None = None
    best_iteration = 0
    for it in range(cfg.iterations_per_run):
        if best is not None and deadline is not None and time.monotonic() > deadline:
            break
        wmap = _perturbed_weights(instance, cfg.perturbation_strength, rng)
        start = rng.choice(sorted(instance.terminals))
        sol = local_search(
            instance, sph_construct(instance, wmap, start, rng), rng, deadline
        )
        if best is None or sol.weight < best.weight:
            best, best_iteration = sol, it
    if best is None:
        raise InvariantError("a generator run finished without a tree")
    return PoolEntry(best, run_seed, run, best_iteration)


def generate_pool(
    instance: SteinerInstance,
    cfg: GeneratorConfig,
    workers: int | None = None,
    deadline: float | None = None,
) -> SolutionPool:
    """Produce up to ``cfg.pool_size`` distinct locally optimal trees.

    A pure function of (instance, cfg): every run draws from its own derived
    seed, so the worker count never changes the result. Duplicate edge sets
    are dropped, keeping the earliest run. ``deadline`` (a monotonic-clock
    timestamp) cuts the build short but always leaves at least one entry.
    """
    runs = list(range(cfg.pool_size))
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            produced = list(
                pool.map(lambda r: _one_run(instance, cfg, r, deadline), runs)
            )
    else:
        produced = []
        for r in runs:
            # the first run always completes so the pool is never empty
            if r > 0 and deadline is not None and time.monotonic() > deadline:
                break
            produced.append(_one_run(instance, cfg, r, None if r == 0 else deadline))

    seen: set[tuple[Edge, ...]] = set()
    entries: list[PoolEntry] = []
    for entry in produced:
        key = entry.solution.canonical_edges()
        if key not in seen:
            seen.add(key)
            entries.append(entry)
    return SolutionPool(entries)


# ---------------------------------------------------------------------------
# pool file format

_POOL_MAGIC = "steinmerge-pool 1"


def write_pool(pool: SolutionPool) -> str:
    """Serialize a pool: one `tree <weight> <u> <v> ...` line per solution.

    Vertex ids are written 1-based to match the instance file convention.
    """
    lines = [_POOL_MAGIC]
    for entry in pool.entries:
        flat = " ".join(
            f"{u + 1} {v + 1}" for u, v in entry.solution.canonical_edges()
        )
        lines.append(f"tree {entry.solution.weight} {flat}".rstrip())
    lines.append("")
    return "\n".join(lines)


def read_pool(text: str, instance: SteinerInstance) -> SolutionPool:
    """Parse a pool file and validate every tree against the instance.

    Accepts output of any generator that emits the same format; stated
    weights must match the instance's weights exactly.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != _POOL_MAGIC:
        raise ParseError("missing pool header line")
    entries: list[PoolEntry] = []
    seen: set[tuple[Edge, ...]] = set()
    for lineno, raw in enumerate(lines[1:], 2):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if toks[0] != "tree" or len(toks) % 2 != 0:
            raise ParseError(f"line {lineno}: malformed tree line")
        try:
            weight = int(toks[1])
            ids = [int(t) - 1 for t in toks[2:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        edges = set()
        for i in range(0, len(ids), 2):
            u, v = ids[i], ids[i + 1]
            if not (u in instance.graph.vertices and v in instance.graph.vertices):
                raise ParseError(f"line {lineno}: vertex id out of range")
            if not instance.graph.has_edge(u, v):
                raise ValidationError(
                    f"line {lineno}: ({u + 1}, {v + 1}) is not an edge of the instance"
                )
            edges.add(edge_key(u, v))
        sol = SteinerSolution.from_edges(instance.graph, edges)
        if sol.weight != weight:
            raise ValidationError(
                f"line {lineno}: stated weight {weight} != edge total {sol.weight}"
            )
        problems = solution_violations(instance, sol)
        if problems:
            raise ValidationError(f"line {lineno}: {problems[0]}")
        key = sol.canonical_edges()
        if key in seen:
            continue
        seen.add(key)
        entries.append(PoolEntry(sol, 0, len(entries), 0))
    if not entries:
        raise ParseError("pool file contains no trees")
    return SolutionPool(entries)
