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
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import inf
from typing import Iterable

from . import kernels
from .graph import (
    Edge,
    InvariantError,
    ParseError,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    edge_key,
    minimum_spanning_edges,
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
    deadline: float | None = None,
) -> SteinerSolution | None:
    """Shortest-path construction heuristic.

    Starting from one terminal, repeatedly attach the terminal nearest to
    the current tree (under the given, possibly perturbed, weights) along a
    shortest path; distance ties are broken by ``rng``. The result is pruned
    and weighted under the instance's original weights. Returns None when
    ``deadline`` (a monotonic-clock timestamp) has passed before a terminal
    is attached.
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
        if deadline is not None and time.monotonic() > deadline:
            return None
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


def _induced_forest(
    instance: SteinerInstance, members: set[int], spare: list[int] | None = None
) -> list[int]:
    """Minimum spanning forest of the subgraph induced by ``members``.

    Members are CSR indices and the forest is a list of edge ranks. When
    ``spare`` is given, every induced edge left out of the forest is
    appended to it in rank order.
    """
    g = instance.graph
    _, _, indptr, nbr, _ = g.csr
    ranks = g.edge_ranks
    slot = ranks.slot
    induced = sorted(
        slot[i]
        for v in members
        for i in range(indptr[v], indptr[v + 1])
        if nbr[i] > v and nbr[i] in members
    )
    return minimum_spanning_edges(
        len(indptr) - 1, ranks.tail, ranks.head, induced, spare, len(members) - 1
    )


def _stripped_tree(
    instance: SteinerInstance, forest: list[int], bound: float
) -> SteinerSolution | None:
    """``strip_leaves`` of ``forest`` as a solution, or None unless below ``bound``."""
    stripped = strip_leaves(instance, forest)
    if stripped is None or stripped[1] >= bound:
        return None
    kept, weight = stripped
    edges = instance.graph.edge_ranks.edges
    return SteinerSolution(frozenset(edges[r] for r in kept), weight)


def _induced_tree(
    instance: SteinerInstance, members: set[int], bound: float = inf
) -> SteinerSolution | None:
    """Pruned MST of the subgraph induced by ``members`` (CSR indices).

    Equals ``prune(instance, induced_edges)`` when that is lighter than
    ``bound``, and is None otherwise, including when the members do not
    connect the terminals. The forest goes straight to ``strip_leaves``,
    because the MST that ``prune`` would take of it first is the forest
    itself.
    """
    return _stripped_tree(instance, _induced_forest(instance, members), bound)


def _preorder(
    edges: Iterable[tuple[int, int]], root: int, n: int
) -> tuple[list[int], list[int], list[int], dict[int, int]]:
    """Depth-first preorder from ``root`` of the tree with these edges.

    Vertices are CSR indices below ``n``. Returns the order, each vertex's
    position in it (-1 off the tree), each vertex's subtree size, so the
    subtree of ``x`` is the slice ``pre[pos[x]:pos[x] + size[x]]``, and
    each tree vertex's parent (-1 for the root).
    """
    adj: dict[int, list[int]] = {root: []}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    pos = [-1] * n
    size = [1] * n
    up = {root: -1}
    pre: list[int] = []
    stack = [root]
    while stack:
        x = stack.pop()
        pos[x] = len(pre)
        pre.append(x)
        for y in adj[x]:
            if y not in up:
                up[y] = x
                stack.append(y)
    for x in reversed(pre[1:]):
        size[up[x]] += size[x]
    return pre, pos, size, up


class _DeletionCheck:
    """Every Steiner-vertex deletion of one tree, scored against one MST.

    Built once per local-search pass from the MST of G[T], T the current
    tree's vertices, and the induced edges left out of it. An MST edge
    avoiding ``v`` is the lightest edge across some cut of G[T]; the same
    cut restricted to G[T - v] keeps it lightest, and under the strict rank
    order that puts it in the unique minimum spanning forest of G[T - v].
    So that forest is the MST minus the edges at ``v``, plus whatever
    Kruskal takes from the left-out edges avoiding ``v`` to join the
    pieces ``v`` leaves behind.

    When the MST spans T and all its leaves are terminals, every such piece
    holds a terminal: a one-vertex piece is an MST leaf, and a larger one
    has two leaves of its own, at most one of them ``v``'s neighbour. Then
    pieces Kruskal cannot join mean disconnected terminals, and the answer
    is None before any forest is built.
    """

    def __init__(self, instance: SteinerInstance, members: set[int]) -> None:
        self.instance = instance
        ranks = instance.graph.edge_ranks
        self.tail, self.head = ranks.tail, ranks.head
        self.spare: list[int] = []
        self.mst = _induced_forest(instance, members, self.spare)
        self.pre, self.pos, self.size, _ = _preorder(
            ((self.tail[r], self.head[r]) for r in self.mst),
            min(members),
            len(instance.graph.csr[0]),
        )
        degree = Counter(x for r in self.mst for x in (self.tail[r], self.head[r]))
        terms = instance.terminal_index
        self.terminal_leaves = len(self.pre) == len(members) and all(
            d > 1 or x in terms for x, d in degree.items()
        )

    def without(self, v: int, bound: float) -> SteinerSolution | None:
        """``_induced_tree(instance, members - {v}, bound)`` for one ``v``."""
        tail, head, pre, pos, size = self.tail, self.head, self.pre, self.pos, self.size
        # the MST minus v falls apart into v's child subtrees, which are
        # consecutive slices of the preorder, and the part above v
        lo = pos[v]
        hi = lo + size[v]
        starts = []
        p = lo + 1
        while p < hi:
            starts.append(p)
            p += size[pre[p]]
        above = len(starts)
        joins = above - (lo == 0)
        # union-find over the pieces: child subtree k is piece k, the part
        # above v is piece ``above``
        piece = list(range(above + 1))
        joined = []
        for r in self.spare:
            if not joins:
                break
            a = tail[r]
            b = head[r]
            if a == v or b == v:
                continue
            pa = pos[a]
            a = bisect_right(starts, pa) - 1 if lo < pa < hi else above
            pb = pos[b]
            b = bisect_right(starts, pb) - 1 if lo < pb < hi else above
            while piece[a] != a:
                piece[a] = a = piece[piece[a]]
            while piece[b] != b:
                piece[b] = b = piece[piece[b]]
            if a != b:
                piece[a] = b
                joined.append(r)
                joins -= 1
        if joins > 0 and self.terminal_leaves:
            return None
        forest = [r for r in self.mst if tail[r] != v and head[r] != v]
        forest += joined
        return _stripped_tree(self.instance, forest, bound)


class _ExchangeCheck:
    """Which edges of one tree a path lighter than themselves could replace.

    Dropping tree edge e splits the tree into two halves; an exchange can
    pay off only if some path shorter than ``w(e)`` rejoins them. One
    multi-source Dijkstra answers that for every edge at once. It starts
    from every tree vertex, enters only non-tree vertices, keeps only
    distances below the heaviest tree edge, and labels each vertex it
    reaches with its nearest tree vertex, its owner (Mehlhorn, IPL 27(3),
    1988). A path below ``w(e)`` joining the halves has an edge (x, y)
    whose owners lie on opposite sides, and the walk owner(x) to x, y to
    owner(y) is no longer than that path; any such walk lighter than
    ``w(e)`` holds such a path in turn. So e is replaceable iff a walk
    between owners lighter than ``w(e)`` has e on its tree path. The walks
    are recorded as the search settles each edge's second end, then taken
    lightest first, and each settles the still unsettled edges on its tree
    path, found by union-find jumps up the tree. Edge e's own walk weighs
    exactly ``w(e)`` and never counts.
    """

    def __init__(
        self, instance: SteinerInstance, edges: list[tuple[int, int]], root: int
    ) -> None:
        graph = instance.graph
        order, _, indptr, nbr, wts = graph.csr
        n = len(order)
        pre, pos, self.size, up = _preorder(edges, root, n)
        self.pre, self.pos = pre, pos
        # the weight of each non-root tree vertex's edge to its parent
        limit = {x: graph.weights[edge_key(order[x], order[up[x]])] for x in pre[1:]}
        heaviest = max(limit.values(), default=0)
        dist = [heaviest] * n
        owner = [-1] * n
        done = [False] * n
        for s in pre:
            dist[s] = 0
            owner[s] = s
        heap = [(0, s) for s in sorted(pre)]
        walks = []
        while heap:
            d, x = heapq.heappop(heap)
            if done[x]:
                continue
            done[x] = True
            ox = owner[x]
            for i in range(indptr[x], indptr[x + 1]):
                nd = d + wts[i]
                if nd >= heaviest:
                    continue
                y = nbr[i]
                if done[y]:
                    if owner[y] != ox:
                        nd += dist[y]
                        if nd < heaviest:
                            walks.append((nd, ox, owner[y]))
                elif nd < dist[y]:
                    dist[y] = nd
                    owner[y] = ox
                    heapq.heappush(heap, (nd, y))
        # jump[x] leads up to the nearest ancestor whose parent edge is not
        # yet settled; of two vertices on one root path, the lower one has
        # the larger preorder position
        jump = {x: x for x in pre}

        def top(x: int) -> int:
            while jump[x] != x:
                jump[x] = x = jump[jump[x]]
            return x

        self.replaceable: set[int] = set()
        unsettled = len(pre) - 1
        for length, a, b in sorted(walks):
            if not unsettled:
                break
            a = top(a)
            b = top(b)
            while a != b:
                if pos[a] < pos[b]:
                    a, b = b, a
                if length < limit[a]:
                    self.replaceable.add(a)
                jump[a] = up[a]
                unsettled -= 1
                a = top(a)

    def lower(self, a: int, b: int) -> int:
        """The endpoint of tree edge (a, b) farther from the root."""
        return a if self.pos[a] > self.pos[b] else b

    def below(self, x: int) -> set[int]:
        """The vertices of ``x``'s subtree."""
        lo = self.pos[x]
        return set(self.pre[lo : lo + self.size[x]])


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

    Deletions and exchanges are checked against the current tree rather
    than rebuilt per candidate, with the same outcome: ``_DeletionCheck``
    repairs one MST per pass instead of building the MST of each G[T - v],
    and ``_ExchangeCheck`` settles once per pass which edges a lighter path
    could replace, so the cheapest-path search runs only for those.
    ``tree`` must be a tree.
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
        if removable:
            deletion = _DeletionCheck(instance, tverts)
        for v in removable:
            if expired():
                return current
            accepted = deletion.without(v, current.weight)
            if accepted is not None:
                break
        if accepted is not None:
            current = accepted
            continue

        # edge exchange: drop one tree edge and reconnect the two halves
        # along the cheapest path in the whole graph; a path costing w(e)
        # or more cannot pay off, so only edges with a lighter path are tried
        exchange = _ExchangeCheck(
            instance, [(index[a], index[b]) for a, b in current.edges], min(tverts)
        )
        tree_edges = list(current.canonical_edges())
        # shuffled even when nothing is replaceable: the run's later
        # restarts draw from the same rng
        rng.shuffle(tree_edges)
        if not exchange.replaceable:
            return current
        for e in tree_edges:
            if expired():
                return current
            a, b = index[e[0]], index[e[1]]
            lower = exchange.lower(a, b)
            if lower not in exchange.replaceable:
                continue
            below = exchange.below(lower)
            side = below if lower == a else tverts - below
            found = _cheapest_reconnect(instance, side, tverts - side, graph.weights[e])
            if found is None:
                raise InvariantError("a reconnecting path was found, then lost")
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
) -> PoolEntry | None:
    """Run ``run``'s restarts; None if the deadline cut its first one short."""
    run_seed = _derive_seed(cfg.seed, run)
    rng = random.Random(run_seed)
    best: SteinerSolution | None = None
    best_iteration = 0
    for it in range(cfg.iterations_per_run):
        if best is not None and deadline is not None and time.monotonic() > deadline:
            break
        wmap = _perturbed_weights(instance, cfg.perturbation_strength, rng)
        start = rng.choice(sorted(instance.terminals))
        built = sph_construct(instance, wmap, start, rng, deadline)
        if built is None:
            break
        sol = local_search(instance, built, rng, deadline)
        if best is None or sol.weight < best.weight:
            best, best_iteration = sol, it
    if best is None:
        return None
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
    timestamp) cuts the build short, but run 0 ignores it and always
    completes, so the pool is never empty; any other run whose first
    construction the deadline cuts short adds nothing.
    """
    runs = list(range(cfg.pool_size))

    def run_until(r: int) -> PoolEntry | None:
        return _one_run(instance, cfg, r, None if r == 0 else deadline)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            produced = list(pool.map(run_until, runs))
    else:
        produced = []
        for r in runs:
            if r > 0 and deadline is not None and time.monotonic() > deadline:
                break
            produced.append(run_until(r))

    seen: set[tuple[Edge, ...]] = set()
    entries: list[PoolEntry] = []
    for entry in produced:
        if entry is None:
            continue
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
