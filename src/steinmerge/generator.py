"""Multistart generation of distinct locally optimal Steiner trees.

Each run perturbs the edge weights, grows a tree with the shortest-path
construction heuristic from a random terminal, then descends with a local
search. Runs use independently derived seeds, so a pool built by worker
processes is bit-identical to a sequential one.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

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
    text_lines,
)

_M64 = (1 << 64) - 1


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``list(map(fn, items))``, in worker processes when more than one runs.

    Workers are capped at one per item and one per CPU. ``fn`` must pickle:
    a module-level function or a ``functools.partial`` of one.
    """
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(fn, items))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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


@dataclass
class SolutionPool:
    """Deduplicated, ordered collection of locally optimal trees."""

    entries: list[SteinerSolution]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def weights(self) -> list[int]:
        return [tree.weight for tree in self.entries]

    def best_index(self) -> int:
        ws = self.weights
        return min(range(len(ws)), key=lambda i: (ws[i], i))


def _perturbed_weights(
    instance: SteinerInstance, strength: float, rng: random.Random
) -> list[float] | None:
    """Each CSR slot's weight scaled by ``1 + rng.random() * strength``.

    One draw per edge, in sorted edge-key order, so the draws and the
    floats do not depend on the CSR layout.
    """
    if strength == 0.0:
        return None
    weights, positions = instance.graph.key_order
    drawn = [w * (1.0 + rng.random() * strength) for w in weights]
    return [drawn[k] for k in positions]


def sph_construct(
    instance: SteinerInstance,
    weights: list[float] | None,
    start: int,
    rng: random.Random,
    deadline: float | None = None,
) -> SteinerSolution:
    """Shortest-path construction heuristic.

    Starting from one terminal, repeatedly attach the terminal nearest to
    the current tree (under ``weights``, one per CSR slot, or the graph's
    own weights when None) along a shortest path; distance ties are broken
    by ``rng``. Once ``deadline`` (a monotonic-clock timestamp), read after
    each search, has passed, every remaining terminal joins along that
    search's predecessor paths, a forest rooted in the tree. The result is
    pruned and weighted under the instance's original weights.
    """
    terms = instance.terminals
    if start not in terms:
        raise ValidationError("construction must start at a terminal")

    graph = instance.graph
    indptr, nbr, wts = graph.csr
    wlist = wts if weights is None else weights
    n = graph.n_vertices

    tree = {start}
    edges: set[Edge] = set()
    remaining = terms - tree
    while remaining:
        dist, pred = kernels.dijkstra_multi(
            indptr, nbr, wlist, [(0, s) for s in tree], n
        )
        if deadline is not None and time.monotonic() > deadline:
            targets = sorted(remaining)
        else:
            best = min(dist[t] for t in remaining)
            candidates = sorted(t for t in remaining if dist[t] == best)
            targets = [candidates[0] if len(candidates) == 1 else rng.choice(candidates)]
        for cur in targets:
            while cur not in tree:
                p = pred[cur]
                edges.add(edge_key(cur, p))
                tree.add(cur)
                cur = p
        remaining -= tree
    return prune(instance, edges)


def _insertion_candidates(instance: SteinerInstance, tverts: frozenset[int]) -> list[int]:
    """The vertices outside ``tverts`` with two or more neighbours in it, ascending.

    Only these can pay off as insertions: a vertex attached by a single
    edge is pruned right back off. Neighbours are counted over the CSR
    rows of the tree's vertices, so the scan costs the tree's degree sum,
    not the graph's size.
    """
    indptr, nbr, _ = instance.graph.csr
    around: list[int] = []
    for x in tverts:
        around += nbr[indptr[x] : indptr[x + 1]]
    return sorted(v for v, c in Counter(around).items() if c > 1 and v not in tverts)


def _preorder(
    edges: Iterable[tuple[int, int]], root: int, n: int
) -> tuple[list[int], list[int], list[int], dict[int, int]]:
    """Depth-first preorder from ``root`` of the tree with these edges.

    Vertices are ids below ``n``. Returns the order, each vertex's
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


class _PassForest:
    """Every vertex move of one tree, scored against one spanning forest.

    Built once per local-search pass: the MST of G[T], T the current tree's
    vertices, and the induced edges it leaves out, in rank order. Under the
    strict rank order each subgraph has one minimum spanning forest, and
    each move repairs this one. Inserting ``v``: a left-out edge is the
    heaviest on a cycle of MST edges that G[T + v] keeps, so it stays out,
    and Kruskal over the MST plus ``v``'s edges into T gives the forest of
    G[T + v]. Deleting ``v``: an MST edge avoiding ``v`` is the lightest
    across some cut of G[T] and stays so in G[T - v], so that forest is the
    MST minus the edges at ``v``, plus whatever Kruskal takes from the
    left-out edges avoiding ``v`` to join the pieces ``v`` leaves behind.

    When the MST spans T and all its leaves are terminals, every such piece
    holds a terminal: a one-vertex piece is an MST leaf, and a larger one
    has two leaves of its own, at most one of them ``v``'s neighbour. Then
    pieces Kruskal cannot join mean disconnected terminals, and a deletion
    gives None before any forest is built.
    """

    def __init__(self, instance: SteinerInstance, members: frozenset[int]) -> None:
        self.instance = instance
        self.members = members
        graph = instance.graph
        indptr, nbr, _ = graph.csr
        slot = graph.slot_ranks
        ranks = graph.edge_ranks
        self.tail, self.head = ranks.tail, ranks.head
        induced = sorted(
            slot[i]
            for v in members
            for i in range(indptr[v], indptr[v + 1])
            if nbr[i] > v and nbr[i] in members
        )
        self.spare: list[int] = []
        self.mst = minimum_spanning_edges(
            graph.n_vertices, self.tail, self.head, induced, self.spare, len(members) - 1
        )
        self.pre, self.pos, self.size, _ = _preorder(
            ((self.tail[r], self.head[r]) for r in self.mst),
            min(members),
            graph.n_vertices,
        )
        degree = Counter(x for r in self.mst for x in (self.tail[r], self.head[r]))
        terms = instance.terminals
        self.terminal_leaves = len(self.pre) == len(members) and all(
            d > 1 or x in terms for x, d in degree.items()
        )

    def with_vertex(self, v: int, bound: float) -> SteinerSolution | None:
        """The pruned MST of G[T + v] if lighter than ``bound``, else None."""
        graph = self.instance.graph
        indptr, nbr, _ = graph.csr
        slot = graph.slot_ranks
        members = self.members
        ranked = self.mst + [
            slot[i] for i in range(indptr[v], indptr[v + 1]) if nbr[i] in members
        ]
        ranked.sort()
        forest = minimum_spanning_edges(
            graph.n_vertices, self.tail, self.head, ranked, spanning=len(members)
        )
        return strip_leaves(self.instance, forest, bound)

    def without(self, v: int, bound: float) -> SteinerSolution | None:
        """The pruned MST of G[T - v] if lighter than ``bound``, else None."""
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
        return strip_leaves(self.instance, forest, bound)


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
        self, instance: SteinerInstance, edges: Iterable[Edge], root: int
    ) -> None:
        graph = instance.graph
        indptr, nbr, wts = graph.csr
        n = graph.n_vertices
        pre, pos, self.size, up = _preorder(edges, root, n)
        self.pre, self.pos = pre, pos
        # the weight of each non-root tree vertex's edge to its parent
        limit = {x: graph.weights[edge_key(x, up[x])] for x in pre[1:]}
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
    """Cheapest path from ``side`` to ``other`` under ``limit``.

    A multi-source Dijkstra that never keeps a distance of ``limit`` or
    more. Returns None when no vertex of ``other`` is that close.
    """
    indptr, nbr, wts = instance.graph.csr
    n = instance.graph.n_vertices
    dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, [(0, s) for s in side], n, limit)
    best_v = min(sorted(other), key=dist.__getitem__)
    if dist[best_v] >= limit:
        return None
    path: list[Edge] = []
    cur = best_v
    while pred[cur] >= 0:
        p = pred[cur]
        path.append(edge_key(cur, p))
        cur = p
    return dist[best_v], path


# a tree, as its vertex set T and its weight w, mapped to every move scored
# on it: vertex v -> the pruned MST of G[T + v] (v outside T, an insertion)
# or of G[T - v] (v in T, a deletion) if lighter than w, else None
Verdicts = dict[tuple[frozenset[int], int], dict[int, SteinerSolution | None]]


@dataclass
class Optima:
    """One pool's ``local_search`` memo.

    ``optima`` maps each certified local optimum's edge set to the lengths
    of the three lists its certifying pass shuffled; ``verdicts`` keeps
    every insertion and every Steiner-vertex deletion a ``_PassForest``
    scored, one table for both, since a vertex's membership in the tree
    says which move it was.
    """

    optima: dict[frozenset[Edge], tuple[int, int, int]] = field(default_factory=dict)
    verdicts: Verdicts = field(default_factory=dict)


def _lighter(
    accepted: SteinerSolution, current: SteinerSolution, move: str
) -> SteinerSolution:
    """``accepted``, checked to be strictly lighter than ``current``.

    Every accepted move must lose weight, or the descent need not end; a
    scoring fault, such as a stale memo entry, fails here instead.
    """
    if accepted.weight >= current.weight:
        raise InvariantError(
            f"an accepted {move} weighs {accepted.weight}, the tree it"
            f" replaces {current.weight}"
        )
    return accepted


def local_search(
    instance: SteinerInstance,
    tree: SteinerSolution,
    rng: random.Random,
    deadline: float | None = None,
    memo: Optima | None = None,
) -> SteinerSolution:
    """Descend from ``tree`` to a local optimum; weight never increases.

    Moves, tried in order until none improves: insert a non-tree vertex and
    take the pruned MST over the enlarged vertex set; delete a Steiner
    vertex the same way; swap one tree edge for the cheapest path that
    reconnects the two halves. Scan orders are shuffled by ``rng``. Once
    ``deadline`` (a monotonic-clock timestamp) has passed, the current tree
    is returned before the next candidate is evaluated.

    Every move is checked against the current tree rather than rebuilt
    from the graph, with the same outcome: one ``_PassForest`` per pass
    repairs the MST of G[T] into that of each G[T + v] and G[T - v], and
    ``_ExchangeCheck`` settles once per pass which edges a lighter path
    could replace, so the cheapest-path search runs only for those.
    ``tree`` must be a tree. An accepted move that is not strictly lighter
    than the current tree raises InvariantError, so a scoring fault cannot
    make the descent cycle.

    ``memo`` (fresh when not given; a pool's runs share one) remembers in
    ``optima`` the trees a full pass found no improving move for. Moves are
    scored under the instance's own weights, so that verdict belongs to the
    tree alone: a pass that starts from a remembered tree returns it at
    once, after shuffling lists of the stored lengths. ``random.shuffle``
    draws depend only on the length, so ``rng`` ends where the full pass
    would have left it. A pass the deadline cuts short records nothing.

    Its ``verdicts`` keep every insertion and deletion scored, in one dict
    per tree: the pruned MSTs of G[T + v] and G[T - v] under w depend only
    on the tree's vertex set T, its weight w and v, and v's membership in T
    says which of the two it is. So a pass over a tree seen before looks
    each candidate up first and scores only the new ones; the pass's
    ``_PassForest`` is built on the first candidate not yet scored, and
    not at all when every one is. The scan order, the deadline checks and the
    rng draws stay as they were. Within one call no tree repeats, since
    every accepted move is lighter, so a fresh memo changes nothing.

    Insertion candidates come from the tree's neighbourhood: only the
    CSR rows of the tree's vertices are read, so a pass costs work in
    proportion to the tree and its neighbours, not to the graph.
    """
    current = tree
    if len(instance.terminals) == 1:
        return current
    graph = instance.graph
    terms = instance.terminals
    if memo is None:
        memo = Optima()
    optima, verdicts = memo.optima, memo.verdicts

    def expired() -> bool:
        return deadline is not None and time.monotonic() > deadline

    while True:
        if current.edges in optima:
            for length in optima[current.edges]:
                rng.shuffle([None] * length)
            return current
        tverts = current.vertices
        candidates = _insertion_candidates(instance, tverts)
        rng.shuffle(candidates)
        scored = verdicts.setdefault((tverts, current.weight), {})
        forest = None
        accepted = None
        for v in candidates:
            if expired():
                return current
            if v in scored:
                accepted = scored[v]
            else:
                if forest is None:
                    forest = _PassForest(instance, tverts)
                accepted = scored[v] = forest.with_vertex(v, current.weight)
            if accepted is not None:
                break
        if accepted is not None:
            current = _lighter(accepted, current, "insertion")
            continue

        removable = [v for v in sorted(tverts) if v not in terms]
        rng.shuffle(removable)
        for v in removable:
            if expired():
                return current
            if v in scored:
                accepted = scored[v]
            else:
                if forest is None:
                    forest = _PassForest(instance, tverts)
                accepted = scored[v] = forest.without(v, current.weight)
            if accepted is not None:
                break
        if accepted is not None:
            current = _lighter(accepted, current, "deletion")
            continue

        # edge exchange: drop one tree edge and reconnect the two halves
        # along the cheapest path in the whole graph; a path costing w(e)
        # or more cannot pay off, so only edges with a lighter path are tried
        exchange = _ExchangeCheck(instance, current.edges, min(tverts))
        tree_edges = list(current.canonical_edges())
        # shuffled even when nothing is replaceable: the run's later
        # restarts draw from the same rng
        rng.shuffle(tree_edges)
        if exchange.replaceable:
            for e in tree_edges:
                if expired():
                    return current
                a, b = e
                lower = exchange.lower(a, b)
                if lower not in exchange.replaceable:
                    continue
                below = exchange.below(lower)
                side = below if lower == a else tverts - below
                found = _cheapest_reconnect(instance, side, tverts - side, graph.weights[e])
                if found is None:
                    raise InvariantError("a reconnecting path was found, then lost")
                # the path is lighter than e, and pruning only sheds weight,
                # so the first replaceable edge gives a lighter tree
                rest = set(current.edges)
                rest.discard(e)
                accepted = prune(instance, rest | set(found[1]))
                break
        if accepted is None:
            optima[current.edges] = (len(candidates), len(removable), len(tree_edges))
            return current
        current = _lighter(accepted, current, "exchange")


def _one_run(
    instance: SteinerInstance,
    cfg: GeneratorConfig,
    deadline: float | None,
    memo: Optima,
    run: int,
) -> SteinerSolution | None:
    """Run ``run``'s restarts and return their best tree, or None if none
    started. Only run 0's first restart starts past the deadline, so a pool
    is never empty; a restart the deadline cuts short still returns its tree.
    """
    rng = random.Random(_derive_seed(cfg.seed, run))
    best: SteinerSolution | None = None
    for restart in range(cfg.iterations_per_run):
        if (run or restart) and deadline is not None and time.monotonic() > deadline:
            break
        weights = _perturbed_weights(instance, cfg.perturbation_strength, rng)
        start = rng.choice(sorted(instance.terminals))
        built = sph_construct(instance, weights, start, rng, deadline)
        sol = local_search(instance, built, rng, deadline, memo)
        if best is None or sol.weight < best.weight:
            best = sol
    return best


def generate_pool(
    instance: SteinerInstance,
    cfg: GeneratorConfig,
    workers: int = 1,
    deadline: float | None = None,
) -> SolutionPool:
    """Produce up to ``cfg.pool_size`` distinct locally optimal trees.

    The pool holds each run's best tree, earliest run first; a tree whose
    edge set an earlier run gave is dropped. A pure function of (instance,
    cfg): every run draws from its own derived seed, so the worker count
    never changes the result. ``deadline`` (a monotonic-clock
    timestamp) cuts the build short: no restart but run 0's first starts
    once it has passed, so the pool is never empty.

    The runs share one ``local_search`` memo of certified local optima and
    insertion and deletion verdicts, which changes no rng draw; a worker
    process gets its own copy.
    """
    memo = Optima()
    produced = parallel_map(
        partial(_one_run, instance, cfg, deadline, memo), range(cfg.pool_size), workers
    )
    first: dict[frozenset[Edge], SteinerSolution] = {}
    for tree in produced:
        if tree is not None:
            first.setdefault(tree.edges, tree)
    return SolutionPool(list(first.values()))


# ---------------------------------------------------------------------------
# pool file format

_POOL_MAGIC = "steinmerge-pool 1"


def write_pool(pool: SolutionPool) -> str:
    """Serialize a pool: one `tree <weight> <u> <v> ...` line per solution.

    Vertex ids are written 1-based to match the instance file convention.
    """
    lines = [_POOL_MAGIC]
    for tree in pool.entries:
        flat = " ".join(f"{u + 1} {v + 1}" for u, v in tree.canonical_edges())
        lines.append(f"tree {tree.weight} {flat}".rstrip())
    lines.append("")
    return "\n".join(lines)


def read_pool(text: str, instance: SteinerInstance) -> SolutionPool:
    """Parse a pool file and validate every tree against the instance.

    Accepts output of any generator that emits the same format; stated
    weights must match the instance's weights exactly. A tree given twice
    is kept once, in the place of its first line.
    """
    records = text_lines(text, "#")
    header = next(records, None)
    if header is None or header[:2] != (1, _POOL_MAGIC):
        raise ParseError("missing pool header line")
    vertices, weights = instance.graph.vertices, instance.graph.weights
    first: dict[frozenset[Edge], SteinerSolution] = {}
    for lineno, _, toks in records:
        if toks[0] != "tree" or len(toks) % 2 != 0:
            raise ParseError(f"line {lineno}: malformed tree line")
        try:
            weight = int(toks[1])
            ids = [int(t) - 1 for t in toks[2:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        edges = set()
        total = 0
        for i in range(0, len(ids), 2):
            u, v = ids[i], ids[i + 1]
            if not (u in vertices and v in vertices):
                raise ParseError(f"line {lineno}: vertex id out of range")
            e = edge_key(u, v)
            w = weights.get(e)
            if w is None:
                raise ValidationError(
                    f"line {lineno}: ({u + 1}, {v + 1}) is not an edge of the instance"
                )
            if e not in edges:  # a repeated edge counts once, as in the edge set
                edges.add(e)
                total += w
        sol = SteinerSolution(frozenset(edges), total)
        if sol.weight != weight:
            raise ValidationError(
                f"line {lineno}: stated weight {weight} != edge total {sol.weight}"
            )
        problems = solution_violations(instance, sol)
        if problems:
            raise ValidationError(f"line {lineno}: {problems[0]}")
        first.setdefault(sol.edges, sol)
    if not first:
        raise ParseError("pool file contains no trees")
    return SolutionPool(list(first.values()))
