"""Synthetic instance builders for tests and benchmarks.

All builders are deterministic functions of their seed. Vertex ids are
always 0..n-1 so the instances serialize cleanly.
"""

from __future__ import annotations

import random
from typing import Iterable

from .graph import Edge, SteinerInstance, WeightedGraph, edge_key


def _pick_terminals(rng: random.Random, vertices: Iterable[int], count: int) -> list[int]:
    vs = sorted(vertices)
    count = max(1, min(count, len(vs)))
    return rng.sample(vs, count)


def random_connected_instance(
    seed: int,
    n_vertices: int,
    n_edges: int,
    n_terminals: int,
    max_weight: int = 100,
    name: str = "",
) -> SteinerInstance:
    """Random spanning tree plus extra edges, uniform weights 1..max_weight."""
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    verts = list(range(n_vertices))
    rng.shuffle(verts)
    weights: dict[Edge, int] = {}
    for i in range(1, n_vertices):
        u, v = verts[rng.randrange(i)], verts[i]
        weights[edge_key(u, v)] = rng.randint(1, max_weight)
    cap = n_vertices * (n_vertices - 1) // 2
    target = min(max(n_edges, n_vertices - 1), cap)
    while len(weights) < target:
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        if u == v or edge_key(u, v) in weights:
            continue
        weights[edge_key(u, v)] = rng.randint(1, max_weight)
    graph = WeightedGraph(frozenset(range(n_vertices)), weights)
    terms = _pick_terminals(rng, graph.vertices, n_terminals)
    return SteinerInstance.create(graph, terms, name or f"rand-{seed}")


def sparse_instance(
    seed: int, n_vertices: int, n_terminals: int, avg_degree: float = 3.0, max_weight: int = 100
) -> SteinerInstance:
    """Random connected instance with a target average degree."""
    n_edges = int(n_vertices * avg_degree / 2)
    return random_connected_instance(
        seed, n_vertices, n_edges, n_terminals, max_weight, name=f"sparse-{seed}"
    )


def dense_instance(
    seed: int, n_vertices: int, density: float, n_terminals: int, max_weight: int = 100
) -> SteinerInstance:
    """Random connected instance with the given edge density in [0, 1]."""
    n_edges = int(density * n_vertices * (n_vertices - 1) / 2)
    return random_connected_instance(
        seed, n_vertices, n_edges, n_terminals, max_weight, name=f"dense-{seed}"
    )


def tree_instance(
    seed: int, n_vertices: int, n_terminals: int, max_weight: int = 100
) -> SteinerInstance:
    """Random tree (every vertex degree-bounded only by chance): the
    spanning tree of ``random_connected_instance``, with no extra edge."""
    return random_connected_instance(
        seed, n_vertices, n_vertices - 1, n_terminals, max_weight, name=f"tree-{seed}"
    )


def cycle_instance(n_vertices: int, n_terminals: int = 2, max_weight: int = 10, seed: int = 0) -> SteinerInstance:
    """Simple cycle 0-1-...-(n-1)-0."""
    rng = random.Random(seed)
    weights = {
        edge_key(i, (i + 1) % n_vertices): rng.randint(1, max_weight)
        for i in range(n_vertices)
    }
    graph = WeightedGraph(frozenset(range(n_vertices)), weights)
    terms = _pick_terminals(rng, graph.vertices, n_terminals)
    return SteinerInstance.create(graph, terms, f"cycle-{n_vertices}")


def clique_instance(n_vertices: int, n_terminals: int = 2, max_weight: int = 10, seed: int = 0) -> SteinerInstance:
    """Complete graph on n vertices."""
    rng = random.Random(seed)
    weights = {
        (u, v): rng.randint(1, max_weight)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
    }
    graph = WeightedGraph(frozenset(range(n_vertices)), weights)
    terms = _pick_terminals(rng, graph.vertices, n_terminals)
    return SteinerInstance.create(graph, terms, f"clique-{n_vertices}")


def grid_with_holes(
    seed: int,
    rows: int,
    cols: int,
    hole_fraction: float = 0.15,
    n_terminals: int = 10,
    max_weight: int = 100,
) -> SteinerInstance:
    """Rectangular grid with random vertices punched out; max degree 4.

    Mimics the structure of routing-style benchmark families. Keeps the
    largest connected component after punching holes, so the vertex count
    lands a bit under rows*cols.
    """
    rng = random.Random(seed)
    alive = {
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if rng.random() >= hole_fraction
    }
    vid = {rc: i for i, rc in enumerate(sorted(alive))}
    weights: dict[Edge, int] = {}
    for r, c in sorted(alive):
        for nr, nc in ((r + 1, c), (r, c + 1)):
            if (nr, nc) in alive:
                weights[edge_key(vid[(r, c)], vid[(nr, nc)])] = rng.randint(1, max_weight)

    # keep the largest component only
    adj: dict[int, list[int]] = {}
    for u, v in weights:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not adj:
        raise ValueError("grid degenerated to isolated vertices; lower hole_fraction")
    best_comp: set[int] = set()
    unvisited = set(adj)
    while unvisited:
        start = min(unvisited)
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        unvisited -= comp
        if len(comp) > len(best_comp):
            best_comp = comp
    kept = {
        e: w for e, w in weights.items() if e[0] in best_comp and e[1] in best_comp
    }
    # compact ids so serialization stays dense
    remap = {v: i for i, v in enumerate(sorted(best_comp))}
    weights2 = {edge_key(remap[u], remap[v]): w for (u, v), w in kept.items()}
    graph = WeightedGraph(frozenset(range(len(best_comp))), weights2)
    terms = _pick_terminals(rng, graph.vertices, n_terminals)
    return SteinerInstance.create(graph, terms, f"grid-{rows}x{cols}-{seed}")
