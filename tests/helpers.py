"""Shared builders and miniature oracles for the test suite."""

from __future__ import annotations

import concurrent.futures
import random
import time
from itertools import combinations

from steinmerge import SteinerInstance, SteinerSolution, WeightedGraph, kernels, merge
from steinmerge.synth import random_connected_instance


def build_instance(edges, terminals, extra_vertices=(), name="t"):
    """Instance from (u, v, w) triples; vertex set inferred from the edges."""
    verts = {v for u, v, _ in edges for v in (u,)} | {v for _, v, _ in edges}
    verts |= set(extra_vertices)
    graph = WeightedGraph.build(verts, edges)
    return SteinerInstance.create(graph, terminals, name)


def compacted(graph):
    """The graph relabelled monotonically onto 0..k-1, and its ids by label."""
    ids = sorted(graph.vertices)
    label = {v: i for i, v in enumerate(ids)}
    dense = WeightedGraph.build(
        range(len(ids)), [(label[u], label[v], w) for (u, v), w in graph.weights.items()]
    )
    return dense, ids


def reversed_ids(instance):
    """The instance with vertex v renamed to n-1-v.

    Greedy elimination breaks degree ties toward the lowest id, so on the
    renamed copy, mapped back, it breaks them toward the highest: a second,
    independently built decomposition of the same graph.
    """
    top = instance.graph.n_vertices - 1
    graph = WeightedGraph.build(
        range(top + 1), [(top - u, top - v, w) for (u, v), w in instance.graph.weights.items()]
    )
    return SteinerInstance.create(graph, [top - t for t in instance.terminals], instance.name)


def solution_of(instance, edges):
    return SteinerSolution.from_edges(instance.graph, edges)


def four_cycle(heavy=10):
    """Cycle 0-1-2-3-0 with one heavy edge (0,3); terminals are its endpoints."""
    return build_instance(
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, heavy)], [0, 3]
    )


def brute_force_weight(instance):
    """Minimum Steiner tree weight by exhaustive edge-subset search.

    Only usable on tiny instances (cost 2^|E|). Returns the optimal weight.
    """
    g = instance.graph
    terms = instance.terminals
    if len(terms) == 1:
        return 0
    edges = sorted(g.weights)
    best = None
    # every acyclic terminal-spanning subset is a candidate; sizes range
    # from |Q|-1 up to |V|-1 and a bigger tree can still be lighter
    for size in range(len(terms) - 1, g.n_vertices):
        for combo in combinations(edges, size):
            verts = {v for e in combo for v in e}
            if not terms <= verts:
                continue
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for u, v in combo:
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if not acyclic:
                continue
            anchor = find(next(iter(terms)))
            if any(find(t) != anchor for t in terms):
                continue
            w = g.total_weight(combo)
            if best is None or w < best:
                best = w
    if best is None:
        raise AssertionError("no spanning subtree found")
    return best


def path_distance(instance, a, b):
    """Shortest-path distance inside the instance graph."""
    indptr, nbr, wts = instance.graph.csr
    dist, _ = kernels.dijkstra_multi(indptr, nbr, wts, [(0, a)], instance.graph.n_vertices)
    return dist[b]


def tie_heavy_instance(seed, n_vertices=14, n_edges=30, n_terminals=4):
    """A random synth graph with weights redrawn from 0..3: many ties, some zeros."""
    base = random_connected_instance(seed, n_vertices, n_edges, n_terminals)
    rng = random.Random(seed)
    graph = WeightedGraph.build(
        base.graph.vertices,
        [(u, v, rng.randint(0, 3)) for u, v in sorted(base.graph.weights)],
    )
    return SteinerInstance.create(graph, base.terminals)


def in_process_pool(monkeypatch):
    """Swap ``parallel_map``'s process pool for one that runs tasks here.

    Returns the list of ``max_workers`` values each pool was built with, so
    a test can check the worker count without starting a process.
    """
    built = []

    class InProcessPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # parallel_map imports the name from the package each time it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return built


def late_union_solves(monkeypatch):
    """Hold every clock at 0.0 until a union solve returns, then at 9.0."""
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    real = merge._Union.solve

    def solve(self, *args):
        tree = real(self, *args)
        now[0] = 9.0
        return tree

    monkeypatch.setattr(merge._Union, "solve", solve)
