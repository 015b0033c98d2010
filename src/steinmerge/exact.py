"""Exact Steiner tree solvers.

dp_solve runs a partition-state dynamic program guided by a nice tree
decomposition; its cost is exponential in the decomposition width only, so
it is fast on the narrow union graphs produced by the merge pipeline.
dreyfus_wagner is the classical terminal-subset algorithm, exponential in
the terminal count instead, kept as an independent oracle for testing.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache

from . import kernels
from .graph import (
    InfeasibleError,
    InvariantError,
    SteinerError,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    edge_key,
    prune,
)
from .treewidth import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    EliminationOrder,
    NiceDecomposition,
    decomposition_from_order,
    greedy_degree,
    make_nice,
)


class CapacityError(SteinerError):
    """A solver refused to run because a configured size budget was exceeded."""


class DeadlineError(SteinerError):
    """A solver stopped because the caller's deadline passed."""


# A stored state costs about 360 bytes (tracemalloc peak over stored states:
# 347 B on a 600k-state DP, 365 B on a 197k-state one; small DPs read up to
# 630 B, their transient join buffers weigh more), so 2^23 states hold
# about 3 GB. The largest DP of the test suite at this default asks for
# 6.7M states, stored plus predicted.
DEFAULT_STATE_BUDGET = 1 << 23
DW_TERMINAL_CAP = 12


@lru_cache(maxsize=None)
def _bell(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _checked_prune(instance: SteinerInstance, edges: set, value: int) -> SteinerSolution:
    """Prune reconstructed edges, checking the tree weighs what the DP said."""
    solution = prune(instance, edges)
    if solution.weight != value:
        raise InvariantError(
            f"reconstructed tree weighs {solution.weight}, the DP value is {value}"
        )
    return solution


@contextmanager
def _cycle_collection_paused():
    """Keep the cyclic garbage collector off for the duration of the block.

    DP tables are dicts of tuples and hold no reference cycles, so the
    collections their growth triggers find nothing; they cost a fifth to a
    third of a solve. The collector's earlier state is restored on exit.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def dp_solve(
    instance: SteinerInstance,
    nice: NiceDecomposition,
    state_budget: int = DEFAULT_STATE_BUDGET,
    stats: list[tuple[int, str, int, int]] | None = None,
    deadline: float | None = None,
) -> SteinerSolution:
    """Minimum Steiner tree via dynamic programming over a nice decomposition.

    Each table maps (chosen-subset bitmask over the bag, canonical block
    labels of the chosen vertices) to (best partial cost, backref). Terminals
    are forced into the chosen set when introduced; forgetting a vertex whose
    block has no other bag member kills the state, so only fully connected
    partial solutions survive to the root. The answer is the root state where
    the pinned root vertex forms a single block; edges are rebuilt from
    backrefs and pruned.

    Raises CapacityError once the total number of stored states passes
    ``state_budget``, and DeadlineError once ``time.monotonic()`` passes
    ``deadline``, checked before each node. Pass a list as ``stats`` to
    collect per-node (index, kind, bag size, table size) rows.
    """
    with _cycle_collection_paused():
        try:
            return _dp_solve(instance, nice, state_budget, stats, deadline)
        except (CapacityError, DeadlineError) as exc:
            # its traceback holds the frame that holds the partial tables;
            # dropping it frees them before the collector resumes
            raise exc.with_traceback(None)


def _dp_solve(
    instance: SteinerInstance,
    nice: NiceDecomposition,
    state_budget: int,
    stats: list[tuple[int, str, int, int]] | None,
    deadline: float | None,
) -> SteinerSolution:
    graph = instance.graph
    terminals = instance.terminals
    if nice.root_vertex not in terminals:
        raise ValidationError("the decomposition's pinned vertex must be a terminal")
    nodes = nice.nodes
    tables: list[dict | None] = [None] * len(nodes)
    stored = 0

    def check(predicted: int) -> None:
        # bound work as well as memory: refuse a transform whose output
        # could push the total past the budget, before paying for it
        if stored + predicted > state_budget:
            raise CapacityError(
                f"dynamic program needs more than {state_budget} states"
            )

    for idx, nd in enumerate(nodes):
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineError(f"dynamic program stopped at its deadline, node {idx}")
        if nd.kind == LEAF:
            table = kernels.dp_leaf()
        elif nd.kind == INTRODUCE:
            child = tables[nd.children[0]]
            check(2 * len(child))
            table = kernels.dp_introduce_vertex(
                child, nd.bag.index(nd.vertex), nd.vertex in terminals
            )
        elif nd.kind == INTRODUCE_EDGE:
            u, v = nd.edge
            child = tables[nd.children[0]]
            check(2 * len(child))
            table = kernels.dp_introduce_edge(
                child, nd.bag.index(u), nd.bag.index(v), graph.weights[edge_key(u, v)]
            )
        elif nd.kind == FORGET:
            c = nd.children[0]
            check(len(tables[c]))
            table = kernels.dp_forget(tables[c], nodes[c].bag.index(nd.vertex))
        elif nd.kind == JOIN:
            left, right = tables[nd.children[0]], tables[nd.children[1]]
            per_mask = Counter(key[0] for key in right)
            check(sum(per_mask.get(key[0], 0) for key in left))
            table = kernels.dp_join(left, right)
        else:
            raise ValidationError(f"unknown node kind {nd.kind!r}")
        b = len(nd.bag)
        if len(table) > (1 << b) * _bell(b):
            raise InvariantError("table outgrew the subset*Bell bound")
        tables[idx] = table
        stored += len(table)
        # tables stay alive until reconstruction, so the budget caps the total
        check(0)
        if stats is not None:
            stats.append((idx, nd.kind, b, len(table)))

    root_key = (1, (0,))
    root_table = tables[-1]
    if root_key not in root_table:
        raise InfeasibleError("terminals cannot be connected in this graph")
    value = root_table[root_key][0]

    edges: set = set()
    stack = [(len(nodes) - 1, root_key)]
    while stack:
        idx, key = stack.pop()
        nd = nodes[idx]
        back = tables[idx][key][1]
        if nd.kind == LEAF:
            continue
        if nd.kind == INTRODUCE:
            stack.append((nd.children[0], back[0]))
        elif nd.kind == INTRODUCE_EDGE:
            child_key, taken = back
            if taken:
                edges.add(edge_key(*nd.edge))
            stack.append((nd.children[0], child_key))
        elif nd.kind == FORGET:
            stack.append((nd.children[0], back))
        else:  # join
            stack.append((nd.children[0], back[0]))
            stack.append((nd.children[1], back[1]))

    return _checked_prune(instance, edges, value)


def solve_with_decomposition(
    instance: SteinerInstance,
    tie: str = "low",
    root_vertex: int | None = None,
    order: EliminationOrder | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SteinerSolution:
    """Full exact pipeline on one graph: order, decompose, refine, dp_solve.

    The result weight does not depend on the tie rule, the pinned root
    terminal, or the supplied elimination order; those knobs only change
    which decomposition carries the computation.
    """
    if order is None:
        order = greedy_degree(instance.graph, tie=tie)
    td = decomposition_from_order(instance.graph, order)
    if root_vertex is None:
        root_vertex = min(instance.terminals)
    nice = make_nice(instance.graph, td, root_vertex)
    return dp_solve(instance, nice, state_budget=state_budget)


def dreyfus_wagner(
    instance: SteinerInstance, terminal_cap: int = DW_TERMINAL_CAP
) -> SteinerSolution:
    """Optimal Steiner tree by the terminal-subset dynamic program.

    Cost grows with 3^|Q|, so the call refuses terminal sets larger than
    ``terminal_cap``. Intended for cross-checking other solvers at test
    scale, not for production runs.
    """
    q = sorted(instance.terminals)
    k = len(q)
    if k > terminal_cap:
        raise CapacityError(f"{k} terminals exceeds the oracle cap of {terminal_cap}")
    if k == 1:
        return SteinerSolution(frozenset(), 0)

    graph = instance.graph
    order, index, indptr, nbr, wts = graph.csr
    n = len(order)
    base = q[:-1]
    root = index[q[-1]]
    full = (1 << len(base)) - 1
    inf = float("inf")

    tpred: list[list[int]] = []
    dp: dict[int, list] = {}
    for i, t in enumerate(base):
        dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, [index[t]], n)
        dp[1 << i] = dist
        tpred.append(pred)

    back: dict[int, list] = {}
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue  # singletons are the seeded Dijkstra rows
        vals = [inf] * n
        bk: list = [None] * n
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # enumerate each split once
                a, b = dp[sub], dp[mask ^ sub]
                for v in range(n):
                    c = a[v] + b[v]
                    if c < vals[v]:
                        vals[v] = c
                        bk[v] = ("split", sub)
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
                    bk[u] = ("walk", v)
                    heapq.heappush(heap, (c, u))
        dp[mask] = vals
        back[mask] = bk

    value = dp[full][root]
    edges: set = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            i = mask.bit_length() - 1
            src = index[base[i]]
            cur = v
            while cur != src:
                p = tpred[i][cur]
                edges.add(edge_key(order[cur], order[p]))
                cur = p
            continue
        tag = back[mask][v]
        if tag[0] == "split":
            sub = tag[1]
            stack.append((sub, v))
            stack.append((mask ^ sub, v))
        else:
            u = tag[1]
            edges.add(edge_key(order[v], order[u]))
            stack.append((mask, u))

    return _checked_prune(instance, edges, value)
