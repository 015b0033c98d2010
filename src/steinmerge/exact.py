"""Exact Steiner tree solvers.

dp_solve runs a partition-state dynamic program guided by a nice tree
decomposition; its cost is exponential in the decomposition width only, so
it is fast on the narrow union graphs produced by the merge pipeline.
dreyfus_wagner is the classical terminal-subset algorithm, exponential in
the terminal count instead, kept as an independent oracle for testing.
"""

from __future__ import annotations

import gc
import time
from array import array
from contextlib import contextmanager
from functools import lru_cache

from . import kernels
from .graph import (
    CapacityError,
    DeadlineError,
    InfeasibleError,
    InvariantError,
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
    NiceDecomposition,
    TreeDecomposition,
    decomposition_from_order,
    greedy_degree,
    make_nice,
)


# A stored state costs about 360 bytes (tracemalloc peak over stored states:
# 347 B on a 600k-state DP, 365 B on a 197k-state one; small DPs read up to
# 630 B, their transient join buffers weigh more), so 2^23 states hold
# about 3 GB. The largest DP of the test suite at this default asks for
# 6.7M states, stored plus predicted.
DEFAULT_STATE_BUDGET = 1 << 23
DW_TERMINAL_CAP = 12
# A Dreyfus-Wagner cell (value plus backref) costs about 46 bytes: peak RSS
# 110.6 MB against 16.9 MB before one call of 2,047 x 1,000 cells. So 2^26
# cells hold about 3 GB, as the state budget does.
DW_CELL_BUDGET = 1 << 26


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


def tree_states_bound(n_vertices: int) -> int:
    """A state budget that ``dp_solve`` provably stays within on a tree.

    The decomposition is the one ``merge._Union.solve`` builds: from the
    greedy minimum-degree order of a tree with ``n_vertices`` vertices,
    pinned at a terminal. A tree always has a vertex of degree at most 1, and
    removing it adds no fill edge, so each decomposition bag is a vertex
    plus at most one later neighbour: 2 vertices, 3 with the pinned one.
    ``make_nice`` then emits a leaf node and at most 2 introduces for each
    decomposition leaf, at most 2 forgets, 2 introduces and 1 join for
    each child link, one introduce-edge per tree edge and at most 2 final
    forgets. With n decomposition nodes and n - 1 child links that is at
    most 3n + 5(n - 1) + (n - 1) + 2 < 9n nice nodes. A table over 3
    vertices holds at most 2^3 * Bell(3) = 40 states, and no check before
    a transform predicts more than 2 * 40 = 80 (an introduce-edge of a
    full table). So the DP never counts more than 40(9n - 1) + 80 states.
    """
    return 360 * n_vertices + 40


def _over_budget(state_budget: int) -> CapacityError:
    return CapacityError(f"dynamic program needs more than {state_budget} states")


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
    collections their growth triggers find nothing; ``merge.run_smh``
    holds the pause over a whole merge for the same reason. Timed on the wall
    clock over 60 ``solve_with_decomposition`` calls on
    ``random_connected_instance`` graphs of 6-25 vertices and up to 3n
    edges (7 of them run out of states), in 4 rounds in one process that
    alternate the two sides, the calls took 52.0-58.4 s (median 54.5)
    with the pause and 56.4-60.4 s (median 59.5) without it (Python
    3.11, 2 vCPUs), when those solves still rooted the decomposition at
    the first-eliminated bag. The collector's earlier state is restored
    on exit.
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

    Each table maps (chosen-subset bitmask over the bag, id of the chosen
    vertices' canonical block labels) to (best partial cost, backref); one
    ``kernels.Partitions`` per call interns the label tuples, and the
    transforms memo their partition transitions in it. Terminals
    are forced into the chosen set when introduced; forgetting a vertex whose
    block has no other bag member kills the state, so only fully connected
    partial solutions survive to the root. The answer is the root state where
    the pinned root vertex forms a single block; edges are rebuilt from
    backrefs and pruned.

    Raises CapacityError once the total number of stored states passes
    ``state_budget``, and DeadlineError once ``time.monotonic()`` passes
    ``deadline``, checked before each node and, inside every kernel but the
    leaf's, before each input state (a join's left states). Pass a list as
    ``stats`` to collect per-node (index, kind, bag size, table size) rows.
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
    weights = instance.graph.weights
    terminals = instance.terminals
    if nice.root_vertex not in terminals:
        raise ValidationError("the decomposition's pinned vertex must be a terminal")
    nodes = nice.nodes
    tables: list[dict | None] = [None] * len(nodes)
    parts = kernels.Partitions()
    stored = 0
    # the most states a table over a bag of b vertices can hold; no bag
    # of a nice decomposition holds more than width + 1 vertices
    bound = [(1 << b) * _bell(b) for b in range(nice.width + 2)]

    # Before each transform, its output's largest possible size is checked
    # against the budget, so work is bounded as well as memory; after it,
    # the total stored, since tables stay alive until reconstruction.
    for idx, nd in enumerate(nodes):
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineError(f"dynamic program stopped at its deadline, node {idx}")
        kind = nd.kind
        if kind == INTRODUCE_EDGE:
            u, v = nd.edge
            child = tables[nd.children[0]]
            if stored + 2 * len(child) > state_budget:
                raise _over_budget(state_budget)
            table = kernels.dp_introduce_edge(
                child, nd.bag.index(u), nd.bag.index(v), weights[edge_key(u, v)],
                parts, deadline,
            )
        elif kind == INTRODUCE:
            child = tables[nd.children[0]]
            if stored + 2 * len(child) > state_budget:
                raise _over_budget(state_budget)
            table = kernels.dp_introduce_vertex(
                child, nd.bag.index(nd.vertex), nd.vertex in terminals, parts, deadline
            )
        elif kind == FORGET:
            c = nd.children[0]
            child = tables[c]
            if stored + len(child) > state_budget:
                raise _over_budget(state_budget)
            table = kernels.dp_forget(
                child, nodes[c].bag.index(nd.vertex), parts, deadline
            )
        elif kind == JOIN:
            left, right = tables[nd.children[0]], tables[nd.children[1]]
            # a join pairs the states of both sides that choose the same mask
            per_mask: dict[int, int] = {}
            for mask, _ in right:
                per_mask[mask] = per_mask.get(mask, 0) + 1
            pairs = 0
            for mask, _ in left:
                pairs += per_mask.get(mask, 0)
            if stored + pairs > state_budget:
                raise _over_budget(state_budget)
            table = kernels.dp_join(left, right, parts, deadline)
        elif kind == LEAF:
            table = kernels.dp_leaf()
        else:
            raise ValidationError(f"unknown node kind {kind!r}")
        if table is None:
            # the kernel saw the deadline pass before one of its input states
            raise DeadlineError(f"dynamic program stopped at its deadline, node {idx}")
        if len(table) > bound[len(nd.bag)]:
            raise InvariantError("table outgrew the subset*Bell bound")
        tables[idx] = table
        stored += len(table)
        if stored > state_budget:
            raise _over_budget(state_budget)
        if stats is not None:
            stats.append((idx, kind, len(nd.bag), len(table)))

    root_key = (1, 0)  # the pinned root chosen, alone in partition id 0: (0,)
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
        if nd.kind == JOIN:
            stack.append((nd.children[0], back[0]))
            stack.append((nd.children[1], back[1]))
        elif nd.kind == INTRODUCE_EDGE:
            child_key, taken = back
            if taken:
                edges.add(edge_key(*nd.edge))
            stack.append((nd.children[0], child_key))
        elif nd.children:  # an introduce or a forget: the child key
            stack.append((nd.children[0], back))

    return _checked_prune(instance, edges, value)


def solve_with_decomposition(
    instance: SteinerInstance,
    root_vertex: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SteinerSolution:
    """Full exact pipeline on one graph: eliminate, decompose, refine, dp_solve.

    The decomposition is the one the greedy minimum-degree elimination
    records, with its bags renumbered last-eliminated first, so the nice
    tree is rooted where the elimination ends and each edge goes to the
    bag of its earlier-eliminated endpoint. It is pinned at ``root_vertex``
    (the last-eliminated terminal when not given). The result weight does
    not depend on the pinned root terminal, which only changes the nice
    decomposition carrying the computation.
    """
    elimination = greedy_degree(instance.graph)
    td = decomposition_from_order(instance.graph, elimination)
    last = len(td.bags) - 1
    td = TreeDecomposition(
        td.bags[::-1], tuple((last - i, last - j) for i, j in td.tree_edges), td.width
    )
    if root_vertex is None:
        root_vertex = next(v for v in reversed(elimination.order) if v in instance.terminals)
    nice = make_nice(instance.graph, td, root_vertex)
    return dp_solve(instance, nice, state_budget=state_budget)


def dreyfus_wagner(
    instance: SteinerInstance,
    terminal_cap: int = DW_TERMINAL_CAP,
    deadline: float | None = None,
) -> SteinerSolution:
    """Optimal Steiner tree by the terminal-subset dynamic program.

    Cost grows with 3^|Q|, so the call refuses terminal sets larger than
    ``terminal_cap``, and, before building it, a table (2^(|Q|-1) - 1 rows
    of one cell per vertex) above ``DW_CELL_BUDGET`` cells. Intended for
    cross-checking other solvers at test scale, not for production runs.
    Every terminal-subset row is one ``kernels.dijkstra_multi`` call: a
    singleton's row is seeded at its terminal, a larger row at each
    vertex's best split of the subset. Raises DeadlineError once
    ``time.monotonic()`` passes ``deadline``, read before each row and
    before each split of a row.
    """
    q = sorted(instance.terminals)
    k = len(q)
    if k > terminal_cap:
        raise CapacityError(f"{k} terminals exceeds the oracle cap of {terminal_cap}")
    if k == 1:
        return SteinerSolution(frozenset(), 0)

    graph = instance.graph
    indptr, nbr, wts = graph.csr
    n = graph.n_vertices
    base = q[:-1]
    root = q[-1]
    full = (1 << len(base)) - 1
    if full * n > DW_CELL_BUDGET:
        raise CapacityError(f"oracle table of {full} x {n} cells exceeds {DW_CELL_BUDGET} cells")
    inf = float("inf")

    # back[mask][v] is the split ``sub`` of mask that set v's value,
    # ``-1 - u`` for a walk from neighbour u, or 0 at a singleton's own
    # terminal; splits are never 0. One machine int per cell, not a
    # Python object
    dp: list = [None] * (full + 1)
    back: list = [None] * (full + 1)
    for mask in range(1, full + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineError(f"oracle stopped at its deadline, row {mask} of {full}")
        bk = array("q", [0]) * n
        if mask & (mask - 1) == 0:
            seeds = [(0, base[mask.bit_length() - 1])]
        else:
            vals = [inf] * n
            low = mask & -mask
            sub = (mask - 1) & mask
            while sub:
                if sub & low:  # enumerate each split once
                    if deadline is not None and time.monotonic() > deadline:
                        raise DeadlineError(
                            f"oracle stopped at its deadline, row {mask} of {full}"
                        )
                    a, b = dp[sub], dp[mask ^ sub]
                    for v in range(n):
                        c = a[v] + b[v]
                        if c < vals[v]:
                            vals[v] = c
                            bk[v] = sub
                sub = (sub - 1) & mask
            seeds = zip(vals, range(n))  # the kernel skips unreached vertices
        dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, seeds, n)
        for v, u in enumerate(pred):
            if u >= 0:
                bk[v] = -1 - u
        dp[mask] = dist
        back[mask] = bk

    value = dp[full][root]
    edges: set = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        tag = back[mask][v]
        if tag > 0:
            stack.append((tag, v))
            stack.append((mask ^ tag, v))
        elif tag < 0:
            u = -1 - tag
            edges.add(edge_key(v, u))
            stack.append((mask, u))

    return _checked_prune(instance, edges, value)
