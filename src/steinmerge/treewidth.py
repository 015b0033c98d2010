"""Elimination orderings, tree decompositions, validation, and the nice form.

The greedy minimum-degree heuristic drives everything: one elimination
records the order and the bags of a tree decomposition as it goes, and that
decomposition is refined into a rooted binary "nice" form consumed by the
exact dynamic program.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from . import kernels
from .graph import (
    ParseError,
    ValidationError,
    WeightedGraph,
    edge_key,
    text_lines,
)


@dataclass(frozen=True)
class EliminationOrder:
    """A greedy elimination: the vertex order, its width, and its bags.

    ``order`` is None when the elimination broke its cap, and ``width`` is
    then the degree that broke it. ``masks`` is the ``adjacency_masks`` list
    that was eliminated, and ``bags[i]`` is the bitmask over its positions
    of ``order[i]`` and the neighbours it still had when it went.
    """

    order: tuple[int, ...] | None
    width: int
    bags: list[int] | None = field(default=None, compare=False, repr=False)
    masks: list[int] | None = field(default=None, compare=False, repr=False)

    @property
    def exceeded(self) -> bool:
        return self.order is None


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]
    width: int


def greedy_degree(graph: WeightedGraph) -> EliminationOrder:
    """Full greedy minimum-degree elimination order.

    This is the elimination capped at ``graph.n_vertices``, which no degree
    reaches. The reported width is the highest degree any vertex had at the
    moment it was eliminated. Degree ties go to the lowest vertex id.
    """
    return greedy_degree_capped(graph, graph.n_vertices)


def greedy_degree_capped(graph: WeightedGraph, max_width: int) -> EliminationOrder:
    """Greedy elimination that aborts as soon as a step would exceed max_width."""
    if max_width < 0:
        raise ValueError("max_width must be nonnegative")
    vs, masks = graph.adjacency_masks
    width, at, bags = kernels.eliminate(masks, max_width)
    if at is None:
        return EliminationOrder(None, width)
    return EliminationOrder(tuple(vs[i] for i in at), width, bags, masks)


def decomposition_from_order(
    graph: WeightedGraph, elimination: EliminationOrder
) -> TreeDecomposition:
    """The tree decomposition an elimination of ``graph`` recorded.

    Bag of v = {v} plus the neighbors of v in the fill-in graph that are
    eliminated later; v's node hangs off the node of the earliest-eliminated
    vertex in its bag. The width equals the order's elimination width. An
    elimination that broke its cap, whose order is not a permutation of the
    graph's vertices, or that eliminated other adjacency masks than the
    graph's own is a ValidationError.
    """
    seq = elimination.order
    if seq is None:
        raise ValidationError(f"elimination broke its cap at degree {elimination.width}")
    vs, masks = graph.adjacency_masks
    if elimination.masks != masks:
        raise ValidationError("elimination was made on another graph's adjacency")
    if len(seq) != graph.n_vertices or set(seq) != graph.vertices:
        raise ValidationError("order is not a permutation of the graph's vertices")

    # each graph position's elimination index: a bag's parent node is its
    # earliest-eliminated member after its own vertex
    n = len(vs)
    step = [0] * n
    at = dict(zip(vs, range(n)))
    for p, v in enumerate(seq):
        step[at[v]] = p
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for p, bm in enumerate(elimination.bags):
        members = []
        parent = n
        m = bm
        while m:
            low = m & -m
            i = low.bit_length() - 1
            members.append(vs[i])
            if p < step[i] < parent:
                parent = step[i]
            m ^= low
        bags.append(frozenset(members))
        if parent < n:
            edges.append((p, parent))
        else:
            roots.append(p)
    # one root per connected component; chain extras so the result is a tree
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    width = max((len(b) for b in bags), default=1) - 1
    return TreeDecomposition(tuple(bags), tuple(edges), width)


def _holding(bags: Sequence[frozenset[int]]) -> dict[int, list[int]]:
    """Each vertex's bag indices, ascending."""
    holding: dict[int, list[int]] = {}
    for i, b in enumerate(bags):
        for v in b:
            held = holding.get(v)
            if held is None:
                holding[v] = [i]
            else:
                held.append(i)
    return holding


def _covering_bag(
    bags: Sequence[frozenset[int]], holding: dict[int, list[int]], u: int, v: int
) -> int | None:
    """The lowest index of a bag holding both u and v, or None.

    Only the bags of whichever endpoint lies in fewer bags are scanned.
    """
    hu, hv = holding.get(u, ()), holding.get(v, ())
    scan, other = (hu, v) if len(hu) <= len(hv) else (hv, u)
    for i in scan:
        if other in bags[i]:
            return i
    return None


def _reach(
    adj: dict[int, list[int]], start: int, within: set[int] | None = None
) -> set[int]:
    """The tree nodes reachable from ``start``, through ``within`` alone if given."""
    seen = {start}
    stack = [start]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen and (within is None or j in within):
                seen.add(j)
                stack.append(j)
    return seen


def validate_decomposition(graph: WeightedGraph, td: TreeDecomposition) -> list[str]:
    """Check the three decomposition conditions plus the width field.

    Returns every violation found as a human-readable string; an empty list
    means the decomposition is valid for the graph. Messages name vertices,
    edges and bags by their file ids (internal id + 1), as the .stp and .td
    files number them.
    """
    out: list[str] = []
    n = len(td.bags)
    if n == 0:
        return ["decomposition has no bags"]
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in td.tree_edges:
        if not (0 <= i < n and 0 <= j < n):
            out.append(f"tree edge ({i + 1}, {j + 1}) references a missing node")
            continue
        adj[i].append(j)
        adj[j].append(i)
    if len(td.tree_edges) != n - 1:
        out.append(f"{len(td.tree_edges)} tree edges for {n} nodes (not a tree)")
    if len(_reach(adj, 0)) != n:
        out.append("decomposition tree is disconnected")

    # conditions 2 and 3 scan only the bags that hold a vertex, not all bags
    holding = _holding(td.bags)
    covered = set(holding)
    if covered != graph.vertices:
        missing = [v + 1 for v in sorted(graph.vertices - covered)]
        extra = [v + 1 for v in sorted(covered - graph.vertices)]
        if missing:
            out.append(f"condition 1: vertices in no bag: {missing}")
        if extra:
            out.append(f"condition 1: bags mention non-vertices: {extra}")

    for u, v in sorted(graph.weights):
        if _covering_bag(td.bags, holding, u, v) is None:
            out.append(f"condition 2: edge ({u + 1}, {v + 1}) not inside any bag")

    for v in sorted(graph.vertices):
        nodes = holding.get(v)
        if nodes and len(_reach(adj, nodes[0], set(nodes))) != len(nodes):
            out.append(f"condition 3: bags containing vertex {v + 1} are not connected")

    true_width = max(len(b) for b in td.bags) - 1
    if td.width != true_width:
        out.append(f"width field {td.width} != largest bag size minus one {true_width}")
    return out


# ---------------------------------------------------------------------------
# nice decompositions

LEAF = "leaf"
INTRODUCE = "introduce"
INTRODUCE_EDGE = "edge"
FORGET = "forget"
JOIN = "join"
# how many children a node of each kind has
_ARITY = {LEAF: 0, INTRODUCE: 1, INTRODUCE_EDGE: 1, FORGET: 1, JOIN: 2}


class NiceNode(NamedTuple):
    """One node of a nice decomposition; a tuple, cheap to build in bulk."""

    kind: str
    bag: tuple[int, ...]  # sorted vertex ids
    children: tuple[int, ...] = ()
    vertex: int = -1  # introduce/forget subject
    edge: tuple[int, int] | None = None  # introduce-edge subject


@dataclass(frozen=True)
class NiceDecomposition:
    """Rooted binary refinement with one introduce-edge node per graph edge.

    Nodes are stored in post-order (children before parents); the last node
    is the root and its bag is exactly {root_vertex}. The pinned root_vertex
    appears in every bag.
    """

    nodes: tuple[NiceNode, ...]
    root_vertex: int
    width: int


def make_nice(
    graph: WeightedGraph, td: TreeDecomposition, root_vertex: int
) -> NiceDecomposition:
    """Refine a valid decomposition into the nice form used by the DP.

    root_vertex is inserted into every bag (width grows by at most one) so
    the root collapses to the single bag {root_vertex} and every partial
    component stays visible until the top. Each graph edge is assigned to
    exactly one introduce-edge node whose bag contains both endpoints: that
    of the lowest-index bag holding both.

    The tree is rooted at bag 0 and walked children first, in reverse
    breadth-first order. One rule adapts a bag to another: forget, then
    introduce, the vertices the two differ by, ascending. It grows a leaf
    node's {root_vertex} to its leaf bag, each child's bag to its parent's,
    and bag 0 down to {root_vertex}. Joins combine the adapted children
    left to right, and the bag's introduce-edge nodes follow in edge order.
    A malformed tree edge or a disconnected tree is a ValidationError.
    """
    if root_vertex not in graph.vertices:
        raise ValidationError(f"root vertex {root_vertex} is not in the graph")
    if not td.bags:
        raise ValidationError("cannot refine an empty decomposition")

    pinned = (root_vertex,)
    bags = [frozenset(b).union(pinned) for b in td.bags]
    n = len(bags)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in td.tree_edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"tree edge ({i}, {j}) references a missing node")
        adj[i].append(j)
        adj[j].append(i)

    # root the decomposition tree at node 0, order children before parents
    parent = [-1] * n
    seen = [False] * n
    seen[0] = True
    bfs = [0]
    for i in bfs:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                parent[j] = i
                bfs.append(j)
    if len(bfs) != n:
        raise ValidationError("decomposition tree is disconnected")
    children: list[list[int]] = [[] for _ in range(n)]
    for j in bfs[1:]:
        children[parent[j]].append(j)

    # each graph edge goes to the lowest-index node covering both endpoints
    holding = _holding(bags)
    assigned: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in sorted(graph.weights):
        i = _covering_bag(bags, holding, *e)
        if i is None:
            raise ValidationError(f"edge ({e[0]}, {e[1]}) is covered by no bag")
        assigned[i].append(e)

    # nodes are built positionally, straight from their field tuples
    new = tuple.__new__
    sorted_bags = [tuple(sorted(b)) for b in bags]
    nodes: list[NiceNode] = []

    def adapt(top: int, held: tuple[int, ...], want: tuple[int, ...]) -> int:
        """Chain from node ``top``, bag ``held``, to bag ``want``: forget
        what ``held`` alone holds, then introduce what it lacks, ascending,
        keeping the bag sorted. Returns the chain's last node."""
        grow = list(held)
        for v in held:
            if v not in want:
                del grow[bisect_left(grow, v)]
                nodes.append(new(NiceNode, (FORGET, tuple(grow), (top,), v, None)))
                top = len(nodes) - 1
        for v in want:
            if v not in held:
                insort(grow, v)
                nodes.append(new(NiceNode, (INTRODUCE, tuple(grow), (top,), v, None)))
                top = len(nodes) - 1
        return top

    top_of = [0] * n
    for i in reversed(bfs):  # children first
        bag = sorted_bags[i]
        kids = children[i]
        if not kids:
            nodes.append(new(NiceNode, (LEAF, pinned, (), -1, None)))
            cur = adapt(len(nodes) - 1, pinned, bag)
        else:
            adapted = [adapt(top_of[c], sorted_bags[c], bag) for c in kids]
            cur = adapted[0]
            for a in adapted[1:]:
                nodes.append(new(NiceNode, (JOIN, bag, (cur, a), -1, None)))
                cur = len(nodes) - 1
        for e in assigned[i]:
            nodes.append(new(NiceNode, (INTRODUCE_EDGE, bag, (cur,), -1, e)))
            cur = len(nodes) - 1
        top_of[i] = cur

    adapt(top_of[0], sorted_bags[0], pinned)
    # every node's bag lies inside some decomposition bag
    width = max(len(b) for b in bags) - 1
    return NiceDecomposition(tuple(nodes), root_vertex, width)


def validate_nice(graph: WeightedGraph, nice: NiceDecomposition) -> list[str]:
    """Structural check of a nice decomposition against its graph.

    Its own messages use internal ids, those of ``validate_decomposition``
    file ids, by the numbering rule in ``graph``'s module docstring."""
    out: list[str] = []
    nodes = nice.nodes
    t0 = nice.root_vertex
    if not nodes:
        return ["no nodes"]
    if nodes[-1].bag != (t0,):
        out.append(f"root bag {nodes[-1].bag} is not ({t0},)")
    referenced = set()
    edge_uses: dict[tuple[int, int], int] = {}
    for idx, nd in enumerate(nodes):
        bag = set(nd.bag)
        if t0 not in bag:
            out.append(f"node {idx}: pinned vertex {t0} missing from bag")
        if not bag <= graph.vertices:
            out.append(f"node {idx}: bag contains non-vertices")
        for c in nd.children:
            if c >= idx:
                out.append(f"node {idx}: child {c} does not precede it (post-order)")
            referenced.add(c)
        if nd.kind not in _ARITY:
            out.append(f"node {idx}: unknown kind {nd.kind!r}")
            continue
        if len(nd.children) != _ARITY[nd.kind]:
            out.append(f"node {idx}: {nd.kind} has {len(nd.children)} children")
            continue
        if nd.kind == LEAF:
            if nd.bag != (t0,):
                out.append(f"node {idx}: leaf bag {nd.bag} is not ({t0},)")
        elif nd.kind == INTRODUCE:
            child = nodes[nd.children[0]]
            if set(child.bag) | {nd.vertex} != bag or nd.vertex in child.bag:
                out.append(f"node {idx}: introduce({nd.vertex}) bag mismatch")
        elif nd.kind == FORGET:
            child = nodes[nd.children[0]]
            if bag | {nd.vertex} != set(child.bag) or nd.vertex in bag:
                out.append(f"node {idx}: forget({nd.vertex}) bag mismatch")
        elif nd.kind == INTRODUCE_EDGE:
            child = nodes[nd.children[0]]
            if child.bag != nd.bag:
                out.append(f"node {idx}: edge node changes the bag")
            if nd.edge is None:
                out.append(f"node {idx}: edge node without an edge")
            else:
                e = edge_key(*nd.edge)
                if e not in graph.weights:
                    out.append(f"node {idx}: edge {e} not in the graph")
                if not set(e) <= bag:
                    out.append(f"node {idx}: edge {e} endpoints not in the bag")
                edge_uses[e] = edge_uses.get(e, 0) + 1
        elif nd.kind == JOIN:
            for c in nd.children:
                if nodes[c].bag != nd.bag:
                    out.append(f"node {idx}: join child {c} bag differs")
    for i in range(len(nodes) - 1):
        if i not in referenced:
            out.append(f"node {i} is not reachable from the root")
    for e in sorted(graph.weights):
        cnt = edge_uses.get(e, 0)
        if cnt != 1:
            out.append(f"edge {e} introduced {cnt} times (want exactly 1)")

    # underlying bags must still form a valid decomposition
    td = TreeDecomposition(
        tuple(frozenset(nd.bag) for nd in nodes),
        tuple((i, c) for i, nd in enumerate(nodes) for c in nd.children),
        max(len(nd.bag) for nd in nodes) - 1,
    )
    out.extend(validate_decomposition(graph, td))
    return out


# ---------------------------------------------------------------------------
# PACE-style .td text format


def write_td(td: TreeDecomposition, n_vertices: int) -> str:
    """Emit the decomposition in the PACE .td text format (1-based ids)."""
    lines = [f"s td {len(td.bags)} {td.width + 1} {n_vertices}"]
    for i, bag in enumerate(td.bags):
        lines.append(f"b {i + 1} " + " ".join(str(v + 1) for v in sorted(bag)))
    for i, j in td.tree_edges:
        lines.append(f"{i + 1} {j + 1}")
    lines.append("")
    return "\n".join(lines)


def read_td(text: str) -> TreeDecomposition:
    """Parse a PACE .td file.

    The header's width field is preserved as stated (not recomputed) so that
    validate_decomposition can flag an inconsistent header. A bag count
    that is negative or exceeds the file's line count is a ParseError, and
    so is a second s-line, a bag id given twice, or an edge line that is not
    exactly two bag ids: each would otherwise drop or overwrite part of the
    file.
    """
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    n_bags = width = None
    for lineno, ln, toks in text_lines(text, "c"):
        try:
            if toks[0] == "s":
                if len(toks) < 5 or toks[1] != "td":
                    raise ParseError(f"line {lineno}: malformed solution line")
                if n_bags is not None:
                    raise ParseError(f"line {lineno}: second s-line")
                n_bags = int(toks[2])
                width = int(toks[3]) - 1
                # each bag needs a line of its own; checked before the
                # bag list is built from a count that may be huge
                n_lines = len(text.splitlines())
                if not 0 <= n_bags <= n_lines:
                    raise ParseError(
                        f"line {lineno}: {n_bags} bags declared in a file"
                        f" of {n_lines} lines"
                    )
            elif toks[0] == "b":
                if n_bags is None:
                    raise ParseError(f"line {lineno}: bag before the s-line")
                if len(toks) < 2:
                    raise ParseError(f"line {lineno}: bag line without a bag id")
                idx = int(toks[1]) - 1
                if not (0 <= idx < n_bags):
                    raise ParseError(f"line {lineno}: bag id {idx + 1} out of range")
                if idx in bags:
                    raise ParseError(f"line {lineno}: bag id {idx + 1} given twice")
                bags[idx] = frozenset(int(t) - 1 for t in toks[2:])
            else:
                if n_bags is None:
                    raise ParseError(f"line {lineno}: edge before the s-line")
                if len(toks) != 2:
                    raise ParseError(f"line {lineno}: edge line needs two bag ids")
                edges.append((int(toks[0]) - 1, int(toks[1]) - 1))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field in {ln!r}") from None
    if n_bags is None or width is None:
        raise ParseError("missing s-line")
    bag_list = [bags.get(i, frozenset()) for i in range(n_bags)]
    return TreeDecomposition(tuple(bag_list), tuple(edges), width)
