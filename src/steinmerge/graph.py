"""Graph data model, STP file ingestion and the elementary graph routines.

Vertices are dense 0-based integers internally. STP files use 1-based ids,
so file id = internal id + 1 everywhere in the toolkit; readers and writers
apply that mapping consistently.

Edge weights are nonnegative 64-bit integers, at most ``MAX_WEIGHT``.
Fractional weights in input files are rejected so that all weight
comparisons stay exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]

STP_MAGIC = "33D32945 STP File, STP Format Version 1.0"

# the largest edge weight: the largest signed 64-bit integer, which the
# perturbed searches can still turn into a float
MAX_WEIGHT = 2**63 - 1


class SteinerError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SteinerError):
    """Malformed input (STP, pool or decomposition file)."""


class ValidationError(SteinerError):
    """A constructed value violates one of its invariants."""


class InfeasibleError(SteinerError):
    """The requested object does not exist, e.g. terminals cannot be connected."""


class InvariantError(SteinerError):
    """An internal consistency check failed: a bug in the toolkit, not bad input."""


def edge_key(u: int, v: int) -> Edge:
    """Normalized (small, large) representation of an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with nonnegative integer edge weights.

    Immutable after construction; derived views (adjacency, bitmasks, CSR
    arrays, edge ranks) are cached on first use. ``weights`` maps
    normalized edges to costs and doubles as the edge set. A vertex id is
    its own index in every array view: an instance's vertices are 0..n-1,
    and a union subgraph keeps its host's ids.
    """

    vertices: frozenset[int]
    weights: dict[Edge, int]

    @staticmethod
    def build(
        vertices: Iterable[int], weighted_edges: Iterable[tuple[int, int, int]]
    ) -> "WeightedGraph":
        """Construct and validate a graph from vertex ids and (u, v, w) triples."""
        vset = frozenset(vertices)
        wmap: dict[Edge, int] = {}
        for u, v, w in weighted_edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValidationError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            if w < 0:
                raise ValidationError(f"negative weight {w} on edge ({u}, {v})")
            if w > MAX_WEIGHT:
                raise ValidationError(f"weight {w} on edge ({u}, {v}) exceeds {MAX_WEIGHT}")
            e = edge_key(u, v)
            if e in wmap and wmap[e] != w:
                raise ValidationError(
                    f"conflicting weights for edge {e}: {wmap[e]} vs {w}"
                )
            wmap[e] = w
        return WeightedGraph(vset, wmap)

    @property
    def edges(self) -> Iterable[Edge]:
        return self.weights.keys()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    def weight(self, u: int, v: int) -> int:
        return self.weights[edge_key(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.weights

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's neighbours, ascending; the CSR views are built from it."""
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.weights:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(sorted(a)) for v, a in nbrs.items()}

    @cached_property
    def adjacency_masks(self) -> tuple[tuple[int, ...], list[int]]:
        """Bitmask view over positions: (vertices ascending, masks), shared, not to be mutated.

        ``masks[i]`` has bit j set when the i-th and j-th smallest vertices
        are adjacent. Positions keep a union subgraph's masks as wide as the
        union, not its host, and follow id order, so a degree tie broken by
        position falls as the same tie broken by id.
        """
        vs = tuple(sorted(self.vertices))
        pos = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        for u, v in self.weights:
            i, j = pos[u], pos[v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return vs, masks

    @cached_property
    def csr(self) -> tuple[list[int], list[int], list[int]]:
        """CSR view of a graph on 0..n-1: (indptr, nbr, weight)."""
        indptr = [0]
        nbr: list[int] = []
        wts: list[int] = []
        for v in range(self.n_vertices):
            for u in self.adjacency[v]:
                nbr.append(u)
                wts.append(self.weights[edge_key(u, v)])
            indptr.append(len(nbr))
        return indptr, nbr, wts

    @cached_property
    def edge_ranks(self) -> "EdgeRanks":
        """Edges numbered by their position in Kruskal's (w, u, v) order."""
        ranked = sorted((w, u, v) for (u, v), w in self.weights.items())
        edges = tuple((u, v) for _, u, v in ranked)
        return EdgeRanks(
            edges,
            [u for _, u, _ in ranked],
            [v for _, _, v in ranked],
            [w for w, _, _ in ranked],
            {e: r for r, e in enumerate(edges)},
        )

    @cached_property
    def slot_ranks(self) -> list[int]:
        """The edge rank of each CSR slot; only local search reads it."""
        rank = self.edge_ranks.rank
        adj = self.adjacency
        return [rank[edge_key(v, u)] for v in range(self.n_vertices) for u in adj[v]]

    @cached_property
    def key_order(self) -> tuple[list[int], list[int]]:
        """The weights in sorted edge-key order, and each CSR slot's position in it.

        Only perturbation reads it: a weight drawn per edge in key order
        reaches its CSR slots as ``drawn[k] for k in positions``.
        """
        keys = sorted(self.weights)
        position = {e: k for k, e in enumerate(keys)}
        adj = self.adjacency
        return [self.weights[e] for e in keys], [
            position[edge_key(v, u)] for v in range(self.n_vertices) for u in adj[v]
        ]

    def is_connected(self) -> bool:
        """Whether Kruskal, over the edges in any order, spans every vertex.

        Vertex ids may be any nonnegative ints, as in a union subgraph.
        """
        n = len(self.vertices)
        if n <= 1:
            return True
        edges = list(self.weights)
        forest = minimum_spanning_edges(
            max(self.vertices) + 1,
            [u for u, _ in edges],
            [v for _, v in edges],
            range(len(edges)),
            None,
            n - 1,
        )
        return len(forest) == n - 1

    def total_weight(self, edges: Iterable[Edge]) -> int:
        return sum(self.weights[edge_key(u, v)] for u, v in edges)


@dataclass(frozen=True)
class EdgeRanks:
    """A graph's edges in the strict (weight, u, v) order Kruskal sorts by.

    Rank ``r`` is an edge's position in that order: ``edges[r]`` is the edge,
    ``tail[r] < head[r]`` its endpoints and ``weight[r]`` its cost, and
    ``rank`` maps an edge back to its rank.
    """

    edges: tuple[Edge, ...]
    tail: list[int]
    head: list[int]
    weight: list[int]
    rank: dict[Edge, int]


@dataclass(frozen=True)
class SteinerInstance:
    """A connected weighted graph together with its terminal set."""

    graph: WeightedGraph
    terminals: frozenset[int]
    name: str = ""

    @staticmethod
    def create(graph: WeightedGraph, terminals: Iterable[int], name: str = "") -> "SteinerInstance":
        tset = frozenset(terminals)
        if not tset:
            raise ValidationError("instance needs at least one terminal")
        if not tset <= graph.vertices:
            raise ValidationError("terminals must be vertices of the graph")
        if graph.vertices != frozenset(range(graph.n_vertices)):
            raise ValidationError("instance vertices must be exactly 0..n-1")
        if not graph.is_connected():
            raise ValidationError("instance graph is not connected")
        return SteinerInstance(graph, tset, name)

    @property
    def n_terminals(self) -> int:
        return len(self.terminals)


@dataclass(frozen=True)
class SteinerSolution:
    """A tree spanning the terminals, stored as its edge set plus total weight."""

    edges: frozenset[Edge]
    weight: int

    @staticmethod
    def from_edges(graph: WeightedGraph, edges: Iterable[Edge]) -> "SteinerSolution":
        es = frozenset(edge_key(u, v) for u, v in edges)
        return SteinerSolution(es, graph.total_weight(es))

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def canonical_edges(self) -> tuple[Edge, ...]:
        """Sorted edge tuple; used for deduplication and serialization."""
        return tuple(sorted(self.edges))


def solution_violations(instance: SteinerInstance, solution: SteinerSolution) -> list[str]:
    """Check the tree/coverage/pruned-form invariants; returns each violation found."""
    g = instance.graph
    out: list[str] = []
    for u, v in solution.edges:
        if not g.has_edge(u, v):
            out.append(f"edge ({u}, {v}) not in instance graph")
    if out:
        return out
    if solution.weight != g.total_weight(solution.edges):
        out.append(
            f"cached weight {solution.weight} != edge total {g.total_weight(solution.edges)}"
        )
    if not solution.edges:
        if len(instance.terminals) != 1:
            out.append("empty edge set is only valid for a single-terminal instance")
        return out
    verts = solution.vertices
    if not instance.terminals <= verts:
        missing = sorted(instance.terminals - verts)
        out.append(f"terminals not spanned: {missing}")
    if len(solution.edges) != len(verts) - 1:
        out.append(
            f"edge count {len(solution.edges)} != |V|-1 = {len(verts) - 1} (not a tree)"
        )
    # Kruskal in canonical order: the host graph's edge ranks cost more
    # than the check
    edges = solution.canonical_edges()
    spare: list[int] = []
    forest = minimum_spanning_edges(
        g.n_vertices,
        [u for u, _ in edges],
        [v for _, v in edges],
        range(len(edges)),
        spare,
    )
    for r in spare:
        u, v = edges[r]
        out.append(f"edge ({u}, {v}) closes a cycle")
    if len(forest) < len(verts) - 1:
        out.append("solution is disconnected")
    deg: dict[int, int] = {}
    for u, v in solution.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    for v, d in sorted(deg.items()):
        if d == 1 and v not in instance.terminals:
            out.append(f"non-terminal leaf {v}")
    return out


# ---------------------------------------------------------------------------
# text input and the STP file format


def text_lines(text: str, comment: str | None = None) -> Iterator[tuple[int, str, list[str]]]:
    """Each line of ``text`` that holds a token: (line number, line stripped, tokens).

    Lines count from 1. Blank lines, and lines whose stripped text starts
    with ``comment``, are skipped. Every file reader walks its input with
    this, so all share one rule for blanks, comments and line numbers.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        ln = raw.strip()
        if ln and not (comment and ln.startswith(comment)):
            yield lineno, ln, ln.split()


_NAME_RE = re.compile(r'^name\s+"?([^"]*)"?\s*$', re.IGNORECASE)


def parse_stp(text: str, name: str = "") -> SteinerInstance:
    """Parse STP Format Version 1.0 text into an instance.

    Duplicate edges keep the minimum-weight copy, self-loops are dropped,
    unknown sections are skipped; a second Nodes, Edges or Terminals count
    line is a ParseError. Raises ParseError for format problems and
    ValidationError for semantic ones (disconnected graph, no terminals).
    """
    records = text_lines(text)
    first = next(records, None)
    if first is None or first[1].lower() != STP_MAGIC.lower():
        raise ParseError("missing or malformed STP header line")

    # the Nodes, Edges and Terminals count lines, by lowercase key
    counts: dict[str, int] = {}
    edge_rows: list[tuple[int, int, int]] = []
    terminal_ids: list[int] = []
    comment_name = ""
    # the sections that held a line: an empty section counts as missing
    seen: set[str] = set()
    section: str | None = None

    def parse_int(toks: list[str], i: int, lineno: int, what: str) -> int:
        if i >= len(toks):
            raise ParseError(f"line {lineno}: missing {what}")
        try:
            return int(toks[i])
        except ValueError:
            raise ParseError(
                f"line {lineno}: {what} is not an integer: {toks[i]!r}"
            ) from None

    def count(toks: list[str], lineno: int, what: str) -> None:
        """Record a count line's number; a second line of the same key is an error."""
        key = toks[0].lower()
        if key in counts:
            raise ParseError(f"line {lineno}: second {toks[0]} line")
        counts[key] = parse_int(toks, 1, lineno, what)

    for lineno, ln, toks in records:
        head = toks[0].lower()
        if section is None:
            if head == "eof":
                break
            if head != "section":
                raise ParseError(f"line {lineno}: expected SECTION or EOF, got {ln!r}")
            if len(toks) < 2:
                raise ParseError(f"line {lineno}: SECTION without a name")
            section = toks[1].lower()
            continue
        if head == "end":
            section = None
            continue
        seen.add(section)
        if section == "graph":
            if head == "e":
                if len(toks) != 4:
                    raise ParseError(f"line {lineno}: edge line needs 'E u v w'")
                u = parse_int(toks, 1, lineno, "edge endpoint")
                v = parse_int(toks, 2, lineno, "edge endpoint")
                try:
                    w = int(toks[3])
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: non-integer edge weight {toks[3]!r} "
                        "(fractional weights are not supported)"
                    ) from None
                edge_rows.append((u, v, w))
            elif head == "nodes":
                count(toks, lineno, "node count")
            elif head == "edges":
                count(toks, lineno, "edge count")
            elif head == "a":
                raise ParseError(f"line {lineno}: directed arcs are not supported")
            # other graph keys (Obstacles, ...) ignored
        elif section == "terminals":
            if head == "t":
                terminal_ids.append(parse_int(toks, 1, lineno, "terminal id"))
            elif head == "terminals":
                count(toks, lineno, "terminal count")
        elif section == "comment":
            m = _NAME_RE.match(ln)
            if m:
                comment_name = m.group(1).strip()
        # unknown sections skipped line by line
    else:
        if section is not None:
            raise ParseError(f"unterminated SECTION {section}")
        raise ParseError("missing EOF line")

    n_nodes = counts.get("nodes")
    if "graph" not in seen or n_nodes is None:
        raise ParseError("missing Graph section or node count")
    if counts.get("edges", len(edge_rows)) != len(edge_rows):
        raise ParseError(
            f"declared {counts['edges']} edges but found {len(edge_rows)} edge lines"
        )
    if "terminals" not in seen:
        raise ParseError("missing Terminals section")
    if counts.get("terminals", len(terminal_ids)) != len(terminal_ids):
        raise ParseError(
            f"declared {counts['terminals']} terminals but found {len(terminal_ids)}"
        )

    wmap: dict[Edge, int] = {}
    for u, v, w in edge_rows:
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise ParseError(f"edge ({u}, {v}) endpoint out of range 1..{n_nodes}")
        if w < 0:
            raise ParseError(f"negative weight {w} on edge ({u}, {v})")
        if w > MAX_WEIGHT:
            raise ParseError(f"weight {w} on edge ({u}, {v}) exceeds {MAX_WEIGHT}")
        if u == v:
            continue  # self-loops dropped
        e = edge_key(u - 1, v - 1)
        if e not in wmap or w < wmap[e]:
            wmap[e] = w  # parallel edges keep the cheapest copy

    terms = set()
    for t in terminal_ids:
        if not (1 <= t <= n_nodes):
            raise ParseError(f"terminal id out of range: {t}")
        terms.add(t - 1)
    if not terms:
        raise ValidationError("instance has no terminals")
    if n_nodes > len(wmap) + 1:
        # checked before the vertex set is built from a count that may be huge
        raise ValidationError(f"{len(wmap)} edges cannot connect {n_nodes} nodes")

    graph = WeightedGraph(frozenset(range(n_nodes)), wmap)
    return SteinerInstance.create(graph, terms, name=comment_name or name)


def parse_stp_file(path) -> SteinerInstance:
    from pathlib import Path

    p = Path(path)
    return parse_stp(p.read_text(encoding="utf-8"), name=p.stem)


def write_stp(instance: SteinerInstance) -> str:
    """Serialize an instance back to STP Format Version 1.0 (1-based ids)."""
    g = instance.graph
    n = g.n_vertices
    out = [STP_MAGIC, ""]
    if instance.name:
        out += ["SECTION Comment", f'Name    "{instance.name}"', "END", ""]
    out += ["SECTION Graph", f"Nodes {n}", f"Edges {g.n_edges}"]
    for (u, v), w in sorted(g.weights.items()):
        out.append(f"E {u + 1} {v + 1} {w}")
    out += ["END", "", "SECTION Terminals", f"Terminals {len(instance.terminals)}"]
    for t in sorted(instance.terminals):
        out.append(f"T {t + 1}")
    out += ["END", "", "EOF", ""]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# elementary algorithms


def minimum_spanning_edges(
    n: int,
    tail: Sequence[int],
    head: Sequence[int],
    ranked: Iterable[int],
    spare: list[int] | None = None,
    spanning: int | None = None,
) -> list[int]:
    """Kruskal: the spanning forest the edges of ``ranked`` make, in that order.

    Edge ``r`` joins vertices ``tail[r]`` and ``head[r]``, both below ``n``,
    and the forest comes back as edge numbers. Given edge ranks in
    ascending order and their endpoints, it is the graph's unique minimum
    spanning forest, since ranks follow the strict (w, u, v) order. The
    union-find is a list. When ``spare`` is given, every edge left out of
    the forest is appended to it in order. ``spanning`` is the edge count
    at which the forest spans its vertices: Kruskal stops there, and the
    edges not yet seen all go to ``spare``.
    """
    parent = list(range(n))
    forest: list[int] = []
    pending = iter(ranked)
    for r in pending:
        a = tail[r]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        b = head[r]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            forest.append(r)
            if len(forest) == spanning:
                if spare is not None:
                    spare.extend(pending)
                break
        elif spare is not None:
            spare.append(r)
    return forest


def prune(instance: SteinerInstance, edges: Iterable[Edge]) -> SteinerSolution:
    """Canonical cleanup of an edge set into a pruned Steiner tree.

    Takes a minimum spanning forest of the selected subgraph, then keeps the
    part of it that ``strip_leaves`` keeps. Raises InfeasibleError when the
    edges do not connect all terminals. The edges may contain cycles; a
    caller that already holds a forest calls ``strip_leaves`` alone, since
    Kruskal over a forest returns that forest unchanged.
    """
    g = instance.graph
    es = {edge_key(u, v) for u, v in edges}
    for e in es:
        if e not in g.weights:
            raise ValidationError(f"edge {e} is not part of the instance graph")
    ranks = g.edge_ranks
    forest = minimum_spanning_edges(
        g.n_vertices, ranks.tail, ranks.head, sorted(ranks.rank[e] for e in es)
    )
    solution = strip_leaves(instance, forest)
    if solution is None:
        raise InfeasibleError("terminals are not connected by the given edges")
    return solution


def strip_leaves(
    instance: SteinerInstance, forest: Sequence[int], bound: float = inf
) -> SteinerSolution | None:
    """Pruned Steiner tree inside a forest given as edge ranks.

    Strips non-terminal leaves until every leaf is a terminal. A component
    without terminals vanishes entirely, so what is left is the unique
    smallest subtree of the forest spanning the terminals, whatever order
    the leaves go in. Returns that tree, or None when the forest does not
    connect the terminals or the tree is not lighter than ``bound``; the
    bound is checked before the tree's edge set is built. ``forest`` must
    be acyclic.
    """
    ranks = instance.graph.edge_ranks
    tail, head, weight = ranks.tail, ranks.head, ranks.weight
    terms = instance.terminals
    n = instance.graph.n_vertices
    deg = [0] * n
    # xor of the ranks of each vertex's remaining edges: a leaf's one edge
    incident = [0] * n
    for r in forest:
        a = tail[r]
        b = head[r]
        deg[a] += 1
        deg[b] += 1
        incident[a] ^= r
        incident[b] ^= r
    stack = [
        x
        for r in forest
        for x in (tail[r], head[r])
        if deg[x] == 1 and x not in terms
    ]
    dropped = set()
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue  # its last neighbor went first
        r = incident[v]
        u = tail[r] ^ head[r] ^ v
        deg[v] = 0
        deg[u] -= 1
        incident[u] ^= r
        dropped.add(r)
        if deg[u] == 1 and u not in terms:
            stack.append(u)
    # every component left holds a terminal; the terminals are connected
    # iff exactly one is left, counting edgeless terminals as components
    edges_left = len(forest) - len(dropped)
    components = n - deg.count(0) - edges_left
    components += sum(1 for t in terms if not deg[t])
    if components != 1:
        return None
    kept = [r for r in forest if r not in dropped]
    total = sum(weight[r] for r in kept)
    if total >= bound:
        return None
    return SteinerSolution(frozenset(ranks.edges[r] for r in kept), total)
