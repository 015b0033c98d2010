"""Hostile input: every parser returns a value or raises its documented errors.

parse_stp and read_pool also give the same result, or the same error, as
their references.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import four_cycle, solution_of
from steinmerge import (
    ParseError,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    WeightedGraph,
    decomposition_from_order,
    edge_key,
    greedy_degree,
    parse_stp,
    read_pool,
    read_td,
    solution_violations,
    write_pool,
    write_stp,
    write_td,
)
from steinmerge.generator import SolutionPool
from steinmerge.graph import STP_MAGIC

INSTANCE = four_cycle()
VALID_STP = write_stp(INSTANCE)
VALID_TD = write_td(
    decomposition_from_order(INSTANCE.graph, greedy_degree(INSTANCE.graph)),
    INSTANCE.graph.n_vertices,
)
VALID_POOL = write_pool(SolutionPool([solution_of(INSTANCE, [(0, 1), (1, 2), (2, 3)])]))

# the keywords of all three formats, and numbers from small to huge
WORDS = sorted(
    {w for text in (VALID_STP, VALID_TD, VALID_POOL) for w in text.split()}
    | {"SECTION", "END", "EOF", "A", "c", "#", "Obstacles"}
)
numbers = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([10**9, 10**14, 10**19]),
    st.integers(-(10**20), 10**20),
).map(str)
token = st.one_of(st.sampled_from(WORDS), numbers, st.text(max_size=4))
line = st.lists(token, max_size=6).map(" ".join)


def mutated(valid: str):
    """A valid file with tokens, numbers or lines replaced, lines dropped or
    inserted."""
    lines = valid.splitlines()

    @st.composite
    def build(draw):
        out = list(lines)
        for _ in range(draw(st.integers(1, 4))):
            op = draw(st.sampled_from(("numbers", "token", "replace", "drop", "insert")))
            i = draw(st.integers(0, len(out)))
            if op == "insert":
                out.insert(i, draw(line))
            elif out:
                i = min(i, len(out) - 1)
                if op == "drop":
                    del out[i]
                elif op == "replace":
                    out[i] = draw(line)
                elif op == "numbers":
                    # counts and ids: where a trusted value allocates
                    out[i] = " ".join(
                        draw(numbers) if t.isdigit() else t for t in out[i].split()
                    )
                elif out[i].split():
                    toks = out[i].split()
                    toks[draw(st.integers(0, len(toks) - 1))] = draw(token)
                    out[i] = " ".join(toks)
        return "\n".join(out) + "\n"

    return build()


def hostile(valid: str):
    return st.one_of(
        st.text(max_size=200),
        st.lists(line, max_size=12).map("\n".join),
        mutated(valid),
    )


def documented_outcome(parse, text, errors):
    try:
        parse(text)
    except errors:
        pass


@settings(max_examples=300, deadline=None)
@given(hostile(VALID_STP))
def test_parse_stp_raises_only_documented_errors(text):
    documented_outcome(parse_stp, text, (ParseError, ValidationError))


@settings(max_examples=300, deadline=None)
@given(hostile(VALID_TD))
def test_read_td_raises_only_parse_errors(text):
    documented_outcome(read_td, text, ParseError)


@settings(max_examples=300, deadline=None)
@given(hostile(VALID_POOL))
def test_read_pool_raises_only_documented_errors(text):
    documented_outcome(
        lambda t: read_pool(t, INSTANCE), text, (ParseError, ValidationError)
    )


def reference_read_pool(text, instance):
    """read_pool as it was when each tree's weight came from from_edges."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "steinmerge-pool 1":
        raise ParseError("missing pool header line")
    trees, seen = [], set()
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
        if sol.canonical_edges() not in seen:
            seen.add(sol.canonical_edges())
            trees.append((sol.canonical_edges(), sol.weight))
    if not trees:
        raise ParseError("pool file contains no trees")
    return trees


def outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


# tree lines over the instance's ids and one past them, so they reach every
# check: ids out of range, non-edges, repeated edges, wrong stated weights,
# trees that fail solution_violations, and valid trees
tree_line = st.tuples(
    st.integers(0, 14), st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=5)
).map(lambda t: f"tree {t[0]} " + " ".join(f"{u} {v}" for u, v in t[1]))
tree_pool = st.lists(tree_line, max_size=3).map(
    lambda lines: "steinmerge-pool 1\n" + "".join(ln + "\n" for ln in lines)
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(hostile(VALID_POOL), tree_pool))
def test_read_pool_matches_reference(text):
    def read(t):
        pool = read_pool(t, INSTANCE)
        return [(s.canonical_edges(), s.weight) for s in pool.entries]

    assert outcome(read, text) == outcome(lambda t: reference_read_pool(t, INSTANCE), text)


_NAME_RE = re.compile(r'^name\s+"?([^"]*)"?\s*$', re.IGNORECASE)


def reference_parse_stp(text, name=""):
    """parse_stp as it was with nested section loops, checking connectivity by
    DFS, with the 64-bit weight bound added."""
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            ln = lines[pos].strip()
            pos += 1
            if ln:
                return pos, ln
        return None

    first = next_line()
    if first is None or first[1].lower() != STP_MAGIC.lower():
        raise ParseError("missing or malformed STP header line")

    n_nodes = None
    edge_rows = []
    declared_edges = None
    terminal_ids = []
    declared_terminals = None
    comment_name = ""
    saw_eof = False
    saw_graph = False
    saw_terminals = False

    def parse_int(toks, i, lineno, what):
        if i >= len(toks):
            raise ParseError(f"line {lineno}: missing {what}")
        try:
            return int(toks[i])
        except ValueError:
            raise ParseError(
                f"line {lineno}: {what} is not an integer: {toks[i]!r}"
            ) from None

    def count(found, toks, lineno, what):
        if found is not None:
            raise ParseError(f"line {lineno}: second {toks[0]} line")
        return parse_int(toks, 1, lineno, what)

    while True:
        item = next_line()
        if item is None:
            break
        lineno, ln = item
        toks = ln.split()
        head = toks[0].lower()
        if head == "eof":
            saw_eof = True
            break
        if head != "section":
            raise ParseError(f"line {lineno}: expected SECTION or EOF, got {ln!r}")
        if len(toks) < 2:
            raise ParseError(f"line {lineno}: SECTION without a name")
        section = toks[1].lower()
        while True:
            item = next_line()
            if item is None:
                raise ParseError(f"unterminated SECTION {section}")
            lineno, ln = item
            toks = ln.split()
            head = toks[0].lower()
            if head == "end":
                break
            if section == "graph":
                saw_graph = True
                if head == "nodes":
                    n_nodes = count(n_nodes, toks, lineno, "node count")
                elif head == "edges":
                    declared_edges = count(declared_edges, toks, lineno, "edge count")
                elif head == "e":
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
                elif head == "a":
                    raise ParseError(f"line {lineno}: directed arcs are not supported")
            elif section == "terminals":
                saw_terminals = True
                if head == "terminals":
                    declared_terminals = count(
                        declared_terminals, toks, lineno, "terminal count"
                    )
                elif head == "t":
                    terminal_ids.append(parse_int(toks, 1, lineno, "terminal id"))
            elif section == "comment":
                m = _NAME_RE.match(ln)
                if m:
                    comment_name = m.group(1).strip()

    if not saw_eof:
        raise ParseError("missing EOF line")
    if not saw_graph or n_nodes is None:
        raise ParseError("missing Graph section or node count")
    if declared_edges is not None and declared_edges != len(edge_rows):
        raise ParseError(
            f"declared {declared_edges} edges but found {len(edge_rows)} edge lines"
        )
    if not saw_terminals:
        raise ParseError("missing Terminals section")
    if declared_terminals is not None and declared_terminals != len(terminal_ids):
        raise ParseError(
            f"declared {declared_terminals} terminals but found {len(terminal_ids)}"
        )

    wmap = {}
    for u, v, w in edge_rows:
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise ParseError(f"edge ({u}, {v}) endpoint out of range 1..{n_nodes}")
        if w < 0:
            raise ParseError(f"negative weight {w} on edge ({u}, {v})")
        if w > 2**63 - 1:
            raise ParseError(f"weight {w} on edge ({u}, {v}) exceeds {2**63 - 1}")
        if u == v:
            continue
        e = edge_key(u - 1, v - 1)
        if e not in wmap or w < wmap[e]:
            wmap[e] = w

    terms = set()
    for t in terminal_ids:
        if not (1 <= t <= n_nodes):
            raise ParseError(f"terminal id out of range: {t}")
        terms.add(t - 1)
    if not terms:
        raise ValidationError("instance has no terminals")
    if n_nodes > len(wmap) + 1:
        raise ValidationError(f"{len(wmap)} edges cannot connect {n_nodes} nodes")

    # SteinerInstance.create's checks, with connectivity by DFS
    nbrs = {v: [] for v in range(n_nodes)}
    for u, v in wmap:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0} if n_nodes else set()
    stack = list(seen)
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n_nodes:
        raise ValidationError("instance graph is not connected")
    graph = WeightedGraph(frozenset(range(n_nodes)), wmap)
    return SteinerInstance(graph, frozenset(terms), comment_name or name)


@settings(max_examples=500, deadline=None)
@given(mutated(VALID_STP))
# STP takes no comment prefix: a `#` line outside a section is an error
@example(VALID_STP.replace("SECTION Graph", "# note\nSECTION Graph"))
def test_parse_stp_matches_reference(text):
    def read(parse):
        def fields(t):
            inst = parse(t)
            return inst.graph.vertices, inst.graph.weights, inst.terminals, inst.name

        return outcome(fields, text)

    assert read(parse_stp) == read(reference_parse_stp)
