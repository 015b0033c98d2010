"""Hostile input: every parser returns a value or raises its documented errors."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import four_cycle, solution_of
from steinmerge import (
    ParseError,
    ValidationError,
    decomposition_from_order,
    greedy_degree,
    parse_stp,
    read_pool,
    read_td,
    write_pool,
    write_stp,
    write_td,
)
from steinmerge.generator import PoolEntry, SolutionPool

INSTANCE = four_cycle()
VALID_STP = write_stp(INSTANCE)
VALID_TD = write_td(
    decomposition_from_order(INSTANCE.graph, greedy_degree(INSTANCE.graph)),
    INSTANCE.graph.n_vertices,
)
VALID_POOL = write_pool(
    SolutionPool([PoolEntry(solution_of(INSTANCE, [(0, 1), (1, 2), (2, 3)]), 0, 0, 0)])
)

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
