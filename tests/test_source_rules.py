"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import steinmerge

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "steinmerge").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts; an invariant must be a real check that
    # raises (InvariantError for a bug in the toolkit)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_every_export_resolves():
    # a deleted function must leave __all__ with it
    missing = [name for name in steinmerge.__all__ if not hasattr(steinmerge, name)]
    assert missing == []
    assert len(steinmerge.__all__) == len(set(steinmerge.__all__))
