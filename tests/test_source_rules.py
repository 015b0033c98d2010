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


# only parallel_map imports an executor, and only above one worker, so
# importing the package or running --jobs 1 loads no worker machinery
CONCURRENCY = ("concurrent.futures", "multiprocessing", "threading")


def _import_time_modules(tree):
    """Modules a file imports when it is imported, not when a function runs."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_concurrency_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = sorted(
        {
            name
            for name in _import_time_modules(tree)
            if any(name == m or name.startswith(m + ".") for m in CONCURRENCY)
        }
    )
    assert found == [], f"{path.name} imports {found} at module level"


def test_every_export_resolves():
    # a deleted function must leave __all__ with it
    missing = [name for name in steinmerge.__all__ if not hasattr(steinmerge, name)]
    assert missing == []
    assert len(steinmerge.__all__) == len(set(steinmerge.__all__))


# every machine format goes through one csv writer and one json writer, so
# no command prints its own variant of a row
RENDERERS = {("json", "dumps"): "json_text", ("csv", "writer"): "csv_text"}


def _nodes_by_function(node, name="<module>"):
    """(enclosing function's name, node) for every node under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _nodes_by_function(child, child.name)
            continue
        yield name, child
        yield from _nodes_by_function(child, name)


def test_machine_formats_written_in_one_place():
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    strays = [
        f"{name}:{call.lineno}"
        for name, call in _nodes_by_function(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and RENDERERS.get((call.func.value.id, call.func.attr), name) != name
    ]
    assert strays == []


def _kernel_imports(tree):
    """Names imported from the kernels module, however it is spelled."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module in ("kernels", "steinmerge.kernels"):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_kernels_called_through_the_module(path):
    # a tracer rebinds kernels.<name> for a run; a callable imported by
    # name keeps the unwrapped function and its calls go unseen
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = sorted(
        name
        for name in _kernel_imports(tree)
        if name == "*" or callable(getattr(steinmerge.kernels, name, None))
    )
    assert found == [], f"{path.name} imports {found} from kernels by name"


# every SMH_* default goes through cli._env, which the parser of one
# subcommand calls for that subcommand's flags only; a read anywhere else
# would reach every command, or none
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ENVIRONMENT
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    ) or (
        isinstance(node, ast.ImportFrom)
        and node.module == "os"
        and any(alias.name in ENVIRONMENT for alias in node.names)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_environment_read_only_in_cli_env(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = "_env" if path.name == "cli.py" else None
    reads = [(name, node.lineno) for name, node in _nodes_by_function(tree)
             if _reads_environment(node)]
    strays = [f"{name}:{line}" for name, line in reads if name != allowed]
    assert strays == [], f"{path.name} reads the environment outside cli._env"
    assert reads or allowed is None, "cli._env no longer reads the environment"


# one shortest-path loop: kernels.dijkstra_multi, plus the heap of the
# elimination kernel beside it. The generator keeps the exchange check's
# own search, which labels owners and records walks as it settles vertices
HEAP_USERS = ["generator.py", "kernels.py"]


def _imports_heapq(tree):
    return any(
        (isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "heapq")
        for node in ast.walk(tree)
    )


def test_heapq_imported_only_by_the_kernels_and_the_generator():
    users = [
        path.name
        for path in SOURCES
        if _imports_heapq(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert users == HEAP_USERS
