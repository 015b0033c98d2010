"""Output checker for one `solve` or `merge` operation.

An operation passes when its JSON stdout rebuilds into a valid Steiner tree
of the instance, the stated weight is the sum of the tree's edge weights
and at most the best pool tree, and the exit code is 0, or 5 exactly when
the report says the final DP fell back on capacity.
"""

from __future__ import annotations

import copy
import json

EXIT_OK = 0
EXIT_CAPACITY = 5


def problems(stdout: str, exit_code: int, instance, sm) -> list[str]:
    """Every reason the operation's output is wrong; empty when it is right."""
    try:
        payload = json.loads(stdout)
        weight = payload["weight"]
        pool_weights = payload["pool_weights"]
        fallback = payload["capacity_fallback"]
        edges = frozenset(sm.edge_key(u - 1, v - 1) for u, v in payload["edges"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    out = []
    weights = instance.graph.weights
    if not all(e in weights for e in edges):
        out.append("tree uses an edge the instance does not have")
    elif weight != sum(weights[e] for e in edges):
        out.append(f"stated weight {weight} != edge total {sum(weights[e] for e in edges)}")
    out += sm.solution_violations(instance, sm.SteinerSolution(edges, weight))
    if not pool_weights or weight > min(pool_weights):
        out.append(f"weight {weight} is worse than the best pool tree")
    want = EXIT_CAPACITY if fallback is True else EXIT_OK
    if fallback not in (True, False) or exit_code != want:
        out.append(f"exit code {exit_code} with capacity_fallback={fallback!r}")
    return out


def corruptions(stdout: str, exit_code: int):
    """Broken variants of a good output; the checker must reject each one."""
    payload = json.loads(stdout)
    heavier = copy.deepcopy(payload)
    heavier["weight"] += 1
    yield "weight off by one", json.dumps(heavier), exit_code
    if payload["edges"]:
        short = copy.deepcopy(payload)
        short["edges"] = short["edges"][1:]
        yield "edge dropped", json.dumps(short), exit_code
    better_pool = copy.deepcopy(payload)
    better_pool["pool_weights"] = [payload["weight"] - 1]
    yield "pool beats result", json.dumps(better_pool), exit_code
    yield "wrong exit code", stdout, EXIT_CAPACITY if exit_code == EXIT_OK else EXIT_OK
    yield "truncated", stdout[: len(stdout) // 2], exit_code


def checker_rejects_corruptions(stdout: str, exit_code: int, instance, sm) -> list[str]:
    """Names of corruptions the checker wrongly accepted (empty when sound)."""
    return [
        name
        for name, text, code in corruptions(stdout, exit_code)
        if not problems(text, code, instance, sm)
    ]
