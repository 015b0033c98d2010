"""Span tracing around the package's layers, installed from outside.

``traced(tracer)`` rebinds public functions at the names their callers look
them up, the way ``benchmarks/bench_backends.use_backend`` rebinds
``kernels``, and restores them on exit. Nothing under ``src/`` changes.

Every call records a span: name, start, end, parent span and operation id.
Spans stay in memory; ``write_spans`` dumps them when the run ends.
``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span record fields
NAME, START, END, PARENT, OP, INFO, EXTRA = range(7)

# span name -> layer; the "op" span is the whole CLI call
LAYER_OF = {
    "op": "cli",
    "generator.pool": "generator",
    "generator.sph_construct": "generator",
    "generator.local_search": "generator",
    "graph.mst": "graph",
    "graph.prune": "graph",
    "graph.parse": "graph",
    "kernels.dijkstra": "kernels",
    "kernels.eliminate": "kernels",
    "kernels.dp_join": "kernels",
    "treewidth.capped": "treewidth",
    "treewidth.decompose": "treewidth",
    "treewidth.make_nice": "treewidth",
    "exact.dp_solve": "exact",
    "merge.run_smh": "merge",
    "merge.rank": "merge",
    "merge.union": "merge",
}
LAYERS = ("cli", "generator", "graph", "kernels", "treewidth", "exact", "merge")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def call(self, name, fn, args, kwargs, info=None):
        """Run ``fn`` inside a span; ``info(args, kwargs, result, exc)`` adds counters."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        result = exc = None
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            exc = e
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result, exc)
            # time spent on counters is charged to no layer
            rec[EXTRA] = time.perf_counter() - rec[END]


def _span(name, info=None):
    """Wrapper factory: one span per call of the wrapped function."""
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, info)

        return wrapper

    return make


def _dp_join_info(args, kwargs, result, exc):
    left, right = args[0], args[1]
    per_mask = Counter(key[0] for key in right)
    pairs = sum(per_mask.get(key[0], 0) for key in left)
    return {"pairs": pairs, "out": 0 if result is None else len(result)}


def _dp_solve_span(tracer, fn):
    """Like ``_span``, but passes ``stats=`` to read the DP table sizes."""
    def wrapper(*args, **kwargs):
        stats: list = []

        def info(a, k, result, exc):
            by_kind = Counter()
            for _, kind, _, size in stats:
                by_kind[kind] += size
            return {
                "states": dict(by_kind),
                "table_max": max((row[3] for row in stats), default=0),
                "capacity_error": int(type(exc).__name__ == "CapacityError"),
            }

        return tracer.call("exact.dp_solve", fn, args, {**kwargs, "stats": stats}, info)

    return wrapper


def _report_info(args, kwargs, report, exc):
    if report is None:
        return None
    return {
        "trees_used": report.trees_used,
        "union_width": report.union_width,
        "improved": int(report.weight < min(report.pool_weights)),
    }


def _rank_info(args, kwargs, state, exc):
    if state is None:
        return None
    return {
        "rounds": len(state.iterations),
        "distinct": len({it.selected for it in state.iterations}),
        "skipped": state.skipped,
    }


def _patch_table(sm):
    """(module, attribute, wrapper factory) for every wrapped lookup site."""
    cli, generator, graph, kernels = sm.cli, sm.generator, sm.graph, sm.kernels
    merge, exact = sm.merge, sm.exact
    return [
        (cli, "parse_stp_file", _span("graph.parse")),
        (cli, "read_pool", _span("graph.parse")),
        (cli, "generate_pool", _span(
            "generator.pool",
            lambda a, k, r, e: r and {"trees": len(r.entries), "runs": a[1].pool_size})),
        (cli, "run_smh", _span("merge.run_smh", _report_info)),
        (generator, "sph_construct", _span("generator.sph_construct")),
        (generator, "local_search", _span("generator.local_search")),
        (generator, "minimum_spanning_edges", _span("graph.mst")),
        (graph, "minimum_spanning_edges", _span("graph.mst")),
        (generator, "prune", _span("graph.prune")),
        (exact, "prune", _span("graph.prune")),
        (kernels, "dijkstra_multi", _span("kernels.dijkstra")),
        (kernels, "eliminate", _span("kernels.eliminate")),
        (kernels, "dp_join", _span("kernels.dp_join", _dp_join_info)),
        (merge, "greedy_degree_capped", _span(
            "treewidth.capped", lambda a, k, r, e: r and {"accepted": int(not r.exceeded)})),
        (merge, "decomposition_from_order", _span("treewidth.decompose")),
        (merge, "make_nice", _span(
            "treewidth.make_nice", lambda a, k, r, e: r and {"nodes": len(r.nodes)})),
        (merge, "dp_solve", _dp_solve_span),
        (merge, "ranking_procedure", _span("merge.rank", _rank_info)),
        (merge, "greedy_steiner_union", _span("merge.union")),
    ]


@contextmanager
def traced(tracer: Tracer, sm):
    """Install span wrappers on the package namespace ``sm``; undo on exit."""
    saved = []
    try:
        for mod, attr, make in _patch_table(sm):
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, make(tracer, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def write_spans(spans, path) -> None:
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "op": s[OP], "info": s[INFO],
            }) + "\n")


def self_times(spans) -> list[float]:
    """Duration minus the time child spans (and their counter upkeep) cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START] + s[EXTRA]
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Aggregate one traced pass into the per-layer metrics (name -> value)."""
    selfs = self_times(spans)
    calls = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    info_sum = Counter()
    states = Counter()
    table_max = 0
    width_max = 0
    mst_in_prune = 0
    ops_with_capacity_error = set()
    ops = set()
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        total[name] += s[END] - s[START]
        self_s[name] += selfs[i]
        info = s[INFO]
        if name == "op":
            ops.add(s[OP])
        if name == "graph.mst" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "graph.prune":
            mst_in_prune += 1
        if not info:
            continue
        if name == "exact.dp_solve":
            states.update(info["states"])
            table_max = max(table_max, info["table_max"])
            info_sum["capacity_errors"] += info["capacity_error"]
            if info["capacity_error"]:
                ops_with_capacity_error.add(s[OP])
        elif name == "merge.run_smh":
            width_max = max(width_max, info["union_width"])
            info_sum["trees_used"] += info["trees_used"]
            info_sum["improved"] += info["improved"]
        else:
            for key, value in info.items():
                info_sum[f"{name}.{key}"] += value

    op_total = total["op"]
    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[LAYER_OF[name]] += value
    trees = info_sum["generator.pool.trees"]
    runs = info_sum["generator.pool.runs"]
    pairs = info_sum["kernels.dp_join.pairs"]
    capped = calls["treewidth.capped"]
    n_ops = max(len(ops), 1)

    m = {
        "generator.pool.s": total["generator.pool"],
        "generator.sph_construct.calls": calls["generator.sph_construct"],
        "generator.sph_construct.self_s": self_s["generator.sph_construct"],
        "generator.local_search.calls": calls["generator.local_search"],
        "generator.local_search.self_s": self_s["generator.local_search"],
        "generator.pool_trees": trees,
        "generator.distinct_ratio": trees / runs if runs else 0.0,
        "generator.trees_per_s": trees / total["generator.pool"] if trees else 0.0,
        "graph.mst.calls": calls["graph.mst"] - mst_in_prune,
        "graph.mst.calls_in_prune": mst_in_prune,
        "graph.mst.s": total["graph.mst"],
        "graph.prune.calls": calls["graph.prune"],
        "graph.prune.self_s": self_s["graph.prune"],
        "graph.parse.s": total["graph.parse"],
        "kernels.dijkstra.calls": calls["kernels.dijkstra"],
        "kernels.dijkstra.s": total["kernels.dijkstra"],
        "kernels.eliminate.calls": calls["kernels.eliminate"],
        "kernels.eliminate.s": total["kernels.eliminate"],
        "kernels.dp_join.calls": calls["kernels.dp_join"],
        "kernels.dp_join.s": total["kernels.dp_join"],
        "kernels.dp_join.pairs": pairs,
        "kernels.dp_join.yield": info_sum["kernels.dp_join.out"] / pairs if pairs else 0.0,
        "treewidth.capped.calls": capped,
        "treewidth.capped.self_s": self_s["treewidth.capped"],
        "treewidth.capped.accept_ratio":
            info_sum["treewidth.capped.accepted"] / capped if capped else 0.0,
        "treewidth.decompose.s": total["treewidth.decompose"],
        "treewidth.make_nice.s": total["treewidth.make_nice"],
        "treewidth.nice_nodes": info_sum["treewidth.make_nice.nodes"],
        "exact.dp_solve.calls": calls["exact.dp_solve"],
        "exact.dp_solve.self_s": self_s["exact.dp_solve"],
        "exact.states": sum(states.values()),
        "exact.states.join": states["join"],
        "exact.states.forget": states["forget"],
        "exact.states.introduce": states["introduce"],
        "exact.states.introduce_edge": states["edge"],
        "exact.table_max": table_max,
        "exact.capacity_errors": info_sum["capacity_errors"],
        "exact.capacity_error_ops": len(ops_with_capacity_error),
        "merge.rank.s": total["merge.rank"],
        "merge.final.s": total["merge.run_smh"] - total["merge.rank"],
        "merge.rank.rounds": info_sum["merge.rank.rounds"],
        "merge.rank.distinct_unions": info_sum["merge.rank.distinct"],
        "merge.rank.skipped": info_sum["merge.rank.skipped"],
        "merge.union.calls": calls["merge.union"],
        "merge.union.self_s": self_s["merge.union"],
        "merge.union_width.max": width_max,
        "merge.trees_used": info_sum["trees_used"],
        "merge.improved_frac": info_sum["improved"] / n_ops,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / op_total if op_total else 0.0
    m["share.generation"] = (total["generator.pool"] + total["graph.parse"]) / op_total
    m["share.dp"] = total["exact.dp_solve"] / op_total
    return m


def deterministic_counters(spans) -> dict[str, int]:
    """Per-operation counters that must repeat exactly for a fixed input."""
    out: dict[int, Counter] = defaultdict(Counter)
    for s in spans:
        info = s[INFO]
        c = out[s[OP]]
        c[s[NAME] + ".calls"] += 1
        if s[NAME] == "exact.dp_solve" and info:
            c["states"] += sum(info["states"].values())
        elif s[NAME] == "kernels.dp_join" and info:
            c["pairs"] += info["pairs"]
    return {op: dict(c) for op, c in out.items()}
