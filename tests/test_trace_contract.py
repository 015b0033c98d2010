"""`perfbench/layers.py` traces by rebinding package names; they must all exist."""

import importlib.util
import json
from pathlib import Path

import steinmerge
import steinmerge.cli
from steinmerge import write_stp
from steinmerge.synth import sparse_instance

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_records_graph_spans(tmp_path, capsys):
    layers = load_layers()
    for module, attr, _ in layers._patch_table(steinmerge):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    path = tmp_path / "inst.stp"
    path.write_text(write_stp(sparse_instance(0, 25, 4)))
    tracer = layers.Tracer()
    with layers.traced(tracer, steinmerge):
        code = steinmerge.cli.main(
            ["solve", str(path), "--pool", "2", "--grasp-iters", "1",
             "--rank-iters", "1", "--format", "json"]
        )
    assert code == steinmerge.cli.EXIT_OK
    spans = tracer.spans
    name, parent = layers.NAME, layers.PARENT
    assert any(s[name] == "graph.prune" for s in spans)
    mst_parents = {
        spans[s[parent]][name] if s[parent] >= 0 else None
        for s in spans
        if s[name] == "graph.mst"
    }
    # Kruskal runs inside prune and, for local search, outside it
    assert "graph.prune" in mst_parents
    assert mst_parents - {"graph.prune"}


def test_traced_solve_records_merge_spans(tmp_path):
    # the merge layer calls selection, elimination, decomposition and the
    # DP through ``merge`` module names, which the tracer rebinds
    layers = load_layers()
    path = tmp_path / "inst.stp"
    path.write_text(write_stp(sparse_instance(0, 25, 4)))
    tracer = layers.Tracer()
    with layers.traced(tracer, steinmerge):
        code = steinmerge.cli.main(
            ["solve", str(path), "--pool", "6", "--grasp-iters", "1", "--perturb", "0.7",
             "--rank-iters", "2", "--format", "json"]
        )
    assert code == steinmerge.cli.EXIT_OK
    names = {s[layers.NAME] for s in tracer.spans}
    assert {
        "merge.union", "treewidth.capped", "treewidth.decompose",
        "treewidth.make_nice", "exact.dp_solve",
    } <= names


def traced_op(layers, argv):
    """Run ``main(argv)`` as one traced operation, the way the benchmark does."""
    tracer = layers.Tracer()
    tracer.op = 0
    with layers.traced(tracer, steinmerge):
        code = tracer.call("op", steinmerge.cli.main, (argv,), {})
    assert code == steinmerge.cli.EXIT_OK
    return tracer.spans


def test_layer_metrics_count_the_pool_and_the_dp_states(tmp_path, capsys):
    layers = load_layers()
    path = tmp_path / "inst.stp"
    path.write_text(write_stp(sparse_instance(0, 25, 4)))
    capsys.readouterr()
    spans = traced_op(layers, [
        "solve", str(path), "--pool", "6", "--grasp-iters", "1", "--perturb", "0.7",
        "--rank-iters", "2", "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    metrics = layers.layer_metrics(spans)
    assert metrics["generator.pool_trees"] == len(payload["pool_weights"]) > 1
    assert metrics["exact.states"] > 0


def test_traced_merge_parses_the_instance_and_the_pool(tmp_path):
    layers = load_layers()
    path = tmp_path / "inst.stp"
    path.write_text(write_stp(sparse_instance(0, 25, 4)))
    pool = tmp_path / "pool.txt"
    assert steinmerge.cli.main(
        ["generate", str(path), "--pool", "3", "--grasp-iters", "1", "-o", str(pool)]
    ) == steinmerge.cli.EXIT_OK
    spans = traced_op(layers, ["merge", str(path), str(pool), "--format", "json"])
    parses = [s for s in spans if s[layers.NAME] == "graph.parse"]
    assert len(parses) == 2
    assert all(spans[s[layers.PARENT]][layers.NAME] == "op" for s in parses)
