"""Replay the per-union work of one workload: DPs, nice refinements, eliminations.

Runs one workload's operations once, in one process, with the package under
this checkout's ``src/``, and records the arguments of every
``merge.dp_solve``, ``merge.make_nice`` and ``kernels.eliminate`` call. It
then replays each of those three groups N times and prints each round's
seconds per group, their medians, and one digest over the results of the
first round: the trees, the DPs' ``stats`` rows, the nice nodes and the
eliminations.

    python3 tools/dp_replay.py WORKLOAD [N]     # N rounds, default 5

WORKLOAD is ``sparse-merge``, ``grid-solve`` or ``dense-fallback`` (their
seed-23 instances, built as ``perfbench/workloads.py`` defines them, but in
memory: pools come from ``generate_pool`` rather than pool files) or
``test7`` (acceptance test 7's three instances and merge settings, as
``tools/capacity_ratio.py`` runs them). Nothing is written to disk.

To compare two checkouts, run each checkout's copy in turn, one at a time,
so that both see the same host load; equal digests mean equal results.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from steinmerge import (  # noqa: E402
    CapacityError,
    GeneratorConfig,
    MergeConfig,
    cli,
    exact,
    generate_pool,
    kernels,
    merge,
    run_smh,
    synth,
)
from workloads import WORKLOADS  # noqa: E402

SEED = 23
GROUPS = ("dp_solve", "make_nice", "eliminate")


def operations(name: str):
    """The workload's operations, each a call that runs one solve or merge."""
    if name == "test7":
        for seed in range(3):
            inst = synth.dense_instance(seed, 200, 0.12, 40, max_weight=3)
            gen = GeneratorConfig(
                pool_size=10, iterations_per_run=3, perturbation_strength=0.4, seed=seed
            )
            cfg = MergeConfig(final_width=10, rank_width=6, rank_iterations=5, seed=seed)
            yield lambda i=inst, g=gen, c=cfg: run_smh(
                i, generate_pool(i, g), c, state_budget=1 << 13
            )
        return
    wl = WORKLOADS[name]
    rng = random.Random(f"{wl.name}/{SEED}")
    build = getattr(synth, wl.family)
    for _ in range(wl.instances):
        inst_seed, run_seed = rng.randrange(1 << 31), rng.randrange(1 << 31)
        inst = build(inst_seed, *wl.params)
        common = ["--jobs", "1", "--seed", str(run_seed)]
        # the command's own parser turns the workload's flags into configs
        if wl.pool_flags is not None:
            args = cli.build_parser("generate").parse_args(
                ["generate", "-", *common, *wl.pool_flags])
            pool = generate_pool(inst, cli._generator_config(args))
            args = cli.build_parser(wl.command).parse_args(
                [wl.command, "-", "-", *common, *wl.flags])
            yield lambda i=inst, p=pool, c=cli._merge_config(args), b=args.state_budget: (
                run_smh(i, p, c, state_budget=b))
        else:
            args = cli.build_parser(wl.command).parse_args(
                [wl.command, "-", *common, *wl.flags])
            pipe = cli._Pipeline.of(args)
            yield lambda i=inst, q=pipe: run_smh(
                i, generate_pool(i, q.generator), q.merge, state_budget=q.state_budget)


def record(name: str) -> dict[str, list]:
    """Run the operations once; the (args, kwargs) of every call, per group."""
    calls: dict[str, list] = {group: [] for group in GROUPS}
    sites = [(merge, "dp_solve"), (merge, "make_nice"), (kernels, "eliminate")]
    saved = [getattr(mod, attr) for mod, attr in sites]

    def recording(group, fn):
        def wrapper(*args, **kwargs):
            calls[group].append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    try:
        for (mod, attr), fn in zip(sites, saved):
            setattr(mod, attr, recording(attr, fn))
        for op in operations(name):
            op()
    finally:
        for (mod, attr), fn in zip(sites, saved):
            setattr(mod, attr, fn)
    return calls


def replay(group: str, calls: list) -> list:
    """Every recorded call of ``group`` once, through the real functions."""
    out = []
    if group == "dp_solve":
        for args, kwargs in calls:
            stats: list = []
            try:
                tree = exact.dp_solve(*args, **kwargs, stats=stats)
                result = (tree.weight, tree.canonical_edges())
            except CapacityError:
                result = None
            out.append((result, stats))
    elif group == "make_nice":
        for args, kwargs in calls:
            nice = merge.make_nice(*args, **kwargs)
            out.append(([tuple(nd) for nd in nice.nodes], nice.root_vertex, nice.width))
    else:
        for args, kwargs in calls:
            out.append(kernels.eliminate(*args, **kwargs))
    return out


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in (*WORKLOADS, "test7"):
        sys.stderr.write(f"usage: dp_replay.py {{{','.join([*WORKLOADS, 'test7'])}}} [N]\n")
        return 2
    rounds = int(argv[1]) if len(argv) > 1 else 5
    if rounds < 1:
        sys.stderr.write("N must be at least 1\n")
        return 2
    calls = record(argv[0])
    print("calls: " + ", ".join(f"{g} {len(calls[g])}" for g in GROUPS))
    seconds: dict[str, list[float]] = {group: [] for group in GROUPS}
    digest = hashlib.sha256()
    for r in range(rounds):
        row = []
        for group in GROUPS:
            gc.collect()
            t0 = time.perf_counter()
            results = replay(group, calls[group])
            seconds[group].append(time.perf_counter() - t0)
            row.append(f"{group} {seconds[group][-1]:.4f}s")
            if r == 0:
                digest.update(repr(results).encode())
        print(f"round {r + 1}: " + ", ".join(row))
    print("median: " + ", ".join(
        f"{group} {statistics.median(seconds[group]):.4f}s" for group in GROUPS))
    print(f"digest {digest.hexdigest()[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
