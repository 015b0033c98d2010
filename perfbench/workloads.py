"""The benchmark's workloads: which instances, which command, which flags.

Every workload turns a seed into a fixed list of `synth` instances, writes
them as `.stp` files and, for `merge`, builds each pool with
`steinmerge generate`. The program sees only those files.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "solve" or "merge"
    instances: int
    family: str  # synth builder
    params: tuple  # builder arguments after the seed
    flags: tuple[str, ...] = ()
    pool_flags: tuple[str, ...] | None = None  # `generate` flags for merge pools


# Operation times differ by 20-30% (coefficient of variation) between the
# instances of a workload, so a pass holds 64 or 96 instances for its total
# to move by only about 5% between seeds; a run times every instance at
# least once. perfbench/README.md says why each workload exists and why its
# sizes are below the default protocol.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-solve",
            command="solve",
            instances=96,
            family="grid_with_holes",
            params=(12, 12, 0.15, 10),
            flags=("--pool", "8", "--grasp-iters", "2", "--rank-iters", "5"),
        ),
        Workload(
            name="sparse-merge",
            command="merge",
            instances=64,
            family="sparse_instance",
            params=(120, 20, 4.0),
            flags=("--max-width", "2", "--rank-width", "2"),
            pool_flags=("--pool", "6", "--grasp-iters", "1", "--perturb", "0.7"),
        ),
        Workload(
            name="dense-fallback",
            command="solve",
            instances=64,
            family="dense_instance",
            params=(80, 0.12, 20, 3),
            flags=("--pool", "8", "--grasp-iters", "1", "--state-budget", "64"),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One operation: the CLI arguments and the instance they refer to."""

    index: int
    argv: tuple[str, ...]
    instance: object  # steinmerge.SteinerInstance


def _quiet(sm, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return sm.cli.main(list(argv))


def set_up(sm, wl: Workload, seed: int, directory: Path, ref) -> tuple[list[Op], float]:
    """Generate the instances for ``seed`` and write every input file.

    Returns the operations and the set-up's seconds at reference speed: each
    instance's share is scaled by ``ref`` readings taken around it, since a
    set-up lasts long enough for the host's speed to change (calibrate.py).
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{wl.name}/{seed}")
    build = getattr(sm.synth, wl.family)
    ops = []
    seconds = 0.0
    before = ref.reference()
    for i in range(wl.instances):
        t0 = time.perf_counter()
        inst_seed, run_seed = rng.randrange(1 << 31), rng.randrange(1 << 31)
        instance = build(inst_seed, *wl.params)
        stp = directory / f"{i:03d}.stp"
        stp.write_text(sm.write_stp(instance))
        argv = [wl.command, str(stp)]
        if wl.pool_flags is not None:
            pool = directory / f"{i:03d}.pool"
            rc = _quiet(sm, ["generate", str(stp), "-o", str(pool), "--jobs", "1",
                             "--seed", str(run_seed), *wl.pool_flags])
            if rc != 0:
                raise RuntimeError(f"pool build for instance {i} exited {rc}")
            argv.append(str(pool))
        argv += ["--format", "json", "--jobs", "1", "--seed", str(run_seed), *wl.flags]
        ops.append(Op(i, tuple(argv), instance))
        took = time.perf_counter() - t0
        after = ref.reference()
        seconds += ref.scale(took, before, after)
        before = after
    return ops, seconds
