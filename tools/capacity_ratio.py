"""Acceptance test 7's merge/generation ratio, measured over repeated runs.

Runs test 7's three dense instances (200 vertices, density 0.12, 40
terminals, weights 1..3; pool 10 x 3 restarts at perturbation 0.4; merge
caps 10/6, 5 ranking rounds, state budget 8192) N times, in one process,
with the package under this checkout's ``src/``. For each run it prints
each seed's generation and merge seconds and the run's worst ratio, as the
test reports them, then the median and the maximum of those worst ratios.

    python3 tools/capacity_ratio.py [N]      # N runs, default 8

To compare two checkouts, run each one's copy of this script in turn, one
run at a time, so that both sides see the same host load. The seconds are
raw wall-clock readings.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from steinmerge import GeneratorConfig, MergeConfig, generate_pool, run_smh  # noqa: E402
from steinmerge.synth import dense_instance  # noqa: E402

SEEDS = range(3)


def one_run() -> tuple[float, list[tuple[float, float]]]:
    """The worst merge/generation ratio of one pass, and each seed's seconds."""
    seconds = []
    for seed in SEEDS:
        inst = dense_instance(seed, 200, 0.12, 40, max_weight=3)
        t0 = time.monotonic()
        pool = generate_pool(
            inst,
            GeneratorConfig(
                pool_size=10, iterations_per_run=3, perturbation_strength=0.4, seed=seed
            ),
        )
        gen_seconds = time.monotonic() - t0
        report = run_smh(
            inst,
            pool,
            MergeConfig(final_width=10, rank_width=6, rank_iterations=5, seed=seed),
            state_budget=1 << 13,
        )
        seconds.append((gen_seconds, report.merge_seconds))
    return max(m / g for g, m in seconds), seconds


def main(argv: list[str]) -> int:
    runs = int(argv[0]) if argv else 8
    if runs < 1:
        sys.stderr.write("N must be at least 1\n")
        return 2
    worst = []
    for i in range(runs):
        ratio, seconds = one_run()
        worst.append(ratio)
        per_seed = ", ".join(
            f"seed {seed} {g:.2f}/{m:.3f}s" for seed, (g, m) in zip(SEEDS, seconds)
        )
        print(f"run {i + 1}: worst ratio {ratio:.3f}; generation/merge {per_seed}")
    print(f"worst ratio over {runs} runs: median {statistics.median(worst):.3f},"
          f" max {max(worst):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
