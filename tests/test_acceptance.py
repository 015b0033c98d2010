"""Acceptance gate: one pass/fail line per criterion.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL (<detail>)` on the real
stdout so the verdicts survive capture, then asserts. The criteria ladder:
exactness against an independent oracle, invariance across decompositions,
structural validity at scale, known width families, dominance and strict
improvement of merging, robustness in the width cap, capacity economics on
dense graphs, bitwise determinism, and an optional external-benchmark run.
"""

import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import reversed_ids
from steinmerge import (
    GeneratorConfig,
    MergeConfig,
    decomposition_from_order,
    dreyfus_wagner,
    generate_pool,
    greedy_degree,
    make_nice,
    run_smh,
    solve_with_decomposition,
    validate_decomposition,
    validate_nice,
    write_stp,
)
from steinmerge.cli import main
from steinmerge.synth import (
    clique_instance,
    cycle_instance,
    dense_instance,
    grid_with_holes,
    random_connected_instance,
    sparse_instance,
    tree_instance,
)

pytestmark = pytest.mark.slow


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        extra = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {num} {name}: {status}{extra}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def oracle_instances():
    """200 small random instances within the oracle's comfort zone."""
    rng = random.Random(20140905)
    out = []
    for i in range(200):
        n = rng.randint(6, 25)
        # stay within |E| <= 60 and keep the average degree moderate so the
        # decomposition side finishes the whole batch well inside its budget
        m = rng.randint(n - 1, min(60, (9 * n) // 4, n * (n - 1) // 2))
        q = rng.randint(2, min(6, n))
        out.append(random_connected_instance(1000 + i, n, m, q, max_weight=100))
    return out


def test_01_oracle_equivalence(capsys, oracle_instances):
    t0 = time.monotonic()
    mismatches = 0
    for inst in oracle_instances:
        if solve_with_decomposition(inst).weight != dreyfus_wagner(inst).weight:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 300
    report(
        capsys, 1, "oracle-equivalence", ok,
        f"{len(oracle_instances)} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_02_decomposition_invariance(capsys, oracle_instances):
    violations = 0
    checked = 0
    for inst in oracle_instances[:20]:
        base = solve_with_decomposition(inst).weight
        top = inst.graph.n_vertices - 1
        variants = [
            # renamed v -> n-1-v, the elimination breaks degree ties the other way
            solve_with_decomposition(
                reversed_ids(inst), root_vertex=top - min(inst.terminals)).weight,
            solve_with_decomposition(inst, root_vertex=max(inst.terminals)).weight,
        ]
        checked += 1
        if any(v != base for v in variants):
            violations += 1
    ok = violations == 0
    report(
        capsys, 2, "dp-invariance", ok,
        f"{checked} instances x 3 decompositions, {violations} disagreements",
    )


def test_03_decomposition_validity(capsys):
    rng = random.Random(7)
    cases = 0
    failures = 0
    inflation_max = 0
    for i in range(250):
        n = rng.randint(4, 30)
        m = rng.randint(n - 1, min(70, n * (n - 1) // 2))
        q = rng.randint(1, min(8, n))
        inst = random_connected_instance(3000 + i, n, m, q, max_weight=50)
        root = min(inst.terminals)
        # the instance and its copy renamed v -> n-1-v, pinned at the same terminal
        for graph, pinned in ((inst.graph, root), (reversed_ids(inst).graph, n - 1 - root)):
            cases += 1
            td = decomposition_from_order(graph, greedy_degree(graph))
            nice = make_nice(graph, td, pinned)
            inflation = nice.width - td.width
            inflation_max = max(inflation_max, inflation)
            if (
                validate_decomposition(graph, td)
                or validate_nice(graph, nice)
                or inflation > 1
            ):
                failures += 1
    ok = failures == 0 and cases >= 500
    report(
        capsys, 3, "decomposition-validity", ok,
        f"{cases} cases, {failures} failures, max width inflation {inflation_max}",
    )


def test_04_width_families(capsys):
    bad = []
    for seed in range(50):
        inst = tree_instance(4000 + seed, 30, 5)
        w = greedy_degree(inst.graph).width
        if w != 1:
            bad.append(f"tree seed {seed} width {w}")
    for n in range(3, 51):
        w = greedy_degree(cycle_instance(n).graph).width
        if w != 2:
            bad.append(f"C{n} width {w}")
    for n in range(3, 11):
        w = greedy_degree(clique_instance(n).graph).width
        if w != n - 1:
            bad.append(f"K{n} width {w}")
    ok = not bad
    report(
        capsys, 4, "width-families", ok,
        "50 trees, C3..C50, K3..K10" if ok else "; ".join(bad[:3]),
    )


def test_05_dominance_and_improvement(capsys):
    # dominance on sparse instances: merged never worse than the pool
    dominated = 0
    sparse_runs = 100
    for seed in range(sparse_runs):
        inst = sparse_instance(5000 + seed, 60, 8)
        pool = generate_pool(
            inst, GeneratorConfig(pool_size=6, iterations_per_run=2, seed=seed)
        )
        rep = run_smh(
            inst,
            pool,
            MergeConfig(final_width=6, rank_width=4, rank_iterations=4, seed=seed),
        )
        if rep.weight <= min(pool.weights):
            dominated += 1

    # strict improvement on hole-punched grids near 500 vertices
    grid_runs = 24
    strict = 0
    for seed in range(grid_runs):
        inst = grid_with_holes(
            seed, 24, 24, hole_fraction=0.15, n_terminals=24, max_weight=100
        )
        pool = generate_pool(
            inst, GeneratorConfig(pool_size=10, iterations_per_run=2, seed=seed)
        )
        rep = run_smh(
            inst,
            pool,
            MergeConfig(final_width=8, rank_width=6, rank_iterations=8, seed=seed),
        )
        if rep.weight < min(pool.weights):
            strict += 1

    rate = 100.0 * strict / grid_runs
    ok = dominated == sparse_runs and rate >= 20.0
    report(
        capsys, 5, "dominance-and-improvement", ok,
        f"dominance {dominated}/{sparse_runs}, grid strict improvement "
        f"{strict}/{grid_runs} = {rate:.0f}%",
    )


def test_06_width_cap_monotonicity(capsys):
    violations = 0
    cap_bound = 0
    for seed in range(20):
        inst = sparse_instance(seed, 150, 15, avg_degree=4.5)
        pool = generate_pool(
            inst,
            GeneratorConfig(
                pool_size=16, iterations_per_run=1,
                perturbation_strength=0.7, seed=seed,
            ),
        )
        weights = []
        used = []
        for m in (4, 6, 8, 10):
            rep = run_smh(
                inst,
                pool,
                MergeConfig(
                    final_width=m, rank_width=4, rank_iterations=6,
                    keep_best=True, seed=seed,
                ),
            )
            weights.append(rep.weight)
            used.append(rep.trees_used)
        if any(a < b for a, b in zip(weights, weights[1:])):
            violations += 1
        if len(set(used)) > 1:
            cap_bound += 1
    ok = violations == 0
    report(
        capsys, 6, "width-cap-monotonicity", ok,
        f"20 instances x caps 4,6,8,10: {violations} violations, "
        f"cap changed selection on {cap_bound}",
    )


def test_07_capacity_economics(capsys):
    worst_ratio = 0.0
    missed = 0
    runs = 3
    seconds = []
    for seed in range(runs):
        inst = dense_instance(seed, 200, 0.12, 40, max_weight=3)
        t0 = time.monotonic()
        pool = generate_pool(
            inst,
            GeneratorConfig(
                pool_size=10, iterations_per_run=3,
                perturbation_strength=0.4, seed=seed,
            ),
        )
        gen_seconds = time.monotonic() - t0
        rep = run_smh(
            inst,
            pool,
            MergeConfig(final_width=10, rank_width=6, rank_iterations=5, seed=seed),
            state_budget=1 << 13,
        )
        detected = (
            rep.capacity_fallback
            or rep.ranking.skipped > 0
            or rep.trees_used < len(pool)
        )
        ratio = rep.merge_seconds / gen_seconds
        seconds.append(f"seed {seed} {gen_seconds:.2f}/{rep.merge_seconds:.3f}s")
        worst_ratio = max(worst_ratio, ratio)
        if not detected or ratio > 0.10 or rep.weight > min(pool.weights):
            missed += 1
    ok = missed == 0
    report(
        capsys, 7, "capacity-economics", ok,
        f"{runs} dense runs (|V|=200, 12% density), all detected fallback, "
        f"worst merge/generation ratio {worst_ratio:.3f}; "
        f"generation/merge {', '.join(seconds)}",
    )


def test_08_determinism(capsys, tmp_path):
    inst = sparse_instance(42, 50, 7)
    path = tmp_path / "det.stp"
    path.write_text(write_stp(inst))
    argv = [
        "solve", str(path), "--seed", "7", "--pool", "4", "--grasp-iters", "2",
        "--rank-iters", "3", "--format", "json",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    byte_identical = first == second and json.loads(first)["weight"] > 0

    cfg = GeneratorConfig(pool_size=8, iterations_per_run=2, seed=7)
    seq = generate_pool(inst, cfg)
    par = generate_pool(inst, cfg, workers=4)
    pools_equal = seq.entries == par.entries

    ok = byte_identical and pools_equal
    report(
        capsys, 8, "determinism", ok,
        f"seed-7 reruns byte-identical: {byte_identical}, "
        f"4-worker pool == sequential: {pools_equal}",
    )


def test_09_external_benchmark(capsys, tmp_path):
    directory = os.environ.get("SMH_STEINLIB_DIR")
    if not directory or not list(Path(directory).glob("*.stp")):
        with capsys.disabled():
            print(
                "ACCEPTANCE 9 external-benchmark: SKIP "
                "(set SMH_STEINLIB_DIR to a directory of .stp files)"
            )
        pytest.skip("no external benchmark instances supplied")
    out_path = tmp_path / "bench.json"
    argv = ["bench", directory, "--format", "json", "-o", str(out_path), "--seed", "0"]
    best = os.environ.get("SMH_BEST_KNOWN")
    if best:
        argv += ["--best-known", best]
    code = main(argv)
    records = json.loads(out_path.read_text())
    # gaps print as two-decimal strings
    gaps = [(Fraction(r["grasp_gap"]), Fraction(r["smh_gap"]))
            for r in records if r["grasp_gap"] is not None]
    if gaps:
        mean_grasp = sum(g for g, _ in gaps) / len(gaps)
        mean_smh = sum(g for _, g in gaps) / len(gaps)
        direction = "held" if mean_smh < mean_grasp else "not held"
        detail = (
            f"{len(records)} instances, mean gap {float(mean_grasp):.2f}% -> "
            f"{float(mean_smh):.2f}%, direction {direction}"
        )
    else:
        detail = f"{len(records)} instances, no best-known values supplied"
    # reported, not gated: the run itself must succeed, the direction is informative
    report(capsys, 9, "external-benchmark", code == 0 and len(records) > 0, detail)
