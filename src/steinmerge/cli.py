"""Command-line front end and benchmark harness.

Subcommands: solve (full pipeline), generate (pool only), merge (pool file
in, merged tree out), oracle (small exact solve), validate-td
(decomposition checker), bench (directory sweep with CSV report).

Every protocol flag can also be set through an environment variable with
the SMH_ prefix (SMH_POOL, SMH_GRASP_ITERS, SMH_PERTURB, SMH_MAX_WIDTH,
SMH_RANK_WIDTH, SMH_RANK_ITERS, SMH_SEED, SMH_ORACLE_CAP, SMH_TIME_LIMIT,
SMH_FORMAT, SMH_JOBS, SMH_STATE_BUDGET); explicit flags win. Machine
formats (json, csv) keep wall-clock times on stderr so repeated runs with
the same seed emit byte-identical stdout.

Exit codes: 0 success, 1 invalid decomposition (validate-td), 2 usage,
3 parse or validation failure (input that is not UTF-8 text included), 4
infeasible, 5 capacity fallback, 6 timeout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exact import DEFAULT_STATE_BUDGET, DW_TERMINAL_CAP, CapacityError, dreyfus_wagner
from .generator import GeneratorConfig, generate_pool, read_pool, write_pool
from .graph import (
    InfeasibleError,
    ParseError,
    SteinerError,
    SteinerInstance,
    ValidationError,
    parse_stp_file,
)
from .merge import MergeConfig, MergeReport, run_smh
from .treewidth import read_td, validate_decomposition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_CAPACITY = 5
EXIT_TIMEOUT = 6


def _env(name: str, default, cast):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        raise SteinerError(f"environment variable {name} has a bad value: {raw!r}")


FORMATS = ("csv", "json", "table")


def _format_name(raw: str) -> str:
    """Cast for SMH_FORMAT: argparse checks ``choices`` only on flags, not defaults."""
    if raw not in FORMATS:
        raise ValueError(raw)
    return raw


# ---------------------------------------------------------------------------
# gaps and number rendering


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def compute_gap(value, best_known) -> Fraction:
    """Exact percentage excess of ``value`` over ``best_known``.

    Negative when the value beats the best-known bound (a new best).
    """
    b = _as_fraction(best_known)
    if b <= 0:
        raise ValidationError("best-known value must be positive")
    v = _as_fraction(value)
    return 100 * (v - b) / b


def _fmt2(x) -> str:
    """Two-decimal rendering; empty string for missing values."""
    if x is None:
        return ""
    if isinstance(x, Fraction):
        x = x.numerator / x.denominator
    return f"{x:.2f}"


def _fmt3(x) -> str:
    return "" if x is None else f"{x:.3f}"


# ---------------------------------------------------------------------------
# report rendering


def _report_payload(report: MergeReport) -> dict:
    """Deterministic (time-free) view of a merge report."""
    return {
        "instance": report.instance,
        "pool_size": report.pool_size,
        "pool_weights": list(report.pool_weights),
        "weight": report.weight,
        "source": report.source,
        "trees_used": report.trees_used,
        "union_width": report.union_width,
        "capacity_fallback": report.capacity_fallback,
        "timed_out": report.timed_out,
        "skipped_iterations": report.ranking.skipped,
        "iterations": [
            {
                "index": it.index,
                "value": it.value,
                "selected": list(it.selected),
                "width": it.width,
            }
            for it in report.ranking.iterations
        ],
        "edges": [[u + 1, v + 1] for u, v in report.solution.canonical_edges()],
    }


def _render_report(report: MergeReport, fmt: str, gen_seconds: float | None) -> str:
    if fmt == "json":
        return json.dumps(_report_payload(report), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            [
                "instance",
                "weight",
                "source",
                "trees_used",
                "union_width",
                "pool_size",
                "pool_best",
                "capacity_fallback",
                "timed_out",
            ]
        )
        w.writerow(
            [
                report.instance,
                report.weight,
                report.source,
                report.trees_used,
                report.union_width,
                report.pool_size,
                min(report.pool_weights),
                int(report.capacity_fallback),
                int(report.timed_out),
            ]
        )
        return buf.getvalue()
    lines = [
        f"instance      {report.instance or '(unnamed)'}",
        f"pool          {report.pool_size} trees, best {min(report.pool_weights)}"
        f", worst {max(report.pool_weights)}",
        f"result        {report.weight} (from {report.source})",
        f"final union   {report.trees_used} trees, width {report.union_width}",
        f"ranking       {len(report.ranking.iterations)} iterations"
        f", {report.ranking.skipped} skipped",
    ]
    if gen_seconds is not None:
        lines.append(f"generation    {gen_seconds:.3f}s")
    lines.append(
        f"merge         {report.merge_seconds:.3f}s"
        f" (ranking {report.rank_seconds:.3f}s, final {report.final_seconds:.3f}s)"
    )
    if report.capacity_fallback:
        lines.append("note          final union exceeded the state budget; fell back")
    if report.timed_out:
        lines.append("note          time limit hit; best incumbent reported")
    return "\n".join(lines) + "\n"


def _emit_report(report: MergeReport, fmt: str, gen_seconds: float | None) -> None:
    sys.stdout.write(_render_report(report, fmt, gen_seconds))
    if fmt != "table":
        gen = f" generation {gen_seconds:.3f}s" if gen_seconds is not None else ""
        sys.stderr.write(f"#{gen} merge {report.merge_seconds:.3f}s\n")


def _report_exit(report: MergeReport) -> int:
    if report.timed_out:
        return EXIT_TIMEOUT
    if report.capacity_fallback:
        return EXIT_CAPACITY
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark records


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row: pool-only result vs merged result on one instance."""

    instance: str
    terminals: int
    edges: int
    best_known: int | None
    grasp_value: int
    smh_value: int
    grasp_gap: Fraction | None
    smh_gap: Fraction | None
    improvement: Fraction | None
    grasp_time: float
    smh_time: float
    rel_time: float | None
    trees_used: int


BENCH_FIELDS = [
    "instance",
    "terminals",
    "edges",
    "best_known",
    "grasp_value",
    "smh_value",
    "grasp_gap",
    "smh_gap",
    "improvement",
    "grasp_time",
    "smh_time",
    "rel_time",
    "trees_used",
]


def make_bench_record(
    instance: SteinerInstance,
    name: str,
    report: MergeReport,
    grasp_time: float,
    best_known: int | None,
) -> BenchRecord:
    grasp_value = min(report.pool_weights)
    smh_value = report.weight
    grasp_gap = smh_gap = improvement = None
    if best_known is not None:
        grasp_gap = compute_gap(grasp_value, best_known)
        smh_gap = compute_gap(smh_value, best_known)
        if grasp_gap > 0:
            improvement = 100 * (grasp_gap - smh_gap) / grasp_gap
    smh_time = report.merge_seconds
    rel_time = smh_time / grasp_time if grasp_time > 0 else None
    return BenchRecord(
        instance=name,
        terminals=instance.n_terminals,
        edges=instance.graph.n_edges,
        best_known=best_known,
        grasp_value=grasp_value,
        smh_value=smh_value,
        grasp_gap=grasp_gap,
        smh_gap=smh_gap,
        improvement=improvement,
        grasp_time=grasp_time,
        smh_time=smh_time,
        rel_time=rel_time,
        trees_used=report.trees_used,
    )


def write_bench_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(BENCH_FIELDS)
    for r in records:
        w.writerow(
            [
                r.instance,
                r.terminals,
                r.edges,
                "" if r.best_known is None else r.best_known,
                r.grasp_value,
                r.smh_value,
                _fmt2(r.grasp_gap),
                _fmt2(r.smh_gap),
                _fmt2(r.improvement),
                _fmt3(r.grasp_time),
                _fmt3(r.smh_time),
                _fmt2(r.rel_time),
                r.trees_used,
            ]
        )
    return buf.getvalue()


def read_bench_csv(text: str) -> list[BenchRecord]:
    """Parse bench CSV back into records (2-decimal fields stay 2-decimal)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != BENCH_FIELDS:
        raise ParseError("unexpected bench CSV header")
    out = []
    for row in reader:
        frac = lambda s: None if s == "" else Fraction(s)
        out.append(
            BenchRecord(
                instance=row["instance"],
                terminals=int(row["terminals"]),
                edges=int(row["edges"]),
                best_known=None if row["best_known"] == "" else int(row["best_known"]),
                grasp_value=int(row["grasp_value"]),
                smh_value=int(row["smh_value"]),
                grasp_gap=frac(row["grasp_gap"]),
                smh_gap=frac(row["smh_gap"]),
                improvement=frac(row["improvement"]),
                grasp_time=float(row["grasp_time"]),
                smh_time=float(row["smh_time"]),
                rel_time=None if row["rel_time"] == "" else float(row["rel_time"]),
                trees_used=int(row["trees_used"]),
            )
        )
    return out


def bench_summary(records: list[BenchRecord]) -> dict:
    """Aggregates recomputed from the rows: means and best-value counts."""
    gaps = [(r.grasp_gap, r.smh_gap) for r in records if r.grasp_gap is not None]
    imps = [r.improvement for r in records if r.improvement is not None]
    rels = [r.rel_time for r in records if r.rel_time is not None]
    summary = {
        "instances": len(records),
        "smh_better": sum(1 for r in records if r.smh_value < r.grasp_value),
        "matched_best": sum(
            1
            for r in records
            if r.best_known is not None and r.smh_value == r.best_known
        ),
        "new_best": sum(
            1
            for r in records
            if r.best_known is not None and r.smh_value < r.best_known
        ),
    }
    if gaps:
        summary["mean_grasp_gap"] = sum(g for g, _ in gaps) / len(gaps)
        summary["mean_smh_gap"] = sum(g for _, g in gaps) / len(gaps)
    if imps:
        summary["mean_improvement"] = sum(imps) / len(imps)
    if rels:
        summary["mean_rel_time"] = sum(rels) / len(rels)
    return summary


def _render_bench_table(records: list[BenchRecord]) -> str:
    headers = [
        "Instance", "|Q|", "|E|", "Best", "GRASP", "SMH",
        "GapG%", "GapS%", "Impr%", "tG", "tS", "Rel", "Trees",
    ]
    rows = []
    for r in records:
        flag = "*" if r.smh_gap is not None and r.smh_gap < 0 else ""
        rows.append(
            [
                r.instance,
                str(r.terminals),
                str(r.edges),
                "" if r.best_known is None else str(r.best_known),
                str(r.grasp_value),
                str(r.smh_value) + flag,
                _fmt2(r.grasp_gap),
                _fmt2(r.smh_gap),
                _fmt2(r.improvement),
                _fmt3(r.grasp_time),
                _fmt3(r.smh_time),
                _fmt2(r.rel_time),
                str(r.trees_used),
            ]
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt_row(cells):
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(widths[i + 1]) for i, c in enumerate(cells[1:])]
        return "  ".join([first] + rest)
    lines = [fmt_row(headers)]
    lines.extend(fmt_row(row) for row in rows)
    s = bench_summary(records)
    lines.append("")
    lines.append(
        f"instances {s['instances']}  smh-better {s['smh_better']}"
        f"  matched-best {s['matched_best']}  new-best {s['new_best']}"
    )
    if "mean_grasp_gap" in s:
        lines.append(
            f"mean gap  grasp {_fmt2(s['mean_grasp_gap'])}%"
            f"  smh {_fmt2(s['mean_smh_gap'])}%"
        )
    if "mean_improvement" in s:
        lines.append(f"mean improvement {_fmt2(s['mean_improvement'])}%")
    if "mean_rel_time" in s:
        lines.append(f"mean relative merge time {_fmt2(s['mean_rel_time'])}")
    return "\n".join(lines) + "\n"


def _bench_json_payload(records: list[BenchRecord]) -> list[dict]:
    out = []
    for r in records:
        out.append(
            {
                "instance": r.instance,
                "terminals": r.terminals,
                "edges": r.edges,
                "best_known": r.best_known,
                "grasp_value": r.grasp_value,
                "smh_value": r.smh_value,
                "grasp_gap": None if r.grasp_gap is None else _fmt2(r.grasp_gap),
                "smh_gap": None if r.smh_gap is None else _fmt2(r.smh_gap),
                "improvement": None if r.improvement is None else _fmt2(r.improvement),
                "grasp_time": round(r.grasp_time, 3),
                "smh_time": round(r.smh_time, 3),
                "rel_time": None if r.rel_time is None else round(r.rel_time, 2),
                "trees_used": r.trees_used,
            }
        )
    return out


def read_best_known(text: str) -> dict[str, int]:
    """Parse a best-known side file: one `name,value` per line."""
    out: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 2:
            raise ParseError(f"best-known line {lineno}: want 'name,value'")
        try:
            value = int(parts[1])
        except ValueError:
            raise ParseError(f"best-known line {lineno}: bad value {parts[1]!r}")
        if value <= 0:
            raise ParseError(f"best-known line {lineno}: value must be positive")
        out[parts[0]] = value
    return out


# ---------------------------------------------------------------------------
# argument parsing


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--pool", type=int, default=_env("SMH_POOL", 16, int),
        help="number of generator runs (default 16)",
    )
    p.add_argument(
        "--grasp-iters", type=int, default=_env("SMH_GRASP_ITERS", 8, int),
        help="restarts per generator run (default 8)",
    )
    p.add_argument(
        "--perturb", type=float, default=_env("SMH_PERTURB", 0.2, float),
        help="weight perturbation strength in [0,1) (default 0.2)",
    )


def _add_merge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-width", type=int, default=_env("SMH_MAX_WIDTH", 10, int),
        help="width cap for the final union (default 10)",
    )
    p.add_argument(
        "--rank-width", type=int, default=_env("SMH_RANK_WIDTH", 8, int),
        help="width cap during ranking (default 8)",
    )
    p.add_argument(
        "--rank-iters", type=int, default=_env("SMH_RANK_ITERS", 20, int),
        help="ranking iterations (default 20)",
    )
    p.add_argument(
        "--state-budget", type=int,
        default=_env("SMH_STATE_BUDGET", DEFAULT_STATE_BUDGET, int),
        help="max stored DP states before falling back (default 2^23, "
        "about 3 GB at roughly 360 bytes per state)",
    )
    p.add_argument(
        "--no-keep-best", action="store_true",
        help="do not retain the best tree seen during ranking",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=_env("SMH_SEED", 0, int))
    p.add_argument(
        "--jobs", type=int, default=_env("SMH_JOBS", 1, int),
        help="worker threads, at least 1 (pool runs, or bench instances)",
    )
    p.add_argument(
        "--time-limit", type=float, default=_env("SMH_TIME_LIMIT", None, float),
        help="wall-clock budget in seconds for the whole command",
    )


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=FORMATS,
        default=_env("SMH_FORMAT", "table", _format_name),
        help="output format (default table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinmerge",
        description="Steiner tree heuristics with exact width-bounded merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="generate a pool and merge it")
    p.add_argument("instance", help="STP instance file")
    _add_generator_flags(p)
    _add_merge_flags(p)
    _add_common_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("generate", help="produce a pool file of locally optimal trees")
    p.add_argument("instance")
    p.add_argument("--output", "-o", help="pool file path (default stdout)")
    _add_generator_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("merge", help="merge an existing pool file")
    p.add_argument("instance")
    p.add_argument("pool_file")
    _add_merge_flags(p)
    _add_common_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("oracle", help="exact solve via the terminal-subset algorithm")
    p.add_argument("instance")
    p.add_argument(
        "--oracle-cap", type=int, default=_env("SMH_ORACLE_CAP", DW_TERMINAL_CAP, int),
        help=f"refuse more terminals than this (default {DW_TERMINAL_CAP})",
    )
    _add_format_flag(p)

    p = sub.add_parser("validate-td", help="check a .td decomposition file")
    p.add_argument("instance")
    p.add_argument("td_file")

    p = sub.add_parser("bench", help="run the pipeline over a directory of instances")
    p.add_argument("directory")
    p.add_argument("--best-known", help="side file of `name,value` reference weights")
    p.add_argument("--output", "-o", help="write the report here instead of stdout")
    p.add_argument(
        "--drop-solved", action="store_true",
        help="drop rows whose pool alone already matches the best known value",
    )
    _add_generator_flags(p)
    _add_merge_flags(p)
    _add_common_flags(p)
    _add_format_flag(p)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _merge_config(args: argparse.Namespace) -> MergeConfig:
    rank_width = args.rank_width
    if rank_width > args.max_width:
        sys.stderr.write(
            f"# rank width {rank_width} clamped to max width {args.max_width}\n"
        )
        rank_width = args.max_width
    return MergeConfig(
        final_width=args.max_width,
        rank_width=rank_width,
        rank_iterations=args.rank_iters,
        keep_best=not args.no_keep_best,
        seed=args.seed,
    )


def _deadline(args: argparse.Namespace) -> float | None:
    if args.time_limit is None:
        return None
    # a NaN deadline compares False with every clock reading and never fires
    if not math.isfinite(args.time_limit):
        raise ValidationError(f"time limit must be a finite number, not {args.time_limit}")
    return time.monotonic() + args.time_limit


def _jobs(args: argparse.Namespace) -> int:
    # below 1 would silently run sequentially
    if args.jobs < 1:
        raise ValidationError(f"--jobs (SMH_JOBS) must be at least 1, not {args.jobs}")
    return args.jobs


def _run_pipeline(
    instance: SteinerInstance,
    args: argparse.Namespace,
    deadline: float | None,
    workers: int,
) -> tuple[MergeReport, float]:
    gcfg = GeneratorConfig(
        pool_size=args.pool,
        iterations_per_run=args.grasp_iters,
        perturbation_strength=args.perturb,
        seed=args.seed,
    )
    t0 = time.monotonic()
    pool = generate_pool(instance, gcfg, workers=workers, deadline=deadline)
    gen_seconds = time.monotonic() - t0
    report = run_smh(
        instance, pool, _merge_config(args),
        state_budget=args.state_budget, deadline=deadline,
    )
    if deadline is not None and time.monotonic() > deadline and not report.timed_out:
        report.timed_out = True
    return report, gen_seconds


def cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_stp_file(args.instance)
    report, gen_seconds = _run_pipeline(instance, args, _deadline(args), _jobs(args))
    _emit_report(report, args.format, gen_seconds)
    return _report_exit(report)


def cmd_generate(args: argparse.Namespace) -> int:
    instance = parse_stp_file(args.instance)
    gcfg = GeneratorConfig(
        pool_size=args.pool,
        iterations_per_run=args.grasp_iters,
        perturbation_strength=args.perturb,
        seed=args.seed,
    )
    deadline = _deadline(args)
    t0 = time.monotonic()
    pool = generate_pool(instance, gcfg, workers=_jobs(args), deadline=deadline)
    seconds = time.monotonic() - t0
    text = write_pool(pool)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"# {len(pool.entries)} trees in {seconds:.3f}s\n")
    if deadline is not None and time.monotonic() > deadline:
        return EXIT_TIMEOUT
    return EXIT_OK


def cmd_merge(args: argparse.Namespace) -> int:
    instance = parse_stp_file(args.instance)
    pool = read_pool(Path(args.pool_file).read_text(encoding="utf-8"), instance)
    report = run_smh(
        instance, pool, _merge_config(args),
        state_budget=args.state_budget, deadline=_deadline(args),
    )
    _emit_report(report, args.format, None)
    return _report_exit(report)


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = parse_stp_file(args.instance)
    t0 = time.monotonic()
    solution = dreyfus_wagner(instance, terminal_cap=args.oracle_cap)
    seconds = time.monotonic() - t0
    edges = [[u + 1, v + 1] for u, v in solution.canonical_edges()]
    if args.format == "json":
        payload = {
            "instance": instance.name,
            "weight": solution.weight,
            "edges": edges,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        sys.stderr.write(f"# oracle {seconds:.3f}s\n")
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["instance", "weight", "edges"])
        w.writerow(
            [instance.name, solution.weight, " ".join(f"{u}-{v}" for u, v in edges)]
        )
        sys.stdout.write(buf.getvalue())
        sys.stderr.write(f"# oracle {seconds:.3f}s\n")
    else:
        sys.stdout.write(f"instance  {instance.name or '(unnamed)'}\n")
        sys.stdout.write(f"weight    {solution.weight}\n")
        sys.stdout.write(f"edges     {' '.join(f'{u}-{v}' for u, v in edges)}\n")
        sys.stdout.write(f"time      {seconds:.3f}s\n")
    return EXIT_OK


def cmd_validate_td(args: argparse.Namespace) -> int:
    instance = parse_stp_file(args.instance)
    td = read_td(Path(args.td_file).read_text(encoding="utf-8"))
    problems = validate_decomposition(instance.graph, td)
    if not problems:
        sys.stdout.write(
            f"valid: {len(td.bags)} bags, width {td.width}\n"
        )
        return EXIT_OK
    for p in problems:
        sys.stdout.write(p + "\n")
    return 1


def cmd_bench(args: argparse.Namespace) -> int:
    jobs = _jobs(args)
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.stp"))
    if not paths:
        sys.stderr.write(f"no .stp files under {directory}\n")
        return EXIT_USAGE
    best = {}
    if args.best_known:
        best = read_best_known(Path(args.best_known).read_text(encoding="utf-8"))
    deadline = _deadline(args)

    def run_one(path: Path):
        instance = parse_stp_file(path)
        name = instance.name or path.stem
        if deadline is not None and time.monotonic() > deadline:
            return name, None
        # the --jobs workers run instances; one more pool of them per
        # instance would start up to jobs * jobs threads
        report, gen_seconds = _run_pipeline(instance, args, deadline, 1)
        record = make_bench_record(
            instance, name, report, gen_seconds, best.get(name)
        )
        return name, record

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, paths))
    else:
        results = [run_one(p) for p in paths]

    records = []
    for name, record in results:
        if record is None:
            sys.stderr.write(f"# {name}: skipped (time limit)\n")
            continue
        records.append(record)
    if args.drop_solved:
        records = [r for r in records if r.grasp_gap is None or r.grasp_gap != 0]

    if args.format == "json":
        text = json.dumps(_bench_json_payload(records), indent=2) + "\n"
    elif args.format == "table":
        text = _render_bench_table(records)
    else:
        text = write_bench_csv(records)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.format != "table":
        s = bench_summary(records)
        parts = [f"{k} {_fmt2(v) if isinstance(v, (float, Fraction)) else v}"
                 for k, v in s.items()]
        sys.stderr.write("# " + "  ".join(parts) + "\n")
    if any(r is None for _, r in results):
        return EXIT_TIMEOUT
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "generate": cmd_generate,
    "merge": cmd_merge,
    "oracle": cmd_oracle,
    "validate-td": cmd_validate_td,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except SteinerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"parse error: cannot decode input: {exc}\n")
        return EXIT_PARSE
    except ValidationError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_PARSE
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return EXIT_CAPACITY
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
