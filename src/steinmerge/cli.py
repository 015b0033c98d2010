"""Command-line front end and benchmark harness.

Subcommands: solve (full pipeline), generate (pool only), merge (pool file
in, merged tree out), oracle (small exact solve), validate-td
(decomposition checker), bench (directory sweep with CSV report).

Every protocol flag can also be set through an environment variable with
the SMH_ prefix (SMH_POOL, SMH_GRASP_ITERS, SMH_PERTURB, SMH_MAX_WIDTH,
SMH_RANK_WIDTH, SMH_RANK_ITERS, SMH_SEED, SMH_ORACLE_CAP, SMH_TIME_LIMIT,
SMH_FORMAT, SMH_JOBS, SMH_STATE_BUDGET); explicit flags win. A variable
is read only by the commands that take its flag, so a bad value fails only
those commands (exit 2): SMH_ORACLE_CAP=abc stops `oracle`, not `merge`.
Machine formats (json, csv) keep wall-clock times on stderr so repeated
runs with the same seed emit byte-identical stdout.

Exit codes: 0 success, 1 invalid decomposition (validate-td), 2 usage or
I/O error (stdout whose encoding cannot hold the output included: one
`error:` line, no traceback; --output files are always UTF-8), 3 parse
or validation failure (input that is not UTF-8 text included), 4
infeasible, 5 capacity fallback or refusal (any command that runs out of
memory, or whose --jobs worker process dies, included: one `capacity:`
line, no traceback), 6 timeout (bench:
the most severe code of its instances, a skipped one counting as 6).
--jobs sets the worker processes, at most one per CPU.
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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from .exact import (
    DEFAULT_STATE_BUDGET,
    DW_TERMINAL_CAP,
    CapacityError,
    DeadlineError,
    dreyfus_wagner,
)
from .generator import GeneratorConfig, generate_pool, parallel_map, read_pool, write_pool
from .graph import (
    InfeasibleError,
    ParseError,
    SteinerError,
    SteinerInstance,
    ValidationError,
    parse_stp_file,
    text_lines,
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


def compute_gap(value: int, best_known: int) -> Fraction:
    """Exact percentage excess of ``value`` over ``best_known``.

    Negative when the value beats the best-known bound (a new best).
    """
    if best_known <= 0:
        raise ValidationError("best-known value must be positive")
    return Fraction(100 * (value - best_known), best_known)


def _fmt2(x) -> str:
    """Two-decimal rendering; empty string for missing values."""
    if x is None:
        return ""
    if isinstance(x, Fraction):
        x = x.numerator / x.denominator
    return f"{x:.2f}"


# ---------------------------------------------------------------------------
# report rows and the machine-format writers

# one row per merge report; `solve` and `merge` print it as csv
REPORT_COLUMNS = [
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

# a bench row: the report row, then the instance's size and its gaps to a
# best-known value (pool_best is the pool-only value, weight the merged one)
BENCH_COLUMNS = REPORT_COLUMNS + [
    "terminals",
    "edges",
    "best_known",
    "grasp_gap",
    "smh_gap",
    "improvement",
]


def _cell(value) -> str:
    """One row value as csv and tables print it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, Fraction):
        return _fmt2(value)
    if isinstance(value, list):
        return " ".join(f"{u}-{v}" for u, v in value)
    return str(value)


def csv_text(columns: list[str], rows: list[dict]) -> str:
    """Header plus one line per row; every csv this program prints."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_cell(row[c]) for c in columns])
    return buf.getvalue()


def json_text(payload) -> str:
    """Sorted, indented JSON; gaps print as their two-decimal strings."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_fmt2) + "\n"


def _report_row(report: MergeReport) -> dict:
    return {
        "instance": report.instance,
        "weight": report.weight,
        "source": report.source,
        "trees_used": report.trees_used,
        "union_width": report.union_width,
        "pool_size": report.pool_size,
        "pool_best": min(report.pool_weights),
        "capacity_fallback": report.capacity_fallback,
        "timed_out": report.timed_out,
    }


def _report_payload(report: MergeReport) -> dict:
    """Deterministic (time-free) view of a merge report."""
    payload = _report_row(report)
    del payload["pool_best"]  # the payload lists every pool weight
    payload.update(
        pool_weights=list(report.pool_weights),
        skipped_iterations=report.ranking.skipped,
        iterations=[
            {
                "index": it.index,
                "value": it.value,
                "selected": list(it.selected),
                "width": it.width,
            }
            for it in report.ranking.iterations
        ],
        edges=[[u + 1, v + 1] for u, v in report.solution.canonical_edges()],
    )
    return payload


def _report_table(report: MergeReport, gen_seconds: float | None) -> str:
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


def _report_exit(row: dict) -> int:
    if row["timed_out"]:
        return EXIT_TIMEOUT
    if row["capacity_fallback"]:
        return EXIT_CAPACITY
    return EXIT_OK


def _emit_report(report: MergeReport, fmt: str, gen_seconds: float | None) -> int:
    """Print the report in ``fmt``, timings on stderr; return its exit code."""
    row = _report_row(report)
    if fmt == "json":
        sys.stdout.write(json_text(_report_payload(report)))
    elif fmt == "csv":
        sys.stdout.write(csv_text(REPORT_COLUMNS, [row]))
    else:
        sys.stdout.write(_report_table(report, gen_seconds))
    if fmt != "table":
        gen = f" generation {gen_seconds:.3f}s" if gen_seconds is not None else ""
        sys.stderr.write(f"#{gen} merge {report.merge_seconds:.3f}s\n")
    return _report_exit(row)


# ---------------------------------------------------------------------------
# benchmark rows


def _bench_row(report: MergeReport, name: str, instance: SteinerInstance,
               best_known: int | None) -> dict:
    row = _report_row(report)
    row["instance"] = name
    grasp_gap = smh_gap = improvement = None
    if best_known is not None:
        grasp_gap = compute_gap(row["pool_best"], best_known)
        smh_gap = compute_gap(row["weight"], best_known)
        if grasp_gap > 0:
            improvement = 100 * (grasp_gap - smh_gap) / grasp_gap
    row.update(
        terminals=instance.n_terminals,
        edges=instance.graph.n_edges,
        best_known=best_known,
        grasp_gap=grasp_gap,
        smh_gap=smh_gap,
        improvement=improvement,
    )
    return row


def bench_summary(rows: list[dict]) -> dict:
    """Aggregates recomputed from the rows: means and best-value counts."""
    gaps = [(r["grasp_gap"], r["smh_gap"]) for r in rows if r["grasp_gap"] is not None]
    imps = [r["improvement"] for r in rows if r["improvement"] is not None]
    summary = {
        "instances": len(rows),
        "smh_better": sum(1 for r in rows if r["weight"] < r["pool_best"]),
        "matched_best": sum(1 for r in rows if r["weight"] == r["best_known"]),
        "new_best": sum(
            1 for r in rows if r["best_known"] is not None and r["weight"] < r["best_known"]
        ),
    }
    if gaps:
        summary["mean_grasp_gap"] = sum(g for g, _ in gaps) / len(gaps)
        summary["mean_smh_gap"] = sum(g for _, g in gaps) / len(gaps)
    if imps:
        summary["mean_improvement"] = sum(imps) / len(imps)
    return summary


def _rel_time(gen_seconds: float, merge_seconds: float) -> float | None:
    return merge_seconds / gen_seconds if gen_seconds > 0 else None


def _bench_table(ran: list[tuple[dict, float, float]], s: dict) -> str:
    """Rows with their generation and merge seconds inline, then the summary ``s``."""
    headers = [
        "Instance", "|Q|", "|E|", "Best", "GRASP", "SMH", "GapG%", "GapS%", "Impr%",
        "tG", "tS", "Rel", "Trees", "Fallback", "Timeout",
    ]
    rows = []
    for r, gen_seconds, merge_seconds in ran:
        flag = "*" if r["smh_gap"] is not None and r["smh_gap"] < 0 else ""
        rows.append(
            [_cell(r[c]) for c in ("instance", "terminals", "edges", "best_known", "pool_best")]
            + [_cell(r["weight"]) + flag]
            + [_cell(r[c]) for c in ("grasp_gap", "smh_gap", "improvement")]
            + [f"{gen_seconds:.3f}", f"{merge_seconds:.3f}"]
            + [_fmt2(_rel_time(gen_seconds, merge_seconds))]
            + [_cell(r[c]) for c in ("trees_used", "capacity_fallback", "timed_out")]
        )
    widths = [max([len(h)] + [len(row[i]) for row in rows]) for i, h in enumerate(headers)]
    def fmt_row(cells):
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(widths[i + 1]) for i, c in enumerate(cells[1:])]
        return "  ".join([first] + rest)
    lines = [fmt_row(headers)]
    lines.extend(fmt_row(row) for row in rows)
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


def read_best_known(text: str) -> dict[str, int]:
    """Parse a best-known side file: one `name,value` per line, each name once."""
    out: dict[str, int] = {}
    for lineno, ln, _ in text_lines(text, "#"):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 2:
            raise ParseError(f"best-known line {lineno}: want 'name,value'")
        try:
            value = int(parts[1])
        except ValueError:
            raise ParseError(f"best-known line {lineno}: bad value {parts[1]!r}")
        if value <= 0:
            raise ParseError(f"best-known line {lineno}: value must be positive")
        if not parts[0]:
            raise ParseError(f"best-known line {lineno}: empty instance name")
        if parts[0] in out:
            raise ParseError(f"best-known line {lineno}: {parts[0]!r} given twice")
        out[parts[0]] = value
    return out


# ---------------------------------------------------------------------------
# argument parsing


def _flag(p: argparse.ArgumentParser, name: str, default, cast, help: str | None = None) -> None:
    """Add ``--name`` (underscores as dashes), read from ``SMH_NAME`` when that is set."""
    p.add_argument(
        f"--{name.replace('_', '-')}", type=cast,
        default=_env(f"SMH_{name.upper()}", default, cast), help=help,
    )


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "pool", 16, int, "number of generator runs (default 16)")
    _flag(p, "grasp_iters", 8, int, "restarts per generator run (default 8)")
    _flag(p, "perturb", 0.2, float, "weight perturbation strength in [0,1) (default 0.2)")


def _add_merge_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "max_width", 10, int, "width cap for the final union (default 10)")
    _flag(p, "rank_width", 8, int, "width cap during ranking (default 8)")
    _flag(p, "rank_iters", 20, int, "ranking iterations (default 20)")
    _flag(
        p, "state_budget", DEFAULT_STATE_BUDGET, int,
        "max stored DP states before falling back, at least 1 (default "
        "2^23, about 3 GB at roughly 360 bytes per state)",
    )
    p.add_argument(
        "--no-keep-best", action="store_true",
        help="do not retain the best tree seen during ranking",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "seed", 0, int)
    _flag(
        p, "jobs", 1, int,
        "worker processes, at least 1 and at most one per CPU "
        "(pool runs, or bench instances)",
    )
    _add_time_limit_flag(p)


def _add_time_limit_flag(p: argparse.ArgumentParser) -> None:
    _flag(p, "time_limit", None, float, "wall-clock budget in seconds for the whole command")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=FORMATS,
        default=_env("SMH_FORMAT", "table", _format_name),
        help="output format (default table)",
    )


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", help="STP instance file")
    _add_generator_flags(p)
    _add_merge_flags(p)
    _add_common_flags(p)
    _add_format_flag(p)


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--output", "-o", help="pool file path (default stdout)")
    _add_generator_flags(p)
    _add_common_flags(p)


def _merge_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("pool_file")
    _add_merge_flags(p)
    _add_common_flags(p)
    _add_format_flag(p)


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    _flag(
        p, "oracle_cap", DW_TERMINAL_CAP, int,
        f"refuse more terminals than this (default {DW_TERMINAL_CAP})",
    )
    _add_time_limit_flag(p)
    _add_format_flag(p)


def _validate_td_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("td_file")


def _bench_arguments(p: argparse.ArgumentParser) -> None:
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only ``command``'s subparser, or a listing for None.

    A subparser reads the SMH_* defaults of its own flags as it is built,
    so building one command reads only that command's variables. For None
    every subcommand is registered by name and help line alone, enough for
    the top-level help and the invalid-choice error, and no variable is read.
    """
    parser = argparse.ArgumentParser(
        prog="steinmerge",
        description="Steiner tree heuristics with exact width-bounded merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if command is None:
            sub.add_parser(name, help=help_text)
        elif command == name:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _merge_config(args: argparse.Namespace) -> MergeConfig:
    """The merge flags as a config; notes a clamped rank width once it is valid."""
    cfg = MergeConfig(
        final_width=args.max_width,
        rank_width=min(args.rank_width, args.max_width),
        rank_iterations=args.rank_iters,
        keep_best=not args.no_keep_best,
        seed=args.seed,
    )
    if args.rank_width > cfg.rank_width:
        sys.stderr.write(
            f"# rank width {args.rank_width} clamped to max width {args.max_width}\n"
        )
    return cfg


def _deadline(args: argparse.Namespace) -> float | None:
    if args.time_limit is None:
        return None
    # a NaN deadline compares False with every clock reading and never fires
    if not math.isfinite(args.time_limit):
        raise ValidationError(f"time limit must be a finite number, not {args.time_limit}")
    return time.monotonic() + args.time_limit


def _at_least_one(args: argparse.Namespace, name: str) -> int:
    """``args.<name>``, or a ValidationError naming its flag and variable.

    Below 1 a job count would silently run sequentially, and an oracle cap
    or a state budget would fail every instance, and only after the work
    before it ran.
    """
    value = getattr(args, name)
    if value < 1:
        raise ValidationError(
            f"--{name.replace('_', '-')} (SMH_{name.upper()}) must be at least 1, not {value}"
        )
    return value


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(
        pool_size=args.pool,
        iterations_per_run=args.grasp_iters,
        perturbation_strength=args.perturb,
        seed=args.seed,
    )


@dataclass(frozen=True)
class _Pipeline:
    """What `solve` and `bench` run on each instance, checked before any is read."""

    generator: GeneratorConfig
    merge: MergeConfig
    state_budget: int

    @staticmethod
    def of(args: argparse.Namespace) -> "_Pipeline":
        _at_least_one(args, "state_budget")
        return _Pipeline(_generator_config(args), _merge_config(args), args.state_budget)


def _run_pipeline(
    instance: SteinerInstance,
    pipeline: _Pipeline,
    deadline: float | None,
    workers: int,
) -> tuple[MergeReport, float]:
    t0 = time.monotonic()
    pool = generate_pool(instance, pipeline.generator, workers, deadline)
    gen_seconds = time.monotonic() - t0
    report = run_smh(
        instance, pool, pipeline.merge,
        state_budget=pipeline.state_budget, deadline=deadline,
    )
    return report, gen_seconds


def cmd_solve(args: argparse.Namespace) -> int:
    pipeline = _Pipeline.of(args)
    jobs = _at_least_one(args, "jobs")
    deadline = _deadline(args)
    instance = parse_stp_file(args.instance)
    report, gen_seconds = _run_pipeline(instance, pipeline, deadline, jobs)
    return _emit_report(report, args.format, gen_seconds)


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _generator_config(args)
    jobs = _at_least_one(args, "jobs")
    deadline = _deadline(args)
    instance = parse_stp_file(args.instance)
    t0 = time.monotonic()
    pool = generate_pool(instance, cfg, jobs, deadline)
    seconds = time.monotonic() - t0
    text = write_pool(pool)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"# {len(pool.entries)} trees in {seconds:.3f}s\n")
    if deadline is not None and time.monotonic() > deadline:
        return EXIT_TIMEOUT
    return EXIT_OK


def cmd_merge(args: argparse.Namespace) -> int:
    _at_least_one(args, "state_budget")
    # checked like every command's flags, though a merge starts no workers
    _at_least_one(args, "jobs")
    cfg = _merge_config(args)
    deadline = _deadline(args)
    instance = parse_stp_file(args.instance)
    pool = read_pool(Path(args.pool_file).read_text(encoding="utf-8"), instance)
    report = run_smh(
        instance, pool, cfg, state_budget=args.state_budget, deadline=deadline
    )
    return _emit_report(report, args.format, None)


def cmd_oracle(args: argparse.Namespace) -> int:
    _at_least_one(args, "oracle_cap")
    deadline = _deadline(args)
    instance = parse_stp_file(args.instance)
    t0 = time.monotonic()
    solution = dreyfus_wagner(instance, terminal_cap=args.oracle_cap, deadline=deadline)
    seconds = time.monotonic() - t0
    row = {
        "instance": instance.name,
        "weight": solution.weight,
        "edges": [[u + 1, v + 1] for u, v in solution.canonical_edges()],
    }
    if args.format == "table":
        sys.stdout.write(f"instance  {instance.name or '(unnamed)'}\n")
        sys.stdout.write(f"weight    {solution.weight}\n")
        sys.stdout.write(f"edges     {_cell(row['edges'])}\n")
        sys.stdout.write(f"time      {seconds:.3f}s\n")
        return EXIT_OK
    sys.stdout.write(json_text(row) if args.format == "json" else csv_text(list(row), [row]))
    sys.stderr.write(f"# oracle {seconds:.3f}s\n")
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


def _bench_one(
    pipeline: _Pipeline, deadline: float | None, best: dict[str, int], path: Path
) -> tuple[str, dict | None, float, float]:
    """One instance: (name, bench row or None if skipped, generation and merge seconds)."""
    instance = parse_stp_file(path)
    name = instance.name or path.stem
    if deadline is not None and time.monotonic() > deadline:
        return name, None, 0.0, 0.0
    # one worker: a pool of --jobs per instance would start up to jobs * jobs
    report, gen_seconds = _run_pipeline(instance, pipeline, deadline, 1)
    row = _bench_row(report, name, instance, best.get(name))
    return name, row, gen_seconds, report.merge_seconds


def cmd_bench(args: argparse.Namespace) -> int:
    jobs = _at_least_one(args, "jobs")
    pipeline = _Pipeline.of(args)
    deadline = _deadline(args)
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.stp"))
    if not paths:
        sys.stderr.write(f"no .stp files under {directory}\n")
        return EXIT_USAGE
    best = {}
    if args.best_known:
        best = read_best_known(Path(args.best_known).read_text(encoding="utf-8"))
    results = parallel_map(partial(_bench_one, pipeline, deadline, best), paths, jobs)

    machine = args.format != "table"
    ran = []
    for name, row, gen_seconds, merge_seconds in results:
        if row is None:
            sys.stderr.write(f"# {name}: skipped (time limit)\n")
            continue
        ran.append((row, gen_seconds, merge_seconds))
        if machine:
            rel = _fmt2(_rel_time(gen_seconds, merge_seconds))
            sys.stderr.write(
                f"# {name}: generation {gen_seconds:.3f}s merge {merge_seconds:.3f}s"
                f" relative {rel}\n"
            )
    # the most severe instance code, a skipped instance counting as timed out:
    # EXIT_TIMEOUT > EXIT_CAPACITY > EXIT_OK, so 6 comes before 5
    code = max(EXIT_TIMEOUT if row is None else _report_exit(row) for _, row, _, _ in results)
    if args.drop_solved:
        ran = [t for t in ran if t[0]["grasp_gap"] != 0]

    rows = [row for row, _, _ in ran]
    summary = bench_summary(rows)
    rels = [r for r in (_rel_time(g, m) for _, g, m in ran) if r is not None]
    if rels:
        summary["mean_rel_time"] = sum(rels) / len(rels)
    if args.format == "json":
        text = json_text(rows)
    elif args.format == "csv":
        text = csv_text(BENCH_COLUMNS, rows)
    else:
        text = _bench_table(ran, summary)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if machine:
        parts = [f"{k} {_fmt2(v) if isinstance(v, (float, Fraction)) else v}"
                 for k, v in summary.items()]
        sys.stderr.write("# " + "  ".join(parts) + "\n")
    return code


# name: (help line, the arguments it takes, what it runs), in help order
_COMMANDS = {
    "solve": ("generate a pool and merge it", _solve_arguments, cmd_solve),
    "generate": (
        "produce a pool file of locally optimal trees", _generate_arguments, cmd_generate
    ),
    "merge": ("merge an existing pool file", _merge_arguments, cmd_merge),
    "oracle": (
        "exact solve via the terminal-subset algorithm", _oracle_arguments, cmd_oracle
    ),
    "validate-td": (
        "check a .td decomposition file", _validate_td_arguments, cmd_validate_td
    ),
    "bench": (
        "run the pipeline over a directory of instances", _bench_arguments, cmd_bench
    ),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call builds only the subcommand it runs; `-h`, an unknown word or no
    # word at all gets every subcommand's name and help line, for the full
    # help or the choice error
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        parser = build_parser(command)
    except SteinerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    args = parser.parse_args(argv)
    _, _, run = _COMMANDS[args.command]
    try:
        return run(args)
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
    except DeadlineError as exc:
        sys.stderr.write(f"timeout: {exc}\n")
        return EXIT_TIMEOUT
    except MemoryError:
        sys.stderr.write("capacity: out of memory\n")
        return EXIT_CAPACITY
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except UnicodeEncodeError as exc:
        sys.stderr.write(f"error: cannot encode output: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
