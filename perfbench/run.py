"""Layered benchmark of the steinmerge pipeline, driven through its CLI.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each operation is one `steinmerge solve` or `steinmerge merge` call, run
in-process through `steinmerge.cli.main` with `--format json --jobs 1`.
One caller runs the operations back to back (a closed loop, no threads),
cycling over the workload's instances until `--seconds` have passed and
every instance ran at least once; one more operation always repeats an
instance, and its stdout must match byte for byte. The end-to-end times are
in seconds at reference host speed (see calibrate.py).

`--trace 0` prints the end-to-end metrics. `--trace 1` runs one plain pass
and one traced pass over the instances, checks that their outputs and the
traced DP counters agree, and prints the per-layer metrics.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it holds the run
metadata. Both are also saved under `.bench_results/` in the checkout, and
`perfbench/compare.py` compares two saved results. `--workload all` runs
every workload in its own process and prints each metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
# setup_s is the median of at least SETUPS set-ups spanning SETUP_SECONDS
SETUPS = 3
SETUP_SECONDS = 1.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "weight_total": "weight",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, Reference  # noqa: E402
from check import checker_rejects_corruptions, problems  # noqa: E402
from layers import OP, Tracer, deterministic_counters, layer_metrics, traced, write_spans  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402


def load_package():
    """Import the package from the checkout's `src/`; None when it is missing."""
    src = ROOT / "src"
    if not (src / "steinmerge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import steinmerge
    import steinmerge.cli
    import steinmerge.synth  # noqa: F401

    return steinmerge


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.startswith("op_s."):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if any(w in name for w in ("ratio", "frac", "yield", "share", "held")):
        return "ratio"
    return "count"


class Runner:
    """Runs operations, checks each output and counts failures."""

    def __init__(self, sm) -> None:
        self.sm = sm
        self.attempted = 0
        self.failed = 0
        self.sample = None  # (stdout, exit code, instance) of the first operation
        self.outputs: dict[int, str] = {}  # instance index -> first stdout

    def run(self, op, tracer: Tracer | None = None) -> tuple[str, float]:
        """One operation; returns its stdout and seconds."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(op.argv)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.sm.cli.main(argv)
                else:
                    code = tracer.call("op", self.sm.cli.main, (argv,), {})
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        stdout = out.getvalue()
        if self.sample is None:
            self.sample = (stdout, code, op.instance)
        found = problems(stdout, code, op.instance, self.sm)
        # every rerun of an instance, traced or not, must print the same bytes
        if self.outputs.setdefault(op.index, stdout) != stdout:
            found.append("rerun printed different output")
        if found:
            detail = "; ".join(found)[:400] + "\n" + err.getvalue()[-2000:]
            self.fail(f"instance {op.index}: {detail}")
        return stdout, seconds

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.outputs):
            h.update(self.outputs[index].encode())
        return h.hexdigest()

    def fail(self, message: str) -> None:
        self.failed += 1
        sys.stderr.write(f"FAIL {message.rstrip()}\n")


def timed_set_ups(sm, wl, seed: int, work: Path, ref: Reference):
    """Set the workload up repeatedly; the operations use the last set-up.

    Returns the operations and each set-up's seconds at reference speed.
    """
    seconds, ops = [], None
    while len(seconds) < SETUPS or sum(seconds) < SETUP_SECONDS:
        ops, took = set_up(sm, wl, seed, work, ref)
        seconds.append(took)
    return ops, seconds


def end_to_end(runner, ops, seconds, setup_seconds, ref: Reference):
    """Closed loop over the instances for `seconds`, plus at least one repeat.

    Every operation's time is taken at reference speed (see calibrate.py),
    and each instance counts with the median of its operations. Returns the
    metrics and, for the metadata line, the raw timings behind them.
    """
    times = [[] for _ in ops]
    raw = 0.0
    deadline = time.perf_counter() + seconds
    k = 0
    readings = [ref.reference()]
    while k <= len(ops) or time.perf_counter() < deadline:
        op = ops[k % len(ops)]
        took = runner.run(op)[1]
        readings.append(ref.reference())
        times[op.index].append(ref.scale(took, readings[-2], readings[-1]))
        raw += took
        k += 1
    weights = 0
    for stdout in runner.outputs.values():
        try:
            weights += json.loads(stdout)["weight"]
        except (ValueError, KeyError, TypeError):
            pass  # already counted as failed by the checker
    raw_timings = {"timed_ops_raw_s": raw, "reference_s_median": statistics.median(readings)}
    return {
        "wall_s": sum(statistics.median(t) for t in times),
        "setup_s": statistics.median(setup_seconds),
        "weight_total": weights,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, raw_timings


def purpose_held(wl_name: str, m: dict, n_ops: int) -> bool:
    """Does the traced pass show the traffic the workload was chosen for?"""
    if wl_name == "grid-solve":
        return m["share.generation"] >= 0.9
    if wl_name == "sparse-merge":
        return m["share.dp"] > 0.5
    return m["exact.capacity_error_ops"] == n_ops


def per_layer(runner, sm, wl, ops, spans_path: Path) -> dict[str, float]:
    """One plain pass, then one traced pass; the runner compares their outputs."""
    plain_s = [runner.run(op)[1] for op in ops]
    tracer = Tracer()
    traced_s = []
    with traced(tracer, sm):
        for op in ops:
            tracer.op = op.index
            traced_s.append(runner.run(op, tracer)[1])
        # trace the first instance again: its DP counters must repeat exactly
        tracer.op = len(ops)
        runner.run(ops[0], tracer)
    counters = deterministic_counters(tracer.spans)
    if counters[len(ops)] != counters[0]:
        runner.fail("instance 0: repeated traced run changed its DP counters")
    spans = [s for s in tracer.spans if s[OP] < len(ops)]
    write_spans(tracer.spans, spans_path)
    m = layer_metrics(spans)
    m["op_s.p50"] = statistics.median(plain_s)
    m["op_s.max"] = max(plain_s)
    m["trace.plain_wall_s"] = sum(plain_s)
    m["trace.wall_s"] = sum(traced_s)
    m["trace.overhead_s"] = sum(traced_s) - sum(plain_s)
    m["workload.purpose_held"] = float(purpose_held(wl.name, m, len(ops)))
    if not m["workload.purpose_held"]:
        sys.stderr.write(f"warning: {wl.name} did not show the traffic it was chosen for\n")
    return m


def run_workload(args) -> int:
    sm = load_package()
    if sm is None:
        sys.stderr.write(f"error: no steinmerge package under {ROOT / 'src'}\n")
        return 2
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(sm)
    raw_timings = {}
    try:
        ref = Reference()
        ops, setup_seconds = timed_set_ups(sm, wl, args.seed, work, ref)
        if args.trace:
            metrics = per_layer(runner, sm, wl, ops, RESULTS / f"{tag}-spans.jsonl.gz")
        else:
            metrics, raw_timings = end_to_end(runner, ops, args.seconds, setup_seconds, ref)
        if not runner.failed:
            missed = checker_rejects_corruptions(*runner.sample, sm)
            if missed:
                runner.fail("checker accepted corrupted output: " + ", ".join(missed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": len(ops),
        "samples": runner.attempted,
        "output_digest": runner.digest(),
        "backend": sm.BACKEND_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "closed_loop_callers": 1,
        "reference_s": REFERENCE_S,
        **raw_timings,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps({"meta": meta, **result}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(f"error: workload {name} exited {proc.returncode}\n")
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, mv in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = mv
            print(f"{name:16s} {metric:34s} {mv['value']:>16.6g} {mv['unit']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
