"""Command-line behavior: exit codes, formats, env overrides, bench files."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinmerge import (
    ParseError,
    ValidationError,
    dreyfus_wagner,
    greedy_degree,
    decomposition_from_order,
    parse_stp_file,
    write_stp,
    write_td,
)
import steinmerge
from steinmerge import (
    GeneratorConfig, cli, exact, generate_pool, generator, kernels, write_pool,
)
from steinmerge.cli import (
    BENCH_COLUMNS,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    bench_summary,
    compute_gap,
    csv_text,
    main,
    read_best_known,
)
from steinmerge.synth import dense_instance, grid_with_holes, sparse_instance

from helpers import build_instance, four_cycle, in_process_pool, late_union_solves


@pytest.fixture()
def stp(tmp_path):
    def write(instance, name="inst.stp"):
        path = tmp_path / name
        path.write_text(write_stp(instance))
        return str(path)

    return write


class TestComputeGap:
    def test_exact_match_is_zero(self):
        assert compute_gap(100, 100) == 0

    def test_percentage_excess(self):
        assert compute_gap(130, 100) == 30
        assert compute_gap(361, 360) == Fraction(100, 360)

    def test_new_best_is_negative(self):
        assert compute_gap(90, 100) == -10

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ValidationError):
            compute_gap(5, 0)


class TestBenchCsv:
    def make_row(self, **over):
        row = dict(
            instance="x",
            weight=104,
            source="final-dp",
            trees_used=3,
            union_width=2,
            pool_size=4,
            pool_best=110,
            capacity_fallback=False,
            timed_out=False,
            terminals=4,
            edges=9,
            best_known=100,
            grasp_gap=Fraction(10),
            smh_gap=Fraction(4),
            improvement=Fraction(60),
        )
        row.update(over)
        return row

    def test_two_decimal_gaps(self):
        text = csv_text(BENCH_COLUMNS, [self.make_row(smh_gap=Fraction(1, 3))])
        row = text.splitlines()[1].split(",")
        assert row[BENCH_COLUMNS.index("smh_gap")] == "0.33"

    def test_summary_counts(self):
        rows = [
            self.make_row(),
            self.make_row(instance="y", weight=100, smh_gap=Fraction(0)),
            self.make_row(instance="z", weight=99, smh_gap=Fraction(-1)),
        ]
        s = bench_summary(rows)
        assert s["instances"] == 3
        assert s["smh_better"] == 3
        assert s["matched_best"] == 1
        assert s["new_best"] == 1


class TestBestKnownFile:
    def test_parse(self):
        table = read_best_known("# header\nalpha, 120\nbeta,7\n\n")
        assert table == {"alpha": 120, "beta": 7}

    @pytest.mark.parametrize(
        "text", ["alpha\n", "alpha,xyz\n", "alpha,0\n", "a,5\na,7\n", ",5\n"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            read_best_known(text)


class TestSolveCommand:
    def test_json_output_and_exit(self, stp, capsys):
        path = stp(sparse_instance(0, 25, 4))
        code = main(
            ["solve", path, "--pool", "3", "--grasp-iters", "2",
             "--rank-iters", "2", "--format", "json", "--seed", "7"]
        )
        out = capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(out.out)
        assert payload["weight"] == min(payload["pool_weights"])  # dominance
        assert payload["timed_out"] is False
        assert out.err.startswith("#")

    def test_json_is_deterministic(self, stp, capsys):
        path = stp(sparse_instance(1, 30, 5))
        argv = ["solve", path, "--pool", "3", "--grasp-iters", "2",
                "--rank-iters", "2", "--format", "json", "--seed", "7"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_table_format_mentions_timing(self, stp, capsys):
        path = stp(sparse_instance(2, 25, 4))
        code = main(["solve", path, "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1"])
        out = capsys.readouterr()
        assert code == EXIT_OK
        assert "merge" in out.out and "s" in out.out

    def test_capacity_exit_code(self, stp, capsys):
        path = stp(sparse_instance(3, 30, 5))
        code = main(["solve", path, "--pool", "3", "--grasp-iters", "1",
                     "--rank-iters", "1", "--state-budget", "1",
                     "--format", "json"])
        assert code == EXIT_CAPACITY
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity_fallback"] is True

    def test_table_notes_a_capacity_fallback(self, stp, capsys):
        path = stp(sparse_instance(3, 30, 5))
        code = main(["solve", path, "--pool", "3", "--grasp-iters", "1",
                     "--rank-iters", "1", "--state-budget", "1"])
        assert code == EXIT_CAPACITY
        lines = capsys.readouterr().out.splitlines()
        assert "note          final union exceeded the state budget; fell back" in lines

    def test_disconnected_instance_exits_parse_not_infeasible(self, tmp_path, capsys):
        # two disjoint triangles: exit 4 is never reached from a parsed file
        bad = tmp_path / "two.stp"
        bad.write_text(
            "33D32945 STP File, STP Format Version 1.0\n"
            "SECTION Graph\nNodes 6\nEdges 6\n"
            "E 1 2 1\nE 2 3 1\nE 1 3 1\nE 4 5 1\nE 5 6 1\nE 4 6 1\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nT 4\nEND\nEOF\n"
        )
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err == "invalid input: instance graph is not connected\n"

    def test_rank_width_clamped_with_note(self, stp, capsys):
        path = stp(sparse_instance(4, 25, 4))
        code = main(["solve", path, "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1", "--max-width", "3",
                     "--rank-width", "9", "--format", "json"])
        out = capsys.readouterr()
        assert code == EXIT_OK
        assert "clamped" in out.err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent.stp"]) == EXIT_USAGE

    def test_garbage_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.stp"
        bad.write_text("not an instance\n")
        assert main(["solve", str(bad)]) == EXIT_PARSE

    @pytest.mark.parametrize("line, bare", [("Nodes 4", "Nodes"), ("T 4", "T")])
    def test_line_without_its_number(self, stp, tmp_path, capsys, line, bare):
        bad = tmp_path / "bad.stp"
        bad.write_text(write_stp(four_cycle()).replace(line, bare))
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edge, message",
        [
            ("E 1 2", "line 5: edge line needs 'E u v w'"),
            ("E 1 2 1.5", "line 5: non-integer edge weight '1.5' "
             "(fractional weights are not supported)"),
        ],
        ids=["no-weight", "fractional-weight"],
    )
    def test_malformed_edge_line(self, tmp_path, capsys, edge, message):
        bad = tmp_path / "bad.stp"
        bad.write_text(
            "33D32945 STP File, STP Format Version 1.0\n"
            f"SECTION Graph\nNodes 2\nEdges 1\n{edge}\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nT 2\nEND\nEOF\n"
        )
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_env_defaults_and_flag_priority(self, stp, capsys, monkeypatch):
        path = stp(sparse_instance(5, 25, 4))
        monkeypatch.setenv("SMH_POOL", "2")
        monkeypatch.setenv("SMH_GRASP_ITERS", "1")
        monkeypatch.setenv("SMH_RANK_ITERS", "1")
        monkeypatch.setenv("SMH_FORMAT", "json")
        code = main(["solve", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["pool_size"] <= 2
        assert len(payload["iterations"]) == 1
        # explicit flag beats the environment
        main(["solve", path, "--rank-iters", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["iterations"]) == 3

    def test_bad_env_value(self, stp, capsys, monkeypatch):
        path = stp(sparse_instance(6, 25, 4))
        monkeypatch.setenv("SMH_POOL", "many")
        assert main(["solve", path]) == EXIT_USAGE

    def test_bad_env_format(self, stp, capsys, monkeypatch):
        path = stp(sparse_instance(6, 25, 4))
        monkeypatch.setenv("SMH_FORMAT", "xml")
        assert main(["solve", path, "--pool", "2", "--grasp-iters", "1"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert "environment variable SMH_FORMAT has a bad value" in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "var, lacking, taking",
        [
            ("SMH_ORACLE_CAP", ["merge", "solve", "generate", "bench"], ["oracle"]),
            ("SMH_POOL", ["merge", "oracle"], ["generate"]),
            ("SMH_MAX_WIDTH", ["generate", "oracle"], ["merge"]),
        ],
        ids=["oracle-cap", "pool", "max-width"],
    )
    def test_bad_env_value_only_fails_commands_taking_its_flag(
        self, stp, tmp_path, capsys, monkeypatch, var, lacking, taking
    ):
        path = stp(four_cycle())
        pool = str(tmp_path / "pool.txt")
        small = ["--pool", "1", "--grasp-iters", "1"]
        assert main(["generate", path, *small, "-o", pool]) == EXIT_OK
        argv = {
            "solve": ["solve", path, *small],
            "generate": ["generate", path, *small, "-o", pool],
            "merge": ["merge", path, pool],
            "oracle": ["oracle", path],
            "bench": ["bench", str(tmp_path), *small],
        }
        monkeypatch.setenv(var, "abc")
        capsys.readouterr()
        for command in lacking:
            assert main(argv[command]) == EXIT_OK
        assert "bad value" not in capsys.readouterr().err
        for command in taking:
            assert main(argv[command]) == EXIT_USAGE
            assert f"environment variable {var} has a bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    def test_non_finite_time_limit(self, stp, capsys, monkeypatch, limit):
        path = stp(sparse_instance(6, 25, 4))
        argv = ["solve", path, "--pool", "2", "--grasp-iters", "1", "--rank-iters", "1"]
        assert main(argv + ["--time-limit", limit]) == EXIT_PARSE
        assert "invalid input" in capsys.readouterr().err
        monkeypatch.setenv("SMH_TIME_LIMIT", limit)
        assert main(argv) == EXIT_PARSE
        assert main(argv + ["--time-limit", "-1"]) == EXIT_TIMEOUT


class TestInputChecks:
    @pytest.mark.parametrize("command", ["solve", "merge", "validate-td", "bench"])
    def test_non_utf8_input_is_a_parse_error(self, stp, tmp_path, capsys, command):
        path = stp(four_cycle())
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00not text\n")
        argv = {
            "solve": ["solve", str(bad)],
            "merge": ["merge", path, str(bad)],
            "validate-td": ["validate-td", path, str(bad)],
            "bench": ["bench", str(tmp_path), "--best-known", str(bad)],
        }[command]
        assert main(argv) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "generate", "bench"])
    def test_weight_beyond_64_bits_is_a_parse_error(self, tmp_path, capsys, command):
        # a weight too large for a float stops at the parser, not in generation
        bad = tmp_path / "huge.stp"
        bad.write_text(write_stp(four_cycle()).replace("E 1 4 10", f"E 1 4 {10**400}"))
        argv = {
            "solve": ["solve", str(bad)],
            "generate": ["generate", str(bad), "--pool", "1", "--grasp-iters", "1"],
            "bench": ["bench", str(tmp_path)],
        }[command]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["solve", "generate", "merge", "bench"])
    def test_jobs_below_one_rejected(self, stp, tmp_path, capsys, monkeypatch, command, jobs):
        path = stp(four_cycle())
        pool = str(tmp_path / "pool.txt")
        small = ["--pool", "1", "--grasp-iters", "1"]
        assert main(["generate", path, *small, "-o", pool]) == EXIT_OK
        argv = {
            "solve": ["solve", path, *small],
            "generate": ["generate", path, *small],
            "merge": ["merge", path, pool],
            "bench": ["bench", str(tmp_path), *small],
        }[command]
        assert main(argv + ["--jobs", jobs]) == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err
        monkeypatch.setenv("SMH_JOBS", jobs)
        assert main(argv) == EXIT_PARSE


    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", ["solve", "merge", "bench"])
    def test_state_budget_below_one_rejected(
        self, stp, tmp_path, capsys, monkeypatch, command, budget
    ):
        path = stp(four_cycle())
        pool = str(tmp_path / "pool.txt")
        small = ["--pool", "1", "--grasp-iters", "1"]
        assert main(["generate", path, *small, "-o", pool]) == EXIT_OK
        argv = {
            "solve": ["solve", path, *small],
            "merge": ["merge", path, pool],
            "bench": ["bench", str(tmp_path), *small],
        }[command]
        assert main(argv + ["--state-budget", budget]) == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err
        monkeypatch.setenv("SMH_STATE_BUDGET", budget)
        assert main(argv) == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("solve", "--max-width", "0", "final_width must be at least 1"),
            ("solve", "--rank-iters", "-1", "rank_iterations must be nonnegative"),
            ("solve", "--rank-width", "0", "rank_width must lie in [1, final_width]"),
            ("solve", "--time-limit", "nan", "time limit must be a finite number"),
            ("solve", "--pool", "0", "pool_size must be at least 1"),
            ("merge", "--max-width", "0", "final_width must be at least 1"),
            ("merge", "--rank-iters", "-1", "rank_iterations must be nonnegative"),
            ("merge", "--time-limit", "inf", "time limit must be a finite number"),
            ("generate", "--perturb", "1.0", "perturbation_strength must lie in [0, 1)"),
            ("generate", "--jobs", "0", "must be at least 1"),
            ("bench", "--max-width", "0", "final_width must be at least 1"),
            ("bench", "--grasp-iters", "0", "iterations_per_run must be at least 1"),
        ],
    )
    def test_every_flag_checked_before_any_work(
        self, stp, tmp_path, capsys, monkeypatch, command, flag, value, message
    ):
        path = stp(four_cycle())
        pool = tmp_path / "pool.txt"
        assert main(["generate", path, "--pool", "1", "--grasp-iters", "1", "-o", str(pool)]) == 0
        garbage = tmp_path / "garbage.stp"
        garbage.write_text("not an instance\n")
        work = []
        for name in ("parse_stp_file", "generate_pool", "read_pool"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: work.append(name))
        for target in (path, str(garbage)):
            argv = {
                "solve": ["solve", target],
                "merge": ["merge", target, str(pool)],
                "generate": ["generate", target],
                "bench": ["bench", str(tmp_path)],
            }[command]
            assert main(argv + [flag, value]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert message in err
            assert "clamped" not in err
        assert work == []

    def test_bench_notes_a_clamped_rank_width_once(self, stp, capsys):
        stp(sparse_instance(20, 25, 4), "a.stp")
        path = stp(sparse_instance(21, 25, 4), "b.stp")
        code = main(["bench", os.path.dirname(path), "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1", "--max-width", "3", "--rank-width", "9",
                     "--format", "csv"])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("clamped") == 1
        assert "# rank width 9 clamped to max width 3\n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "x.stp"],
        ["generate", "x.stp"],
        ["merge", "x.stp", "pool.txt"],
        ["oracle", "x.stp"],
        ["validate-td", "x.stp", "x.td"],
        ["bench", "."],
    ],
    ids=lambda argv: argv[0],
)
def test_out_of_memory_exits_capacity(argv, capsys, monkeypatch):
    # a MemoryError anywhere in a command is one line and exit 5, no traceback
    def exhausted(args):
        raise MemoryError

    about, arguments, _ = cli._COMMANDS[argv[0]]
    monkeypatch.setitem(cli._COMMANDS, argv[0], (about, arguments, exhausted))
    assert main(argv) == EXIT_CAPACITY
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "capacity: out of memory\n")


HUGE_POOL = "100000000000000000000"


@pytest.mark.parametrize("by_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("command", ["solve", "generate", "bench"])
def test_pool_beyond_a_machine_word_rejected(tmp_path, capsys, monkeypatch, command, by_env):
    # a range that long has no len(); the pool size is checked with the
    # other flags, before any file is read: none of these files exists
    argv = [command, str(tmp_path / ("none" if command == "bench" else "none.stp"))]
    if by_env:
        monkeypatch.setenv("SMH_POOL", HUGE_POOL)
    else:
        argv += ["--pool", HUGE_POOL]
    assert main(argv) == EXIT_PARSE
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"invalid input: pool_size must be at most {sys.maxsize}\n")


def _dying_worker(*args):
    """Ends its process as an out-of-memory kill would."""
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers must inherit the stand-in"
)
@pytest.mark.parametrize("command", ["solve", "generate", "bench"])
def test_dying_worker_exits_capacity(tmp_path, capsys, monkeypatch, command):
    for i in range(2):
        (tmp_path / f"case{i}.stp").write_text(write_stp(sparse_instance(20 + i, 25, 4)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if command == "bench":
        monkeypatch.setattr(cli, "_bench_one", _dying_worker)
        target = str(tmp_path)
    else:
        monkeypatch.setattr(generator, "_one_run", _dying_worker)
        target = str(tmp_path / "case0.stp")
    assert main([command, target, "--pool", "2", "--grasp-iters", "1", "--jobs", "2"]) == (
        EXIT_CAPACITY)
    out = capsys.readouterr()
    assert out.err.startswith("capacity: a worker process died: ")
    assert out.err.count("\n") == 1


# one numeric flag at a time gets one of these, as a flag or as its SMH_* variable
HOSTILE_VALUES = ("0", "-1", str(2**63), str(10**30), "nan", "inf", "", "x")
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}


def _numeric_flags(command):
    """The destinations of ``command``'s int and float flags, from its parser."""
    parser = cli.build_parser(command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(a.dest for a in sub.choices[command]._actions if a.type in (int, float))


@pytest.fixture(scope="module")
def hostile_targets(tmp_path_factory):
    """Each command's positional arguments, on one 20-vertex instance."""
    d = tmp_path_factory.mktemp("hostile")
    (d / "bench").mkdir()
    path = d / "bench" / "inst.stp"
    path.write_text(write_stp(sparse_instance(3, 20, 4)))
    pool = d / "pool.txt"
    pool.write_text(write_pool(generate_pool(
        parse_stp_file(path), GeneratorConfig(pool_size=2, iterations_per_run=1))))
    return {
        "solve": [str(path)],
        "generate": [str(path)],
        "merge": [str(path), str(pool)],
        "oracle": [str(path)],
        "bench": [str(d / "bench")],
    }


@given(
    data=st.data(),
    value=st.sampled_from(HOSTILE_VALUES),
    by_env=st.booleans(),
    jobs=st.sampled_from(["1", "2"]),
)
@settings(max_examples=100, deadline=None)
def test_no_numeric_value_ends_in_a_traceback(hostile_targets, data, value, by_env, jobs):
    command = data.draw(st.sampled_from(sorted(hostile_targets)))
    flags = _numeric_flags(command)
    dest = data.draw(st.sampled_from(flags))
    argv = [command, *hostile_targets[command]]
    for name, base in (("time_limit", "0.05"), ("jobs", jobs)):
        if name in flags and name != dest:
            argv += [f"--{name.replace('_', '-')}", base]
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMH_")}
    if by_env:
        env[f"SMH_{dest.upper()}"] = value
    else:
        argv += [f"--{dest.replace('_', '-')}", value]
    # a drawn --jobs may ask for any number of workers: allow none at all
    cpus = 1 if dest == "jobs" else os.cpu_count()
    err = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(os, "cpu_count", lambda: cpus), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse's usage error
            code = stop.code
    assert code in DOCUMENTED_EXITS, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestGenerateAndMerge:
    def test_pipeline_via_files(self, stp, tmp_path, capsys):
        path = stp(sparse_instance(7, 30, 5))
        pool_path = tmp_path / "pool.txt"
        code = main(["generate", path, "--pool", "3", "--grasp-iters", "2",
                     "-o", str(pool_path)])
        assert code == EXIT_OK
        assert pool_path.read_text().startswith("steinmerge-pool 1")
        code = main(["merge", path, str(pool_path), "--rank-iters", "2",
                     "--format", "json"])
        out = capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(out.out)
        assert payload["weight"] <= min(payload["pool_weights"])

    def test_generate_stdout(self, stp, capsys):
        path = stp(sparse_instance(8, 25, 4))
        code = main(["generate", path, "--pool", "2", "--grasp-iters", "1"])
        out = capsys.readouterr()
        assert code == EXIT_OK
        assert out.out.startswith("steinmerge-pool 1")
        assert "trees in" in out.err

    def test_merge_rejects_corrupt_pool(self, stp, tmp_path, capsys):
        path = stp(sparse_instance(9, 25, 4))
        pool_path = tmp_path / "pool.txt"
        pool_path.write_text("steinmerge-pool 1\ntree 1 1\n")
        assert main(["merge", path, str(pool_path)]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "edges, terminals, line, message",
        [
            # the triangle 1-2-3 plus the edge 4-5: as many edges as a tree
            # on those vertices, one of them closing a cycle
            ([(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1)], [0, 3, 4],
             "tree 4 1 2 2 3 1 3 4 5", "edge (2, 3) closes a cycle"),
            ([(0, 1, 1), (1, 2, 1), (0, 2, 1)], [0, 2],
             "tree 1 1 2", "terminals not spanned: [3]"),
            ([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [0, 3],
             "tree 2 1 2 3 4", "edge count 2 != |V|-1 = 3 (not a tree)"),
            ([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [0, 2],
             "tree 3 1 2 2 3 3 4", "non-terminal leaf 4"),
        ],
        ids=["cycle", "not-spanned", "not-a-tree", "steiner-leaf"],
    )
    def test_pool_tree_errors_name_file_ids(
        self, stp, tmp_path, capsys, edges, terminals, line, message
    ):
        path = stp(build_instance(edges, terminals))
        pool_path = tmp_path / "pool.txt"
        pool_path.write_text(f"steinmerge-pool 1\n{line}\n")
        assert main(["merge", path, str(pool_path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"invalid input: line 2: {message}\n"


class TestOracleCommand:
    def test_matches_library_result(self, stp, capsys):
        inst = sparse_instance(10, 25, 4)
        path = stp(inst)
        code = main(["oracle", path, "--format", "json"])
        out = capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(out.out)
        assert payload["weight"] == dreyfus_wagner(inst).weight

    def test_cap_exceeded(self, stp, capsys):
        path = stp(sparse_instance(11, 40, 6))
        assert main(["oracle", path, "--oracle-cap", "3"]) == EXIT_CAPACITY

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_rejected(self, stp, tmp_path, capsys, monkeypatch, cap):
        path = stp(four_cycle())
        assert main(["oracle", path, "--oracle-cap", cap]) == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err
        monkeypatch.setenv("SMH_ORACLE_CAP", cap)
        assert main(["oracle", path]) == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err
        # checked before the instance is read
        garbage = tmp_path / "garbage.stp"
        garbage.write_text("not an instance\n")
        assert main(["oracle", str(garbage)]) == EXIT_PARSE
        assert "--oracle-cap (SMH_ORACLE_CAP) must be at least 1" in capsys.readouterr().err

    def test_table_above_the_cell_budget_is_refused(self, stp, capsys, monkeypatch):
        # 6 terminals: 31 subset rows of 40 cells, refused before any row
        path = stp(sparse_instance(11, 40, 6))
        monkeypatch.setattr(exact, "DW_CELL_BUDGET", 31 * 40 - 1)

        def search(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(kernels, "dijkstra_multi", search)
        assert main(["oracle", path]) == EXIT_CAPACITY
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "capacity: oracle table of 31 x 40 cells exceeds 1239 cells\n"


    def test_time_limit_exits_timeout(self, stp, capsys, monkeypatch):
        # 6 terminals, 31 rows: the clock passes the limit after the fourth
        # row has started, and the oracle stops inside the table
        path = stp(sparse_instance(11, 40, 6))
        reads = []

        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) <= 6 else 9.0

        monkeypatch.setattr(time, "monotonic", monotonic)
        code = main(["oracle", path, "--time-limit", "5", "--format", "json"])
        out = capsys.readouterr()
        assert code == EXIT_TIMEOUT
        assert out.out == ""
        assert out.err.startswith("timeout: oracle stopped at its deadline, row ")
        assert out.err.count("\n") == 1
        assert "Traceback" not in out.err
        # a limit that never passes changes nothing
        monkeypatch.setattr(time, "monotonic", lambda: 0.0)
        assert main(["oracle", path, "--time-limit", "5", "--format", "json"]) == EXIT_OK
        timed = capsys.readouterr().out
        assert main(["oracle", path, "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == timed


@pytest.mark.parametrize("command", ["merge", "solve"])
def test_deadline_passing_in_the_final_pass_exits_timeout(
    stp, tmp_path, capsys, monkeypatch, command
):
    # the final DP finishes after the limit: merge reports and exits as
    # solve does
    inst = sparse_instance(7, 30, 5)
    path = stp(inst)
    pool_path = tmp_path / "pool.txt"
    pool = generate_pool(inst, GeneratorConfig(pool_size=3, iterations_per_run=1))
    pool_path.write_text(write_pool(pool))
    late_union_solves(monkeypatch)
    argv = [command, path] + ([str(pool_path)] if command == "merge" else ["--pool", "3"])
    code = main(argv + ["--rank-iters", "0", "--time-limit", "5", "--format", "json"])
    assert code == EXIT_TIMEOUT
    assert json.loads(capsys.readouterr().out)["timed_out"] is True


class TestValidateTdCommand:
    def test_valid_file(self, stp, tmp_path, capsys):
        inst = four_cycle()
        path = stp(inst)
        td = decomposition_from_order(inst.graph, greedy_degree(inst.graph))
        td_path = tmp_path / "good.td"
        td_path.write_text(write_td(td, inst.graph.n_vertices))
        code = main(["validate-td", path, str(td_path)])
        out = capsys.readouterr()
        assert code == EXIT_OK
        assert out.out.startswith("valid:")

    def test_invalid_file(self, stp, tmp_path, capsys):
        inst = four_cycle()
        path = stp(inst)
        td_path = tmp_path / "bad.td"
        # one bag cannot cover a four-vertex cycle's edges
        td_path.write_text("s td 1 2 4\nb 1 1 2\n")
        code = main(["validate-td", path, str(td_path)])
        out = capsys.readouterr()
        assert code == 1
        assert out.out.strip() != ""


    @pytest.mark.parametrize(
        "td, problem",
        [
            ("s td 0 1 3\n", "decomposition has no bags"),
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n",
             "tree edge (1, 3) references a missing node"),
        ],
        ids=["no-bags", "missing-bag"],
    )
    def test_tree_problems(self, stp, tmp_path, capsys, td, problem):
        path = stp(build_instance([(0, 1, 1), (1, 2, 1)], [0, 2]))
        td_path = tmp_path / "bad.td"
        td_path.write_text(td)
        assert main(["validate-td", path, str(td_path)]) == 1
        assert problem in capsys.readouterr().out.splitlines()

    def test_messages_name_file_ids(self, stp, tmp_path, capsys):
        # the path 1-2-3 of the file: no bag holds its edge 2-3, and bag 2
        # names a vertex 4 the instance does not have
        path = stp(build_instance([(0, 1, 1), (1, 2, 1)], [0, 2]))
        td_path = tmp_path / "short.td"
        td_path.write_text("s td 2 2 3\nb 1 1 2\nb 2 3 4\n1 2\n")
        assert main(["validate-td", path, str(td_path)]) == 1
        out = capsys.readouterr().out
        assert "condition 2: edge (2, 3) not inside any bag" in out
        assert "condition 1: bags mention non-vertices: [4]" in out

    @pytest.mark.parametrize("td", ["s td 1 2 4\nb x 1 2\n", "s td 1 2 4\nb 1 1 2\n1\n"])
    def test_malformed_file_is_a_parse_error(self, stp, tmp_path, capsys, td):
        td_path = tmp_path / "bad.td"
        td_path.write_text(td)
        assert main(["validate-td", stp(four_cycle()), str(td_path)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_bag_count_beyond_the_file_is_a_parse_error(self, stp, tmp_path, capsys):
        td_path = tmp_path / "huge.td"
        td_path.write_text("s td 99999999999999 2 2\n")
        assert main(["validate-td", stp(four_cycle()), str(td_path)]) == EXIT_PARSE
        assert "bags declared" in capsys.readouterr().err


class TestUnencodableOutput:
    """Under the C locale, stdout is ASCII: a non-ASCII instance name must
    give one error line and exit 2 there, and reach an ``--output`` file
    as UTF-8."""

    NAME = "Zürich-名"

    @pytest.fixture()
    def folder(self, tmp_path):
        folder = tmp_path / "instances"
        folder.mkdir()
        named = dataclasses.replace(sparse_instance(1, 20, 4), name=self.NAME)
        (folder / "a.stp").write_text(write_stp(named), encoding="utf-8")
        return folder

    def run(self, *argv):
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("PYTHONIOENCODING", "LANG") and not k.startswith("LC_")
        }
        env.update(
            LC_ALL="C",
            PYTHONUTF8="0",
            PYTHONPATH=str(Path(steinmerge.__file__).resolve().parents[1]),
        )
        done = subprocess.run(
            [sys.executable, "-m", "steinmerge.cli", *map(str, argv),
             "--pool", "2", "--grasp-iters", "1"],
            env=env, capture_output=True, timeout=120,
        )
        return done.returncode, done.stderr.decode("ascii", "backslashreplace")

    def test_stdout_that_cannot_encode_is_one_error_line(self, folder):
        code, err = self.run("solve", folder / "a.stp", "--format", "csv")
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot encode output: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fmt, code", [("table", EXIT_USAGE), ("csv", EXIT_USAGE), ("json", EXIT_OK)]
    )
    def test_ascii_stdout_in_process(self, stp, capsys, monkeypatch, fmt, code):
        # json escapes every non-ASCII character, so only table and csv fail
        path = stp(dataclasses.replace(four_cycle(), name="grün"))
        ascii_out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", ascii_out)
        assert main(["solve", path, "--format", fmt]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            ascii_out.flush()
            assert "gr\\u00fcn" in ascii_out.buffer.getvalue().decode("ascii")
            assert "error" not in err
        else:
            assert len(err.splitlines()) == 1
            assert err.startswith("error: cannot encode output: ")

    def test_output_file_is_utf8(self, folder, tmp_path):
        out = tmp_path / "out.csv"
        code, err = self.run("bench", folder, "--format", "csv", "-o", out)
        assert code == EXIT_OK, err
        assert self.NAME in out.read_text(encoding="utf-8")


# sha256 of `--format json` stdout, captured on the code before the merge
# reused unions across ranking rounds; reuse must not change a byte. `merge`
# and `solve` see the same pool (same generator flags and seed), so each
# case has one digest for both.
GOLDEN_CASES = {
    "sparse": (
        lambda: sparse_instance(4, 120, 20, 4.0),
        ("--pool", "6", "--grasp-iters", "1", "--perturb", "0.7"),
        ("--max-width", "2", "--rank-width", "2"),
        "035623787ca8130d58ffb78105bf3cd1223736f6b619f43939f357305773ec75",
    ),
    "holed-grid": (
        lambda: grid_with_holes(2, 12, 12, 0.15, 10),
        ("--pool", "8", "--grasp-iters", "2"),
        ("--rank-iters", "5"),
        "abe248096d5e6b616bf32d048246c3f1b45eb3f0907b42b84da914db76497d43",
    ),
    "dense-budget-64": (
        lambda: dense_instance(7, 60, 0.12, 16, 3),
        ("--pool", "16", "--grasp-iters", "1", "--perturb", "0.95"),
        ("--max-width", "3", "--rank-width", "2", "--state-budget", "64"),
        "9ed8230796fd0f5570419fb8ed3d8f63245657622022bc65316c1032fdc2135f",
    ),
}


# sha256 of `--format csv` stdout, captured on the code before every
# machine format went through one csv writer; `merge` and `solve` print the
# same row, so each case has one digest for both
GOLDEN_CSV = {
    "sparse": "a3794cde9e706a380b6f3b0b1ed2279d34422a48aa7f615505b644a74927e6e1",
    "holed-grid": "37a83f879bf79b744eea927ddc376492a99d80bd5a4d78d522824d3b430b9515",
    "dense-budget-64": "a598e9e9026e1cac681b51b3d3d59761d01e1daedb6397019a37b6785fd94eb3",
}

# sha256 of `oracle` stdout on sparse_instance(5, 30, 6), captured with GOLDEN_CSV
GOLDEN_ORACLE = {
    "json": "345fa894c1915465d3e8a3d61211571bcee25c48d6aa231d38998812ffef8567",
    "csv": "2d6e5947d951a8c9e3c5ba380a0653fd0c636c009c43e1d2e3646061651c6382",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenOutput:
    def run_case(self, stp, tmp_path, capsys, case, command, fmt):
        build, pool_flags, flags, _ = GOLDEN_CASES[case]
        path = stp(build())
        if command == "merge":
            pool_path = tmp_path / "pool.txt"
            code = main(["generate", path, "-o", str(pool_path), "--seed", "3",
                         *pool_flags])
            assert code == EXIT_OK
            argv = ["merge", path, str(pool_path)]
        else:
            argv = ["solve", path, *pool_flags]
        capsys.readouterr()
        code = main([*argv, "--format", fmt, "--seed", "3", *flags])
        assert code == (EXIT_CAPACITY if case == "dense-budget-64" else EXIT_OK)
        return capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    @pytest.mark.parametrize("command", ["merge", "solve"])
    def test_json_digest(self, stp, tmp_path, capsys, case, command):
        out = self.run_case(stp, tmp_path, capsys, case, command, "json")
        assert sha256(out) == GOLDEN_CASES[case][3]

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    @pytest.mark.parametrize("command", ["merge", "solve"])
    def test_csv_digest(self, stp, tmp_path, capsys, case, command):
        out = self.run_case(stp, tmp_path, capsys, case, command, "csv")
        assert sha256(out) == GOLDEN_CSV[case]

    @pytest.mark.parametrize("fmt", sorted(GOLDEN_ORACLE))
    def test_oracle_digest(self, stp, capsys, fmt):
        code = main(["oracle", stp(sparse_instance(5, 30, 6)), "--format", fmt])
        assert code == EXIT_OK
        assert sha256(capsys.readouterr().out) == GOLDEN_ORACLE[fmt]


# sha256 of what argparse prints at 80 columns, captured on the code that
# built every subcommand's parser for every call: `-h` stdout per command
# line, and the stderr of two usage errors (both exit 2). A call builds only
# the parser it runs, so these pin that the text did not change with it.
HELP_DIGESTS = {
    ("-h",): "47de96379122e2aeaca5d19ff37003a7eca6ffc7e9e1e3d9b32331fbac98064e",
    ("solve", "-h"): "e54821ceaa7e566799a9934400174d216cf6b98c035f30c330a6538f4e73a923",
    ("generate", "-h"): "e551bc97a813d727a540ca0ccd88488e6b4c72f014c773ad094d538e5cb981c9",
    ("merge", "-h"): "6b839ac552f77bf27fdd211102b3c51aeeabda36d39df916f93f551a04510c31",
    ("oracle", "-h"): "b39d1758cb42ad509b769de4bc430a4630bba7abbb1abadd1a4708051c6fb84b",
    ("validate-td", "-h"): "bac831915c400bd3a3b331d17507d26767c2fe5109f34ccc9734db73813552e6",
    ("bench", "-h"): "fdf04f39df76d11b0e8dc4701937cd6bb1b9e0074a9bab8df1d2bc7ab3e9a178",
}
USAGE_ERROR_DIGESTS = {
    ("bogus",): "b53a99c27c179c53eb5b04f2b0a1b499f351d6ee95725774909806e10484c39b",
    ("merge",): "b6e7388b2e214725716d50c07c79cd5202517999e64f5bd61fc2b2381a789af1",
}


# every variable a flag default reads
ENV_VARIABLES = (
    "SMH_POOL", "SMH_GRASP_ITERS", "SMH_PERTURB", "SMH_MAX_WIDTH", "SMH_RANK_WIDTH",
    "SMH_RANK_ITERS", "SMH_SEED", "SMH_ORACLE_CAP", "SMH_TIME_LIMIT", "SMH_FORMAT",
    "SMH_JOBS", "SMH_STATE_BUDGET",
)


class TestHelpText:
    def run(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        return stop.value.code, capsys.readouterr()

    @pytest.mark.parametrize("argv", sorted(HELP_DIGESTS), ids=" ".join)
    def test_help_digest(self, argv, capsys, monkeypatch):
        code, out = self.run(argv, capsys, monkeypatch)
        assert (code, out.err) == (0, "")
        assert sha256(out.out) == HELP_DIGESTS[argv]

    @pytest.mark.parametrize("argv", sorted(USAGE_ERROR_DIGESTS), ids=" ".join)
    def test_usage_error_digest(self, argv, capsys, monkeypatch):
        code, out = self.run(argv, capsys, monkeypatch)
        assert (code, out.out) == (EXIT_USAGE, "")
        assert sha256(out.err) == USAGE_ERROR_DIGESTS[argv]

    @pytest.mark.parametrize("argv", [(), ("-h",), ("bogus",)], ids=repr)
    def test_listing_reads_no_variable(self, argv, capsys, monkeypatch):
        # the top-level help and usage errors list the subcommands without
        # building them, so no bad SMH_* value can turn them into another error
        clean = self.run(argv, capsys, monkeypatch)
        for var in ENV_VARIABLES:
            monkeypatch.setenv(var, "abc")
        assert self.run(argv, capsys, monkeypatch) == clean


# a dense instance whose final union exceeds this state budget
FALLBACK_FLAGS = ("--pool", "4", "--grasp-iters", "1", "--rank-iters", "2",
                  "--state-budget", "8")


class TestBenchCommand:
    def fill_dir(self, tmp_path, n=3):
        d = tmp_path / "bench"
        d.mkdir()
        names = []
        for i in range(n):
            inst = sparse_instance(20 + i, 25, 4)
            # bench keys records by the name embedded in the file
            (d / f"case{i:02d}.stp").write_text(write_stp(inst))
            names.append((inst.name, inst))
        return d, names

    def test_csv_report_with_best_known(self, tmp_path, capsys):
        d, names = self.fill_dir(tmp_path)
        best_path = tmp_path / "best.csv"
        best_path.write_text(
            "".join(f"{n},{dreyfus_wagner(i).weight}\n" for n, i in names)
        )
        out_path = tmp_path / "report.csv"
        code = main(["bench", str(d), "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1", "--best-known", str(best_path),
                     "--format", "csv", "-o", str(out_path)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert [r["instance"] for r in rows] == [n for n, _ in names]
        for r in rows:
            assert r["best_known"] != ""
            assert r["smh_gap"] != "" and float(r["smh_gap"]) >= 0
            assert int(r["weight"]) <= int(r["pool_best"])

    def test_gaps_and_improvement_against_best_known(self, tmp_path, capsys):
        # on these two grids the merge beats the pool: 1504 -> 1471 and
        # 1360 -> 1333, against best-known values of 1400 and 1300
        d = tmp_path / "grids"
        d.mkdir()
        for seed in (2, 7):
            (d / f"g{seed}.stp").write_text(write_stp(grid_with_holes(seed, 12, 12)))
        best_path = tmp_path / "best.csv"
        best_path.write_text("grid-12x12-2,1400\ngrid-12x12-7,1300\n")
        argv = ["bench", str(d), "--pool", "8", "--grasp-iters", "1", "--perturb", "0.7",
                "--rank-iters", "3", "--best-known", str(best_path)]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [(r["pool_best"], r["weight"]) for r in rows] == [(1504, 1471), (1360, 1333)]
        # (1504 - 1400) / 1400, (1471 - 1400) / 1400 and 33 of 104 closed;
        # (1360 - 1300) / 1300, (1333 - 1300) / 1300 and 27 of 60 closed
        assert [(r["grasp_gap"], r["smh_gap"], r["improvement"]) for r in rows] == [
            ("7.43", "5.07", "31.73"), ("4.62", "2.54", "45.00")]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "mean gap  grasp 6.02%  smh 3.80%" in lines
        assert "mean improvement 38.37%" in lines

    def test_drop_solved(self, tmp_path, capsys):
        d, names = self.fill_dir(tmp_path)
        best_path = tmp_path / "best.csv"
        # mark every instance solved by setting best-known to the pool value
        rows = []
        for n, inst in names:
            rows.append(f"{n},{dreyfus_wagner(inst).weight}\n")
        best_path.write_text("".join(rows))
        argv = ["bench", str(d), "--pool", "4", "--grasp-iters", "2",
                "--rank-iters", "1", "--best-known", str(best_path),
                "--format", "json"]
        main(argv)
        all_rows = json.loads(capsys.readouterr().out)
        main(argv + ["--drop-solved"])
        kept = json.loads(capsys.readouterr().out)
        # a zero grasp gap is a pool that already matches the best known value
        dropped = {r["instance"] for r in all_rows if r["pool_best"] == r["best_known"]}
        assert {r["instance"] for r in kept} == {r["instance"] for r in all_rows} - dropped

    def test_empty_directory(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["bench", str(d)]) == EXIT_USAGE

    def test_expired_limit_skips_and_flags(self, tmp_path, capsys):
        d, _ = self.fill_dir(tmp_path, n=2)
        code = main(["bench", str(d), "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1", "--time-limit", "0",
                     "--format", "csv"])
        out = capsys.readouterr()
        assert code == EXIT_TIMEOUT
        assert "skipped" in out.err

    def test_jobs_match_sequential(self, tmp_path, capsys):
        # machine formats carry no timing field, so two same-seed runs, and
        # a run on worker processes, print the same bytes
        d, _ = self.fill_dir(tmp_path)
        for fmt in ("csv", "json"):
            argv = ["bench", str(d), "--pool", "2", "--grasp-iters", "1",
                    "--rank-iters", "1", "--format", fmt, "--seed", "5"]
            outs = []
            for jobs in ("1", "1", "3"):
                assert main(argv + ["--jobs", jobs]) == EXIT_OK
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] == outs[2]
            if fmt == "csv":
                assert outs[0].splitlines()[0].split(",") == BENCH_COLUMNS
            else:
                assert {k for row in json.loads(outs[0]) for k in row} == set(BENCH_COLUMNS)

    def test_parallel_bench_builds_each_pool_with_one_worker(
        self, tmp_path, capsys, monkeypatch
    ):
        # the --jobs workers already run the instances side by side; the
        # pool runs them in this process, where the recording can see them
        d, _ = self.fill_dir(tmp_path, n=2)
        built = in_process_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        seen = []

        def recording(instance, cfg, workers=1, deadline=None):
            seen.append(workers)
            return generate_pool(instance, cfg, workers, deadline)

        monkeypatch.setattr(cli, "generate_pool", recording)
        code = main(["bench", str(d), "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1", "--format", "csv", "--jobs", "3"])
        assert code == EXIT_OK
        assert built == [2]  # 3 jobs, clamped to the 2 instances
        assert seen == [1, 1]

    @pytest.mark.parametrize("command", ["bench", "solve", "generate"])
    def test_one_job_builds_no_process_pool(self, tmp_path, capsys, monkeypatch, command):
        d, _ = self.fill_dir(tmp_path, n=2)
        built = in_process_pool(monkeypatch)
        target = str(d) if command == "bench" else str(d / "case00.stp")
        argv = [command, target, "--pool", "4", "--grasp-iters", "1", "--jobs", "1"]
        if command != "generate":
            argv += ["--rank-iters", "1", "--format", "csv"]
        assert main(argv) == EXIT_OK
        assert built == []

    def test_report_that_timed_out_exits_timeout(self, tmp_path, capsys, monkeypatch):
        # the limit passes while the instance runs, not before it starts:
        # its row is reported, and bench exits 6 as solve does
        d, _ = self.fill_dir(tmp_path, n=1)
        readings = [0.0, 0.0]  # the deadline is set; the instance starts

        def monotonic():
            return readings.pop(0) if readings else 9.0

        monkeypatch.setattr(time, "monotonic", monotonic)
        code = main(["bench", str(d), "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1", "--time-limit", "5", "--format", "json"])
        out = capsys.readouterr()
        assert code == EXIT_TIMEOUT
        assert "skipped" not in out.err
        (row,) = json.loads(out.out)
        assert row["timed_out"]

    def test_capacity_fallback_exits_capacity(self, tmp_path, capsys):
        # solve exits 5 on this file; bench must too, and its row shows why
        d = tmp_path / "bench"
        d.mkdir()
        (d / "dense.stp").write_text(write_stp(dense_instance(3, 40, 0.2, 10, max_weight=3)))
        code = main(["bench", str(d), *FALLBACK_FLAGS, "--format", "json"])
        (row,) = json.loads(capsys.readouterr().out)
        assert code == EXIT_CAPACITY
        assert row["capacity_fallback"] and not row["timed_out"]

    def test_timeout_outranks_fallback(self, tmp_path, capsys, monkeypatch):
        # one instance falls back, then the clock passes the limit while the
        # other runs: the most severe code, 6, wins over 5
        d = tmp_path / "bench"
        d.mkdir()
        fallback = dense_instance(3, 40, 0.2, 10, max_weight=3)
        late = sparse_instance(20, 25, 4)
        (d / "a.stp").write_text(write_stp(fallback))
        (d / "b.stp").write_text(write_stp(late))
        now = [0.0]
        monkeypatch.setattr(time, "monotonic", lambda: now[0])

        def generating(instance, cfg, workers=1, deadline=None):
            if instance.name == late.name:
                now[0] = 9.0
            return generate_pool(instance, cfg, workers, deadline)

        monkeypatch.setattr(cli, "generate_pool", generating)
        code = main(["bench", str(d), *FALLBACK_FLAGS, "--time-limit", "5",
                     "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == EXIT_TIMEOUT
        assert [(r["capacity_fallback"], r["timed_out"]) for r in rows] == [
            (True, False), (False, True),
        ]
