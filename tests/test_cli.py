"""Command-line behavior: exit codes, formats, env overrides, bench files."""

import hashlib
import json
from fractions import Fraction

import pytest

from steinmerge import (
    ParseError,
    ValidationError,
    dreyfus_wagner,
    greedy_degree,
    decomposition_from_order,
    write_stp,
    write_td,
)
from steinmerge import cli, generate_pool
from steinmerge.cli import (
    BENCH_FIELDS,
    BenchRecord,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    bench_summary,
    compute_gap,
    main,
    read_bench_csv,
    read_best_known,
    write_bench_csv,
)
from steinmerge.synth import dense_instance, grid_with_holes, sparse_instance

from helpers import four_cycle


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

    def test_fraction_exactness_survives_floats(self):
        # 0.1 as a decimal literal, not the nearest binary double
        assert compute_gap(0.3, 0.1) == 200

    def test_new_best_is_negative(self):
        assert compute_gap(90, 100) == -10

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ValidationError):
            compute_gap(5, 0)


class TestBenchCsv:
    def make_record(self, **over):
        base = dict(
            instance="x",
            terminals=4,
            edges=9,
            best_known=100,
            grasp_value=110,
            smh_value=104,
            grasp_gap=Fraction(10),
            smh_gap=Fraction(4),
            improvement=Fraction(60),
            grasp_time=1.25,
            smh_time=0.125,
            rel_time=0.1,
            trees_used=3,
        )
        base.update(over)
        return BenchRecord(**base)

    def test_roundtrip(self):
        records = [
            self.make_record(),
            self.make_record(
                instance="y", best_known=None, grasp_gap=None, smh_gap=None,
                improvement=None, rel_time=None,
            ),
        ]
        again = read_bench_csv(write_bench_csv(records))
        assert [r.instance for r in again] == ["x", "y"]
        assert again[0].smh_gap == Fraction(4)
        assert again[1].best_known is None
        assert again[1].rel_time is None
        assert again[0].trees_used == 3

    def test_header_checked(self):
        with pytest.raises(ParseError):
            read_bench_csv("a,b,c\n1,2,3\n")

    def test_two_decimal_gaps(self):
        text = write_bench_csv([self.make_record(smh_gap=Fraction(1, 3))])
        row = text.splitlines()[1].split(",")
        assert row[BENCH_FIELDS.index("smh_gap")] == "0.33"

    def test_summary_counts(self):
        records = [
            self.make_record(),
            self.make_record(instance="y", smh_value=100, smh_gap=Fraction(0)),
            self.make_record(instance="z", smh_value=99, smh_gap=Fraction(-1)),
        ]
        s = bench_summary(records)
        assert s["instances"] == 3
        assert s["smh_better"] == 3
        assert s["matched_best"] == 1
        assert s["new_best"] == 1


class TestBestKnownFile:
    def test_parse(self):
        table = read_best_known("# header\nalpha, 120\nbeta,7\n\n")
        assert table == {"alpha": 120, "beta": 7}

    @pytest.mark.parametrize("text", ["alpha\n", "alpha,xyz\n", "alpha,0\n"])
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["solve", "generate", "bench"])
    def test_jobs_below_one_rejected(self, stp, tmp_path, capsys, monkeypatch, command, jobs):
        path = stp(four_cycle())
        argv = [command, str(tmp_path) if command == "bench" else path,
                "--pool", "1", "--grasp-iters", "1"]
        assert main(argv + ["--jobs", jobs]) == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err
        monkeypatch.setenv("SMH_JOBS", jobs)
        assert main(argv) == EXIT_PARSE


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


class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    @pytest.mark.parametrize("command", ["merge", "solve"])
    def test_json_digest(self, stp, tmp_path, capsys, case, command):
        build, pool_flags, flags, digest = GOLDEN_CASES[case]
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
        code = main([*argv, "--format", "json", "--seed", "3", *flags])
        out = capsys.readouterr().out
        assert code == (EXIT_CAPACITY if case == "dense-budget-64" else EXIT_OK)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        records = read_bench_csv(out_path.read_text())
        assert [r.instance for r in records] == [n for n, _ in names]
        for r in records:
            assert r.best_known is not None
            assert r.smh_gap is not None and r.smh_gap >= 0
            assert r.smh_value <= r.grasp_value

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
                "--format", "csv"]
        main(argv)
        all_rows = read_bench_csv(capsys.readouterr().out)
        main(argv + ["--drop-solved"])
        kept = read_bench_csv(capsys.readouterr().out)
        dropped = {r.instance for r in all_rows if r.grasp_gap == 0}
        assert {r.instance for r in kept} == {r.instance for r in all_rows} - dropped

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
        d, _ = self.fill_dir(tmp_path)
        argv = ["bench", str(d), "--pool", "2", "--grasp-iters", "1",
                "--rank-iters", "1", "--format", "csv", "--seed", "5"]
        main(argv)
        seq = capsys.readouterr().out
        main(argv + ["--jobs", "3"])
        par = capsys.readouterr().out
        strip_times = lambda text: [
            [c for i, c in enumerate(row.split(","))
             if BENCH_FIELDS[i] not in ("grasp_time", "smh_time", "rel_time")]
            for row in text.splitlines()
        ]
        assert strip_times(seq) == strip_times(par)

    def test_parallel_bench_builds_each_pool_with_one_worker(
        self, tmp_path, capsys, monkeypatch
    ):
        # the --jobs workers already run the instances side by side
        d, _ = self.fill_dir(tmp_path, n=2)
        seen = []

        def recording(instance, cfg, workers=None, deadline=None):
            seen.append(workers)
            return generate_pool(instance, cfg, workers, deadline)

        monkeypatch.setattr(cli, "generate_pool", recording)
        code = main(["bench", str(d), "--pool", "2", "--grasp-iters", "1",
                     "--rank-iters", "1", "--format", "csv", "--jobs", "2"])
        assert code == EXIT_OK
        assert seen == [1, 1]
