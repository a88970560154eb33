import csv
import dataclasses
import io
import subprocess
import sys

import pytest

from locaray import AnnealParams, SearchBudget, cli, format_array, load_array, verify
from locaray.cli import EXIT_CAPACITY, EXIT_NO_ARRAY, EXIT_NOT_LOCATING, EXIT_OK, EXIT_USAGE, load_suite, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def printer_file(tmp_path, printer_locating):
    path = tmp_path / "printer.la"
    path.write_text(format_array(printer_locating, 2))
    return str(path)


@pytest.fixture
def no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(cli, "parallel_construct", refuse)
    monkeypatch.setattr(cli, "construct_runs", refuse)


@pytest.fixture
def covering_file(tmp_path, printer_covering):
    path = tmp_path / "covering.la"
    path.write_text(format_array(printer_covering, 2))
    return str(path)


# --- bound ----------------------------------------------------------------------


def test_bound_three_binary_factors(capsys):
    code, out, _ = run_cli(capsys, "bound", "--model", "2^3", "--strength", "2")
    assert code == EXIT_OK
    assert out.strip() == "low=6 high=9"


def test_bound_rejects_bad_strength(capsys):
    code, _, err = run_cli(capsys, "bound", "--model", "2^3", "--strength", "9")
    assert code == EXIT_USAGE


def test_bound_rejects_too_many_factors(capsys):
    code, out, err = run_cli(capsys, "bound", "--model", "2^10001", "--strength", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "at most 10000 factors" in err


# --- generate -------------------------------------------------------------------


def test_generate_writes_verifiable_file(capsys, tmp_path):
    out_path = tmp_path / "la.txt"
    code, out, _ = run_cli(
        capsys, "generate", "--model", "2^3", "--strength", "2",
        "--seed", "1", "--timeout", "60", "--out", str(out_path),
    )
    assert code == EXIT_OK
    assert "rows=6" in out
    array, t = load_array(out_path)
    assert t == 2
    assert array.m == 6
    assert verify(array, 2).is_locating_1bar
    # round trip through the verify subcommand
    code, out, _ = run_cli(capsys, "verify", "--array", str(out_path))
    assert code == EXIT_OK


def test_generate_without_out_prints_array(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--model", "2^3", "--strength", "2",
        "--seed", "3", "--timeout", "60",
    )
    assert code == EXIT_OK
    # metadata first, then the array file body
    assert "rows=6" in out
    body = out[out.index("rows=6"):]
    assert "\n2^3\n6 2\n" in body


@pytest.mark.parametrize("target", ["missing/la.txt", "."], ids=["missing-dir", "a-directory"])
def test_generate_unwritable_out_fails_before_the_search(capsys, tmp_path, no_search, target):
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, "generate", "--model", "2^3", "--strength", "2", "--out", str(out_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"cannot write {out_path}" in err


def test_generate_missing_model_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "generate", "--strength", "2")
    assert code == EXIT_USAGE


def test_generate_bad_model_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "generate", "--model", "2^0", "--strength", "2")
    assert code == EXIT_USAGE
    assert "2^0" in err


def test_generate_timeout_without_array_exits_2(capsys, monkeypatch):
    # a millisecond is not enough to find anything at this size
    code, out, _ = run_cli(
        capsys, "generate", "--model", "3^10", "--strength", "2",
        "--timeout", "0.001", "--seed", "1",
    )
    assert code == EXIT_NO_ARRAY
    assert "rows=none" in out
    assert "timed_out=true" in out


def test_generate_capacity_exit(capsys, monkeypatch):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    code, out, err = run_cli(
        capsys, "generate", "--model", "2^10", "--strength", "2", "--timeout", "5",
    )
    assert code == EXIT_CAPACITY
    assert "interactions=180" in out


def test_generate_checks_capacity_before_starting_workers(capsys, monkeypatch, no_search):
    # the parent refuses before it starts a pool, whose worker would raise instead
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    code, out, err = run_cli(capsys, "generate", "--model", "2^4", "--strength", "2", "--workers", "2")
    assert code == EXIT_CAPACITY
    assert out == "interactions=24\n"
    assert err.startswith("capacity:")


@pytest.mark.parametrize(
    "flags",
    [
        ["--timeout", "0"],
        ["--timeout", "nan"],
        ["--k-max", "0"],
        ["--cooling", "1.5"],
        ["--weight", "nan"],
        ["--weight", "inf"],
        ["--t-init", "nan"],
        ["--t-init", "inf"],
        ["--workers", "0"],
        ["--workers", str(cli.MAX_RUNS + 1)],
    ],
    ids=[
        "timeout", "timeout-nan", "k-max", "cooling",
        "weight-nan", "weight-inf", "t-init-nan", "t-init-inf", "workers", "workers-max",
    ],
)
def test_generate_bad_flag_values_are_usage_errors(capsys, no_search, flags):
    code, out, err = run_cli(capsys, "generate", "--model", "2^3", "--strength", "2", *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert err


def test_generate_cooling_that_freezes_the_temperature_succeeds(capsys, tmp_path):
    # cooling 0.01 underflows the temperature to 0.0 long before k_max
    out_path = tmp_path / "c.la"
    code, _, _ = run_cli(
        capsys, "generate", "--model", "2^6", "--strength", "2",
        "--cooling", "0.01", "--seed", "1", "--out", str(out_path),
    )
    assert code == EXIT_OK
    array, t = load_array(str(out_path))
    assert verify(array, t).is_locating_1bar


def test_generate_bad_memory_budget_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "abc")
    code, out, err = run_cli(capsys, "generate", "--model", "2^3", "--strength", "2", "--timeout", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert "LOCARAY_MEM_BUDGET_MB" in err


# `locaray verify` stdout on two non-locating arrays with more than 20
# colliding pairs, as the command printed it when verify listed up to 1000
# pairs and the command cut the lists to 20 itself
_TWO_EQUAL_ROWS = "2^3\n2 2\n0 0 0\n0 0 0\n"
_TWO_EQUAL_ROWS_OUT = (
    "model=2^3\n"
    "rows=2\n"
    "strength=2\n"
    "is_covering=false\n"
    "is_locating_exact1=false\n"
    "is_locating_1bar=false\n"
    "uncovered_count=9\n"
    "collision_count=39\n"
    "# 9 uncovered interactions, first 9:\n"
    "#   uncovered (1=0, 2=1)\n"
    "#   uncovered (1=1, 2=0)\n"
    "#   uncovered (1=1, 2=1)\n"
    "#   uncovered (1=0, 3=1)\n"
    "#   uncovered (1=1, 3=0)\n"
    "#   uncovered (1=1, 3=1)\n"
    "#   uncovered (2=0, 3=1)\n"
    "#   uncovered (2=1, 3=0)\n"
    "#   uncovered (2=1, 3=1)\n"
    "# 39 colliding pairs, first 20:\n"
    "#   (1=0, 2=0) ~ (1=0, 3=0) rows={1,2}\n"
    "#   (1=0, 2=0) ~ (2=0, 3=0) rows={1,2}\n"
    "#   (1=0, 3=0) ~ (2=0, 3=0) rows={1,2}\n"
    "#   (1=0, 2=1) ~ (1=1, 2=0) rows={}\n"
    "#   (1=0, 2=1) ~ (1=1, 2=1) rows={}\n"
    "#   (1=0, 2=1) ~ (1=0, 3=1) rows={}\n"
    "#   (1=0, 2=1) ~ (1=1, 3=0) rows={}\n"
    "#   (1=0, 2=1) ~ (1=1, 3=1) rows={}\n"
    "#   (1=0, 2=1) ~ (2=0, 3=1) rows={}\n"
    "#   (1=0, 2=1) ~ (2=1, 3=0) rows={}\n"
    "#   (1=0, 2=1) ~ (2=1, 3=1) rows={}\n"
    "#   (1=1, 2=0) ~ (1=1, 2=1) rows={}\n"
    "#   (1=1, 2=0) ~ (1=0, 3=1) rows={}\n"
    "#   (1=1, 2=0) ~ (1=1, 3=0) rows={}\n"
    "#   (1=1, 2=0) ~ (1=1, 3=1) rows={}\n"
    "#   (1=1, 2=0) ~ (2=0, 3=1) rows={}\n"
    "#   (1=1, 2=0) ~ (2=1, 3=0) rows={}\n"
    "#   (1=1, 2=0) ~ (2=1, 3=1) rows={}\n"
    "#   (1=1, 2=1) ~ (1=0, 3=1) rows={}\n"
    "#   (1=1, 2=1) ~ (1=1, 3=0) rows={}\n"
)
_THREE_ROWS = "2^5 3\n3 2\n0 0 0 0 0 0\n0 1 0 1 0 1\n1 1 0 0 1 2\n"
_THREE_ROWS_OUT = (
    "model=2^5 3\n"
    "rows=3\n"
    "strength=2\n"
    "is_covering=false\n"
    "is_locating_exact1=false\n"
    "is_locating_1bar=false\n"
    "uncovered_count=30\n"
    "collision_count=626\n"
    "# 30 uncovered interactions, first 20:\n"
    "#   uncovered (1=1, 2=0)\n"
    "#   uncovered (1=0, 3=1)\n"
    "#   uncovered (1=1, 3=1)\n"
    "#   uncovered (1=1, 4=1)\n"
    "#   uncovered (1=0, 5=1)\n"
    "#   uncovered (1=1, 5=0)\n"
    "#   uncovered (1=0, 6=2)\n"
    "#   uncovered (1=1, 6=0)\n"
    "#   uncovered (1=1, 6=1)\n"
    "#   uncovered (2=0, 3=1)\n"
    "#   uncovered (2=1, 3=1)\n"
    "#   uncovered (2=0, 4=1)\n"
    "#   uncovered (2=0, 5=1)\n"
    "#   uncovered (2=0, 6=1)\n"
    "#   uncovered (2=0, 6=2)\n"
    "#   uncovered (2=1, 6=0)\n"
    "#   uncovered (3=1, 4=0)\n"
    "#   uncovered (3=1, 4=1)\n"
    "#   uncovered (3=1, 5=0)\n"
    "#   uncovered (3=1, 5=1)\n"
    "# 626 colliding pairs, first 20:\n"
    "#   (1=0, 2=0) ~ (1=0, 4=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (1=0, 6=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (2=0, 3=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (2=0, 4=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (2=0, 5=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (2=0, 6=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (3=0, 6=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (4=0, 5=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (4=0, 6=0) rows={1}\n"
    "#   (1=0, 2=0) ~ (5=0, 6=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (1=0, 6=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (2=0, 3=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (2=0, 4=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (2=0, 5=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (2=0, 6=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (3=0, 6=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (4=0, 5=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (4=0, 6=0) rows={1}\n"
    "#   (1=0, 4=0) ~ (5=0, 6=0) rows={1}\n"
    "#   (1=0, 6=0) ~ (2=0, 3=0) rows={1}\n"
)


@pytest.mark.parametrize("text, expected", [(_TWO_EQUAL_ROWS, _TWO_EQUAL_ROWS_OUT), (_THREE_ROWS, _THREE_ROWS_OUT)])
def test_verify_lists_only_the_pairs_it_prints(capsys, monkeypatch, tmp_path, text, expected):
    caps = []

    def recording_verify(array, t, max_collision_pairs):
        caps.append(max_collision_pairs)
        return verify(array, t, max_collision_pairs)

    monkeypatch.setattr(cli, "verify", recording_verify)
    path = tmp_path / "a.la"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "verify", "--array", str(path))
    assert code == EXIT_NOT_LOCATING
    assert out == expected
    assert caps == [cli.SHOWN] == [20]


def test_generate_deterministic_files(capsys, tmp_path):
    paths = []
    for name in ("a.la", "b.la"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys, "generate", "--model", "2^4", "--strength", "2",
            "--seed", "7", "--timeout", "60", "--out", str(path),
        )
        assert code == EXIT_OK
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_generate_parallel_workers(capsys, tmp_path):
    out_path = tmp_path / "par.la"
    code, out, _ = run_cli(
        capsys, "generate", "--model", "2^3", "--strength", "2",
        "--seed", "5", "--timeout", "60", "--workers", "2", "--out", str(out_path),
    )
    assert code == EXIT_OK
    array, t = load_array(out_path)
    assert verify(array, t).is_locating_1bar


# --- verify ----------------------------------------------------------------------


def test_verify_bundled_printer_fixture(capsys):
    from importlib import resources

    path = resources.files("locaray").joinpath("data/printer.la")
    code, out, _ = run_cli(capsys, "verify", "--array", str(path))
    assert code == EXIT_OK
    assert "is_locating_1bar=true" in out


def test_verify_covering_only_array(capsys, covering_file):
    code, out, _ = run_cli(capsys, "verify", "--array", covering_file)
    assert code == EXIT_NOT_LOCATING
    assert "is_covering=true" in out
    assert "is_locating_1bar=false" in out
    assert "collision_count=36" in out


def test_verify_strength_override(capsys, printer_file):
    code, out, _ = run_cli(capsys, "verify", "--array", printer_file, "--strength", "1")
    assert code == EXIT_OK
    assert "strength=1" in out


def test_verify_unreadable_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--array", str(tmp_path / "missing.la"))
    assert code == EXIT_USAGE


def test_verify_capacity_exit(capsys, monkeypatch, printer_file):
    # verify holds a row set per interaction, so the index's budget applies
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    code, out, err = run_cli(capsys, "verify", "--array", printer_file)
    assert code == EXIT_CAPACITY
    assert out == "interactions=30\n"
    assert err.startswith("capacity:")


def test_verify_bad_memory_budget_is_usage_error(capsys, monkeypatch, printer_file):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "abc")
    code, out, err = run_cli(capsys, "verify", "--array", printer_file)
    assert code == EXIT_USAGE
    assert out == ""
    assert "LOCARAY_MEM_BUDGET_MB" in err


# --- locate ----------------------------------------------------------------------


def test_locate_faulty_pair(capsys, printer_file):
    code, out, _ = run_cli(
        capsys, "locate", "--array", printer_file, "--failing", "4,5,10", "--strength", "2"
    )
    assert code == EXIT_OK
    assert "candidates=1" in out
    assert "(2=1, 3=1)" in out


def test_locate_no_failures(capsys, printer_file):
    code, out, _ = run_cli(capsys, "locate", "--array", printer_file, "--failing", "")
    assert code == EXIT_OK
    assert "candidates=0" in out


def test_locate_bad_row_index(capsys, printer_file):
    code, _, err = run_cli(capsys, "locate", "--array", printer_file, "--failing", "11")
    assert code == EXIT_USAGE


# --- bench -----------------------------------------------------------------------


def test_bench_single_tiny_instance(capsys, tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("toy,2^3\n")
    out_csv = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--suite", str(suite), "--runs", "2", "--strength", "2",
        "--timeout", "60", "--out", str(out_csv),
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out_csv.read_text())))
    assert rows[0] == ["name", "model", "x", "y", "runs", "mean_time_s", "mean_rows", "min_rows"]
    assert len(rows) == 2
    name, model, x, y, runs, mean_time, mean_rows, min_rows = rows[1]
    assert (name, model) == ("toy", "2^3")
    assert int(x) == int(y) == int(runs) == 2
    assert min_rows == "6"
    assert (tmp_path / "bench.csv.log").exists()


def test_bench_empty_suite_is_usage_error(capsys, tmp_path):
    suite = tmp_path / "empty.txt"
    suite.write_text("# nothing here\n")
    log = tmp_path / "bench.log"
    code, out, err = run_cli(
        capsys, "bench", "--suite", str(suite), "--runs", "1", "--log", str(log)
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "no instances" in err
    assert not log.exists()


@pytest.mark.parametrize(
    "flags",
    [["--timeout", "0"], ["--timeout", "nan"], ["--workers", "0"], ["--runs", "0"], ["--strength", "0"],
     ["--workers", str(cli.MAX_RUNS + 1)], ["--runs", str(cli.MAX_RUNS + 1)]],
    ids=["timeout", "timeout-nan", "workers", "runs", "strength-0", "workers-max", "runs-max"],
)
def test_bench_bad_flag_values_are_usage_errors(capsys, tmp_path, no_search, flags):
    suite = tmp_path / "suite.txt"
    suite.write_text("tiny,2^3\n")
    log = tmp_path / "bench.log"
    code, out, _ = run_cli(capsys, "bench", "--suite", str(suite), "--log", str(log), *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert not log.exists()


def test_bench_checks_the_strength_of_every_instance_before_any_file(capsys, tmp_path, no_search):
    suite = tmp_path / "suite.txt"
    suite.write_text("fine,2^3\ntiny,2^2\n")
    argv = ["bench", "--suite", str(suite), "--runs", "1", "--strength", "3"]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "bench.csv"))
    assert code == EXIT_USAGE
    assert out == ""
    assert "suite instance tiny: strength must lie in 1..2" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.txt"]


def test_bench_checks_the_capacity_of_every_instance_before_any_file(capsys, tmp_path, monkeypatch, no_search):
    # 2^3 fits 1 MiB and 2^100 does not: no row for the first may be written
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "1")
    suite = tmp_path / "suite.txt"
    suite.write_text("fine,2^3\nbig,2^100\n")
    code, out, err = run_cli(capsys, "bench", "--suite", str(suite), "--runs", "1", "--out", str(tmp_path / "bench.csv"))
    assert code == EXIT_CAPACITY
    assert out == "interactions=19800\n"
    assert err.startswith("capacity:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.txt"]


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_bench_unwritable_out_or_log_fails_before_the_search(capsys, tmp_path, no_search, flag):
    suite = tmp_path / "suite.txt"
    suite.write_text("tiny,2^3\n")
    paths = {"--out": tmp_path / "bench.csv", "--log": tmp_path / "bench.log", flag: tmp_path / "missing" / "x"}
    argv = ["bench", "--suite", str(suite), "--runs", "1"]
    for name, path in paths.items():
        argv += [name, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"cannot write {paths[flag]}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.txt"]


def test_bench_pool_is_capped_at_cpu_count_and_runs_every_seed(capsys, tmp_path, inline_pools):
    suite = tmp_path / "suite.txt"
    suite.write_text("tiny,2^3\n")
    code, out, _ = run_cli(
        capsys, "bench", "--suite", str(suite), "--runs", "3", "--workers", "8",
        "--timeout", "60", "--log", str(tmp_path / "bench.log"),
    )
    assert code == EXIT_OK
    assert [pool.max_workers for pool in inline_pools] == [2]
    assert len(inline_pools[0].jobs) == 3
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[2:5] == ["3", "3", "3"]


def test_bench_counts_respect_x_le_y_le_runs(capsys, tmp_path):
    # a timeout too small to finish but often enough to find one array
    suite = tmp_path / "suite.txt"
    suite.write_text("tight,3^4\n")
    out_csv = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--suite", str(suite), "--runs", "2", "--strength", "2",
        "--timeout", "0.35", "--out", str(out_csv), "--seed", "3",
    )
    assert code == EXIT_OK
    row = list(csv.reader(io.StringIO(out_csv.read_text())))[1]
    x, y, runs = int(row[2]), int(row[3]), int(row[4])
    assert 0 <= x <= y <= runs == 2


def test_bundled_suite_has_all_35_instances():
    from locaray.cli import _bundled_suite_text

    entries = load_suite(_bundled_suite_text())
    assert len(entries) == 35
    names = [name for name, _ in entries]
    assert "spin-s" in names and "gcc" in names and "apache" in names
    by_name = dict(entries)
    assert by_name["spin-s"] == "2^13 4^5"
    assert by_name["gcc"] == "2^189 3^10"


def test_bench_rejects_missing_suite(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bench", "--suite", str(tmp_path / "nope.txt"))
    assert code == EXIT_USAGE


def test_suite_parse_errors():
    with pytest.raises(ValueError):
        load_suite("just-a-name\n")
    with pytest.raises(ValueError):
        load_suite("name,\n")


# --- entry point -------------------------------------------------------------------


def help_entries(capsys, command) -> dict[str, str]:
    """Each option's help entry, keyed by flag, with argparse's line wrapping undone."""
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == EXIT_OK
    options = " ".join(out.split("\n\n", 1)[1].split())  # the text after the usage block
    return {entry.split()[0]: entry for entry in ("--" + part for part in options.split(" --")[1:])}


def test_generate_help_shows_every_library_default(capsys):
    entries = help_entries(capsys, "generate")
    for defaults in (AnnealParams(), SearchBudget()):
        for f in dataclasses.fields(defaults):
            flag = "--" + f.name.replace("_", "-")
            assert entries[flag].endswith(f"(default {getattr(defaults, f.name)})"), entries[flag]
    assert entries["--workers"].endswith("(default 1)")


def test_bench_help_shows_every_library_default(capsys):
    entries = help_entries(capsys, "bench")
    budget = SearchBudget()
    assert entries["--timeout"].endswith(f"(default {budget.timeout})")
    assert entries["--seed"].endswith(f"(default {budget.seed})")
    for flag, default in (("--workers", 1), ("--runs", 5), ("--strength", 2)):
        assert entries[flag].endswith(f"(default {default})"), entries[flag]


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "locaray.cli", "bound", "--model", "2^4", "--strength", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "low=7 high=12"
