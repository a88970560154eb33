import codecs
import csv
import dataclasses
import errno
import io
import os
import subprocess
import sys

import pytest

import locaray.model
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


class _FullFile(io.StringIO):
    """A file on a full disk: opening works, every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def full_disk(monkeypatch):
    """Paths added to the returned set open for writing in the CLI as ``_FullFile``s."""
    full = set()

    def fake_open(path, *args, **kwargs):
        return _FullFile() if str(path) in full else open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    return full


STDOUT_FULL = f"cannot write stdout: [Errno 28] {os.strerror(errno.ENOSPC)}\n"


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


def test_generate_write_failing_after_the_search_is_usage_error(capsys, tmp_path, full_disk):
    # exit 1 means "not locating"; a lost result must not read as that
    out_path = str(tmp_path / "la.txt")
    full_disk.add(out_path)
    code, out, err = run_cli(capsys, "generate", "--model", "2^3", "--strength", "2", "--seed", "1", "--out", out_path)
    assert code == EXIT_USAGE
    assert out.endswith("\nrows=6\n")
    assert err == f"cannot write {out_path}: [Errno 28] {os.strerror(errno.ENOSPC)}\n"


def test_generate_open_failing_after_the_search_is_usage_error(capsys, tmp_path, monkeypatch):
    # the directory can go away while the search runs
    out_path = str(tmp_path / "la.txt")

    def refuse(path, *args, **kwargs):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code, out, err = run_cli(capsys, "generate", "--model", "2^3", "--strength", "2", "--seed", "1", "--out", out_path)
    assert code == EXIT_USAGE
    assert out.endswith("\nrows=6\n")
    assert err == f"cannot write {out_path}: [Errno 2] {os.strerror(errno.ENOENT)}: '{out_path}'\n"


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


# a random non-locating t=3 array: its first 20 pairs share four row sets,
# two of them past row 9
_RANDOM_T3 = (
    "2^5 3\n"
    "12 3\n"
    "1 1 1 1 1 0\n"
    "1 0 1 1 0 2\n"
    "0 0 1 1 1 2\n"
    "0 1 0 0 1 0\n"
    "0 0 1 1 1 0\n"
    "1 1 1 1 0 1\n"
    "1 1 0 1 0 1\n"
    "0 0 1 0 1 0\n"
    "1 1 1 1 1 0\n"
    "0 1 0 1 1 0\n"
    "1 0 1 0 1 2\n"
    "0 0 0 1 1 0\n"
)
_RANDOM_T3_OUT = (
    "model=2^5 3\n"
    "rows=12\n"
    "strength=3\n"
    "is_covering=false\n"
    "is_locating_exact1=false\n"
    "is_locating_1bar=false\n"
    "uncovered_count=74\n"
    "collision_count=2952\n"
    "# 74 uncovered interactions, first 20:\n"
    "#   uncovered (1=0, 2=1, 3=1)\n"
    "#   uncovered (1=1, 2=0, 3=0)\n"
    "#   uncovered (1=1, 2=1, 4=0)\n"
    "#   uncovered (1=0, 2=0, 5=0)\n"
    "#   uncovered (1=0, 2=1, 5=0)\n"
    "#   uncovered (1=0, 2=0, 6=1)\n"
    "#   uncovered (1=0, 2=1, 6=1)\n"
    "#   uncovered (1=0, 2=1, 6=2)\n"
    "#   uncovered (1=1, 2=0, 6=0)\n"
    "#   uncovered (1=1, 2=0, 6=1)\n"
    "#   uncovered (1=1, 2=1, 6=2)\n"
    "#   uncovered (1=1, 3=0, 4=0)\n"
    "#   uncovered (1=0, 3=0, 5=0)\n"
    "#   uncovered (1=0, 3=1, 5=0)\n"
    "#   uncovered (1=1, 3=0, 5=1)\n"
    "#   uncovered (1=0, 3=0, 6=1)\n"
    "#   uncovered (1=0, 3=0, 6=2)\n"
    "#   uncovered (1=0, 3=1, 6=1)\n"
    "#   uncovered (1=1, 3=0, 6=0)\n"
    "#   uncovered (1=1, 3=0, 6=2)\n"
    "# 2952 colliding pairs, first 20:\n"
    "#   (1=0, 2=0, 3=0) ~ (2=0, 3=0, 4=1) rows={12}\n"
    "#   (1=0, 2=0, 3=0) ~ (2=0, 3=0, 5=1) rows={12}\n"
    "#   (1=0, 2=0, 3=0) ~ (2=0, 3=0, 6=0) rows={12}\n"
    "#   (2=0, 3=0, 4=1) ~ (2=0, 3=0, 5=1) rows={12}\n"
    "#   (2=0, 3=0, 4=1) ~ (2=0, 3=0, 6=0) rows={12}\n"
    "#   (2=0, 3=0, 5=1) ~ (2=0, 3=0, 6=0) rows={12}\n"
    "#   (1=0, 2=0, 3=1) ~ (1=0, 3=1, 5=1) rows={3,5,8}\n"
    "#   (1=0, 2=1, 3=0) ~ (1=0, 2=1, 5=1) rows={4,10}\n"
    "#   (1=0, 2=1, 3=0) ~ (1=0, 2=1, 6=0) rows={4,10}\n"
    "#   (1=0, 2=1, 3=0) ~ (2=1, 3=0, 5=1) rows={4,10}\n"
    "#   (1=0, 2=1, 3=0) ~ (2=1, 3=0, 6=0) rows={4,10}\n"
    "#   (1=0, 2=1, 5=1) ~ (1=0, 2=1, 6=0) rows={4,10}\n"
    "#   (1=0, 2=1, 5=1) ~ (2=1, 3=0, 5=1) rows={4,10}\n"
    "#   (1=0, 2=1, 5=1) ~ (2=1, 3=0, 6=0) rows={4,10}\n"
    "#   (1=0, 2=1, 6=0) ~ (2=1, 3=0, 5=1) rows={4,10}\n"
    "#   (1=0, 2=1, 6=0) ~ (2=1, 3=0, 6=0) rows={4,10}\n"
    "#   (2=1, 3=0, 5=1) ~ (2=1, 3=0, 6=0) rows={4,10}\n"
    "#   (1=0, 2=1, 3=1) ~ (1=1, 2=0, 3=0) rows={}\n"
    "#   (1=0, 2=1, 3=1) ~ (1=1, 2=1, 4=0) rows={}\n"
    "#   (1=0, 2=1, 3=1) ~ (1=0, 2=0, 5=0) rows={}\n"
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


@pytest.mark.parametrize(
    "text, expected", [(_TWO_EQUAL_ROWS, _TWO_EQUAL_ROWS_OUT), (_RANDOM_T3, _RANDOM_T3_OUT)], ids=["dup", "random-t3"]
)
def test_verify_stdout_is_pinned_byte_for_byte(tmp_path, text, expected):
    # every byte `locaray verify` writes, as it read when verify decoded its
    # reports itself and the command printed Interaction objects
    path = tmp_path / "a.la"
    path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "locaray.cli", "verify", "--array", str(path)], capture_output=True)
    assert proc.returncode == EXIT_NOT_LOCATING
    assert proc.stdout == expected.encode()
    assert proc.stderr == b""


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


def test_locate_bad_failing_item_names_the_flag(capsys, printer_file):
    code, out, err = run_cli(capsys, "locate", "--array", printer_file, "--failing", "4,x")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("--failing: ") and "'x'" in err
    assert err.count("\n") == 1


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


def test_bench_bad_model_names_the_suite_instance_before_any_file(capsys, tmp_path, no_search):
    suite = tmp_path / "suite.txt"
    suite.write_text("fine,2^3\nbad,2^x\n")
    code, out, err = run_cli(capsys, "bench", "--suite", str(suite), "--runs", "1", "--out", str(tmp_path / "bench.csv"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "suite instance bad: bad model: malformed token '2^x'\n"
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


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_bench_write_failure_is_usage_error_naming_the_file(capsys, tmp_path, full_disk, flag):
    suite = tmp_path / "suite.txt"
    suite.write_text("tiny,2^3\n")
    paths = {"--out": str(tmp_path / "bench.csv"), "--log": str(tmp_path / "bench.log")}
    full_disk.add(paths[flag])
    argv = ["bench", "--suite", str(suite), "--runs", "1", "--timeout", "60"]
    for name, path in paths.items():
        argv += [name, path]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"cannot write {paths[flag]}: [Errno 28] {os.strerror(errno.ENOSPC)}\n"


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


def test_bench_rejects_an_undecodable_suite(capsys, tmp_path, no_search):
    suite = tmp_path / "suite.txt"
    suite.write_bytes(b"tiny,2^3\n\xff\n")
    code, out, err = run_cli(capsys, "bench", "--suite", str(suite), "--log", str(tmp_path / "bench.log"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"cannot read suite {suite}: 'utf-8' codec can't decode byte 0xff")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.txt"]


@pytest.mark.parametrize("log", ["bench.csv", "./bench.csv"], ids=["same-text", "same-file"])
def test_bench_out_and_log_naming_one_file_is_usage_error(capsys, tmp_path, no_search, log):
    # both would open the file for writing, and the log lines would overwrite the CSV rows
    suite = tmp_path / "suite.txt"
    suite.write_text("tiny,2^3\n")
    out_csv = str(tmp_path / "bench.csv")
    code, out, err = run_cli(capsys, "bench", "--suite", str(suite), "--runs", "1", "--out", out_csv, "--log", os.path.join(tmp_path, log))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"--out and --log name the same file {out_csv}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.txt"]


def test_bench_parses_each_suite_model_once(capsys, tmp_path, monkeypatch):
    specs = []

    def counting_parse(spec):
        specs.append(spec)
        return locaray.model.parse_model(spec)

    monkeypatch.setattr(cli, "parse_model", counting_parse)
    suite = tmp_path / "suite.txt"
    suite.write_text("one,2^2\ntwo,2^3\n")
    code, out, _ = run_cli(capsys, "bench", "--suite", str(suite), "--runs", "1", "--timeout", "60", "--log", str(tmp_path / "bench.log"))
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3
    assert specs == ["2^2", "2^3"]


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


# --- stdout ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        "bound --model 2^3 --strength 2",
        "generate --model 2^3 --strength 2 --seed 1 --timeout 60",
        "verify --array COVERING",
        "locate --array PRINTER --failing 4,5,10",
        "bench --suite SUITE --runs 1 --timeout 60 --log LOG",
        "generate --help",
    ],
    ids=["bound", "generate", "verify", "locate", "bench", "generate-help"],
)
def test_a_failed_stdout_write_is_usage_error(capsys, monkeypatch, tmp_path, printer_file, covering_file, argv):
    # exit 1 from verify means "not locating"; a lost report must not read as that
    suite = tmp_path / "suite.txt"
    suite.write_text("tiny,2^3\n")
    paths = {"PRINTER": printer_file, "COVERING": covering_file, "SUITE": str(suite), "LOG": str(tmp_path / "bench.log")}
    monkeypatch.setattr(sys, "stdout", _FullFile())
    code = main([paths.get(word, word) for word in argv.split()])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == STDOUT_FULL


def test_a_failed_stdout_write_after_a_capacity_error_is_usage_error(capsys, monkeypatch, printer_file):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    monkeypatch.setattr(sys, "stdout", _FullFile())
    code = main(["verify", "--array", printer_file])
    assert code == EXIT_USAGE
    first, second = capsys.readouterr().err.splitlines(keepends=True)
    assert first.startswith("capacity: ")
    assert second == STDOUT_FULL


def test_a_usage_error_leaves_stdout_untouched(capsys, monkeypatch, tmp_path):
    # even an empty write fails on a full device; the usage error stays the one line
    suite = tmp_path / "empty.txt"
    suite.write_text("# nothing here\n")
    monkeypatch.setattr(sys, "stdout", _FullFile())
    assert main(["bench", "--suite", str(suite)]) == EXIT_USAGE
    assert capsys.readouterr().err == "the suite lists no instances\n"


class _PipeClosedAfterOneWrite(io.StringIO):
    """A pipe whose reader leaves after the first write."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)


def test_verify_writes_its_report_once(capsys, monkeypatch, covering_file):
    # `locaray verify ... | head -1` must exit with verify's own code
    pipe = _PipeClosedAfterOneWrite()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(["verify", "--array", covering_file])
    assert code == EXIT_NOT_LOCATING
    assert capsys.readouterr().err == ""
    assert pipe.getvalue().startswith("model=2^3 3\nrows=6\n")
    assert pipe.getvalue().endswith("\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize(
    "argv",
    [["bound", "--model", "2^4", "--strength", "2"], ["verify", "--array", "COVERING"], ["generate", "--help"]],
    ids=["bound", "verify", "generate-help"],
)
def test_stdout_on_a_full_device_exits_64_with_one_line(covering_file, argv):
    # block-buffered stdout, as in most shells: interpreter shutdown must not
    # flush the failed buffer again (that exits 120)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    argv = [covering_file if word == "COVERING" else word for word in argv]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "locaray.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == STDOUT_FULL


# --- text encoding -----------------------------------------------------------------

# a locale whose preferred encoding is ASCII where the C library has one, as in a bare container
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0"}


def run_in_ascii_locale(argv, cwd):
    # the child runs in cwd, so it finds this test's locaray through an absolute path
    package_root = os.path.dirname(os.path.dirname(locaray.__file__))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": pythonpath}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)


@pytest.fixture(scope="module")
def ascii_locale(tmp_path_factory):
    proc = run_in_ascii_locale(["-c", "import locale; print(locale.getpreferredencoding(False))"], tmp_path_factory.getbasetemp())
    if codecs.lookup(proc.stdout.decode().strip()).name == "utf-8":
        pytest.skip("the POSIX locale is UTF-8 on this platform")


def test_bench_writes_utf8_files_in_an_ascii_locale(tmp_path, ascii_locale):
    (tmp_path / "suite.txt").write_bytes("café,2^3\n".encode())
    proc = run_in_ascii_locale(["-m", "locaray.cli", "bench", "--suite", "suite.txt", "--runs", "1", "--out", "x.csv"], tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == proc.stderr == b""
    assert (tmp_path / "x.csv").read_bytes().startswith(b"name,model,x,y,runs,mean_time_s,mean_rows,min_rows\ncaf\xc3\xa9,2^3,1,1,1,")
    assert (tmp_path / "x.csv.log").read_bytes().startswith(b"caf\xc3\xa9 run=0 ")


def test_a_stdout_that_cannot_encode_the_report_is_usage_error(tmp_path, ascii_locale):
    (tmp_path / "suite.txt").write_bytes("café,2^3\n".encode())
    proc = run_in_ascii_locale(["-m", "locaray.cli", "bench", "--suite", "suite.txt", "--runs", "1"], tmp_path)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("cannot write stdout: ") and "can't encode character '\\xe9'" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "bench.log").exists()  # it fails before the search, which would log its runs


def test_load_array_reads_utf8_in_an_ascii_locale(tmp_path, ascii_locale):
    (tmp_path / "a.la").write_bytes("# résumé\n2^3\n1 1\n0 1 0\n".encode())
    proc = run_in_ascii_locale(["-c", "import locaray; print(locaray.load_array('a.la')[0].rows)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[[0, 1, 0]]\n"


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "locaray.cli", "bound", "--model", "2^4", "--strength", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "low=7 high=12"
