"""Tests of the benchmark itself, on the tiny smoke models.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert math.isfinite(metric["value"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.SMOKE) == set(bench.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "construct-narrow", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_gate_flags_wrong_outputs():
    locaray = bench.import_locaray()
    workload = bench.SMOKE["construct-narrow"]
    inputs = bench.make_inputs(workload, 1, locaray)
    gate = bench.Gate(locaray, workload.t)
    good = bench.run_pass(inputs, workload, locaray, traced=False, number=0)
    seed, construct = next(iter(good.constructs.items()))
    changed = construct.result.array.copy()
    changed.rows.reverse()
    audit = good.audits[0]
    planted, failing, _, qs = audit.queries[0]
    bad = bench.Pass(
        traced=True,
        constructs={seed: dataclasses.replace(construct, result=dataclasses.replace(construct.result, array=changed))},
        audits=[dataclasses.replace(audit, queries=[(planted, failing, [], qs)])],
    )

    gate.check(good)
    assert gate.errors == [] and gate.attempted > 0
    gate.check(bad)
    assert len(gate.errors) == 2
    assert "differs from the first pass" in gate.errors[0]
    assert "not located" in gate.errors[1]


def test_host_clock_takes_its_loops_out_of_the_time():
    clock = bench.time.perf_counter
    with bench.HostClock(sampling=True) as host:
        start = clock()
        while clock() - start < 0.5:
            pass
        end = clock()
    inside = [loop for at, loop in host.samples if start <= at < end]
    assert len(inside) >= 2
    assert host.seconds(start, end) == pytest.approx(end - start - sum(inside))
    assert min(loop for _, loop in host.samples) <= host.ref(start, end) <= max(loop for _, loop in host.samples)
    assert math.isnan(bench.HostClock(sampling=False).ref(start, end))
