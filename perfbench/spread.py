"""Repeat the benchmark over seeds and check that every metric is steady.

    python3 perfbench/spread.py --workload construct-narrow --seeds 1-10 [--trace 0] [--out FILE]

Runs ``run.py`` once per seed and workload, one run at a time, for the
``run_seconds`` of BENCHMARK.json.  For each metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  An end-to-end metric is steady when its spread is below
a third of its bound; setup_s is exempt.  ``--out`` writes every value, the
summary, each workload's input properties and a machine note as JSON.
Exits 1 if a run fails or a metric is not steady.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

import run as bench


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine_note() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bench.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform(), "git_revision": rev}


def properties(name: str, seeds: list[int], locaray) -> dict:
    """Input properties of a workload; the random audit arrays are those of the
    first pass of each of ``seeds``."""
    w = bench.WORKLOADS[name]
    model = locaray.parse_model(w.spec)
    verify = sys.modules["locaray.verify"]
    randoms = [
        array
        for s in seeds
        for group in bench.random_audits(bench.make_inputs(w, s, locaray), w, 0, locaray)
        for array, _ in group
    ]
    locating = sum(verify.verify(a, w.t).is_locating_1bar for a in randoms)
    return {
        "model": w.spec,
        "strength": w.t,
        "construct_seeds": list(w.seeds),
        "interactions": locaray.interaction_count(model, w.t),
        "partners_per_entry_change": math.comb(model.k - 1, w.t - 1),
        "audit_random_rows": w.audit_rows,
        "audit_random_locating_share": locating / len(randoms),
        "audit_found_locating_share": 1.0,  # enforced by the correctness gate
    }


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS), help="repeatable; default all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the values and summary to this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    out = {"machine": machine_note(), "run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        summary = {}
        for d in declared:
            s = summarize([r[d["name"]] for r in runs])
            bound = d.get("bound")
            s["steady"] = bound is None or d["name"] == "setup_s" or s["spread"] < bound / 3
            ok &= s["steady"]
            summary[d["name"]] = s
            print(f"  {d['name']:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}" + (f" bound {bound} {'ok' if s['steady'] else 'NOT STEADY'}" if bound else ""))
        out["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        locaray = bench.import_locaray()
        for name in names:
            out["workloads"][name]["properties"] = properties(name, seeds, locaray)
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
