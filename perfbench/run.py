"""locaray benchmark: construct, verify and locate, timed from outside the package.

    python3 perfbench/run.py --workload construct-narrow --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; locaray is imported from ``src/``.
One process with one caller runs a closed loop: each call into locaray starts
when the previous one has returned.  A run repeats passes over the workload's
fixed inputs until the next pass would end after ``--seconds``.  A pass calls
``search.construct`` once per construct seed and audits, with
``verify.verify`` and ``verify.locate_fault``, fresh random arrays before
each construct and the array found after it.  Every output is checked outside
the timed regions, and a failed check makes the run exit 1.

Host speed drifts by up to 2x over seconds to minutes on a shared machine, and
a run cannot wait such a spell out.  So while an untraced pass runs, a timer
interrupts it ten times a second to time a fixed pure-Python reference loop
that is part of the benchmark (see HostClock).  Each call's time is reported
in *refs*: its wall time, less the loops run inside it, over the mean loop
time around it.  Program and loop slow down together in a slow spell, so a
time in refs changes only when the program's work changes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see tracing.py), writes the spans to
``perfbench/out/<workload>.spans.jsonl`` and reports the per-layer metrics.
The last line of standard output is one JSON object.  ``--smoke`` swaps every
model for a tiny one, so the benchmark's own tests run in seconds.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or environment error.
"""

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 9  # fresh processes timed per run for setup_s, at least
REF_ITERATIONS = 60_000  # one reference loop: about 9 ms on a 2-vCPU x86-64 host
SAMPLE_INTERVAL = 0.1  # seconds between reference loops while a pass runs
REF_WINDOW = 0.4  # a call's ref averages the loops of at least this many seconds around it
LOCATE_QUERIES = 2  # planted faults located per audited array
COLLISION_CAP = 1000  # max_collision_pairs, as the CLI passes it


@dataclass(frozen=True)
class Workload:
    spec: str
    t: int
    seeds: tuple[int, ...]  # construct seeds, run in every pass
    timeout: float  # per construct; far above the expected time so it never fires
    audit_rows: int  # rows of the random audit arrays: what construct reaches
    random_audits: int  # random arrays audited before each construct


# Why each workload is here (BENCHMARK.json and README.md say more):
# narrow is the t=2 fast path with a small catalog, where per-move overhead and
# neighbour selection matter; wide has a 6x larger catalog, 3x the partners per
# entry change, and an upper search bound that undershoots, so build_index and
# failed probes weigh most; t3 is the only user of the general-t index path.
# Each pass audits 3 to 8 random arrays, so that a run has enough verify
# and locate samples, over enough different arrays, for a steady median.
WORKLOADS = {
    "construct-narrow": Workload("2^13 4^5", 2, (1, 2, 3, 4), 60.0, 35, 2),
    "construct-wide": Workload("2^40 3^10", 2, (1,), 120.0, 33, 3),
    "construct-t3": Workload("2^10 3^2", 3, (1,), 120.0, 50, 6),
}
SMOKE = {
    "construct-narrow": Workload("2^4", 2, (1, 2), 30.0, 8, 1),
    "construct-wide": Workload("2^4", 2, (1,), 30.0, 8, 1),
    "construct-t3": Workload("2^4", 3, (1,), 30.0, 14, 1),
}


def reference_seconds() -> float:
    """Wall time of one fixed pure-Python loop: the host's speed right now.

    The loop does integer arithmetic and small dict stores, as the program
    does, and never changes, so its time moves only with the host."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(REF_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


class HostClock:
    """Samples the host's speed while a pass runs.

    A SIGALRM interval timer runs one reference loop every SAMPLE_INTERVAL
    seconds, between two bytecodes of whatever is running.  ``seconds()`` is
    the wall time between two clock readings less the loops run in between,
    and ``ref()`` the mean loop time around them.  The loops draw no random
    numbers, so the program computes what it computes without them.  With
    ``sampling=False`` (traced passes, whose spans would absorb the loops)
    no loop runs and ``ref()`` is NaN.
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each loop
        self._busy = False
        self._previous = None

    def __enter__(self):
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sample()  # so that the last call has a loop after it
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, *_):
        if self._busy:  # a tick that arrives during a loop is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, reference_seconds()))
        self._busy = False

    def seconds(self, start: float, end: float) -> float:
        return end - start - sum(loop for at, loop in self.samples if start <= at < end)

    def ref(self, start: float, end: float) -> float:
        """Call once the pass has ended, so that the loops after the call exist."""
        if not self.sampling:
            return math.nan
        pad = max(SAMPLE_INTERVAL, (REF_WINDOW - (end - start)) / 2)
        return statistics.mean(loop for at, loop in self.samples if start - pad <= at <= end + pad)


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result printed)."""


def import_locaray():
    if not os.path.isfile(os.path.join(SRC, "locaray", "__init__.py")):
        raise BenchError(f"no locaray sources under {SRC}; run from the root of a locaray checkout")
    sys.path.insert(0, SRC)
    import locaray

    return locaray


@dataclass
class Inputs:
    model: object
    order: tuple[int, ...]  # construct seeds, rotated by the workload seed
    seed: int


def plant(rng: random.Random, array, t: int, locaray):
    """A fault interaction read off one row of the array, so some row covers it."""
    row = array.rows[rng.randrange(array.m)]
    factors = sorted(rng.sample(range(array.model.k), t))
    planted = locaray.Interaction(tuple((j, row[j]) for j in factors))
    return planted, locaray.rho(array, planted)


def make_inputs(workload: Workload, seed: int, locaray) -> Inputs:
    model = locaray.parse_model(workload.spec)
    shift = seed % len(workload.seeds)
    order = workload.seeds[shift:] + workload.seeds[:shift]
    return Inputs(model, order, seed)


def random_audits(inputs: Inputs, workload: Workload, number: int, locaray) -> list[list[tuple]]:
    """Per construct, the random arrays that pass ``number`` audits before it,
    each with its planted faults: [[(array, [(planted, failing rows)])]].
    They are drawn from the workload seed and the pass number, so each pass
    audits fresh arrays and a run's median covers many."""
    rng = random.Random(f"{inputs.seed}:pass {number}")
    model = inputs.model
    groups = []
    for _ in inputs.order:
        group = []
        for _ in range(workload.random_audits):
            rows = [[rng.randrange(v) for v in model.values] for _ in range(workload.audit_rows)]
            array = locaray.TestArray(model, rows)
            group.append((array, [plant(rng, array, workload.t, locaray) for _ in range(LOCATE_QUERIES)]))
        groups.append(group)
    return groups


# Times below are HostClock.seconds(): wall time less the reference loops.
@dataclass
class Construct:
    result: object  # SearchResult
    seconds: float
    time_to_best: float
    window: tuple[float, float]  # clock readings around the call
    best_window: tuple[float, float]  # from the start of the call until the best array
    ref: float = math.nan  # mean reference loop around the call, in seconds
    best_ref: float = math.nan  # the same, around best_window


@dataclass
class Audit:
    array: object
    found: bool  # built by construct, so it must be locating
    report: object
    verify_s: float
    queries: list  # [(planted, failing, hits, seconds)]
    window: tuple[float, float]  # clock readings around the verify and locate calls
    ref: float = math.nan  # mean reference loop around them, in seconds


@dataclass
class Pass:
    traced: bool
    constructs: dict  # construct seed -> Construct
    audits: list


def audit(array, found: bool, queries, t: int, verify, host: HostClock) -> Audit:
    clock = time.perf_counter
    first = start = clock()
    report = verify.verify(array, t, max_collision_pairs=COLLISION_CAP)
    end = clock()
    verify_s = host.seconds(start, end)
    located = []
    for planted, failing in queries:
        start = clock()
        hits = verify.locate_fault(array, failing, t)
        end = clock()
        located.append((planted, failing, hits, host.seconds(start, end)))
    return Audit(array, found, report, verify_s, located, (first, end))


def run_pass(inputs: Inputs, workload: Workload, locaray, traced: bool, number: int) -> Pass:
    """One timed pass: each construct is preceded by the audits of random
    arrays and followed by the audit of its own, so that audit samples are
    spread over the whole run.  An untraced pass samples the host's speed
    throughout.  Modules are looked up per call so that trace wrappers apply."""
    search = sys.modules["locaray.search"]
    verify = sys.modules["locaray.verify"]
    clock = time.perf_counter
    constructs = {}
    audits = []
    with HostClock(sampling=not traced) as host:
        for s, group in zip(inputs.order, random_audits(inputs, workload, number, locaray)):
            for random_array, random_queries in group:
                audits.append(audit(random_array, False, random_queries, workload.t, verify, host))
            budget = locaray.SearchBudget(seed=s, timeout=workload.timeout)
            start = clock()
            result = search.construct(inputs.model, workload.t, locaray.AnnealParams(), budget)
            end = clock()
            # time_to_best is counted from about `start`, loops included
            best = start + (result.time_to_best or 0.0)
            constructs[s] = Construct(
                result, host.seconds(start, end), host.seconds(start, best), (start, end), (start, best)
            )
            if result.array is not None:
                rng = random.Random(f"{inputs.seed}:{s}")
                queries = [plant(rng, result.array, workload.t, locaray) for _ in range(LOCATE_QUERIES)]
                audits.append(audit(result.array, True, queries, workload.t, verify, host))
    for call in [*constructs.values(), *audits]:
        call.ref = host.ref(*call.window)
    for c in constructs.values():
        c.best_ref = host.ref(*c.best_window)
    return Pass(traced, constructs, audits)


class Gate:
    """Correctness checks, run outside every timed region; one count per operation."""

    def __init__(self, locaray, t: int):
        self.locaray = locaray
        self.t = t
        self.attempted = 0
        self.errors: list[str] = []
        self.first_arrays: dict[int, str] = {}

    def _op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.errors.append("; ".join(problems))

    def check(self, p: Pass) -> None:
        """Check one pass, then drop its reports so that memory does not grow with passes."""
        locaray = self.locaray
        cost = sys.modules["locaray.cost"]
        tag = "traced" if p.traced else "untraced"
        for s, c in p.constructs.items():
            result = c.result
            problems = []
            if result.array is None or result.timed_out:
                problems.append(f"construct seed {s} ({tag}): no array or timed out")
            else:
                text = locaray.format_array(result.array, self.t)
                if self.first_arrays.setdefault(s, text) != text:
                    problems.append(f"construct seed {s} ({tag}): array differs from the first pass")
            self._op(problems)
        for a in p.audits:
            what = "found" if a.found else "random"
            index = cost.build_index(a.array, self.t)
            problems = []
            if a.found and not a.report.is_locating_1bar:
                problems.append(f"{what} array of {a.array.m} rows is not locating")
            if len(a.report.uncovered) != index.uncovered_count:
                problems.append(f"{what} array: verify and build_index disagree on uncovered")
            if a.report.is_locating_1bar != index.is_locating():
                problems.append(f"{what} array: verify and build_index disagree on locating")
            self._op(problems)
            for planted, failing, hits, _ in a.queries:
                problems = []
                if planted not in hits:
                    problems.append(f"{what} array: planted {planted} not located")
                if any(locaray.rho(a.array, h) != failing for h in hits):
                    problems.append(f"{what} array: a hit's rows differ from the failing set")
                self._op(problems)
            a.report = None


def construct_totals(passes: list[Pass], in_refs: bool = True) -> tuple[float, float]:
    """Sum over construct seeds of each seed's median, over passes, of wall time
    and of time to best; in refs, or in seconds with ``in_refs=False``."""
    wall = ttb = 0.0
    for s in passes[0].constructs:
        runs = [p.constructs[s] for p in passes]
        wall += statistics.median(c.seconds / (c.ref if in_refs else 1.0) for c in runs)
        ttb += statistics.median(c.time_to_best / (c.best_ref if in_refs else 1.0) for c in runs)
    return wall, ttb


def setup_probe(args) -> float:
    """Time from starting a fresh process until its first call is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("setup probe did not exit") from None
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"setup probe failed with exit code {code}")
    return ready - start


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, dict]:
    wall, ttb = construct_totals(passes)
    results = [c.result for c in passes[0].constructs.values()]
    audits = [a for p in passes for a in p.audits]
    verify_refs = [a.verify_s / a.ref for a in audits]
    locate_refs = [q[3] / a.ref for a in audits for q in a.queries]
    refs = [c.ref for p in passes for c in p.constructs.values()] + [a.ref for a in audits]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "construct_ref": wall,
        "time_to_best_ref": ttb,
        "rows": statistics.mean(r.rows for r in results),
        "verify_ref": statistics.median(verify_refs),
        "locate_ref": statistics.median(locate_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_s, ttb_s = construct_totals(passes, in_refs=False)
    notes = {
        "passes": len(passes),
        "setup_s samples": len(setup_times),
        "verify_ref samples": len(verify_refs),
        "locate_ref samples": len(locate_refs),
        "reference loop ms, median": round(statistics.median(refs) * 1000, 2),
        "construct_s, wall": round(wall_s, 4),
        "time_to_best_s, wall": round(ttb_s, 4),
        "verify_s, wall median": round(statistics.median(a.verify_s for a in audits), 5),
        "locate_s, wall median": round(statistics.median(q[3] for a in audits for q in a.queries), 5),
    }
    return metrics, notes


def search_metrics(passes: list[Pass]) -> dict:
    """Probe statistics from SearchResult.history, per pass, median over passes."""
    per_pass = []
    for p in passes:
        results = [c.result for c in p.constructs.values()]
        probes = [rec for r in results for rec in r.history]
        failed = [rec for rec in probes if not rec.success]
        firsts = [
            next(i for i, rec in enumerate(r.history, start=1) if rec.success)
            for r in results
        ]
        failed_s = sum(rec.elapsed for rec in failed)
        per_pass.append({
            "search.probes": len(probes),
            "search.probes_failed": len(failed),
            "search.probe_success_ratio": (len(probes) - len(failed)) / len(probes),
            "search.probes_to_first_success": statistics.mean(firsts),
            "search.failed_probe_s": failed_s,
            "search.failed_probe_share": failed_s / sum(rec.elapsed for rec in probes),
        })
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}


def index_bytes_per_interaction(passes: list[Pass], t: int, locaray) -> float:
    """Median tracemalloc footprint of one build_index per construct instance."""
    cost = sys.modules["locaray.cost"]
    samples = []
    for c in passes[0].constructs.values():
        tracemalloc.start()
        try:
            index = cost.build_index(c.result.array, t)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        samples.append(size / locaray.interaction_count(c.result.array.model, t))
        del index
    return statistics.median(samples)


def per_layer(untraced: list[Pass], traced: list[Pass], tracers: list, t: int, locaray) -> tuple[dict, dict]:
    layers = [tr.layer_metrics() for tr in tracers]
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    # computed, not counted by the program: each verify call scans |I_t| x m
    row_checks = [
        sum(locaray.interaction_count(a.array.model, t) * a.array.m for a in p.audits) for p in traced
    ]
    metrics["verify.row_checks"] = statistics.median(row_checks)
    metrics["verify.row_checks_per_s"] = metrics["verify.row_checks"] / metrics["verify.verify.s"]
    metrics.update(search_metrics(untraced))
    metrics["cost.index_bytes_per_interaction"] = index_bytes_per_interaction(untraced, t, locaray)
    # traced passes sample no host speed, so the ratio is of seconds
    metrics["trace.overhead_ratio"] = (
        construct_totals(traced, in_refs=False)[0] / construct_totals(untraced, in_refs=False)[0]
    )
    assumed = getattr(sys.modules["locaray.cost"], "_BYTES_PER_INTERACTION", None)
    notes = {
        "traced passes": len(traced),
        "cost._BYTES_PER_INTERACTION (assumed)": assumed,
        "verify.row_checks": "computed as |I_t| x m per verify call",
    }
    return metrics, notes


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(workload_name: str, values: dict, notes: dict, declared: list[dict], gate: Gate) -> dict:
    failed = len(gate.errors)
    if failed:
        declared = []  # no figures from a run whose outputs are wrong
    names = {d["name"] for d in declared}
    if names != set(values):
        raise BenchError(f"metrics {sorted(names ^ set(values))} are not both declared and measured")
    print(f"# {workload_name}")
    for d in declared:
        print(f"{d['name']:<36} {values[d['name']]:>16.6f} {d['unit']}")
    for key, value in notes.items():
        print(f"  ({key}: {value})")
    print(f"  (failed_ratio: {failed}/{gate.attempted} = {failed / gate.attempted:.4f})")
    for err in gate.errors:
        print(f"  FAILED: {err}")
    return {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }


def run(args) -> int:
    table = SMOKE if args.smoke else WORKLOADS
    workload = table[args.workload]
    locaray = import_locaray()
    inputs = make_inputs(workload, args.seed, locaray)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    declared = declared_metrics(args.trace)
    gate = Gate(locaray, workload.t)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracers = []
    setup_times: list[float] = []
    started = time.perf_counter()
    while True:
        if not args.trace:
            # one probe per pass spreads the probes over the whole run
            setup_times.append(setup_probe(args))
        p = run_pass(inputs, workload, locaray, traced=False, number=len(untraced))
        gate.check(p)
        untraced.append(p)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                p = run_pass(inputs, workload, locaray, traced=True, number=len(untraced) - 1)
            gate.check(p)
            traced.append(p)
            tracers.append(tracer)
        elapsed = time.perf_counter() - started
        if gate.errors or elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    if gate.errors:
        values, notes = {}, {}
    elif args.trace:
        values, notes = per_layer(untraced, traced, tracers, workload.t, locaray)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{args.workload}.spans.jsonl")
        with open(path, "w") as fh:
            for n, tracer in enumerate(tracers):
                tracer.write_jsonl(fh, n)
        notes["spans"] = os.path.relpath(path, ROOT)
    else:
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args))
        values, notes = end_to_end(untraced, setup_times)
    result = report(args.workload, values, notes, declared, gate)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny models, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
