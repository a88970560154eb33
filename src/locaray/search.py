"""Size bounds, the outer size search, and restarts of the construction driver.

``construct`` runs simulated annealing again and again at varying sizes, in
one loop that only runs probes: ``next_probe``, a pure function of the
search state and the last outcome, picks each size by the three rules its
docstring gives (bisect, widen, shrink).  A wall-clock timeout ends the
search; the smallest array found so far is the result.

Where two CPUs are free, ``construct`` runs the probe that comes next if
the running one fails in a forked child, on the seed the serial loop would
give it (speculative computation, Witte, Chamberlain & Franklin, IEEE TPDS
2(4), 1991): the same sizes, seeds and arrays, in less wall time.
``construct_runs`` runs independent restarts, in this process or in a
process pool.
"""

import marshal
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from random import Random
from typing import NamedTuple

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .anneal import AnnealParams, sa_run
from .model import CapacityError, SutModel, TestArray, check_capacity, enumerate_interactions


def derive_seed(root: int, label: str) -> int:
    """Deterministic 64-bit child seed for a labeled subtask of a root seed:
    the first 8 bytes, big-endian, of the SHA-256 of ``"root:label"``.

    SHA-256 comes from the interpreter's built-in module, as ``random``
    takes its SHA-512, because ``hashlib`` loads OpenSSL's libcrypto, about
    3.5 MB of resident memory in every process, for one short digest per
    probe; ``hashlib`` is the fallback when no built-in module is compiled
    in.  The digest is the same either way."""
    digest = sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def tang_lower_bound(k: int, t: int, v: int) -> int:
    """Closed-form lower bound (Tang/Colbourn/Yin) on locating-array size.

    For a uniform model of k factors with v values each and strength t:

        min( ceil(2*C*v^t / (1+C)),
             ceil(-3/2 - C + sqrt(C^2 + (3+6*v^t)*C + 9/4)) )

    with C = C(k, t).  Evaluated in exact integer arithmetic: the second
    branch is ceil((sqrt(D) - (2C+3)) / 2) with D = 4C^2 + (12+24*v^t)C + 9,
    the least integer z with 2z + 2C + 3 >= ceil(sqrt(D)) = 1 + isqrt(D - 1).
    """
    if not 1 <= t <= k:
        raise ValueError(f"strength must lie in 1..{k}")
    if v < 2:
        raise ValueError("domain size must be at least 2")
    c = math.comb(k, t)
    w = v**t
    first = -((-2 * c * w) // (1 + c))  # exact ceiling division
    d = 4 * c * c + (12 + 24 * w) * c + 9
    shift = 2 * c + 3
    z = -((shift - (1 + math.isqrt(d - 1))) // 2)  # exact ceiling division
    return min(first, z)


def initial_bounds(model: SutModel, t: int) -> tuple[int, int]:
    """Search range for the optimum size: bound at min(v_i) below, at
    max(v_i)+1 above.  The upper end is a heuristic and may undershoot;
    the driver recovers by widening."""
    lo = tang_lower_bound(model.k, t, min(model.values))
    hi = tang_lower_bound(model.k, t, max(model.values) + 1)
    return lo, hi


@dataclass
class ProbeRecord:
    """One annealing run inside a construction: size tried, outcome, wall time."""

    rows: int
    success: bool
    elapsed: float


@dataclass
class SearchBudget:
    """Driver knobs: consecutive-failure cap while shrinking, wall-clock timeout, root seed."""

    max_retries: int = 3
    timeout: float = 3600.0
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if not self.timeout > 0:  # NaN fails too; inf means no deadline
            raise ValueError("timeout must be positive")


@dataclass
class SearchResult:
    """Smallest array found (None if none), every probe, and the seconds
    from the start until the search ended (``elapsed``) and until the best
    array was found (``time_to_best``)."""

    array: TestArray | None
    rows: int | None
    history: list[ProbeRecord] = field(default_factory=list)
    timed_out: bool = False
    elapsed: float = 0.0
    time_to_best: float | None = None


class SearchState(NamedTuple):
    """Where the size search stands: the open range [low, high], the rows of
    the smallest array found (None before the first success), and the
    consecutive failures one row below it."""

    low: int
    high: int
    best: int | None = None
    failures: int = 0


def next_probe(
    state: SearchState, size: int | None, found: bool, floor: int, max_retries: int
) -> tuple[SearchState, int | None]:
    """Apply the outcome of the probe at ``size`` (None before the first
    probe) and pick the next size, or None when the search is over.

    The search starts from ``SearchState(floor, high)`` with the bounds of
    ``initial_bounds``.  Each size follows one of three rules:

    - while the range [low, high] is not empty, probe its midpoint; a success
      moves ``high`` below the found size, a failure moves ``low`` past it;
    - when the range is empty and nothing has been found, the heuristic upper
      bound was too small: double ``high`` (no success has lowered it yet),
      so the search resumes at ``low``, above every size the failed pass
      ruled out, instead of probing from ``floor`` again (unbounded search,
      Bentley & Yao, IPL 5(3), 1976);
    - when the range is empty and an array has been found, probe one row
      fewer than the best array, stopping after ``max_retries`` failures in
      a row or below ``floor``.
    """
    low, high, best, failures = state
    if size is not None:
        if found:
            # while shrinking, low is above the new high: the range stays empty
            best, high, failures = size, size - 1, 0
        elif low <= high:
            low = size + 1
        else:
            failures += 1
    while low > high and best is None:
        high *= 2
    if low <= high:
        size = (low + high) // 2
    else:
        size = best - 1 if failures < max_retries and best > floor else None
    return SearchState(low, high, best, failures), size


def construct(
    model: SutModel,
    t: int,
    params: AnnealParams | None = None,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Construct a small locating array for ``model`` at strength ``t``,
    probing the sizes ``next_probe`` picks.

    Probe n runs on child seed ``sa:n``.  Where ``_speculates`` allows it,
    the probe that comes next if probe n fails starts in a forked child
    just before probe n runs here; it is recorded as probe n+1 if probe n
    fails, and killed if probe n succeeds or the search ends.  Deterministic
    for a fixed budget seed, with or without the child, provided the
    timeout never fires.
    """
    params = params or AnnealParams()
    budget = budget or SearchBudget()
    started = time.monotonic()
    deadline = started + budget.timeout
    history: list[ProbeRecord] = []

    def run(m: int, n: int) -> tuple[list[list[int]] | None, float]:
        # the outcome of probe n at size m, here or in a child: its rows, or None, and its time
        probe_start = time.monotonic()
        found = sa_run(model, t, m, params, Random(derive_seed(budget.seed, f"sa:{n}")), deadline)
        return (None if found is None else found.rows), time.monotonic() - probe_start

    floor, high = initial_bounds(model, t)
    state, size, rows = SearchState(floor, high), None, None
    best: TestArray | None = None
    best_at: float | None = None
    speculate = _speculates(model, t)
    if speculate:
        enumerate_interactions(model, t).partners  # built once, here, and inherited by every child
    child = None  # the probe that comes next if the one running here fails

    try:
        while True:
            state, size = next_probe(state, size, rows is not None, floor, budget.max_retries)
            if size is None or time.monotonic() >= deadline:
                break
            n = len(history)  # one record per probe
            # a child still running is probe n, since the last probe failed
            outcome = child.outcome() if child is not None else None
            child = None
            if outcome is None:
                # no child, or one that exited without its outcome: probe n runs here
                if speculate:
                    guess = next_probe(state, size, False, floor, budget.max_retries)[1]
                    if guess is not None:
                        try:
                            child = _ProbeChild(run, guess, n + 1)
                        except OSError:
                            pass  # no process to spare: that probe runs here, if it comes
                outcome = run(size, n)
                if outcome[0] is not None and child is not None:
                    child.close()  # a wrong guess
                    child = None
            rows, elapsed = outcome
            history.append(ProbeRecord(size, rows is not None, elapsed))
            if rows is not None:
                best, best_at = TestArray(model, rows), time.monotonic() - started
            elif time.monotonic() >= deadline:
                break  # the failure says nothing about the size
    finally:
        if child is not None:
            child.close()

    return SearchResult(
        array=best,
        rows=best.m if best is not None else None,
        history=history,
        timed_out=size is not None,  # the deadline cut the search with a size left to probe
        elapsed=time.monotonic() - started,
        time_to_best=best_at,
    )


# True in the workers of construct_runs' pool, which already fill the CPUs it may use
_in_pool = False


def _enter_pool() -> None:
    global _in_pool
    _in_pool = True


def _usable_cpus() -> int:
    # the affinity mask, where os has one: under `taskset -c 0` it holds 1 CPU, whatever the host has
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _speculates(model: SutModel, t: int) -> bool:
    """Whether ``construct`` may run a probe in a forked child: os has
    ``fork``, this process may use two CPUs, runs one thread (a child of a
    threaded process may inherit a lock that another thread held) and is
    no pool worker, and two probes fit the memory budget:
    ``check_capacity(model, t, probes=2)`` passes."""
    threading = sys.modules.get("threading")  # if not imported, no thread was started through it
    if _in_pool or not hasattr(os, "fork") or _usable_cpus() < 2 or (threading and threading.active_count() > 1):
        return False
    try:
        check_capacity(model, t, probes=2)
    except (ValueError, CapacityError):
        return False  # the first probe raises what it must, as it would without a child
    return True


class _ProbeChild:
    """``probe(*args)`` run in a forked child, which writes what it returns,
    marshalled, to a pipe and exits.  ``outcome()`` waits for that value,
    or None if the child exited without sending it; ``close()`` kills the
    child.  Either reaps the child and closes the pipe; ``close()`` may
    follow either, and does nothing then."""

    def __init__(self, probe, *args):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pipe.write(marshal.dumps(probe(*args)))
                code = 0
            finally:
                os._exit(code)  # runs none of the parent's cleanup, whatever was raised
        os.close(write)
        self.read = read

    def outcome(self):
        with open(self.read, "rb", closefd=False) as pipe:
            data = pipe.read()  # to the end: the child has closed its side
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self.close()
        return marshal.loads(data) if status == 0 else None

    def close(self) -> None:
        if self.pid is not None:
            from signal import SIGKILL  # imported here, as only a construct that forked needs it

            os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.read is not None:
            os.close(self.read)
            self.read = None


def construct_runs(
    model: SutModel,
    t: int,
    params: AnnealParams,
    budgets: list[SearchBudget],
    workers: int,
) -> list[SearchResult]:
    """One ``construct`` per budget, results in budget order.

    Runs in min(workers, CPUs this process may use, number of budgets)
    processes: in this process when that is 1 or less, where each construct
    may fork one child, otherwise in a pool whose workers fork none.
    Every budget runs whatever the pool size, so a capped pool changes only
    the wall time, never the results.  Raises what ``model.check_capacity``
    raises, from this process and before any pool starts.
    """
    check_capacity(model, t)
    size = min(workers, _usable_cpus(), len(budgets))
    if size <= 1:
        return [construct(model, t, params, budget) for budget in budgets]
    with _process_pool(size, _enter_pool) as pool:
        return list(pool.map(partial(construct, model, t, params), budgets))


def _process_pool(max_workers: int, initializer):
    # imported here, so that importing locaray loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers, initializer=initializer)


def parallel_construct(
    model: SutModel,
    t: int,
    params: AnnealParams | None = None,
    budget: SearchBudget | None = None,
    workers: int = 1,
) -> SearchResult:
    """``workers`` independent restarts, run in at most as many processes
    as there are CPUs this process may use; the result with the fewest rows
    wins, ties broken toward the lowest worker index.  Worker i runs a
    normal construct with child seed derive_seed(seed, "worker:i")."""
    params = params or AnnealParams()
    budget = budget or SearchBudget()
    if workers <= 1:
        return construct(model, t, params, budget)
    budgets = [replace(budget, seed=derive_seed(budget.seed, f"worker:{i}")) for i in range(workers)]
    results = construct_runs(model, t, params, budgets, workers)
    best = min(results, key=lambda res: res.rows if res.rows is not None else math.inf)
    return SearchResult(
        array=best.array,
        rows=best.rows,
        history=[rec for res in results for rec in res.history],
        timed_out=any(res.timed_out for res in results),
        elapsed=max(res.elapsed for res in results),
        time_to_best=best.time_to_best,
    )
