"""Size bounds, the outer size search, and restarts of the construction driver.

``construct`` runs simulated annealing again and again at varying sizes, in
one loop.  Each pass picks the next size by one of three rules:

- while the range [low, high] is not empty, probe its midpoint; a success
  moves ``high`` below the found size, a failure moves ``low`` past it;
- when the range is empty and nothing has been found, the heuristic upper
  bound was too small: double it and raise only ``high``, so the search
  resumes at ``low``, above every size the failed pass ruled out, instead
  of probing [floor, ceiling] again;
- when the range is empty and an array has been found, probe one row fewer
  than the best array, stopping after ``max_retries`` failures in a row or
  below the lower bound.

A wall-clock timeout ends the search; the smallest array found so far is
the result.  ``construct_runs`` runs independent restarts, in this process
or in a process pool.
"""

import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from random import Random

from .anneal import AnnealParams, sa_run
from .model import SutModel, TestArray


def derive_seed(root: int, label: str) -> int:
    """Deterministic 64-bit child seed for a labeled subtask of a root seed."""
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def tang_lower_bound(k: int, t: int, v: int) -> int:
    """Closed-form lower bound (Tang/Colbourn/Yin) on locating-array size.

    For a uniform model of k factors with v values each and strength t:

        min( ceil(2*C*v^t / (1+C)),
             ceil(-3/2 - C + sqrt(C^2 + (3+6*v^t)*C + 9/4)) )

    with C = C(k, t).  Evaluated in exact integer arithmetic: the second
    branch is ceil((sqrt(D) - (2C+3)) / 2) with D = 4C^2 + (12+24*v^t)C + 9,
    found as the least integer z with 2z + 2C + 3 >= sqrt(D).
    """
    if not 1 <= t <= k:
        raise ValueError(f"strength {t} out of range for k={k}")
    if v < 2:
        raise ValueError("domain size must be at least 2")
    c = math.comb(k, t)
    w = v**t
    first = -((-2 * c * w) // (1 + c))  # exact ceiling division
    d = 4 * c * c + (12 + 24 * w) * c + 9
    shift = 2 * c + 3
    z = (math.isqrt(d) - shift) // 2
    while not (2 * z + shift >= 0 and (2 * z + shift) ** 2 >= d):
        z += 1
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


def construct(
    model: SutModel,
    t: int,
    params: AnnealParams | None = None,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Construct a small locating array for ``model`` at strength ``t``.

    Deterministic for a fixed budget seed in this single-process form,
    provided the timeout never fires.
    """
    params = params or AnnealParams()
    budget = budget or SearchBudget()
    started = time.monotonic()
    deadline = started + budget.timeout
    history: list[ProbeRecord] = []

    floor, ceiling = initial_bounds(model, t)
    low, high = floor, ceiling
    best: TestArray | None = None
    best_at: float | None = None
    failures = 0  # consecutive failures one row below the best array
    timed_out = False

    while True:
        bisecting = low <= high
        if bisecting:
            size = (low + high) // 2
        elif best is None:
            # the failed pass left low at the old ceiling + 1 (or at floor if
            # the range started empty) and ruled out every size below it, so
            # bisecting from floor again would only repeat failures
            ceiling *= 2
            high = ceiling
            continue
        else:
            size = best.m - 1
            if failures >= budget.max_retries or size < floor:
                break
        if time.monotonic() >= deadline:
            timed_out = True
            break
        probe_start = time.monotonic()
        # one record per probe, so probe n runs on child seed "sa:n"
        rng = Random(derive_seed(budget.seed, f"sa:{len(history)}"))
        found = sa_run(model, t, size, params, rng, deadline)
        history.append(ProbeRecord(size, found is not None, time.monotonic() - probe_start))
        if found is not None:
            best, best_at = found, time.monotonic() - started
            high = size - 1  # while shrinking, low is above it: the range stays empty
            failures = 0
        elif time.monotonic() >= deadline:
            timed_out = True  # the failure says nothing about the size
            break
        elif bisecting:
            low = size + 1
        else:
            failures += 1

    return SearchResult(
        array=best,
        rows=best.m if best is not None else None,
        history=history,
        timed_out=timed_out,
        elapsed=time.monotonic() - started,
        time_to_best=best_at,
    )


def construct_runs(
    model: SutModel,
    t: int,
    params: AnnealParams,
    budgets: list[SearchBudget],
    workers: int,
) -> list[SearchResult]:
    """One ``construct`` per budget, results in budget order.

    Runs in this process when ``workers <= 1``, otherwise in
    min(workers, cpu count, number of budgets) processes.  Every budget runs
    whatever the pool size, so a capped pool changes only the wall time,
    never the results.
    """
    if workers <= 1 or not budgets:
        return [construct(model, t, params, budget) for budget in budgets]
    with _process_pool(min(workers, os.cpu_count() or 1, len(budgets))) as pool:
        return list(pool.map(partial(construct, model, t, params), budgets))


def _process_pool(max_workers: int):
    # imported here, so that importing locaray loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def parallel_construct(
    model: SutModel,
    t: int,
    params: AnnealParams | None = None,
    budget: SearchBudget | None = None,
    workers: int = 1,
) -> SearchResult:
    """``workers`` independent restarts, run in at most cpu-count processes;
    smallest verified-size result wins, ties broken toward the lowest worker
    index.  Worker i runs a normal construct with child seed
    derive_seed(seed, "worker:i")."""
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
