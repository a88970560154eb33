"""Size bounds, the outer size search, and restarts of the construction driver.

``construct`` runs simulated annealing again and again at varying sizes, in
one loop that only runs probes: ``next_probe``, a pure function of the
search state and the last outcome, picks each size by the three rules its
docstring gives (bisect, widen, shrink).  A wall-clock timeout ends the
search; the smallest array found so far is the result.  ``construct_runs``
runs independent restarts, in this process or in a process pool.
"""

import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from random import Random
from typing import NamedTuple

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
    the least integer z with 2z + 2C + 3 >= ceil(sqrt(D)) = 1 + isqrt(D - 1).
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

    Deterministic for a fixed budget seed in this single-process form,
    provided the timeout never fires.
    """
    params = params or AnnealParams()
    budget = budget or SearchBudget()
    started = time.monotonic()
    deadline = started + budget.timeout
    history: list[ProbeRecord] = []

    floor, high = initial_bounds(model, t)
    state, size, found = SearchState(floor, high), None, None
    best: TestArray | None = None
    best_at: float | None = None

    while True:
        state, size = next_probe(state, size, found is not None, floor, budget.max_retries)
        if size is None or time.monotonic() >= deadline:
            break
        probe_start = time.monotonic()
        # one record per probe, so probe n runs on child seed "sa:n"
        rng = Random(derive_seed(budget.seed, f"sa:{len(history)}"))
        found = sa_run(model, t, size, params, rng, deadline)
        history.append(ProbeRecord(size, found is not None, time.monotonic() - probe_start))
        if found is not None:
            best, best_at = found, time.monotonic() - started
        elif time.monotonic() >= deadline:
            break  # the failure says nothing about the size

    return SearchResult(
        array=best,
        rows=best.m if best is not None else None,
        history=history,
        timed_out=size is not None,  # the deadline cut the search with a size left to probe
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
