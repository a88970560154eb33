"""Size bounds, binary search over the row count, and the full construction driver.

Construction runs in two phases.  Phase 1 binary-searches the size range
seeded by the closed-form bound, rerunning the whole binary search (with a
doubled upper end) until some size succeeds.  Phase 2 then walks the size
down one row at a time, giving up after a fixed number of consecutive
failures.  A wall-clock timeout ends either phase; the smallest array found
so far is the result.
"""

import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from random import Random

from .anneal import AnnealParams, sa_run
from .model import SutModel, TestArray


def derive_seed(root: int, label: str) -> int:
    """Deterministic 64-bit child seed for a labeled subtask of a root seed."""
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SeedStream:
    """Counter-based child seeds so every annealing run is independently seeded."""

    def __init__(self, root: int):
        self.root = root
        self._counter = 0

    def next_rng(self) -> Random:
        seed = derive_seed(self.root, f"sa:{self._counter}")
        self._counter += 1
        return Random(seed)


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
    """Driver knobs: Phase-2 consecutive-failure cap, wall-clock timeout, root seed."""

    max_retries: int = 3
    timeout: float = 3600.0
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class SearchResult:
    array: TestArray | None
    rows: int | None
    history: list[ProbeRecord] = field(default_factory=list)
    timed_out: bool = False
    elapsed: float = 0.0
    time_to_best: float | None = None


def binary_search(
    low: int,
    high: int,
    model: SutModel,
    t: int,
    params: AnnealParams,
    seeds: SeedStream,
    deadline: float | None = None,
    history: list[ProbeRecord] | None = None,
) -> TestArray | None:
    """Binary search over the size range; smallest array found, or None.

    Each probe at size floor((low+high)/2) runs one annealing attempt; a
    success moves ``high`` below the found size, a failure raises ``low``
    past it.  A deadline stops probing and returns the best so far.
    """
    best = None
    while low <= high:
        if deadline is not None and time.monotonic() >= deadline:
            break
        size = (low + high) // 2
        started = time.monotonic()
        found = sa_run(model, t, size, params, seeds.next_rng(), deadline)
        if history is not None:
            history.append(ProbeRecord(size, found is not None, time.monotonic() - started))
        if found is not None:
            best = found
            high = size - 1
        else:
            if deadline is not None and time.monotonic() >= deadline:
                break  # failure caused by the deadline, not evidence about the size
            low = size + 1
    return best


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
    seeds = SeedStream(budget.seed)
    started = time.monotonic()
    deadline = started + budget.timeout
    history: list[ProbeRecord] = []

    low, high = initial_bounds(model, t)
    best: TestArray | None = None
    best_at: float | None = None
    timed_out = False

    # Phase 1: repeat the binary search until some size succeeds; a fully
    # failed pass means the heuristic upper bound was likely too small, so
    # double it before retrying.
    while best is None:
        if time.monotonic() >= deadline:
            timed_out = True
            break
        best = binary_search(low, high, model, t, params, seeds, deadline, history)
        if best is not None:
            best_at = time.monotonic() - started
        elif time.monotonic() < deadline:
            high *= 2

    # Phase 2: shrink one row at a time until max_retries consecutive
    # failures, never probing below the lower bound.
    if best is not None:
        failures = 0
        size = best.m - 1
        while failures < budget.max_retries and low <= size:
            if time.monotonic() >= deadline:
                timed_out = True
                break
            probe_start = time.monotonic()
            found = sa_run(model, t, size, params, seeds.next_rng(), deadline)
            history.append(ProbeRecord(size, found is not None, time.monotonic() - probe_start))
            if found is not None:
                best = found
                best_at = time.monotonic() - started
                failures = 0
                size -= 1
            elif time.monotonic() >= deadline:
                timed_out = True
                break
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


def pool_map(fn, jobs: list, workers: int) -> list:
    """``fn`` over every job in min(workers, cpu count) processes; results in job order.

    All jobs run whatever the pool size, so a capped pool changes only the
    wall time, never the results.
    """
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, jobs))


def _construct_worker(args) -> tuple[int, SearchResult]:
    index, model_values, t, params, budget = args
    result = construct(SutModel(model_values), t, params, budget)
    return index, result


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
    jobs = []
    for i in range(workers):
        wbudget = SearchBudget(
            max_retries=budget.max_retries,
            timeout=budget.timeout,
            seed=derive_seed(budget.seed, f"worker:{i}"),
        )
        jobs.append((i, model.values, t, params, wbudget))
    results: list[tuple[int, SearchResult]] = pool_map(_construct_worker, jobs, workers)
    _, best = min(
        results, key=lambda pair: (pair[1].rows if pair[1].rows is not None else math.inf, pair[0])
    )
    merged = SearchResult(
        array=best.array,
        rows=best.rows,
        history=[rec for _, res in results for rec in res.history],
        timed_out=best.timed_out,
        elapsed=max(res.elapsed for _, res in results),
        time_to_best=best.time_to_best,
    )
    return merged
