import math
import os
import random
import subprocess
import sys
import time

import pytest

import locaray
from locaray import (
    AnnealParams,
    SearchBudget,
    SutModel,
    TestArray,
    construct,
    parse_model,
    tang_lower_bound,
    verify,
)
from locaray import search as search_module
from locaray.search import SearchState, derive_seed, initial_bounds, next_probe


# --- the size lower bound -----------------------------------------------------


@pytest.mark.parametrize(
    "k,t,v,expected",
    [
        (3, 2, 2, 6),   # both branches give 6
        (4, 2, 2, 7),   # ceil(48/7) = 7
        (2, 2, 2, 3),   # second branch wins: ceil(-2.5 + sqrt(30.25)) = 3
        (3, 2, 3, 9),
        (4, 2, 4, 18),
        (18, 2, 2, 8),
        (18, 2, 5, 50),
    ],
)
def test_bound_values(k, t, v, expected):
    assert tang_lower_bound(k, t, v) == expected


def test_bound_second_branch_is_exact_ceiling():
    # the bound must equal min(first branch, z) where z is the least integer
    # with 2z + 2C + 3 >= sqrt(D); checked against a predicate-only search
    rng = random.Random(1)

    def holds(z, shift, d):
        return 2 * z + shift >= 0 and (2 * z + shift) ** 2 >= d

    for _ in range(300):
        k = rng.randint(1, 60)
        t = rng.randint(1, k)
        v = rng.randint(2, 9)
        c = math.comb(k, t)
        w = v**t
        d = 4 * c * c + (12 + 24 * w) * c + 9
        shift = 2 * c + 3
        first = -((-2 * c * w) // (1 + c))
        second = (math.isqrt(d) - shift) // 2 - 3  # safe underestimate
        while not holds(second, shift, d):
            second += 1
        assert not holds(second - 1, shift, d)
        assert tang_lower_bound(k, t, v) == min(first, second)


def test_bound_handles_huge_instances_exactly():
    # exact integer arithmetic, no floating-point ceiling artifacts
    value = tang_lower_bound(500, 3, 6)
    assert isinstance(value, int)
    assert value > 0


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tang_lower_bound(3, 0, 2)
    with pytest.raises(ValueError):
        tang_lower_bound(3, 4, 2)
    with pytest.raises(ValueError):
        tang_lower_bound(3, 2, 1)


def test_initial_bounds_three_binary_factors():
    assert initial_bounds(SutModel((2, 2, 2)), 2) == (6, 9)


def test_initial_bounds_printer_model():
    assert initial_bounds(SutModel((2, 2, 2, 3)), 2) == (7, 18)


def test_initial_bounds_uniform_model():
    model = SutModel((3, 3, 3, 3))
    low, high = initial_bounds(model, 2)
    assert low == tang_lower_bound(4, 2, 3)
    assert high == tang_lower_bound(4, 2, 4)


# --- the probe loop (with a stubbed annealing run) ------------------------------


def make_stub(succeeds, calls):
    def stub(model, t, m, params, rng, deadline=None):
        calls.append(m)
        return TestArray(model, [[0, 0]] * m) if succeeds(m) else None

    return stub


class FakeClock:
    """Stands in for the ``time`` module: the clock moves only when a probe runs."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def run_scripted(monkeypatch, bounds, succeeds, max_retries=3, timeout=60.0):
    """construct over a stubbed sa_run that takes one fake second per probe;
    ``succeeds(m, n)`` decides the n-th probe (1-based) at size m."""
    clock = FakeClock()
    calls = []

    def stub(model, t, m, params, rng, deadline=None):
        clock.now += 1.0
        calls.append(m)
        return TestArray(model, [[0, 0]] * m) if succeeds(m, len(calls)) else None

    monkeypatch.setattr(search_module, "time", clock)
    monkeypatch.setattr(search_module, "sa_run", stub)
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: bounds)
    budget = SearchBudget(max_retries=max_retries, timeout=timeout, seed=0)
    return construct(SutModel((2, 2)), 2, budget=budget)


# Probe sequences of the probe loop: sizes, outcomes, result.  All but the
# two widen cases were recorded from the three-loop driver (binary search,
# doubling, shrink) that the loop replaced; those two were re-recorded when
# widening began to resume above the failed ceiling, not at the floor.
PROBE_LOCK = {
    "bisect": dict(
        bounds=(1, 31), succeeds=lambda m, n: m >= 13,
        history=[(16, 1), (8, 0), (12, 0), (14, 1), (13, 1), (12, 0), (12, 0), (12, 0)],
        rows=13, timed_out=False,
    ),
    "widen-once": dict(
        bounds=(3, 5), succeeds=lambda m, n: m >= 8,
        history=[(4, 0), (5, 0), (8, 1), (6, 0), (7, 0), (7, 0), (7, 0), (7, 0)],
        rows=8, timed_out=False,
    ),
    "widen-twice": dict(
        bounds=(3, 5), succeeds=lambda m, n: m >= 20,
        history=[(4, 0), (5, 0), (8, 0), (9, 0), (10, 0), (15, 0), (18, 0), (19, 0), (20, 1),
                 (19, 0), (19, 0), (19, 0)],
        rows=20, timed_out=False,
    ),
    "empty-range": dict(
        bounds=(9, 5), succeeds=lambda m, n: m >= 10,
        history=[(9, 0), (10, 1), (9, 0), (9, 0), (9, 0)],
        rows=10, timed_out=False,
    ),
    "empty-range-success-at-floor": dict(
        bounds=(9, 5), succeeds=lambda m, n: True,
        history=[(9, 1)],
        rows=9, timed_out=False,
    ),
    "retries-1": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 8, max_retries=1,
        history=[(8, 1), (4, 0), (6, 0), (7, 0), (7, 0)],
        rows=8, timed_out=False,
    ),
    "retries-3": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 8, max_retries=3,
        history=[(8, 1), (4, 0), (6, 0), (7, 0), (7, 0), (7, 0), (7, 0)],
        rows=8, timed_out=False,
    ),
    "shrink-success-resets-failures": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 8 or n == 6, max_retries=2,
        history=[(8, 1), (4, 0), (6, 0), (7, 0), (7, 0), (7, 1), (6, 0), (6, 0)],
        rows=7, timed_out=False,
    ),
    "shrink-stops-at-floor": dict(
        bounds=(3, 9), succeeds=lambda m, n: True,
        history=[(6, 1), (4, 1), (3, 1)],
        rows=3, timed_out=False,
    ),
    "deadline-bisecting-no-best": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 14, timeout=1.5,
        history=[(8, 0), (12, 0)],
        rows=None, timed_out=True,
    ),
    "deadline-widening-no-best": dict(
        bounds=(3, 5), succeeds=lambda m, n: m >= 20, timeout=2.0,
        history=[(4, 0), (5, 0)],
        rows=None, timed_out=True,
    ),
    "deadline-bisecting-with-best": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 8, timeout=2.5,
        history=[(8, 1), (4, 0), (6, 0)],
        rows=8, timed_out=True,
    ),
    "deadline-after-success-while-bisecting": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 4, timeout=2.0,
        history=[(8, 1), (4, 1)],
        rows=4, timed_out=True,
    ),
    "deadline-after-last-success-at-floor": dict(
        bounds=(3, 9), succeeds=lambda m, n: True, timeout=2.5,
        history=[(6, 1), (4, 1), (3, 1)],
        rows=3, timed_out=False,
    ),
    "deadline-shrinking": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 8, timeout=5.5,
        history=[(8, 1), (4, 0), (6, 0), (7, 0), (7, 0), (7, 0)],
        rows=8, timed_out=True,
    ),
    "deadline-after-success-while-shrinking": dict(
        bounds=(1, 15), succeeds=lambda m, n: m >= 8 or n == 5, timeout=5.0,
        history=[(8, 1), (4, 0), (6, 0), (7, 0), (7, 1)],
        rows=7, timed_out=True,
    ),
}


@pytest.mark.parametrize("case", list(PROBE_LOCK), ids=list(PROBE_LOCK))
def test_construct_probe_sequence_is_locked(monkeypatch, case):
    spec = dict(PROBE_LOCK[case])
    history, rows, timed_out = spec.pop("history"), spec.pop("rows"), spec.pop("timed_out")
    result = run_scripted(monkeypatch, **spec)
    assert [(rec.rows, int(rec.success)) for rec in result.history] == history
    assert result.rows == rows
    assert result.timed_out is timed_out


def drive(bounds, succeeds, max_retries=3):
    """``next_probe`` alone, with no clock, model or RNG: the (size, success)
    pairs it asks for and the best size, for ``succeeds`` as in run_scripted."""
    state, size, found, history = SearchState(*bounds), None, False, []
    while True:
        state, size = next_probe(state, size, found, bounds[0], max_retries)
        if size is None:
            return history, state.best
        found = succeeds(size, len(history) + 1)
        history.append((size, int(found)))


def test_next_probe_alone_gives_the_probe_sequences(monkeypatch):
    for case, spec in PROBE_LOCK.items():
        if not case.startswith("deadline-"):
            replay = drive(spec["bounds"], spec["succeeds"], spec.get("max_retries", 3))
            assert replay == (spec["history"], spec["rows"]), case
    rng = random.Random(9)
    for _ in range(300):
        bounds, max_retries = (rng.randint(1, 30), rng.randint(1, 40)), rng.randint(1, 4)
        threshold, odds, flips = rng.randint(1, 80), rng.random(), {}

        def succeeds(m, n):
            # below the threshold, a coin flipped once per probe index
            return m >= threshold or flips.setdefault(n, rng.random() < odds)

        history, best = drive(bounds, succeeds, max_retries)
        result = run_scripted(monkeypatch, bounds, succeeds, max_retries, timeout=math.inf)
        assert [(rec.rows, int(rec.success)) for rec in result.history] == history
        assert (result.rows, result.timed_out) == (best, False)
        # pure: the same state and outcome give the same answer
        args = (SearchState(*bounds, best, rng.randint(0, 4)), rng.randint(1, 80), rng.random() < 0.5, bounds[0], max_retries)
        assert next_probe(*args) == next_probe(*args)


def test_construct_never_probes_below_floor(monkeypatch):
    rng = random.Random(6)
    for _ in range(200):
        floor = rng.randint(1, 30)
        ceiling = rng.randint(floor - 1, 40)
        calls = []
        outcomes = {}

        def flaky(m):
            return outcomes.setdefault(m, rng.random() < 0.5)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "sa_run", make_stub(flaky, calls=calls))
            mp.setattr(search_module, "initial_bounds", lambda model, t: (floor, ceiling))
            budget = SearchBudget(max_retries=rng.randint(1, 4), timeout=60, seed=0)
            result = construct(SutModel((2, 2)), 2, budget=budget)
        assert calls and all(m >= floor for m in calls)
        # the range widens past the ceiling only after a pass found nothing
        above = [i for i, m in enumerate(calls) if m > ceiling]
        if above:
            assert not any(outcomes[m] for m in calls[: above[0]])
        # outcomes are fixed per size, so only the shrink's retries one row
        # below the best array may probe a size again
        assert all(m == result.rows - 1 for m in calls if calls.count(m) > 1)


def test_construct_time_to_best_is_when_the_best_array_was_found(monkeypatch):
    # probes 8 ok, 4 6 7 fail, then 7 fails three times; one fake second each
    result = run_scripted(monkeypatch, (1, 15), lambda m, n: m >= 8)
    assert [rec.rows for rec in result.history] == [8, 4, 6, 7, 7, 7, 7]
    assert result.time_to_best == 1.0
    assert result.elapsed == 7.0


# --- real constructs, seeds and budgets -------------------------------------------


def test_construct_timeout_with_no_array(monkeypatch):
    def never(model, t, m, params, rng, deadline=None):
        time.sleep(0.02)
        return None

    monkeypatch.setattr(search_module, "sa_run", never)
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 64))
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=0.1, seed=0))
    assert result.array is None
    assert result.rows is None
    assert result.timed_out


def test_construct_real_three_binary_factors():
    result = construct(SutModel((2, 2, 2)), 2, budget=SearchBudget(timeout=60, seed=11))
    assert result.rows == 6
    assert verify(result.array, 2).is_locating_1bar
    assert result.time_to_best is not None and result.time_to_best <= result.elapsed
    assert result.rows >= tang_lower_bound(3, 2, 2)


def test_construct_deterministic_for_fixed_seed():
    model = parse_model("2^5")
    a = construct(model, 2, budget=SearchBudget(timeout=60, seed=123))
    b = construct(model, 2, budget=SearchBudget(timeout=60, seed=123))
    assert a.rows == b.rows
    assert a.array.rows == b.array.rows
    assert [(r.rows, r.success) for r in a.history] == [(r.rows, r.success) for r in b.history]


def test_seed_derivation_is_stable_and_distinct():
    assert derive_seed(1, "sa:0") == derive_seed(1, "sa:0")
    assert derive_seed(1, "sa:0") != derive_seed(1, "sa:1")
    assert derive_seed(1, "sa:0") != derive_seed(2, "sa:0")


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_retries=0)
    with pytest.raises(ValueError):
        SearchBudget(timeout=0)
    with pytest.raises(ValueError):
        SearchBudget(timeout=float("nan"))
    assert SearchBudget(timeout=float("inf")).timeout == float("inf")  # no deadline


# --- parallel restarts ----------------------------------------------------------


def test_parallel_construct_raises_a_workers_capacity_error(monkeypatch):
    # each of two real worker processes refuses the catalog; the parent
    # must get the CapacityError back, not a broken pool
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(locaray.CapacityError) as exc_info:
        locaray.parallel_construct(parse_model("2^4"), 2, budget=SearchBudget(timeout=60), workers=2)
    assert (exc_info.value.n_interactions, exc_info.value.budget_mb) == (24, 0)


def test_parallel_construct_caps_pool_at_cpu_count_and_keeps_results(inline_pools, monkeypatch):
    model = parse_model("2^3")
    budget = SearchBudget(timeout=60, seed=4)
    capped = search_module.parallel_construct(model, 2, AnnealParams(), budget, workers=5)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 8)
    uncapped = search_module.parallel_construct(model, 2, AnnealParams(), budget, workers=5)
    assert [pool.max_workers for pool in inline_pools] == [2, 5]
    assert [len(pool.jobs) for pool in inline_pools] == [5, 5]
    assert capped.array == uncapped.array
    assert [(r.rows, r.success) for r in capped.history] == [(r.rows, r.success) for r in uncapped.history]


def test_parallel_construct_reports_a_losing_workers_timeout(inline_pools, monkeypatch):
    model = SutModel((2, 2))
    budget = SearchBudget(timeout=60, seed=4)
    winner_seed = derive_seed(4, "worker:0")

    def restart(model_arg, t, params, wbudget):
        # worker 0 finishes with 4 rows; worker 1 runs out of time with 5
        if wbudget.seed == winner_seed:
            return search_module.SearchResult(TestArray(model, [[0, 0]] * 4), 4, timed_out=False)
        return search_module.SearchResult(TestArray(model, [[0, 0]] * 5), 5, timed_out=True)

    monkeypatch.setattr(search_module, "construct", restart)
    result = search_module.parallel_construct(model, 2, AnnealParams(), budget, workers=2)
    assert result.rows == 4
    assert result.timed_out


def test_construct_runs_returns_one_result_per_budget_in_order(inline_pools):
    model = parse_model("2^3")
    budgets = [SearchBudget(timeout=60, seed=seed) for seed in (5, 1, 3)]
    serial = search_module.construct_runs(model, 2, AnnealParams(), budgets, workers=1)
    assert inline_pools == []  # one worker runs in this process
    pooled = search_module.construct_runs(model, 2, AnnealParams(), budgets, workers=3)
    assert [pool.jobs for pool in inline_pools] == [budgets]
    for budget, a, b in zip(budgets, serial, pooled):
        alone = construct(model, 2, AnnealParams(), budget)
        assert a.array == b.array == alone.array
        assert [(r.rows, r.success) for r in a.history] == [(r.rows, r.success) for r in alone.history]


def test_construct_runs_forks_no_more_processes_than_budgets(inline_pools):
    model = parse_model("2^3")
    budget = SearchBudget(timeout=60, seed=5)
    (pooled,) = search_module.construct_runs(model, 2, AnnealParams(), [budget], workers=2)
    assert [pool.max_workers for pool in inline_pools] == [1]
    assert pooled.array == construct(model, 2, AnnealParams(), budget).array


def test_importing_locaray_loads_no_process_pool():
    # loading the pool modules slows every start of the CLI; only a pool needs them
    src = os.path.dirname(os.path.dirname(locaray.__file__))
    code = "import sys, locaray; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
