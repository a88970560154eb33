import math
import random
import time

import pytest

from locaray import (
    AnnealParams,
    SearchBudget,
    SutModel,
    TestArray,
    binary_search,
    construct,
    derive_seed,
    initial_bounds,
    parse_model,
    tang_lower_bound,
    verify,
)
from locaray import search as search_module
from locaray.search import SeedStream


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


# --- binary search (with a stubbed annealing run) --------------------------------


def make_stub(succeeds, model=SutModel((2, 2)), calls=None):
    def stub(model_arg, t, m, params, rng, deadline=None):
        if calls is not None:
            calls.append(m)
        if succeeds(m):
            return TestArray(model, [[0, 0]] * m)
        return None

    return stub


def test_binary_search_probe_sequence(monkeypatch):
    calls = []
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: m >= 8, calls=calls))
    result = binary_search(1, 15, SutModel((2, 2)), 2, AnnealParams(), SeedStream(0))
    assert calls == [8, 4, 6, 7]
    assert result is not None and result.m == 8


def test_binary_search_empty_range(monkeypatch):
    calls = []
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: True, calls=calls))
    assert binary_search(9, 5, SutModel((2, 2)), 2, AnnealParams(), SeedStream(0)) is None
    assert calls == []


def test_binary_search_probes_stay_within_range(monkeypatch):
    rng = random.Random(6)
    for _ in range(50):
        low = rng.randint(1, 30)
        high = rng.randint(low - 1, 40)
        calls = []
        outcomes = {}

        def flaky(m):
            return outcomes.setdefault(m, rng.random() < 0.5)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "sa_run", make_stub(flaky, calls=calls))
            binary_search(low, high, SutModel((2, 2)), 2, AnnealParams(), SeedStream(0))
        assert all(low <= m <= high for m in calls)


def test_binary_search_records_history(monkeypatch):
    history = []
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: m >= 8))
    binary_search(1, 15, SutModel((2, 2)), 2, AnnealParams(), SeedStream(0), history=history)
    assert [(rec.rows, rec.success) for rec in history] == [
        (8, True), (4, False), (6, False), (7, False),
    ]


# --- the two-phase driver ----------------------------------------------------------


def test_construct_with_stub_walks_phase2_down(monkeypatch):
    calls = []
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: m >= 8, calls=calls))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 15))
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=60, seed=0))
    # phase 1 probes 8,4,6,7; phase 2 then tries 7 three times and stops
    assert calls == [8, 4, 6, 7, 7, 7, 7]
    assert result.rows == 8
    assert not result.timed_out
    phase2 = calls[4:]
    assert all(m == 7 for m in phase2)


def test_construct_stub_phase2_decreases_until_low(monkeypatch):
    calls = []
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: True, calls=calls))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (3, 9))
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=60, seed=0))
    # every probe succeeds: binary search walks to the bottom, and phase 2
    # has nothing to try because 2 < low
    assert result.rows == 3
    assert calls == [6, 4, 3]
    assert min(calls) >= 3


def test_construct_escalates_too_small_upper_bound(monkeypatch):
    calls = []
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: m >= 20, calls=calls))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (3, 5))
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=60, seed=0))
    assert result.rows == 20
    assert max(calls) >= 20
    assert not result.timed_out


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


def test_construct_history_covers_all_probes(monkeypatch):
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: m >= 8))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 15))
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=60, seed=0))
    assert [rec.rows for rec in result.history] == [8, 4, 6, 7, 7, 7, 7]
    assert [rec.success for rec in result.history] == [True, False, False, False, False, False, False]


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
    stream = SeedStream(9)
    first = stream.next_rng().random()
    second = stream.next_rng().random()
    assert first != second


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_retries=0)
    with pytest.raises(ValueError):
        SearchBudget(timeout=0)


# --- parallel restarts ----------------------------------------------------------


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
