import hashlib
import math
import os
import random
import signal
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
from locaray.search import _path, derive_seed, initial_bounds
from tests.conftest import Turns


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


def one_cpu(monkeypatch):
    """This process may use one CPU, as under `taskset -c 0`: construct forks
    no child, so a stub sees every probe, in probe order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def run_scripted(monkeypatch, bounds, succeeds, max_retries=3, timeout=60.0):
    """construct over a stubbed sa_run that takes one fake second per probe;
    ``succeeds(m, n)`` decides the n-th probe (1-based) at size m.  Serial:
    a stub call made in a forked child would not count."""
    one_cpu(monkeypatch)
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
    """``_path`` alone, with no clock, model or RNG, filling its outcome
    table as it walks: the (size, success) pairs it asks for and the best
    size, for ``succeeds`` as in run_scripted."""
    known, history, best = {}, [], None
    for size, n in _path(known, *bounds, max_retries):
        found = succeeds(size, n + 1)
        known[size, n] = (size if found else None,)
        history.append((size, int(found)))
        best = size if found else best
    return history, best


def test_path_alone_gives_the_probe_sequences(monkeypatch):
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
            one_cpu(mp)  # the stub counts calls
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


# --- speculative probes -------------------------------------------------------------


class SeededRandom(random.Random):
    """A Random that keeps its seed, so a stub can tell which probe it runs."""

    def __init__(self, seed):
        super().__init__(seed)
        self.root = seed


PROBE_OF_SEED = {derive_seed(0, f"sa:{n}"): n for n in range(500)}


def run_keyed(monkeypatch, bounds, succeeds, max_retries=3, cpus=(0, 1), model=SutModel((2, 2)), seconds=lambda m, n: 1.0):
    """construct, with budget seed 0, over a stub whose outcome is
    ``succeeds(m, n)`` for size m and probe n (1-based), n read off the
    probe's seed, never off the order of calls, and which takes
    ``seconds(m, n)`` (default 1) on the clock of a fresh ``Turns``, which
    stands in for the child; serial with ``cpus=(0,)``.  Returns the
    result and the ``Turns``."""
    turns = Turns()
    turns.path = lambda known: search_module._path(known, *bounds, max_retries)

    def stub(model, t, m, params, rng, deadline=None):
        n = PROBE_OF_SEED[rng.root] + 1
        found = succeeds(m, n)
        turns.probe(m, n - 1, seconds(m, n), found)
        return TestArray(model, [[0] * model.k] * m) if found else None

    monkeypatch.setattr(search_module, "time", turns)
    monkeypatch.setattr(search_module, "_Peer", turns.spawn)
    monkeypatch.setattr(search_module, "Random", SeededRandom)
    monkeypatch.setattr(search_module, "sa_run", stub)
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: bounds)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    budget = SearchBudget(max_retries=max_retries, timeout=math.inf, seed=0)
    result = construct(model, 2, budget=budget)
    assert turns.errors == []
    return result, turns


def test_speculative_schedule_equals_the_serial_one(monkeypatch):
    scripts = [
        (spec["bounds"], spec["succeeds"], spec.get("max_retries", 3))
        for case, spec in PROBE_LOCK.items()
        if not case.startswith("deadline-")
    ]
    rng = random.Random(22)
    for _ in range(250):
        threshold, odds = rng.randint(1, 80), rng.random()
        flips = [rng.random() < odds for _ in range(len(PROBE_OF_SEED) + 1)]
        scripts.append((
            (rng.randint(1, 30), rng.randint(1, 40)),
            # below the threshold, a coin fixed per probe index
            lambda m, n, threshold=threshold, flips=flips: m >= threshold or flips[n],
            rng.randint(1, 4),
        ))
    by_child = waited = 0
    for bounds, succeeds, max_retries in scripts:
        times = {}  # whole seconds, fixed per (size, n), so ties occur

        def seconds(m, n):
            return times.setdefault((m, n), rng.randint(1, 6))

        serial, alone = run_keyed(monkeypatch, bounds, succeeds, max_retries, cpus=(0,), seconds=seconds)
        assert alone.spawned == 0
        result, turns = run_keyed(monkeypatch, bounds, succeeds, max_retries, seconds=seconds)
        assert turns.spawned == 1
        assert [(r.rows, r.success) for r in result.history] == [(r.rows, r.success) for r in serial.history]
        assert (result.rows, result.timed_out) == (serial.rows, serial.timed_out)
        # every probe of the path runs once, in one worker or the other
        ran = [(size, n) for _, size, n, _, _ in turns.probes]
        assert all(ran.count((rec.rows, n)) == 1 for n, rec in enumerate(serial.history))
        # a worker waits for its peer only when the path has no probe left that nobody holds
        assert turns.idle == [None] * len(turns.idle)
        by_child += sum(worker == "child" for worker, *_ in turns.probes)
        waited += len(turns.idle)
    assert by_child > len(scripts) and waited > 0


def test_the_catalog_and_partner_tables_are_built_before_the_first_child(monkeypatch):
    model = parse_model("2^6 3^3")
    warm, turns = [], Turns()

    def make(work):
        cached = locaray.model.enumerate_interactions.cache_info().currsize == 1
        warm.append(cached and "partners" in vars(locaray.model.enumerate_interactions(model, 2)))
        return turns.spawn(work)

    monkeypatch.setattr(search_module, "_Peer", make)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    locaray.model.enumerate_interactions.cache_clear()
    construct(model, 2, budget=SearchBudget(timeout=60, seed=1))
    assert warm and all(warm)


def test_a_child_is_forked_only_when_two_probes_fit_the_budget(monkeypatch):
    # 2^30 at t=2: 1740 interactions, 626,400 B at 360 B each; one probe
    # fits 1 MiB, two do not, and two fit 2 MiB
    model = parse_model("2^30")
    one = locaray.interaction_count(model, 2) * locaray.model._BYTES_PER_INTERACTION
    assert one <= 1 << 20 < 2 * one <= 2 << 20
    script = dict(bounds=(1, 31), succeeds=lambda m, n: m >= 13, model=model)
    for budget_mb, forks in (("1", 0), ("2", 1)):
        monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", budget_mb)
        result, turns = run_keyed(monkeypatch, **script)
        serial, _ = run_keyed(monkeypatch, cpus=(0,), **script)
        assert [(r.rows, r.success) for r in result.history] == [(r.rows, r.success) for r in serial.history]
        assert turns.spawned == forks


def test_a_refused_gate_forks_no_child(monkeypatch, turns):
    # _speculates says no, and the first probe's index build raises what the gate raises
    model = parse_model("2^4")
    for budget_mb, error in (("abc", ValueError), ("0", locaray.CapacityError)):
        monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", budget_mb)
        assert not search_module._speculates(model, 2)
        with pytest.raises(error) as exc_info:
            construct(model, 2, budget=SearchBudget(timeout=60, seed=1))
        assert "LOCARAY_MEM_BUDGET_MB" in str(exc_info.value)
        assert turns.spawned == 0


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture
def forked(monkeypatch):
    """The pid of the real child of ``construct`` once per probe this
    process claims while it has one, so a construct that forks once gives
    one pid however many probes it runs; this process may use 2 CPUs."""
    pids = []

    class Spy(search_module._Peer):
        def send(self, message):
            if self.pid is not None and len(message) == 3:  # a claim, sent by the parent
                pids.append(self.pid)
            super().send(message)

    monkeypatch.setattr(search_module, "_Peer", Spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def stub_in(parent_probe, child_probe):
    """An sa_run that calls ``parent_probe(m)`` in this process and
    ``child_probe(m)`` in a forked child; each returns whether m succeeds."""
    parent = os.getpid()

    def stub(model, t, m, params, rng, deadline=None):
        succeeds = parent_probe(m) if os.getpid() == parent else child_probe(m)
        return TestArray(model, [[0, 0]] * m) if succeeds else None

    return stub


def sleep_then_fail(m):
    time.sleep(60)
    return False


@needs_fork
def test_a_wrong_guess_is_killed_at_once(monkeypatch, forked):
    # the bisect case of the probe lock: the first probe, at 16, succeeds,
    # and the child, taking it as failed, runs 24 and sleeps; this process
    # runs every later probe beside it, and kills it when the path is complete
    def here(m):
        if m == 16:
            time.sleep(0.5)  # so the child claims 24 before it learns that 16 succeeded
        return m >= 13

    monkeypatch.setattr(search_module, "sa_run", stub_in(here, lambda m: sleep_then_fail(m) if m >= 20 else m >= 13))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 31))
    started = time.monotonic()
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=600, seed=0))
    assert time.monotonic() - started < 30
    assert [(rec.rows, int(rec.success)) for rec in result.history] == PROBE_LOCK["bisect"]["history"]
    assert len(forked) > 1
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_probe_that_raises_leaves_no_child(monkeypatch, forked, error):
    def raises(m):
        raise error("probe")

    monkeypatch.setattr(search_module, "sa_run", stub_in(raises, sleep_then_fail))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 31))
    started = time.monotonic()
    with pytest.raises(error):
        construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=600, seed=0))
    assert time.monotonic() - started < 30
    assert len(forked) == 1
    assert_no_child_left()


@needs_fork
def test_a_child_that_dies_is_run_here(monkeypatch, forked):
    def dies(m):
        os.kill(os.getpid(), signal.SIGKILL)

    calls = []

    def here(m):
        calls.append(m)
        return m >= 13

    monkeypatch.setattr(search_module, "sa_run", stub_in(here, dies))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 31))
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=600, seed=0))
    # the bisect case of the probe lock, every probe run here
    expected = PROBE_LOCK["bisect"]["history"]
    assert [(rec.rows, int(rec.success)) for rec in result.history] == expected
    assert calls == [m for m, _ in expected]
    assert result.rows == 13
    assert forked
    assert_no_child_left()


@needs_fork
def test_a_forked_construct_gives_the_serial_arrays(monkeypatch, forked):
    model = parse_model("2^6 3^3")
    budget = SearchBudget(timeout=600, seed=1)
    result = construct(model, 2, budget=budget)
    forks = len(forked)
    assert len(set(forked)) == 1  # one child ran beside every probe claimed here
    assert_no_child_left()
    one_cpu(monkeypatch)
    serial = construct(model, 2, budget=budget)
    assert len(forked) == forks
    assert locaray.format_array(result.array, 2) == locaray.format_array(serial.array, 2)
    assert [(r.rows, r.success) for r in result.history] == [(r.rows, r.success) for r in serial.history]


@needs_fork
def test_an_orphaned_child_exits_at_a_probe_boundary(monkeypatch):
    # the parent's ends of the pipes close during its first probe, as they
    # would if it were killed; the child's probes each take 50 ms and fail
    peers = []

    class Keep(search_module._Peer):
        def __init__(self, *args):
            super().__init__(*args)  # returns in the parent only
            peers.append(self)

    class Orphaned(Exception):
        pass

    def orphan(m):
        (peer,) = peers
        os.close(peer.read)
        os.close(peer.write)
        peer.read = peer.write = None
        deadline = time.monotonic() + 30
        while os.waitpid(peer.pid, os.WNOHANG) == (0, 0):
            assert time.monotonic() < deadline, "the orphaned child is still probing"
            time.sleep(0.01)
        peer.pid = None  # reaped here
        raise Orphaned

    monkeypatch.setattr(search_module, "_Peer", Keep)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(search_module, "sa_run", stub_in(orphan, lambda m: time.sleep(0.05)))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 31))
    with pytest.raises(Orphaned):
        construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=600, seed=0))
    assert_no_child_left()


def test_a_failed_fork_runs_every_probe_here(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = []
    monkeypatch.setattr(search_module, "sa_run", make_stub(lambda m: m >= 13, calls))
    monkeypatch.setattr(search_module, "initial_bounds", lambda model, t: (1, 31))
    result = construct(SutModel((2, 2)), 2, budget=SearchBudget(timeout=600, seed=0))
    expected = PROBE_LOCK["bisect"]["history"]
    assert [(rec.rows, int(rec.success)) for rec in result.history] == expected
    assert calls == [m for m, _ in expected]


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


@pytest.mark.parametrize(
    "root,label,seed",
    [
        (1, "sa:0", 720918855506850273),
        (0, "worker:0", 3469345223930249725),
        (-3, "sa:12", 6456466073737533999),
        (7, "printer:4", 3467996485644836285),
    ],
)
def test_seed_derivation_is_pinned(root, label, seed):
    # every probe, worker and bench run seed, hence every golden array, rests on these
    assert derive_seed(root, label) == seed


def test_seed_derivation_matches_hashlib_sha256():
    rng = random.Random(17)
    alphabet = "ab:0123456789-_ éßΩ漢😀"
    for _ in range(1000):
        root = rng.randint(-(10**20), 10**20)
        label = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
        assert derive_seed(root, label) == int.from_bytes(digest[:8], "big")


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
    # the parent refuses the catalog before it starts any pool, so the
    # CapacityError is its own, not a broken pool's; an error coming back
    # from a worker is covered by the pickle round trip in test_model.py
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(locaray.CapacityError) as exc_info:
        locaray.parallel_construct(parse_model("2^4"), 2, budget=SearchBudget(timeout=60), workers=2)
    assert (exc_info.value.n_interactions, exc_info.value.budget_mb) == (24, 0)


def test_parallel_construct_checks_capacity_before_any_pool(inline_pools, monkeypatch):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(locaray.CapacityError) as exc_info:
        locaray.parallel_construct(parse_model("2^4"), 2, workers=2)
    assert (exc_info.value.n_interactions, exc_info.value.budget_mb) == (24, 0)
    assert inline_pools == []


def test_parallel_construct_caps_pool_at_cpu_count_and_keeps_results(inline_pools, monkeypatch):
    model = parse_model("2^3")
    budget = SearchBudget(timeout=60, seed=4)
    capped = search_module.parallel_construct(model, 2, AnnealParams(), budget, workers=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    uncapped = search_module.parallel_construct(model, 2, AnnealParams(), budget, workers=5)
    assert [pool.max_workers for pool in inline_pools] == [2, 5]
    assert [len(pool.jobs) for pool in inline_pools] == [5, 5]
    assert capped.array == uncapped.array
    assert [(r.rows, r.success) for r in capped.history] == [(r.rows, r.success) for r in uncapped.history]


def test_pool_is_sized_by_the_cpus_this_process_may_use(inline_pools, monkeypatch):
    # under `taskset -c 0` the host still counts all its CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    search_module.parallel_construct(parse_model("2^3"), 2, AnnealParams(), SearchBudget(timeout=60, seed=4), workers=5)
    assert inline_pools == []  # one usable CPU: the five restarts run in this process


def test_pool_falls_back_to_the_cpu_count_without_an_affinity_mask(inline_pools, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    budgets = [SearchBudget(timeout=60, seed=seed) for seed in range(5)]
    for count in (3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        search_module.construct_runs(parse_model("2^3"), 2, AnnealParams(), budgets, workers=5)
    assert [pool.max_workers for pool in inline_pools] == [3]  # no count: one CPU, no pool


def test_parallel_construct_reports_a_losing_workers_timeout(inline_pools, monkeypatch):
    model = SutModel((2, 2))
    budget = SearchBudget(timeout=60, seed=4)

    def restart(model_arg, t, params, wbudget):
        # restart 0, on the root seed, finishes with 4 rows; restart 1 runs out of time with 5
        if wbudget.seed == budget.seed:
            return search_module.SearchResult(TestArray(model, [[0, 0]] * 4), 4, timed_out=False)
        return search_module.SearchResult(TestArray(model, [[0, 0]] * 5), 5, timed_out=True)

    monkeypatch.setattr(search_module, "_construct", restart)
    result = search_module.parallel_construct(model, 2, AnnealParams(), budget, workers=2)
    assert result.rows == 4
    assert result.timed_out


def test_parallel_construct_reports_the_wall_time_of_the_call(inline_pools, monkeypatch):
    # a pool of two runs three restarts of 5 s each: the last starts when one of the first two ends
    clock = FakeClock()

    def restart(model, t, params, budget):
        clock.now += 5.0
        return search_module.SearchResult(None, None, elapsed=5.0)

    monkeypatch.setattr(search_module, "time", clock)
    monkeypatch.setattr(search_module, "_construct", restart)
    result = search_module.parallel_construct(SutModel((2, 2)), 2, AnnealParams(), SearchBudget(seed=4), workers=3)
    assert [pool.max_workers for pool in inline_pools] == [2]
    assert result.elapsed == 15.0


def test_more_workers_never_return_more_rows(inline_pools):
    # when every restart ran on a worker seed, two workers gave 13 rows on this seed, against the plain run's 11
    model = parse_model("2^11")
    budget = SearchBudget(seed=9)
    restarts = search_module.parallel_construct(model, 2, budget=budget, workers=2)
    assert [pool.max_workers for pool in inline_pools] == [2]
    assert restarts.rows <= construct(model, 2, budget=budget).rows


def test_pool_holds_no_more_probes_than_fit_the_budget(inline_pools, monkeypatch):
    # spin-s at t=2: 992 interactions, 357,120 B at 360 B each; two fit 1 MiB, three do not
    model = parse_model("2^13 4^5")
    one = locaray.interaction_count(model, 2) * locaray.model._BYTES_PER_INTERACTION
    assert 2 * one <= 1 << 20 < 3 * one
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(search_module, "_construct", lambda model, t, params, budget: search_module.SearchResult(None, None))
    budgets = [SearchBudget(timeout=60, seed=seed) for seed in range(3)]
    runs = search_module.construct_runs(model, 2, AnnealParams(), budgets, workers=3)
    assert [pool.max_workers for pool in inline_pools] == [2]
    assert len(runs) == len(inline_pools[0].jobs) == 3


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


def test_pool_workers_never_speculate(inline_pools, turns):
    model = parse_model("2^4")
    budgets = [SearchBudget(timeout=60, seed=seed) for seed in (1, 2)]
    serial = search_module.construct_runs(model, 2, AnnealParams(), budgets, workers=1)
    assert turns.spawned == 2  # each construct in this process forks one child
    turns.spawned = 0
    pooled = search_module.construct_runs(model, 2, AnnealParams(), budgets, workers=2)
    assert [pool.max_workers for pool in inline_pools] == [2]
    assert turns.spawned == 0
    for a, b in zip(serial, pooled):
        assert a.array == b.array
        assert [(r.rows, r.success) for r in a.history] == [(r.rows, r.success) for r in b.history]


def test_construct_runs_forks_no_more_processes_than_budgets(inline_pools):
    model = parse_model("2^3")
    budget = SearchBudget(timeout=60, seed=5)
    (lone,) = search_module.construct_runs(model, 2, AnnealParams(), [budget], workers=2)
    assert inline_pools == []
    assert lone.array == construct(model, 2, AnnealParams(), budget).array


def test_a_lone_run_starts_no_pool_and_forks_its_child(inline_pools, turns):
    # a pool of one would only cost a process, and its worker may not speculate
    model = parse_model("2^4")
    budget = SearchBudget(timeout=60, seed=1)
    (one,) = search_module.construct_runs(model, 2, AnnealParams(), [budget], workers=1)
    turns.spawned = 0
    (two,) = search_module.construct_runs(model, 2, AnnealParams(), [budget], workers=2)
    assert inline_pools == []
    assert turns.spawned == 1
    assert two.array == one.array
    assert [(r.rows, r.success) for r in two.history] == [(r.rows, r.success) for r in one.history]


def test_importing_locaray_loads_no_process_pool():
    # loading the pool modules slows every start of the CLI; only a pool needs them
    src = os.path.dirname(os.path.dirname(locaray.__file__))
    code = "import sys, locaray; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_locaray_loads_no_openssl():
    # hashlib's OpenSSL backend adds about 3.5 MB to every process; -S keeps
    # site hooks from loading it first
    src = os.path.dirname(os.path.dirname(locaray.__file__))
    code = (
        "import sys, locaray, locaray.cli\n"
        "array = locaray.construct(locaray.parse_model('2^4'), 2).array\n"
        "assert locaray.verify(array, 2).is_locating_1bar\n"
        "locaray.locate_fault(array, frozenset({1, 2}), 2)\n"
        "assert locaray.cli.main(['bound', '--model', '2^4', '--strength', '2']) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "False"
