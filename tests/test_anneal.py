import collections
import random
import time

import pytest

from locaray import (
    AnnealParams,
    Interaction,
    SutModel,
    TestArray,
    rho,
    verify,
)
from locaray import anneal
from locaray.anneal import NoNeighborError, sa_run, select_neighbor_baseline, select_neighbor_proposed
from locaray.cost import apply_move, build_index, entry_move, overwrite_move, undo_move
from locaray.model import covers, enumerate_interactions, random_array
from tests.conftest import PRINTER_COVERING_ROWS, PRINTER_MODEL


def test_default_params():
    p = AnnealParams()
    assert (p.weight, p.t_init, p.k_max, p.cooling, p.strategy) == (4.0, 0.5, 2048, 0.999, "proposed")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"weight": -1.0},
        {"t_init": 0.0},
        {"k_max": 0},
        {"cooling": 1.0},
        {"cooling": 0.0},
        {"strategy": "annealing"},
        {"weight": float("nan")},
        {"weight": float("inf")},
        {"t_init": float("nan")},
        {"t_init": float("inf")},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        AnnealParams(**kwargs)


# --- baseline neighbor ---------------------------------------------------------


def test_baseline_forced_move_on_1x1_binary():
    arr = TestArray(SutModel((2,)), [[0]])
    move = select_neighbor_baseline(arr, random.Random(0))
    assert move.assignments == ((0, 0, 0, 1),)


def test_baseline_uniform_over_other_values():
    arr = TestArray(SutModel((3,)), [[1]])
    rng = random.Random(42)
    counts = {0: 0, 2: 0}
    for _ in range(10000):
        move = select_neighbor_baseline(arr, rng)
        counts[move.assignments[0][3]] += 1
    assert counts[0] + counts[2] == 10000
    # binomial n=10000 p=1/2: sd = 50, allow 5 sd
    assert abs(counts[0] - 5000) <= 250


def test_baseline_never_repeats_current_value():
    rng = random.Random(3)
    arr = random_array(SutModel((2, 3, 4, 2)), 5, rng)
    for _ in range(500):
        move = select_neighbor_baseline(arr, rng)
        i, j, old, new = move.assignments[0]
        assert new != old
        assert arr.rows[i][j] == old


def test_baseline_requires_rows():
    with pytest.raises(NoNeighborError):
        select_neighbor_baseline(TestArray(SutModel((2, 2)), []), random.Random(0))


# --- proposed neighbor ------------------------------------------------------------


def _replay_choice(index, rng):
    """The tid and interaction the proposed selection draws first from ``rng``,
    replayed on a copy, so ``rng`` itself is left where it was."""
    copy = random.Random()
    copy.setstate(rng.getstate())
    tids = index.uncovered_ids or index.colliding_ids
    tid = tids[copy.randrange(len(tids))]
    return tid, index.catalog.interactions_at([tid])[0]


def _stamped_row(arr, move, interaction):
    """The one row ``move`` overwrites with ``interaction``, checked."""
    (i,) = {i for i, _, _, _ in move.assignments}
    assert {(j, new) for _, j, _, new in move.assignments} <= set(interaction.pairs)
    stamped = arr.rows[i][:]
    for _, j, _, new in move.assignments:
        stamped[j] = new
    assert covers(stamped, interaction)
    return i


def test_proposed_overwrites_with_uncovered_interaction_first():
    rng = random.Random(9)
    model = SutModel((2, 2, 2))
    arr = TestArray(model, [[0, 0, 0], [0, 0, 0]])  # plenty uncovered
    index = build_index(arr, 2)
    assert index.uncovered_count > 0
    for _ in range(200):
        _, interaction = _replay_choice(index, rng)
        move = select_neighbor_proposed(arr, index, rng)
        # the chosen interaction is currently uncovered, and a row is overwritten with it
        assert rho(arr, interaction) == frozenset()
        _stamped_row(arr, move, interaction)


def test_proposed_singleton_rho_always_overwrites_outside(printer_covering):
    # the 6-row printer array is covering, and every collision there has a
    # single covering row, so the coin branch must never fire
    index = build_index(printer_covering, 2)
    assert index.uncovered_count == 0
    rng = random.Random(17)
    for _ in range(300):
        _, interaction = _replay_choice(index, rng)
        move = select_neighbor_proposed(printer_covering, index, rng)
        covering_rows = rho(printer_covering, interaction)
        if len(covering_rows) == 1:
            assert _stamped_row(printer_covering, move, interaction) + 1 not in covering_rows


def test_proposed_coin_branch_with_larger_rho():
    # duplicated rows cover every single-factor assignment while the two
    # value-0 assignments share rows {1,2} and the two value-1 ones {3,4}
    arr = TestArray(SutModel((2, 2)), [[0, 0], [0, 0], [1, 1], [1, 1]])
    index = build_index(arr, 1)
    assert index.uncovered_count == 0
    assert index.collision_count == 4
    rng = random.Random(29)
    branches = set()
    for _ in range(400):
        _, interaction = _replay_choice(index, rng)
        move = select_neighbor_proposed(arr, index, rng)
        covering = rho(arr, interaction)
        assert len(covering) == 2
        # an alter move's row lies in the covering set, a stamp's outside it
        if move.assignments[0][0] + 1 in covering:
            branches.add("alter")
            ((i, j, old, new),) = move.assignments
            assert j in interaction.factors
            assert new != old
        else:
            branches.add("stamp")
            _stamped_row(arr, move, interaction)
    assert branches == {"alter", "stamp"}  # the fair coin takes both branches


def test_proposed_requires_deficiency(printer_locating):
    index = build_index(printer_locating, 2)
    with pytest.raises(RuntimeError):
        select_neighbor_proposed(printer_locating, index, random.Random(0))


def _row_scan_proposed(array, index, rng):
    # select_neighbor_proposed as it was with O(m) row scans: the list of
    # covering rows and the list of the others; pins every RNG draw
    if index.uncovered_ids:
        tid = index.uncovered_ids[rng.randrange(len(index.uncovered_ids))]
        row = rng.randrange(array.m)
        return overwrite_move(array, row, index.catalog.interactions_at([tid])[0].pairs)
    tid = index.colliding_ids[rng.randrange(len(index.colliding_ids))]
    interaction = index.catalog.interactions_at([tid])[0]
    bits = index.rowsets[tid]
    covering = [i for i in range(array.m) if (bits >> i) & 1]
    outside = array.m - len(covering)
    if len(covering) > 1:
        alter = outside == 0 or rng.getrandbits(1) == 1
    else:
        alter = outside == 0
    if alter:
        i = covering[rng.randrange(len(covering))]
        j = interaction.factors[rng.randrange(interaction.strength)]
        v = rng.randrange(array.model.values[j] - 1)
        v = v + 1 if v >= array.rows[i][j] else v
        return entry_move(array, i, j, v)
    skip = frozenset(covering)
    others = [i for i in range(array.m) if i not in skip]
    i = others[rng.randrange(len(others))]
    return overwrite_move(array, i, interaction.pairs)


def test_proposed_matches_row_scan_selection_and_rng_draws():
    rng = random.Random(71)
    kinds = {"uncovered": 0, "alter": 0, "stamp": 0}
    while kinds["alter"] + kinds["stamp"] < 2000 or min(kinds.values()) < 200:
        model = SutModel(tuple(rng.randint(2, 3) for _ in range(rng.randint(2, 6))))
        t = rng.randint(1, min(2, model.k))
        # rows drawn from a small pool repeat, so row sets collide at every
        # size, past one 64-bit word too
        pool = random_array(model, rng.randint(2, 12), rng).rows
        arr = TestArray(model, [rng.choice(pool) for _ in range(rng.randint(2, 70))])
        index = build_index(arr, t)
        for _ in range(30):
            if index.is_locating():
                break
            seed = rng.getrandbits(64)
            ours, theirs = random.Random(seed), random.Random(seed)
            tid, _ = _replay_choice(index, ours)
            move = select_neighbor_proposed(arr, index, ours)
            assert move == _row_scan_proposed(arr, index, theirs)
            assert ours.getstate() == theirs.getstate()
            if index.uncovered_count:
                kinds["uncovered"] += 1
            else:  # an alter move's row lies in the covering set, a stamp's outside it
                kinds["alter" if index.rowsets[tid] >> move.assignments[0][0] & 1 else "stamp"] += 1
            apply_move(index, arr, move)
            if rng.random() < 0.9:
                undo_move(index, arr, move)


def test_proposed_fixed_seed_trace_regression():
    # frozen from the first correct run: seed 1234 on the pinned 6-row array,
    # each selected move applied before the next selection; the row is each
    # assignment's first field
    arr = TestArray(PRINTER_MODEL, PRINTER_COVERING_ROWS)
    index = build_index(arr, 2)
    rng = random.Random(1234)
    trace = []
    for _ in range(8):
        move = select_neighbor_proposed(arr, index, rng)
        trace.append(move.assignments)
        apply_move(index, arr, move)
    assert trace == [
        ((0, 3, 0, 2),),
        ((0, 3, 2, 0),),
        ((1, 3, 1, 0),),
        ((5, 3, 0, 1),),
        ((0, 3, 0, 1),),
        ((1, 1, 0, 1),),
        ((0, 0, 0, 1), (0, 3, 1, 0)),
        ((2, 3, 2, 1),),
    ]


# --- the annealing loop -------------------------------------------------------------


def test_sa_finds_optimal_size_for_three_binary_factors():
    model = SutModel((2, 2, 2))
    for seed in range(5):
        found = sa_run(model, 2, 6, AnnealParams(), random.Random(seed))
        assert found is not None
        assert found.m == 6
        assert verify(found, 2).is_locating_1bar


def test_sa_zero_rows_fails():
    assert sa_run(SutModel((2, 2)), 2, 0, AnnealParams(), random.Random(1)) is None


def test_sa_below_optimum_fails():
    # no locating array with fewer than 6 rows exists for three binary factors
    assert sa_run(SutModel((2, 2, 2)), 2, 5, AnnealParams(), random.Random(2)) is None


def test_sa_deterministic_per_seed():
    model = SutModel((2, 2, 2, 3))
    a = sa_run(model, 2, 10, AnnealParams(), random.Random(77))
    b = sa_run(model, 2, 10, AnnealParams(), random.Random(77))
    assert a is not None and b is not None
    assert a.rows == b.rows


def test_sa_trace_is_reproducible():
    model = SutModel((2, 2, 2))
    traces = []
    for _ in range(2):
        events = []
        sa_run(
            model, 2, 5, AnnealParams(k_max=300), random.Random(5),
            observer=lambda *ev: events.append(ev),
        )
        traces.append(events)
    assert traces[0] == traces[1]
    assert len(traces[0]) > 0


def test_temperature_schedule_is_geometric():
    params = AnnealParams(k_max=200)
    temps = {}
    sa_run(
        SutModel((2, 2, 2)), 2, 5, params, random.Random(13),
        observer=lambda it, temp, delta, acc, c: temps.setdefault(it, temp),
    )
    for it, temp in temps.items():
        assert temp == pytest.approx(params.t_init * params.cooling**it, rel=1e-9)


def test_nonincreasing_moves_always_accepted():
    events = []
    sa_run(
        SutModel((2, 2, 2, 3)), 2, 7, AnnealParams(k_max=500), random.Random(3),
        observer=lambda it, temp, delta, acc, c: events.append((delta, acc)),
    )
    downhill = [acc for delta, acc in events if delta <= 0]
    assert downhill and all(downhill)


class _GreedyRng(random.Random):
    """Metropolis draw always at the top of [0,1): every uphill move is rejected.

    Overriding getrandbits too keeps randrange on the real stream; with
    random() alone, every randrange(n) would return n - 1."""

    def random(self):
        return 0.999999999

    def getrandbits(self, k):
        return super().getrandbits(k)


def test_rigged_rng_rejects_every_uphill_move():
    costs = []
    sa_run(
        SutModel((2, 2, 2, 3)), 2, 7, AnnealParams(k_max=400), _GreedyRng(21),
        observer=lambda it, temp, delta, acc, c: costs.append((delta, acc, c)),
    )
    assert any(delta > 0 for delta, _, _ in costs)  # the walk does propose uphill moves
    for delta, accepted, _ in costs:
        assert accepted == (delta <= 0)
    running = [c for _, _, c in costs]
    assert all(b <= a + 1e-9 for a, b in zip(running, running[1:]))


class _CountingRng(random.Random):
    """Counts Metropolis draws; overriding getrandbits too keeps randrange's stream."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        return super().getrandbits(k)


def test_zero_temperature_rejects_uphill_moves_and_keeps_drawing():
    # cooling 0.01 underflows the temperature to 0.0 within ~170 iterations;
    # from then on exp(-delta/T) counts as 0, and each uphill move still draws
    rng = _CountingRng(1)
    events = []
    result = sa_run(
        SutModel((2, 2, 2)), 2, 5, AnnealParams(cooling=0.01), rng,
        observer=lambda it, temp, delta, acc, c: events.append((temp, delta, acc)),
    )
    assert result is None  # 5 rows are below the optimum of 6
    frozen = [acc for temp, delta, acc in events if temp == 0.0 and delta > 0]
    assert frozen and not any(frozen)
    assert rng.draws == sum(1 for _, delta, _ in events if delta > 0)


@pytest.mark.parametrize("m", [5, 6], ids=["fails", "locates"])
def test_sa_run_calls_the_names_a_tracer_wraps(monkeypatch, m):
    # perfbench times and counts moves by rebinding these three names in
    # locaray.anneal and reading each move's assignments, so sa_run must call
    # them through those names, and the wrapped run must build the same array
    model, params = SutModel((2, 2, 2)), AnnealParams()
    unwrapped = sa_run(model, 2, m, params, random.Random(1))
    calls = collections.Counter()

    def counting(name):
        original = getattr(anneal, name)

        def wrapper(*args):
            calls[name] += 1
            if name != "select_neighbor_proposed":  # as the tracer counts entry changes
                calls["entry_changes"] += len(args[2].assignments)
            return original(*args)

        monkeypatch.setattr(anneal, name, wrapper)

    for name in ("select_neighbor_proposed", "apply_move", "undo_move"):
        counting(name)
    accepted = []
    wrapped = sa_run(model, 2, m, params, random.Random(1), observer=lambda it, temp, delta, acc, c: accepted.append(acc))
    # the observer sees every iteration but one that ends the run locating
    iterations = len(accepted) + (wrapped is not None)
    assert (wrapped is None) == (m == 5)
    if wrapped is None:
        assert iterations == params.k_max
        assert unwrapped is None
    else:
        assert unwrapped is not None and wrapped.rows == unwrapped.rows
    assert calls["select_neighbor_proposed"] == calls["apply_move"] == iterations
    assert calls["undo_move"] == accepted.count(False) > 0
    assert calls["entry_changes"] >= calls["apply_move"] + calls["undo_move"]


@pytest.mark.parametrize("m", [5, 6], ids=["fails", "locates"])
def test_proposed_sa_run_builds_no_interaction(monkeypatch, m):
    # a move is its assignments: the selection decodes a tid into its pairs
    # only, so an Interaction is built only where a report or query returns one
    built = []
    canonical, post_init = Interaction._canonical, Interaction.__post_init__

    def counting_canonical(cls, pairs):
        built.append(pairs)
        return canonical(pairs)

    def counting_post_init(self):
        built.append(self.pairs)
        post_init(self)

    monkeypatch.setattr(Interaction, "_canonical", classmethod(counting_canonical))
    monkeypatch.setattr(Interaction, "__post_init__", counting_post_init)
    model = SutModel((2, 2, 2))
    iterations = []
    found = sa_run(model, 2, m, AnnealParams(), random.Random(1), observer=lambda it, *_: iterations.append(it))
    assert (found is None) == (m == 5)
    assert iterations  # the run selected moves
    assert built == []
    # both counters see the constructions they are meant to
    enumerate_interactions(model, 2).interactions_at([0])
    Interaction(((0, 1),))
    assert built == [((0, 0), (1, 0)), ((0, 1),)]


def test_sa_respects_deadline():
    model = SutModel((3, 3, 3, 3, 3, 3))
    start = time.monotonic()
    result = sa_run(
        model, 2, 10, AnnealParams(k_max=10_000_000), random.Random(1),
        deadline=start + 0.2,
    )
    # size 10 is far below feasibility, so only the deadline can end the run
    assert result is None
    assert time.monotonic() - start < 5.0


def test_result_always_has_requested_rows_and_verifies():
    model = SutModel((2, 2, 2, 3))
    for seed in range(3):
        found = sa_run(model, 2, 10, AnnealParams(), random.Random(seed))
        assert found is not None
        assert found.m == 10
        assert verify(found, 2).is_locating_1bar


def test_baseline_strategy_runs_end_to_end():
    found = sa_run(
        SutModel((2, 2, 2)), 2, 8, AnnealParams(strategy="baseline"), random.Random(4)
    )
    assert found is not None
    assert verify(found, 2).is_locating_1bar


def test_move_shapes():
    # baseline differs in exactly one entry; a proposed move changes 1..t entries of one row
    rng = random.Random(8)
    model = SutModel((2, 3, 2, 3))
    arr = random_array(model, 6, rng)
    index = build_index(arr, 2)
    for _ in range(100):
        baseline = select_neighbor_baseline(arr, rng)
        assert len(baseline.assignments) == 1
        proposed = select_neighbor_proposed(arr, index, rng)
        assert 1 <= len(proposed.assignments) <= 2
        assert len({i for i, _, _, _ in proposed.assignments}) == 1
