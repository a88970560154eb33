import functools
import itertools
import operator
import random
import tracemalloc

import pytest

from locaray import (
    AnnealParams,
    CapacityError,
    SearchBudget,
    SutModel,
    TestArray,
    construct,
    parse_model,
    rho,
    verify,
)
from locaray.cost import _BYTES_PER_INTERACTION, apply_move, build_index, entry_move, overwrite_move, undo_move
from locaray.anneal import sa_run
from locaray.model import (
    InteractionCatalog,
    check_capacity,
    enumerate_interactions,
    interaction_count,
    random_array,
    row_sets,
)


def random_model(rng, max_k=8, max_v=4):
    k = rng.randint(1, max_k)
    return SutModel(tuple(rng.randint(2, max_v) for _ in range(k)))


def random_move(arr, rng):
    i = rng.randrange(arr.m)
    j = rng.randrange(arr.model.k)
    old = arr.rows[i][j]
    v = rng.randrange(arr.model.values[j] - 1)
    if v >= old:
        v += 1
    if rng.random() < 0.5:
        return entry_move(arr, i, j, v)
    t = rng.randint(1, min(3, arr.model.k))
    combo = rng.sample(range(arr.model.k), t)
    pairs = tuple((f, rng.randrange(arr.model.values[f])) for f in sorted(combo))
    return overwrite_move(arr, i, pairs)


# --- counter fixtures ---------------------------------------------------------


def test_printer_locating_has_zero_cost(printer_locating):
    index = build_index(printer_locating, 2)
    assert index.uncovered_count == 0
    assert index.collision_count == 0
    assert index.cost(4.0) == 0.0


def test_empty_array_cost():
    index = build_index(TestArray(SutModel((2, 2, 2)), []), 2)
    assert index.uncovered_count == 12
    # only non-empty shared row sets count as collisions
    assert index.collision_count == 0
    assert index.cost(4.0) == 48.0


def test_two_identical_rows():
    index = build_index(TestArray(SutModel((2, 2, 2)), [[0, 0, 0], [0, 0, 0]]), 2)
    assert index.uncovered_count == 9
    assert index.collision_count == 3


def test_single_row():
    index = build_index(TestArray(SutModel((2, 2, 2)), [[1, 0, 1]]), 2)
    assert index.uncovered_count == 9
    assert index.collision_count == 3


def test_covering_printer_array_counters(printer_covering):
    index = build_index(printer_covering, 2)
    assert index.uncovered_count == 0
    # pinned by brute force over all interaction pairs
    assert index.collision_count == 24


def test_weight_handling(printer_covering):
    index = build_index(printer_covering, 2)
    assert index.cost(0.0) == index.collision_count
    # monotone in weight once something is uncovered
    partial = build_index(TestArray(SutModel((2, 2, 2)), [[0, 0, 0]]), 2)
    assert partial.cost(0.0) < partial.cost(1.0) < partial.cost(4.0)


def test_strength_out_of_range(printer_covering):
    with pytest.raises(ValueError):
        build_index(printer_covering, 0)
    with pytest.raises(ValueError):
        build_index(printer_covering, 9)


# --- index agrees with the definition-literal rho ------------------------------


def test_rowsets_match_rho_on_random_arrays():
    rng = random.Random(11)
    for _ in range(30):
        model = random_model(rng, max_k=6)
        t = rng.randint(1, min(3, model.k))
        arr = random_array(model, rng.randint(0, 8), rng)
        index = build_index(arr, t)
        for tid in range(len(index.catalog)):
            interaction = index.catalog.interactions_at([tid])[0]
            rows = frozenset(i + 1 for i in range(arr.m) if index.rowsets[tid] >> i & 1)
            assert rows == rho(arr, interaction)
            assert index.rowsets[tid] >> arr.m == 0  # no bit past the last row


# --- moves ----------------------------------------------------------------------


def test_entry_move_requires_change(printer_covering):
    with pytest.raises(ValueError):
        entry_move(printer_covering, 0, 0, printer_covering.rows[0][0])


def test_overwrite_move_touches_only_interaction_factors(printer_covering):
    pairs = ((0, 1), (3, 1))
    move = overwrite_move(printer_covering, 0, pairs)
    assert {(j, new) for _, j, _, new in move.assignments} <= set(pairs)
    assert all(i == 0 for i, _, _, _ in move.assignments)


def test_apply_then_undo_restores_everything():
    rng = random.Random(23)
    model = SutModel((2, 3, 2, 4))
    arr = random_array(model, 6, rng)
    index = build_index(arr, 2)
    reference_rows = [row[:] for row in arr.rows]
    reference_state = index.snapshot()
    for _ in range(200):
        move = random_move(arr, rng)
        apply_move(index, arr, move, weight=4.0)
        undo_move(index, arr, move)
        assert arr.rows == reference_rows
        assert index.snapshot() == reference_state


def test_undo_reverts_only_the_last_move_applied():
    rng = random.Random(29)
    arr = random_array(SutModel((2, 3, 2, 4)), 6, rng)
    index = build_index(arr, 2)
    first = entry_move(arr, 0, 1, (arr.rows[0][1] + 1) % 3)
    second = entry_move(arr, 1, 3, (arr.rows[1][3] + 1) % 4)
    apply_move(index, arr, first)
    applied_rows = [row[:] for row in arr.rows]
    applied_state = index.snapshot()
    apply_move(index, arr, second)
    with pytest.raises(ValueError):
        undo_move(index, arr, first)
    undo_move(index, arr, second)
    assert arr.rows == applied_rows
    assert index.snapshot() == applied_state
    for stale in (second, first):  # already undone; applied before the last move
        with pytest.raises(ValueError):
            undo_move(index, arr, stale)
    assert arr.rows == applied_rows
    assert index.snapshot() == applied_state


def test_delta_matches_full_recompute():
    rng = random.Random(31)
    for weight in (0.0, 1.0, 4.0):
        model = SutModel((2, 2, 3, 2, 4))
        arr = random_array(model, 8, rng)
        index = build_index(arr, 2)
        for _ in range(150):
            before = index.cost(weight)
            move = random_move(arr, rng)
            delta = apply_move(index, arr, move, weight=weight)
            rebuilt = build_index(arr, 2)
            assert index.snapshot() == rebuilt.snapshot()
            assert delta == rebuilt.cost(weight) - before


def test_delta_on_smallest_case():
    arr = TestArray(SutModel((2,)), [[0]])
    index = build_index(arr, 1)
    move = entry_move(arr, 0, 0, 1)
    before = index.cost(1.0)
    delta = apply_move(index, arr, move, weight=1.0)
    assert delta == build_index(arr, 1).cost(1.0) - before


def test_incremental_consistency_over_long_walks():
    rng = random.Random(47)
    for _ in range(20):
        model = random_model(rng, max_k=7)
        t = rng.randint(1, min(3, model.k))
        arr = random_array(model, rng.randint(1, 10), rng)
        index = build_index(arr, t)
        for _ in range(50):
            move = random_move(arr, rng)
            apply_move(index, arr, move)
            if rng.random() < 0.4:
                undo_move(index, arr, move)
        assert index.snapshot() == build_index(arr, t).snapshot()


def test_walk_keeps_sample_sets_and_groups_equal_to_rebuild():
    # snapshot() ignores the sample sets the proposed neighbour draws from
    rng = random.Random(59)
    for _ in range(25):
        model = random_model(rng, max_k=7, max_v=3)
        t = rng.randint(1, min(3, model.k))
        arr = random_array(model, rng.randint(1, 9), rng)
        index = build_index(arr, t)
        for _ in range(60):
            move = random_move(arr, rng)
            apply_move(index, arr, move)
            if rng.random() < 0.3:
                undo_move(index, arr, move)
        rebuilt = build_index(arr, t)
        assert set(index.uncovered_ids) == set(rebuilt.uncovered_ids)
        assert set(index.colliding_ids) == set(rebuilt.colliding_ids)
        # each position dict maps its list's tids to their slots, with no repeats
        for ids, pos in ((index.uncovered_ids, index._uncovered_pos), (index.colliding_ids, index._colliding_pos)):
            assert pos == {tid: p for p, tid in enumerate(ids)}
            assert len(pos) == len(ids)
        # the groups, decoded from the row sets alone: a row set held by one
        # interaction maps to its bare tid, one shared by n to n * one + the
        # XOR of their tids, with one a power of two above every tid
        assert index.rowsets == rebuilt.rowsets
        one = 1 << len(index.rowsets).bit_length()
        holders = {}
        for tid, rs in enumerate(index.rowsets):
            if rs:
                holders.setdefault(rs, []).append(tid)
        expected = {
            rs: tids[0] if len(tids) == 1 else len(tids) * one + functools.reduce(operator.xor, tids)
            for rs, tids in holders.items()
        }
        assert index._groups == expected
        assert rebuilt._groups == expected


# --- oracle equivalence with the verifier ---------------------------------------


def test_cost_zero_iff_locating_exhaustive_tiny_models():
    # every array over model (2,2) with up to 3 rows, both strengths
    model = SutModel((2, 2))
    for m in range(0, 4):
        for flat in itertools.product((0, 1), repeat=2 * m):
            rows = [list(flat[2 * i: 2 * i + 2]) for i in range(m)]
            arr = TestArray(model, rows)
            for t in (1, 2):
                index = build_index(arr, t)
                assert (index.cost(1.0) == 0) == verify(arr, t).is_locating_1bar


def test_cost_zero_iff_locating_random_sample():
    rng = random.Random(53)
    for _ in range(100):
        model = random_model(rng, max_k=5, max_v=3)
        t = rng.randint(1, min(3, model.k))
        arr = random_array(model, rng.randint(0, 9), rng)
        index = build_index(arr, t)
        assert (index.cost(1.0) == 0) == verify(arr, t).is_locating_1bar


# --- capacity ---------------------------------------------------------------------


def test_capacity_error_reports_interaction_count(printer_covering, monkeypatch):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(CapacityError) as exc_info:
        build_index(printer_covering, 2)
    assert exc_info.value.n_interactions == 30


def test_capacity_env_override(printer_covering, monkeypatch):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(CapacityError):
        build_index(printer_covering, 2)
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "512")
    build_index(printer_covering, 2)  # the model's tables are now cached
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(CapacityError):  # the guard runs before the cache
        build_index(printer_covering, 2)


@pytest.mark.parametrize("text", ["abc", "-1", "1.5", ""])
def test_capacity_env_rejects_malformed_budget(printer_covering, monkeypatch, text):
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", text)
    with pytest.raises(ValueError, match="LOCARAY_MEM_BUDGET_MB"):
        build_index(printer_covering, 2)


def test_capacity_constant_bounds_measured_footprint():
    # the guard's per-interaction estimate must not undershoot the peak of
    # either consumer it admits, counted with the catalog (and, for a run,
    # the partner tables) its first call allocates: an annealing run, whose
    # group dict outgrows its live entries under churn, and ``verify``, whose
    # report on a 0-row array lists every interaction as uncovered.  A
    # quarter of the default iterations reaches 97-100% of a default run's
    # peak in a quarter of the time.
    params = AnnealParams(k_max=AnnealParams().k_max // 4)
    for spec, t in (("2^40 3^10", 2), ("2^10 3^2", 3)):
        model = parse_model(spec)
        for m in (0, 12, 20, 33):
            arr = random_array(model, m, random.Random(1))
            build_index(arr, t)  # one-off allocations outside the measurements
            runs = {"verify": lambda: verify(arr, t)}
            if m:
                runs["sa_run"] = lambda: sa_run(model, t, m, params, random.Random(1))
            for name, run in runs.items():
                enumerate_interactions.cache_clear()
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak / interaction_count(model, t) <= _BYTES_PER_INTERACTION, (name, spec, m)


def test_default_budget_admits_every_suite_instance_at_t2_and_18_at_t3(monkeypatch):
    # the gate alone decides, so no catalog is built: the default budget
    # admits 512 MiB / 360 B, about 1.49 million interactions
    from locaray.cli import _bundled_suite_text, load_suite

    monkeypatch.delenv("LOCARAY_MEM_BUDGET_MB", raising=False)

    def admitted(t):
        names = []
        for name, spec in load_suite(_bundled_suite_text()):
            try:
                check_capacity(parse_model(spec), t)
            except CapacityError:
                continue
            names.append(name)
        return names

    assert len(admitted(2)) == 35
    assert admitted(3) == [
        "bugzilla", "spin-s", "spin-v", "2", "3", "4", "6", "7", "9",
        "14", "15", "16", "21", "22", "23", "26", "27", "30",
    ]


# --- one (model, t) cache: the catalog and its partner tables ---------------------


@pytest.fixture
def catalog_builds(monkeypatch):
    """(model, t) of every ``InteractionCatalog`` constructed, in order."""
    built = []

    class CountingCatalog(InteractionCatalog):
        def __init__(self, model, t):
            built.append((model, t))
            super().__init__(model, t)

    enumerate_interactions.cache_clear()
    monkeypatch.setattr("locaray.model.InteractionCatalog", CountingCatalog)
    yield built
    enumerate_interactions.cache_clear()


def test_one_construct_builds_its_tables_once(catalog_builds):
    model = SutModel((2, 2, 2, 3))
    result = construct(model, 2, budget=SearchBudget(timeout=60, seed=1))
    assert len(result.history) >= 3
    assert catalog_builds == [(model, 2)]


def test_each_model_and_strength_gets_its_own_tables(catalog_builds, printer_covering):
    first = build_index(printer_covering, 2)
    again = build_index(printer_covering, 2)
    assert again.catalog is first.catalog and again._partners is first._partners
    assert type(first.catalog.combos) is tuple and type(first.catalog.offsets) is tuple
    other = build_index(TestArray(SutModel((3, 3, 2)), [[0, 1, 1]]), 2)
    assert other.catalog.model == SutModel((3, 3, 2)) and len(other.catalog) == 21
    lower = build_index(printer_covering, 1)
    assert lower.catalog.strength == 1 and len(lower.catalog) == 9
    assert catalog_builds == [(printer_covering.model, 2), (SutModel((3, 3, 2)), 2), (printer_covering.model, 1)]


def test_construct_and_verify_share_one_catalog(catalog_builds):
    sut = SutModel((2, 2, 2, 3))
    result = construct(sut, 2, budget=SearchBudget(timeout=60, seed=1))
    # neither array locates, and a reader decodes both reports through the construct's catalog
    for rows in ([], result.array.rows[:2]):
        report = verify(TestArray(sut, rows), 2)
        assert not report.is_locating_1bar
        enumerate_interactions(sut, 2).interactions_at([tid for a, b, _ in report.collisions for tid in (a, b)])
    assert catalog_builds == [(sut, 2)]


def test_an_index_takes_the_cached_catalog_after_verify_switched_models(catalog_builds):
    # two caches of size one, for the index's tables and for the catalog,
    # drifted apart here: the index kept the first catalog of A alive.  verify
    # decodes nothing, so reading its reports is what switches the catalog
    a, b = TestArray(SutModel((2, 2, 2)), []), TestArray(SutModel((3, 3)), [])
    build_index(a, 2)
    for array in (b, a):
        report = verify(array, 2)
        assert not report.is_covering
        enumerate_interactions(array.model, 2).interactions_at(report.uncovered)
    index = build_index(a, 2)
    assert index.catalog is enumerate_interactions(a.model, 2)
    assert index._partners is index.catalog.partners
    assert catalog_builds == [(a.model, 2), (b.model, 2), (a.model, 2)]


def test_verify_alone_never_builds_the_partner_tables(catalog_builds):
    array = TestArray(SutModel((2, 2, 2)), [[0, 0, 0]])
    assert not verify(array, 2).is_covering
    assert catalog_builds == []  # verify decodes nothing
    catalog = enumerate_interactions(array.model, 2)
    assert catalog_builds == [(array.model, 2)]
    assert "partners" not in vars(catalog)


# --- the prefix walk of the row-set kernel ----------------------------------------


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65])
def test_prefix_walks_equal_per_interaction_ands(m):
    # model.row_sets walks row sets by prefix for both verify and the index;
    # the index must hold exactly what the kernel returns
    rng = random.Random(f"prefix-walk:{m}")
    for _ in range(10):
        model = random_model(rng, max_k=6, max_v=3)
        array = random_array(model, m, rng)
        masks = [[0] * v for v in model.values]
        for i, row in enumerate(array.rows):
            for j, value in enumerate(row):
                masks[j][value] |= 1 << i
        for t in range(1, model.k + 1):
            expected = []
            for interaction in enumerate_interactions(model, t):
                bits = (1 << m) - 1
                for j, v in interaction.pairs:
                    bits &= masks[j][v]
                expected.append(bits)
            assert row_sets(array, t) == expected
            assert build_index(array, t).rowsets == expected
