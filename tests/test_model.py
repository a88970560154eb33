import dataclasses
import itertools
import pickle
import random

import pytest

from locaray import (
    CapacityError,
    Interaction,
    ModelParseError,
    SutModel,
    TestArray,
    format_array,
    interaction_count,
    load_array,
    parse_array,
    parse_model,
    rho,
    save_array,
)
from locaray.model import MAX_FACTORS, check_capacity, covers, enumerate_interactions, random_array


def brute_force_interactions(model, t):
    """Independent enumeration used as the counting/ordering oracle."""
    out = []
    for combo in itertools.combinations(range(model.k), t):
        for vals in itertools.product(*(range(model.values[j]) for j in combo)):
            out.append(tuple(zip(combo, vals)))
    return out


# --- parse_model -------------------------------------------------------------


def test_parse_exponent_form():
    m = parse_model("2^13 4^5")
    assert m.k == 18
    assert m.values == (2,) * 13 + (4,) * 5


def test_parse_comma_form_printer():
    assert parse_model("2,2,2,3").values == (2, 2, 2, 3)


def test_parse_bare_integer_is_exponent_one():
    assert parse_model("4").values == (4,)
    assert parse_model("2 3^2 4").values == (2, 3, 3, 4)


@pytest.mark.parametrize("spec", ["2^0", "1^3", "1", "x^2", "2^", "^2", "", "  ", "2^-1", "0"])
def test_parse_rejects_malformed(spec):
    with pytest.raises(ModelParseError):
        parse_model(spec)


def test_parse_bounds_the_factor_count_before_building_the_model():
    assert parse_model(f"2^{MAX_FACTORS}").k == MAX_FACTORS
    # each spec is one factor too many, so a missing bound costs only kilobytes
    for spec in [f"2^{MAX_FACTORS + 1}", f"2^{MAX_FACTORS // 2} 3^{MAX_FACTORS - MAX_FACTORS // 2 + 1}"]:
        with pytest.raises(ModelParseError, match=f"at most {MAX_FACTORS} factors"):
            parse_model(spec)


def test_parse_rejects_numbers_too_long_to_convert():
    # 5000 digits pass the regex; Python 3.11 refuses to convert them
    with pytest.raises(ModelParseError, match="too long"):
        parse_model("2^" + "1" * 5000)


def test_parse_error_names_token():
    with pytest.raises(ModelParseError, match="2\\^0"):
        parse_model("2^3 2^0")


def test_spec_text_round_trip():
    for spec in ["2^3 3", "2^13 4^5", "2 3 2", "5"]:
        m = parse_model(spec)
        assert parse_model(m.spec_text()) == m
    assert parse_model("2,2,2,3").spec_text() == "2^3 3"


def test_model_invariants():
    with pytest.raises(ValueError):
        SutModel(())
    with pytest.raises(ValueError):
        SutModel((2, 1, 2))


# --- interactions and the catalog --------------------------------------------


def test_interaction_rejects_duplicate_factor():
    with pytest.raises(ValueError):
        Interaction(((1, 0), (1, 1)))


def test_interaction_is_sorted_and_comparable():
    a = Interaction(((2, 1), (0, 1)))
    assert a.pairs == ((0, 1), (2, 1))
    assert a.strength == 2
    assert Interaction(((0, 0), (1, 0))) < Interaction(((0, 0), (2, 0)))


def test_interaction_is_slotted_and_keeps_its_value_semantics():
    a = Interaction(((2, 1), (0, 1)))
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.pairs = ()
    assert a == Interaction(((0, 1), (2, 1))) and a != Interaction(((0, 1), (2, 0)))
    assert a != ((0, 1), (2, 1))  # not equal to its bare pairs
    assert hash(a) == hash(Interaction(((0, 1), (2, 1)))) == hash((a.pairs,))  # the dataclass field hash
    assert sorted([a, Interaction(((0, 1), (1, 0))), Interaction(((0, 0), (2, 1)))]) == [
        Interaction(((0, 1), (1, 0))), Interaction(((0, 0), (2, 1))), a
    ]
    moved = dataclasses.replace(a, pairs=((3, 0), (1, 1)))
    assert moved.pairs == ((1, 1), (3, 0))  # replace re-runs the canonical sort
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(a, protocol))
        assert clone == a and clone.pairs == a.pairs and hash(clone) == hash(a)


def test_catalog_counts():
    assert len(enumerate_interactions(SutModel((2, 2, 2)), 2)) == 12
    # three 2x2 factor pairs plus three 2x3 pairs: 3*4 + 3*6
    assert len(enumerate_interactions(SutModel((2, 2, 2, 3)), 2)) == 30
    assert len(enumerate_interactions(SutModel((2, 2, 2, 3)), 0)) == 1
    assert len(enumerate_interactions(SutModel((2, 2, 2, 3)), 1)) == 9


def test_strength_zero_is_single_empty_interaction():
    catalog = enumerate_interactions(SutModel((2, 2)), 0)
    assert [i for i in catalog] == [Interaction(())]


def test_catalog_rejects_strength_beyond_k():
    with pytest.raises(ValueError):
        enumerate_interactions(SutModel((2, 2)), 3)


def test_catalog_matches_brute_force_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(1, 6)
        model = SutModel(tuple(rng.randint(2, 4) for _ in range(k)))
        t = rng.randint(0, k)
        catalog = enumerate_interactions(model, t)
        expected = brute_force_interactions(model, t)
        assert len(catalog) == len(expected) == interaction_count(model, t)
        assert [i.pairs for i in catalog] == expected


def test_catalog_order_is_canonical_and_stable():
    catalog = enumerate_interactions(SutModel((2, 3, 2)), 2)
    listed = list(catalog)
    assert listed == sorted(listed, key=lambda i: i.sort_key())


def test_index_round_trips():
    for model in (SutModel((2, 2, 2, 3)), SutModel((3, 4, 2)), SutModel((2, 5)), SutModel((4,))):
        for t in range(model.k + 1):
            catalog = enumerate_interactions(model, t)
            for pos, interaction in enumerate(catalog):
                assert catalog.pairs_at(pos) == interaction.pairs
                assert catalog.interactions_at([pos]) == [interaction]
            for idx in (-1, len(catalog)):
                with pytest.raises(IndexError):
                    catalog.pairs_at(idx)
                with pytest.raises(IndexError):
                    catalog.interactions_at([idx])


def test_batch_decode_equals_one_at_a_time():
    # interactions_at decodes through pairs_at, so iteration order is the
    # independent reference for both
    for model in (SutModel((2, 2, 2, 3)), SutModel((3, 4, 2)), SutModel((2, 5)), SutModel((4,))):
        for t in range(model.k + 1):
            catalog = enumerate_interactions(model, t)
            everything = list(catalog)
            tids = list(range(len(catalog)))
            tids += tids[::-1]
            batch = catalog.interactions_at(tids)
            assert batch == [everything[i] for i in tids]
            assert [i.pairs for i in batch] == [catalog.pairs_at(i) for i in tids]
    catalog = enumerate_interactions(parse_model("2^40 3^10"), 2)
    everything = list(catalog)
    rng = random.Random(14)
    edges = [offset + d for offset in catalog.offsets for d in (-1, 0) if offset + d >= 0] + [len(catalog) - 1]
    tids = [rng.randrange(len(catalog)) for _ in range(500)] + edges
    batch = catalog.interactions_at(tids)
    assert batch == [everything[i] for i in tids]
    assert [i.pairs for i in batch] == [catalog.pairs_at(i) for i in tids]
    for bad in (-1, len(catalog)):
        with pytest.raises(IndexError):
            catalog.interactions_at([0, bad])


@pytest.mark.parametrize("t", [1, 2, 3])
def test_interaction_at_equals_the_checked_constructor(t):
    # the decode skips the sort and duplicate check; nothing may tell
    for model in (SutModel((3, 2, 4, 2, 5)), SutModel((2, 6, 3, 2))):
        catalog = enumerate_interactions(model, t)
        for tid, pairs in enumerate(brute_force_interactions(model, t)):
            assert catalog.pairs_at(tid) == pairs
            fast, checked = catalog.interactions_at([tid])[0], Interaction(tuple(reversed(pairs)))
            assert fast == checked and checked == fast
            assert hash(fast) == hash(checked)
            assert fast.sort_key() == checked.sort_key()
            assert fast.pairs == checked.pairs == pairs


# --- covers and rho -----------------------------------------------------------


def test_covers_printer_row(printer_locating):
    # row 4 of the printer array covers (size=A5, color=No)
    assert covers(printer_locating.rows[3], Interaction(((1, 1), (2, 1))))


def test_covers_empty_interaction_vacuously():
    assert covers([0, 0, 0, 0], Interaction(()))


def test_covers_mismatch():
    assert not covers([0, 0, 0, 0], Interaction(((0, 1),)))


def test_rho_failing_set_of_faulty_pair(printer_locating):
    assert rho(printer_locating, Interaction(((1, 1), (2, 1)))) == frozenset({4, 5, 10})


def test_rho_empty_array():
    empty = TestArray(SutModel((2, 2, 2)), [])
    assert rho(empty, Interaction(((0, 0),))) == frozenset()


def test_rho_empty_interaction_is_all_rows(printer_covering):
    assert rho(printer_covering, Interaction(())) == frozenset(range(1, 7))


def test_rho_validates_interaction(printer_covering):
    with pytest.raises(ValueError):
        rho(printer_covering, Interaction(((9, 0),)))


# --- random arrays -------------------------------------------------------------


def test_random_array_zero_rows():
    arr = random_array(SutModel((2, 3)), 0, random.Random(1))
    assert arr.m == 0


def test_random_array_deterministic_per_seed():
    model = SutModel((2, 3, 4))
    a = random_array(model, 20, random.Random(99))
    b = random_array(model, 20, random.Random(99))
    assert a.rows == b.rows


def test_random_array_uniform_frequencies():
    # model (5), 10000 rows: each value expected 2000 times, sd = 40
    arr = random_array(SutModel((5,)), 10000, random.Random(5))
    counts = [0] * 5
    for row in arr.rows:
        counts[row[0]] += 1
    for c in counts:
        assert abs(c - 2000) <= 5 * 40


def test_test_array_validation():
    model = SutModel((2, 3))
    with pytest.raises(ValueError):
        TestArray(model, [[0, 3]])
    with pytest.raises(ValueError):
        TestArray(model, [[0]])


# --- capacity gate -------------------------------------------------------------


def test_capacity_error_survives_pickling():
    # a process pool pickles a worker's exception back to the parent
    error = CapacityError(30, 0)
    copy = pickle.loads(pickle.dumps(error))
    assert (copy.n_interactions, copy.budget_mb) == (30, 0)
    assert str(copy) == str(error) == "30 interactions exceed the 0 MiB index budget (override with LOCARAY_MEM_BUDGET_MB)"


def test_capacity_says_how_many_structures_fit(monkeypatch):
    # spin-s at t=2: 992 interactions, 357,120 B at 360 B each
    model = parse_model("2^13 4^5")
    monkeypatch.delenv("LOCARAY_MEM_BUDGET_MB", raising=False)
    assert check_capacity(model, 2) == 1503  # 512 MiB
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "1")
    assert check_capacity(model, 2) == 2
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(CapacityError):
        check_capacity(model, 2)


def test_capacity_counts_interactions_once_per_model_and_strength(monkeypatch):
    model = parse_model("2^40 3^10")
    check_capacity(model, 2)
    before = interaction_count.cache_info()
    check_capacity(parse_model("2^40 3^10"), 2)
    assert interaction_count.cache_info().hits == before.hits + 1
    assert interaction_count.cache_info().misses == before.misses
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(CapacityError):  # the budget is read on every call
        check_capacity(model, 2)


# --- array file format -----------------------------------------------------------


def test_format_and_parse_round_trip(printer_locating):
    text = format_array(printer_locating, 2)
    arr, t = parse_array(text)
    assert t == 2
    assert arr == printer_locating
    assert text.endswith("\n")
    assert "\r" not in text


def test_save_and_load_round_trip(printer_locating, tmp_path):
    path = tmp_path / "printer.la"
    save_array(printer_locating, 2, path)
    assert path.read_bytes() == format_array(printer_locating, 2).encode()
    assert load_array(path) == (printer_locating, 2)


def test_format_is_byte_stable(printer_locating):
    assert format_array(printer_locating, 2) == format_array(printer_locating, 2)
    first = format_array(printer_locating, 2).split("\n")
    assert first[0] == "2^3 3"
    assert first[1] == "10 2"


def test_parse_array_skips_comments():
    text = "# comment\n2^2\n# another\n2 1\n0 1\n1 0\n"
    arr, t = parse_array(text)
    assert t == 1
    assert arr.rows == [[0, 1], [1, 0]]


def test_parse_array_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_array("2^2\n2 1\n0 1\n")  # missing a row
    with pytest.raises(ValueError):
        parse_array("2^2\n1 1\n0 7\n")  # entry out of range
    with pytest.raises(ValueError):
        parse_array("2^2\n")
