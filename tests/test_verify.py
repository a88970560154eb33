import ast
import importlib
import pathlib
import random

import pytest

from locaray import (
    CapacityError,
    Interaction,
    SutModel,
    TestArray,
    locate_fault,
    rho,
    verify,
)
from locaray.model import InteractionCatalog, enumerate_interactions, random_array
from locaray.verify import DEFAULT_COLLISION_PAIRS
from tests.literal_oracle import literal_locate_fault, literal_verify

FAULTY_PAIR = Interaction(((1, 1), (2, 1)))  # (size=A5, color=No)


def _decoded(array, report):
    """A report's uncovered interactions and colliding pairs, its tids decoded
    through the catalog and each row mask turned into its set of 1-based rows."""
    decode = enumerate_interactions(array.model, report.strength).interactions_at
    collisions = [
        (*decode((a, b)), frozenset(i + 1 for i in range(bits.bit_length()) if bits >> i & 1))
        for a, b, bits in report.collisions
    ]
    return decode(report.uncovered), collisions


def test_ten_row_printer_array_is_locating(printer_locating):
    report = verify(printer_locating, 2)
    assert report.is_covering
    assert report.is_locating_exact1
    assert report.is_locating_1bar
    assert report.uncovered == []
    assert report.collisions == []
    assert report.collision_count == 0


def test_six_row_printer_array_covers_but_does_not_locate(printer_covering):
    report = verify(printer_covering, 2)
    assert report.is_covering
    assert not report.is_locating_exact1
    assert not report.is_locating_1bar
    assert report.uncovered == []
    # pinned by brute force: 24 interactions share covering rows, 36 pairs
    assert report.collision_count == 36
    assert len(report.collisions) == 36
    # the known example: (size=A4, duplex=OneSide) ~ (color=Yes, duplex=OneSide) on row 1
    known = (Interaction(((1, 0), (3, 0))), Interaction(((2, 0), (3, 0))), frozenset({1}))
    assert known in _decoded(printer_covering, report)[1]


def test_collision_pairs_are_canonically_ordered(printer_covering):
    report = verify(printer_covering, 2)
    for (tid_a, tid_b, _), (a, b, rows) in zip(report.collisions, _decoded(printer_covering, report)[1], strict=True):
        assert tid_a < tid_b
        assert a < b
        assert rho(printer_covering, a) == rho(printer_covering, b) == rows


def test_empty_array_fails_both_conditions():
    report = verify(TestArray(SutModel((2, 2, 2)), []), 2)
    assert not report.is_covering
    assert not report.is_locating_1bar
    assert len(report.uncovered) == 12
    # every pair of (equally) uncovered interactions counts as a collision
    assert report.collision_count == 12 * 11 // 2
    assert not report.is_locating_exact1


def test_uncovered_pairs_count_as_collisions_too():
    # one row over (2,2): three of four strength-1 interactions differ, but
    # the two uncovered value assignments share an empty row set
    arr = TestArray(SutModel((2, 2)), [[0, 0]])
    report = verify(arr, 1)
    uncovered, collisions = _decoded(arr, report)
    assert [i.pairs for i in uncovered] == [((0, 1),), ((1, 1),)]
    assert report.collision_count >= 1
    empties = [(a, b) for a, b, rows in collisions if not rows]
    assert (Interaction(((0, 1),)), Interaction(((1, 1),))) in empties


def test_report_invariants_on_samples(printer_locating, printer_covering):
    samples = [
        (printer_locating, 2),
        (printer_covering, 2),
        (TestArray(SutModel((2, 2, 2)), []), 2),
        (TestArray(SutModel((2, 2)), [[0, 0], [0, 0]]), 1),
    ]
    for arr, t in samples:
        report = verify(arr, t)
        assert report.is_locating_1bar == (not report.uncovered and report.collision_count == 0)
        if report.is_locating_1bar:
            assert report.is_covering


def test_strength_out_of_range(printer_locating):
    with pytest.raises(ValueError):
        verify(printer_locating, 0)
    with pytest.raises(ValueError):
        verify(printer_locating, 5)


def test_verify_refuses_a_catalog_over_the_memory_budget(printer_locating, monkeypatch):
    # verify holds a row set per interaction, so the index's budget applies
    monkeypatch.setenv("LOCARAY_MEM_BUDGET_MB", "0")
    with pytest.raises(CapacityError) as exc_info:
        verify(printer_locating, 2)
    assert exc_info.value.n_interactions == 30


def test_default_report_lists_a_bounded_number_of_pairs():
    # over no rows, all 364 strength-2 interactions of 2^14 share one row set
    array = TestArray(SutModel((2,) * 14), [])
    report = verify(array, 2)
    assert report.collision_count == 364 * 363 // 2
    assert len(report.collisions) == DEFAULT_COLLISION_PAIRS
    assert report.collisions_truncated
    full = verify(array, 2, max_collision_pairs=None)
    assert len(full.collisions) == full.collision_count == report.collision_count
    assert report.collisions == full.collisions[:DEFAULT_COLLISION_PAIRS]


def test_collision_list_truncation(printer_covering):
    report = verify(printer_covering, 2, max_collision_pairs=5)
    assert len(report.collisions) == 5
    assert report.collision_count == 36
    assert report.collisions_truncated


def test_negative_pair_cap_is_rejected(printer_covering):
    # a negative cap used to list no pair and report the list truncated
    with pytest.raises(ValueError, match="max_collision_pairs"):
        verify(printer_covering, 2, max_collision_pairs=-1)


@pytest.mark.parametrize("cap", [1, 2, None])
def test_pairs_come_in_the_order_their_row_sets_first_occur(cap):
    # over two rows of 2^4 at t=1 the row sets first occur in the order
    # {1,2}, {}, {1}, {2}, but their second members in the order {1}, {2}, {1,2}, {}
    array = TestArray(SutModel((2, 2, 2, 2)), [[0, 0, 0, 0], [0, 1, 1, 0]])

    def one(j, v):
        return Interaction(((j, v),))

    expected = [
        (one(0, 0), one(3, 0), frozenset({1, 2})),
        (one(0, 1), one(3, 1), frozenset()),
        (one(1, 0), one(2, 0), frozenset({1})),
        (one(1, 1), one(2, 1), frozenset({2})),
    ]
    report = verify(array, 1, max_collision_pairs=cap)
    uncovered, collisions = _decoded(array, report)
    assert collisions == expected[:cap]
    assert report.collision_count == 4
    assert uncovered == [one(0, 1), one(3, 1)]


def test_each_listed_tid_is_decoded_once(monkeypatch):
    # the uncovered interactions of two all-zero rows share the empty row set,
    # whose group the pair list reaches: its members are the uncovered ones.
    # The report names them by tid, so verify decodes none of them; a reader
    # decodes what it prints
    decoded = []
    batch_decode = InteractionCatalog.interactions_at

    def counting(self, tids):
        decoded.extend(tids)
        return batch_decode(self, tids)

    monkeypatch.setattr(InteractionCatalog, "interactions_at", counting)
    array = TestArray(SutModel((2, 2, 2)), [[0, 0, 0], [0, 0, 0]])
    report = verify(array, 2, max_collision_pairs=20)
    assert any(bits == 0 for _, _, bits in report.collisions)
    assert len(report.uncovered) == 9
    assert report == literal_verify(array, 2, max_collision_pairs=20)
    assert decoded == []


def test_verify_decodes_nothing(monkeypatch):
    # a random 33-row 2^40 3^10 array, of the kind construct-wide audits,
    # leaves interactions uncovered and lists many colliding pairs
    def refuse(self, tid):
        raise AssertionError("verify decoded a tid")

    monkeypatch.setattr(InteractionCatalog, "pairs_at", refuse)
    array = random_array(SutModel((2,) * 40 + (3,) * 10), 33, random.Random(1))
    report = verify(array, 2, max_collision_pairs=1000)
    assert report.uncovered and report.collisions
    assert all(type(tid) is int for tid in report.uncovered)
    assert all(type(field) is int for triple in report.collisions for field in triple)
    assert all(len(triple) == 3 for triple in report.collisions)


# --- fault localization -------------------------------------------------------


def test_locate_fault_finds_the_faulty_pair(printer_locating):
    assert locate_fault(printer_locating, {4, 5, 10}, 2) == [FAULTY_PAIR]


def test_locate_fault_empty_set_means_no_fault(printer_locating):
    assert locate_fault(printer_locating, set(), 2) == []


def test_locate_fault_unmatched_set(printer_locating):
    # no strength-2 interaction of the printer array covers exactly row 1
    assert locate_fault(printer_locating, {1}, 2) == []


def test_locate_fault_rejects_bad_row_index(printer_locating):
    with pytest.raises(ValueError):
        locate_fault(printer_locating, {0}, 2)
    with pytest.raises(ValueError):
        locate_fault(printer_locating, {11}, 2)


@pytest.mark.parametrize("t", [0, -1, 5])
def test_locate_fault_rejects_strength_outside_1_to_k(printer_locating, t):
    # t is checked as verify checks it; at t=0 the literal oracle would
    # return the empty interaction when every row fails
    every_row = set(range(1, printer_locating.m + 1))
    message = r"^strength must lie in 1\.\.4$"  # the CLI prints it as it is
    with pytest.raises(ValueError, match=message):
        locate_fault(printer_locating, every_row, t)
    with pytest.raises(ValueError, match=message):
        verify(printer_locating, t)


def test_locate_fault_inverts_rho_on_locating_array(printer_locating):
    # feeding back the covering rows of any interaction singles it out
    for interaction in enumerate_interactions(printer_locating.model, 2):
        failing = rho(printer_locating, interaction)
        assert locate_fault(printer_locating, failing, 2) == [interaction]


def test_locate_fault_may_be_ambiguous_on_non_locating_array(printer_covering):
    # on the covering-only array a failing set can match several interactions
    ambiguous = locate_fault(printer_covering, {3}, 2)
    assert len(ambiguous) >= 2


def test_locate_fault_single_failing_row_keeps_every_factor():
    # every factor's candidate mask holds the one failing row
    rng = random.Random(83)
    hits = 0
    for t in (1, 2, 3):
        array = random_array(SutModel((2, 3, 2, 4, 2)), 9, rng)
        for i in range(1, array.m + 1):
            found = locate_fault(array, {i}, t)
            assert found == literal_locate_fault(array, {i}, t)
            hits += len(found)
    assert hits  # some interaction covers a single row only


def test_locate_fault_set_matched_by_no_interaction():
    # rows 1 and 2 agree on no factor, so no interaction covers both
    array = TestArray(SutModel((2, 3, 2)), [[0, 0, 0], [1, 1, 1], [0, 2, 1], [1, 0, 0]])
    for t in (1, 2, 3):
        assert locate_fault(array, {1, 2}, t) == literal_locate_fault(array, {1, 2}, t) == []
    with pytest.raises(ValueError):
        locate_fault(array, {1, 2}, 4)


def test_locate_fault_lists_every_hit_in_catalog_order():
    # rows 1 and 2 alone hold value 0 at factors 0, 1 and 3, and differ at factor 2
    array = TestArray(SutModel((2, 2, 3, 2)), [[0, 0, 0, 0], [0, 0, 1, 0], [1, 1, 2, 1], [1, 1, 0, 1]])
    found = locate_fault(array, {1, 2}, 2)
    assert found == literal_locate_fault(array, {1, 2}, 2)
    assert found == [Interaction(((0, 0), (1, 0))), Interaction(((0, 0), (3, 0))), Interaction(((1, 0), (3, 0)))]


# --- mask widths ----------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 63, 64, 65, 130])
def test_mask_kernel_matches_literal_scan_across_word_boundaries(m, t):
    # row i is bit i-1 of an int mask, so 64 and 65 rows straddle a machine word
    model = SutModel((2, 3, 2, 4))
    rng = random.Random(f"widths:{m}:{t}")
    uniform = random_array(model, 1, rng).rows * m
    if m:
        uniform[-1] = random_array(model, 1, rng).rows[0]  # row sets differ in the top bit only
    catalog = enumerate_interactions(model, t)
    for array in (random_array(model, m, rng), TestArray(model, uniform)):
        assert verify(array, t, max_collision_pairs=None) == literal_verify(array, t)
        assert verify(array, t, max_collision_pairs=4) == literal_verify(array, t, max_collision_pairs=4)
        failing_sets = [rho(array, catalog.interactions_at([rng.randrange(len(catalog))])[0]) for _ in range(6)]
        failing_sets += [frozenset({i}) for i in (1, 63, 64, 65, 130) if i <= m]
        failing_sets.append(frozenset(range(1, m + 1)))
        for failing in failing_sets:
            assert locate_fault(array, failing, t) == literal_locate_fault(array, failing, t)


# --- differential checks against the literal oracle ------------------------------


def _random_case(rng: random.Random, t: int) -> TestArray:
    """A random small model at strength t and an array over it: usually a
    few rows, sometimes 63-130 so that row masks cross machine words, and
    half the time drawn from a pool of two or three rows so that large
    groups share a non-empty row set."""
    model = SutModel(tuple(rng.randint(2, 3) for _ in range(rng.randint(t, 5))))
    m = rng.choice([*range(13), 63, 64, 65, 130])
    if rng.random() < 0.5:
        return random_array(model, m, rng)
    pool = random_array(model, rng.randint(2, 3), rng).rows
    return TestArray(model, [list(rng.choice(pool)) for _ in range(m)])


@pytest.mark.parametrize("t", [1, 2, 3])
def test_locate_fault_matches_literal_oracle_on_random_cases(t):
    rng = random.Random(f"locate:{t}")
    cases = 0
    while cases < 700:
        array = _random_case(rng, t)
        if not array.m:
            continue
        catalog = enumerate_interactions(array.model, t)
        failing_sets = [
            frozenset(),
            frozenset({rng.randint(1, array.m)}),
            frozenset(range(1, array.m + 1)),
            frozenset(rng.sample(range(1, array.m + 1), rng.randint(1, array.m))),
            rho(array, catalog.interactions_at([rng.randrange(len(catalog))])[0]),
        ]
        for failing in failing_sets:
            assert locate_fault(array, failing, t) == literal_locate_fault(array, failing, t)
        cases += len(failing_sets)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_verify_matches_literal_oracle_at_every_cap(t):
    # equal reports include the pair order and collisions_truncated
    rng = random.Random(f"verify:{t}")
    for _ in range(60):
        array = _random_case(rng, t)
        for cap in (None, 0, 1, 5, 1000):
            assert verify(array, t, max_collision_pairs=cap) == literal_verify(array, t, cap)


# --- the oracle boundary ---------------------------------------------------------


def _imported_modules(tree):
    """Absolute names of every module an ``import`` in the tree can bind, relative
    imports resolved against the ``locaray`` package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "locaray" + (f".{module}" if module else "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_verify_module_imports_nothing_from_the_index():
    # the verifier stays an oracle for the index only while it shares none of its code
    source = pathlib.Path(importlib.import_module("locaray.verify").__file__).read_text()
    names = list(_imported_modules(ast.parse(source)))
    assert "locaray.model.row_sets" in names  # the walk sees the kernel's import
    assert not [name for name in names if name == "locaray.cost" or name.startswith("locaray.cost.")]
