"""Verifier for covering/locating properties, plus fault localization.

This module is the independent oracle: it never imports ``locaray.cost``,
so neither the incremental engine nor the grouping of the coverage index
reaches a verdict here.  What it shares with the index lives in
``locaray.model``: the gate, the catalog decode and the row-set kernel
``model.row_sets``, which computes every covering row set from the array
(described there).  ``verify`` asks ``model.check_capacity``, as every
index build does, before it holds a row set per interaction, and
``locate_fault`` asks ``model.check_strength``.  An array of strength t is
*covering* when every t-way interaction is covered by at least one row, and
*locating* (for at most one fault) when, in addition, no two distinct t-way
interactions share the same covering row set.

``verify`` groups the row sets in one pass: a dict keeps the first tid of
each row set, and every later tid joins the member list of a shared row
set.  Only the members of the empty row set, which are the uncovered
interactions, and of the shared row sets the pair list reaches are
decoded, each tid once, in one ``InteractionCatalog.interactions_at`` call
on the catalog of the one (model, t) cache, ``model.enumerate_interactions``,
which the coverage index shares; on a locating array nothing is decoded
and no catalog is asked for.
``locate_fault`` never builds the whole kernel: comparing the failing rows
picks the few factors an answer can use, |F| * k compares, and only those
factors get a mask.  ``Interaction`` objects are built only for what a
report or a fault query returns.
"""

import itertools
from dataclasses import dataclass
from math import comb

from .model import Interaction, TestArray, check_capacity, check_strength, enumerate_interactions, row_sets

DEFAULT_COLLISION_PAIRS = 1000  # pairs listed in a report unless the caller asks otherwise


@dataclass
class VerifyReport:
    """Outcome of checking one array at one strength.

    ``collisions`` lists unordered pairs of distinct interactions with
    identical covering row sets, the pair ordered canonically, together with
    the shared row set, up to the cap ``verify`` was given.  Pairs whose
    shared row set is empty count as collisions too (they also show up in
    ``uncovered``).  ``collision_count`` is always exact even when the pair
    list was truncated.
    """

    strength: int
    is_covering: bool
    is_locating_exact1: bool
    is_locating_1bar: bool
    uncovered: list[Interaction]
    collisions: list[tuple[Interaction, Interaction, frozenset[int]]]
    collision_count: int
    collisions_truncated: bool = False


def _value_mask(array: TestArray, j: int, value: int) -> int:
    """One column mask of ``model.row_sets``: bit i set iff row i has ``value`` at factor j."""
    bits = 0
    for i, row in enumerate(array.rows):
        if row[j] == value:
            bits |= 1 << i
    return bits


def _rows(bits: int) -> frozenset[int]:
    """1-based row indices of a row-set mask, peeled off lowest bit first."""
    rows = []
    while bits:
        low = bits & -bits
        rows.append(low.bit_length())  # bit i is row i + 1
        bits ^= low
    return frozenset(rows)


def _shared_groups(rowsets: list[int]) -> tuple[list[list[int]], list[int]]:
    """The tids of every shared row set, one ascending list per row set in
    the order the row sets first occur, and the tids of the empty row set,
    which are the uncovered interactions.

    One pass keeps the first tid of each row set and lists every later tid,
    which is what makes a row set shared; a locating array has none.  The
    dict of first tids holds one per interaction and is freed on return,
    before the report decodes anything.
    """
    first: dict[int, int] = {}
    claim = first.setdefault
    later = [tid for tid, bits in enumerate(rowsets) if claim(bits, tid) != tid]
    groups: dict[int, list[int]] = {}
    for tid in later:
        bits = rowsets[tid]
        group = groups.get(bits)
        if group is None:
            groups[bits] = [first[bits], tid]
        else:
            group.append(tid)
    empty = groups.get(0) or ([first[0]] if 0 in first else [])
    # first tids are distinct, so the lists sort by them alone
    return sorted(groups.values()), empty


def verify(
    array: TestArray, t: int, max_collision_pairs: int | None = DEFAULT_COLLISION_PAIRS
) -> VerifyReport:
    """Check the covering and locating properties of ``array`` at strength ``t``.

    Interactions are grouped by covering row set; every group of size g
    contributes C(g, 2) colliding pairs.  Pairs are listed group by group,
    in the order the groups' row sets first occur in the catalog.
    ``max_collision_pairs`` caps only the materialized pair list, never the
    reported count; ``None`` lists every pair, which on a near-empty array
    is about |I_t|^2 / 2 of them.  Raises ValueError for a negative cap, and
    what ``model.check_capacity`` raises: ValueError for a strength outside
    1..k, CapacityError when the row sets would not fit the memory budget.
    """
    if max_collision_pairs is not None and max_collision_pairs < 0:
        raise ValueError(f"max_collision_pairs must be None or >= 0, got {max_collision_pairs}")
    check_capacity(array.model, t)
    rowsets = row_sets(array, t)

    shared, uncovered_tids = _shared_groups(rowsets)
    collision_count = sum(comb(len(group), 2) for group in shared)
    listed = collision_count if max_collision_pairs is None else min(collision_count, max_collision_pairs)

    # only the uncovered interactions and the groups the pair list reaches
    # are decoded, in one batch
    listed_groups = []
    room = listed
    for group in shared:
        if room <= 0:
            break
        # a group's first `room` pairs pair up only its first room + 1 members
        listed_groups.append(group[: room + 1])
        room -= comb(len(group), 2)
    uncovered: list[Interaction] = []
    collisions: list[tuple[Interaction, Interaction, frozenset[int]]] = []
    if uncovered_tids or listed_groups:
        # a listed empty row set is a prefix of the uncovered tids, decoded once
        decode = enumerate_interactions(array.model, t).interactions_at
        shared_tids = itertools.chain.from_iterable(group for group in listed_groups if rowsets[group[0]])
        decoded = iter(decode(uncovered_tids + list(shared_tids)))
        uncovered = list(itertools.islice(decoded, len(uncovered_tids)))
        for group in listed_groups:
            bits = rowsets[group[0]]
            pairs = itertools.combinations(itertools.islice(decoded, len(group)) if bits else uncovered[: len(group)], 2)
            rows = _rows(bits)
            collisions.extend((a, b, rows) for a, b in itertools.islice(pairs, listed - len(collisions)))

    is_covering = not uncovered
    is_locating_exact1 = collision_count == 0
    return VerifyReport(
        strength=t,
        is_covering=is_covering,
        is_locating_exact1=is_locating_exact1,
        is_locating_1bar=is_covering and is_locating_exact1,
        uncovered=uncovered,
        collisions=collisions,
        collision_count=collision_count,
        collisions_truncated=len(collisions) < collision_count,
    )


def locate_fault(array: TestArray, failing, t: int) -> list[Interaction]:
    """Interactions of strength ``t`` whose covering rows equal the failing set.

    ``failing`` is a set of 1-based row indices (the tests that failed).  On
    a locating array the result has at most one element for a non-empty
    failing set; an empty failing set means no fault and yields [].  The
    caller is responsible for having verified the array first.

    An interaction covering every failing row agrees with each of them, so
    its factors are among those where all failing rows hold one value;
    finding those candidates takes |F| * k compares.  Its row set is the
    AND of one row mask per factor, and only the candidates get a mask.
    Candidates are combined in ascending order, which keeps the catalog
    order.
    """
    check_strength(array.model, t)
    failing = frozenset(failing)
    for i in failing:
        if not 1 <= i <= array.m:
            raise ValueError(f"failing row index {i} out of range 1..{array.m}")
    if not failing:
        return []
    target = 0
    for i in failing:
        target |= 1 << (i - 1)
    failing_rows = [array.rows[i - 1] for i in failing]
    row = failing_rows[0]
    factors = [j for j, column in enumerate(zip(*failing_rows)) if column.count(row[j]) == len(failing_rows)]
    masks = {j: _value_mask(array, j, row[j]) for j in factors}
    hits = []
    for combo in itertools.combinations(factors, t):
        bits = -1  # every row
        for j in combo:
            bits &= masks[j]
        if bits == target:
            hits.append(Interaction(tuple((j, row[j]) for j in combo)))
    return hits
