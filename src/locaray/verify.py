"""Verifier for covering/locating properties, plus fault localization.

This module is the independent oracle: it computes every covering row set
from the array with its own column-mask kernel and never touches the
incremental machinery in ``locaray.cost``.  What it shares with the index
is the model's gate: ``verify`` asks ``model.check_capacity``, as every
index build does, before it holds a row set per interaction, and
``locate_fault`` asks ``model.check_strength``.  An array of strength t is
*covering* when every t-way interaction is covered by at least one row, and
*locating* (for at most one fault) when, in addition, no two distinct t-way
interactions share the same covering row set.

The kernel keeps one bit mask of rows per (factor, value), bit i set when
row i + 1 holds that value.  The row set of an interaction is the AND of
the masks of its t pairs, so a whole catalog of row sets costs about |I_t|
big-int ANDs instead of |I_t| * m row scans.  The ANDs are taken by
prefix: each (t-1)-factor prefix keeps its partial ANDs and extends them by
every later factor in one list comprehension, in catalog order.

``verify`` counts the interactions of each distinct row set and builds a
member list only for the shared row sets, plus the empty one.  Only then,
and only if one of those exists, does it build the interaction catalog, to
decode what the report lists; on a locating array it builds none.
``locate_fault`` never builds the whole kernel: comparing the failing rows
picks the few factors an answer can use, |F| * k compares, and only those
factors get a mask.  ``Interaction`` objects are built only for what a
report or a fault query returns.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

from .model import Interaction, TestArray, check_capacity, check_strength, enumerate_interactions

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


def _column_masks(array: TestArray) -> list[list[int]]:
    """masks[j][v]: bit i set iff row i (0-based) has value v at factor j."""
    masks = [[0] * v for v in array.model.values]
    for i, row in enumerate(array.rows):
        bit = 1 << i
        for j, value in enumerate(row):
            masks[j][value] |= bit
    return masks


def _value_mask(array: TestArray, j: int, value: int) -> int:
    """One entry of ``_column_masks``: bit i set iff row i has ``value`` at factor j."""
    bits = 0
    for i, row in enumerate(array.rows):
        if row[j] == value:
            bits |= 1 << i
    return bits


def _row_sets(array: TestArray, t: int) -> list[int]:
    """Covering row set of every strength-t interaction, in catalog order.

    The walk keeps the partial ANDs of each (t-1)-factor prefix, the last
    factor varying fastest, and extends them by every later factor in one
    comprehension.  Prefixes come in lexicographic order and each extension
    in ascending factor order, which is the catalog's order of combination
    blocks and of values within a block: C(k, t-1) comprehensions rather
    than C(k, t).  At t = 1 the empty prefix extends to the masks themselves.
    """
    masks = _column_masks(array)
    k = len(masks)
    last = t - 1
    rowsets: list[int] = []

    # depth first over the prefixes, in lexicographic order: an entry holds
    # a prefix's partial ANDs, the first factor that may follow it and its
    # length; children are pushed last first, so that they pop first first
    stack = [([-1], 0, 0)]  # -1: the empty prefix, covered by every row
    while stack:
        sets, start, depth = stack.pop()
        if depth == last:
            rowsets += [a & b for j in range(start, k) for a in sets for b in masks[j]]
        else:
            for j in reversed(range(start, k - last + depth)):
                stack.append(([a & b for a in sets for b in masks[j]], j + 1, depth + 1))
    return rowsets


def _rows(bits: int) -> frozenset[int]:
    """1-based row indices of a row-set mask, peeled off lowest bit first."""
    rows = []
    while bits:
        low = bits & -bits
        rows.append(low.bit_length())  # bit i is row i + 1
        bits ^= low
    return frozenset(rows)


def verify(
    array: TestArray, t: int, max_collision_pairs: int | None = DEFAULT_COLLISION_PAIRS
) -> VerifyReport:
    """Check the covering and locating properties of ``array`` at strength ``t``.

    Interactions are grouped by covering row set; every group of size g
    contributes C(g, 2) colliding pairs.  Pairs are listed group by group,
    in the order the groups' row sets first occur in the catalog.
    ``max_collision_pairs`` caps only the materialized pair list, never the
    reported count; ``None`` lists every pair, which on a near-empty array
    is about |I_t|^2 / 2 of them.  Raises what ``model.check_capacity``
    raises: ValueError for a strength outside 1..k, CapacityError when the
    row sets would not fit the memory budget.
    """
    check_capacity(array.model, t)
    rowsets = _row_sets(array, t)
    counts = Counter(rowsets)  # row set -> group size, in first-occurrence order
    shared = list(itertools.compress(counts, map((1).__lt__, counts.values())))  # size >= 2
    collision_count = sum(comb(counts[bits], 2) for bits in shared)
    listed = collision_count if max_collision_pairs is None else min(collision_count, max_collision_pairs)

    # member lists only for the shared row sets, and for the empty one,
    # whose members are the uncovered interactions; a locating array has
    # neither, so it needs no member scan and no catalog
    members: dict[int, list[int]] = {bits: [] for bits in shared}
    if 0 in counts:
        members.setdefault(0, [])
    uncovered: list[Interaction] = []
    collisions: list[tuple[Interaction, Interaction, frozenset[int]]] = []
    if members:
        for tid, bits in itertools.compress(enumerate(rowsets), map(members.__contains__, rowsets)):
            members[bits].append(tid)
        interaction = enumerate_interactions(array.model, t).interaction_at
        uncovered = [interaction(tid) for tid in members.get(0, ())]
        for bits in shared:
            room = listed - len(collisions)
            if room <= 0:
                break
            # a group's first `room` pairs pair up only its first room + 1 members
            pairs = itertools.combinations([interaction(tid) for tid in members[bits][: room + 1]], 2)
            rows = _rows(bits)
            collisions.extend((a, b, rows) for a, b in itertools.islice(pairs, room))

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
