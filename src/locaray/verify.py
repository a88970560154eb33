"""Verifier for covering/locating properties, plus fault localization.

This module is the independent oracle: it never imports ``locaray.cost``,
so neither the incremental engine nor the grouping of the coverage index
reaches a verdict here.  What it shares with the index lives in
``locaray.model``: the gate and the row-set kernel ``model.row_sets``,
which computes every covering row set from the array (described there).
``verify`` asks ``model.check_capacity``, as every index build does,
before it holds a row set per interaction, and ``locate_fault`` asks
``model.check_strength``.  An array of strength t is *covering* when every
t-way interaction is covered by at least one row, and *locating* (for at
most one fault) when, in addition, no two distinct t-way interactions share
the same covering row set.

``verify`` groups the row sets in one pass: a dict keeps the first tid of
each row set, and every later tid joins the member list of a shared row
set.  Its report holds only ints: the tids of the uncovered interactions
(the members of the empty row set) and, for each listed colliding pair, two
tids and their shared row mask.  So ``verify`` decodes nothing and never
asks for a catalog; a tid is the interaction's position in the catalog of
``model.enumerate_interactions``, whose ``interactions_at`` decodes what a
reader wants to print.
``locate_fault`` never builds the whole kernel: comparing the failing rows
picks the few factors an answer can use, |F| * k compares, and only those
factors get a mask.  It returns ``Interaction`` objects, since its answer
holds few.
"""

import itertools
from dataclasses import dataclass
from math import comb

from .model import Interaction, TestArray, check_capacity, check_strength, row_sets
from .model import enumerate_interactions  # noqa: F401  unused here; perfbench's tracer wraps this name

DEFAULT_COLLISION_PAIRS = 1000  # pairs listed in a report unless the caller asks otherwise


@dataclass
class VerifyReport:
    """Outcome of checking one array at one strength.

    Interactions are named by tid, their position in the catalog of
    ``model.enumerate_interactions(model, strength)``, whose
    ``interactions_at`` decodes them.  ``uncovered`` lists the tids of the
    uncovered interactions in catalog order.  ``collisions`` lists unordered
    pairs of distinct interactions with identical covering row sets as
    ``(tid, tid, row mask)`` triples, the smaller tid first, bit i of the
    mask set when row i + 1 covers both, up to the cap ``verify`` was given.
    Pairs whose shared row set is empty (mask 0) count as collisions too
    (they also show up in ``uncovered``).  ``collision_count`` is always
    exact even when the pair list was truncated.
    """

    strength: int
    is_covering: bool
    is_locating_exact1: bool
    is_locating_1bar: bool
    uncovered: list[int]
    collisions: list[tuple[int, int, int]]
    collision_count: int
    collisions_truncated: bool = False


def _value_mask(array: TestArray, j: int, value: int) -> int:
    """One column mask of ``model.row_sets``: bit i set iff row i has ``value`` at factor j."""
    bits = 0
    for i, row in enumerate(array.rows):
        if row[j] == value:
            bits |= 1 << i
    return bits


def _shared_groups(rowsets: list[int]) -> tuple[list[list[int]], list[int]]:
    """The tids of every shared row set, one ascending list per row set in
    the order the row sets first occur, and the tids of the empty row set,
    which are the uncovered interactions.

    One pass keeps the first tid of each row set and lists every later tid,
    which is what makes a row set shared; a locating array has none.  The
    dict of first tids holds one per interaction and is freed on return.
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

    shared, uncovered = _shared_groups(rowsets)
    collision_count = sum(comb(len(group), 2) for group in shared)
    listed = collision_count if max_collision_pairs is None else min(collision_count, max_collision_pairs)
    collisions: list[tuple[int, int, int]] = []
    for group in shared:
        room = listed - len(collisions)
        if room <= 0:
            break
        # a group's first `room` pairs pair up only its first room + 1 members
        pairs = itertools.combinations(group[: room + 1], 2)
        bits = rowsets[group[0]]
        collisions.extend((a, b, bits) for a, b in itertools.islice(pairs, room))

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
