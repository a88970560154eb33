"""Incremental coverage index and the annealing cost function.

The search cost of an array is ``weight * U + C`` where U counts t-way
interactions covered by no row and C counts interactions that share their
(non-empty) covering row set with another interaction.  The cost is zero,
for any positive weight, exactly when the array is a locating array.

The index keeps, per interaction, its covering row set as a bit mask, plus
a grouping of equal non-empty masks and the lists of uncovered and of
colliding interaction ids, all maintained in O(1) per touched interaction;
U and C are the lengths of those two lists.  A group is a bare interaction
id while only one interaction has that row set, and becomes a set once two
or more share it; most interactions of a nearly locating array are alone
in their group, so a retarget usually moves one dict slot and touches no
set.

The build fills every row set at once with a column-mask kernel: one mask
of rows per (factor, value), and each interaction's row set is the AND of
the masks of its t pairs, about |I_t| big-int ANDs in all.  It walks the
combinations by prefix: the partial ANDs of each (t-1)-factor prefix are
extended by every later factor in one list comprehension, C(k, t-1)
comprehensions in catalog order rather than one per combination.

A single entry change (row i, factor j) can only affect interactions
containing factor j whose other pairs match row i, so a move touches
O(C(k-1, t-1)) interactions rather than all of I_t.  The index finds them
through per-factor partner tables: for every factor combination
containing j, its block offset, j's stride and the (factor, stride) pairs
of the other factors.  The same path serves every strength.  Each
interaction touched loses or gains row i, so one toggle loop, which XORs
the row bit, updates both kinds.

The catalog and the partner tables depend only on (model, t).  They are
read-only tuples, cached for the last (model, t) built, so every probe of
one construct shares one set.  The memory budget and the strength range
are not decided here: every build first asks ``model.check_capacity``,
before the cache is consulted, so a lowered budget still refuses.

``apply_move`` logs the tids each entry change toggled, and ``undo_move``
replays that log rather than walking the partner tables again.  So an
undo reverts only the last move applied; any other move raises.
"""

import functools
from dataclasses import dataclass

from .model import (
    _BYTES_PER_INTERACTION,  # the gate's footprint figure, which perfbench reads here
    Interaction,
    InteractionCatalog,
    SutModel,
    TestArray,
    check_capacity,
    enumerate_interactions,
)

@dataclass(frozen=True)
class Move:
    """A candidate array change, recorded with enough state to undo it.

    ``assignments`` lists (row, factor, old_value, new_value) in application
    order.  ``kind`` is "entry" for a single-entry change or "row" for a row
    overwritten with an interaction (only the interaction's factors change).
    """

    kind: str
    assignments: tuple[tuple[int, int, int, int], ...]
    row: int
    interaction: Interaction | None = None


def entry_move(array: TestArray, i: int, j: int, value: int, interaction: Interaction | None = None) -> Move:
    old = array.rows[i][j]
    if value == old:
        raise ValueError("entry move must change the value")
    return Move(kind="entry", assignments=((i, j, old, value),), row=i, interaction=interaction)


def overwrite_move(array: TestArray, i: int, interaction: Interaction) -> Move:
    assignments = tuple(
        (i, j, array.rows[i][j], v) for j, v in interaction.pairs if array.rows[i][j] != v
    )
    return Move(kind="row", assignments=assignments, row=i, interaction=interaction)


class CoverageIndex:
    """Covering row sets of every strength-t interaction of one array.

    Bound to a single search run; mutated in lock step with its array via
    ``apply_move``/``undo_move``, where an undo reverts the last move
    applied.  ``uncovered_count`` and ``collision_count``, the two cost
    components, are the lengths of the tid lists below.

    ``uncovered_ids`` and ``colliding_ids`` list the tids of each kind for
    uniform random picks, ``ids[rng.randrange(len(ids))]``; a position
    dict per list makes add and remove O(1), and a removal swaps the last
    tid into the freed slot.
    """

    def __init__(self, array: TestArray, t: int):
        model = array.model
        check_capacity(model, t)  # before the cache

        self.model = model
        self.catalog, self._partners = _tables(model, t)
        self.rowsets: list[int] = []
        self.uncovered_ids: list[int] = []
        self.colliding_ids: list[int] = []
        # row set -> the tid holding it, or the set of tids once two or more share it
        self._groups: dict[int, int | set[int]] = {}
        # the last move applied and the tids each of its entry changes toggled
        self._last_move: Move | None = None
        self._last_tids: list[list[int]] = []

        self._build(array)

    # --- construction --------------------------------------------------

    def _build(self, array: TestArray) -> None:
        # masks[j][v]: the rows holding value v at factor j; a row set is the
        # AND of its pairs' masks, walked by prefix (see the module docstring)
        masks = [[0] * v for v in self.model.values]
        for i, row in enumerate(array.rows):
            bit = 1 << i
            for j, value in enumerate(row):
                masks[j][value] |= bit
        rowsets = self.rowsets
        k = len(masks)
        last = self.catalog.strength - 1

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

        groups = self._groups
        uncovered = self.uncovered_ids
        colliding = self.colliding_ids
        for tid, rs in enumerate(rowsets):
            if rs == 0:
                uncovered.append(tid)
                continue
            members = groups.get(rs)
            if members is None:
                groups[rs] = tid
            elif type(members) is int:
                groups[rs] = {members, tid}
                colliding += (members, tid)
            else:
                members.add(tid)
                colliding.append(tid)
        self._uncovered_pos = {tid: p for p, tid in enumerate(uncovered)}
        self._colliding_pos = {tid: p for p, tid in enumerate(colliding)}

    # --- incremental maintenance ----------------------------------------

    def _entry_changed(self, row, i: int, j: int, old_v: int, new_v: int) -> list[int]:
        """Update after entry (i, j) changed old_v -> new_v; ``row`` already holds new_v.

        Each combination containing j yields one interaction that loses row
        i and one that gains it.  Returns the toggled tids, ``[loses_0,
        gains_0, loses_1, gains_1, ...]`` in partner-table order.
        """
        tids = []
        for base, stride_j, others in self._partners[j]:
            for jj, stride in others:
                base += row[jj] * stride
            tids.append(base + old_v * stride_j)
            tids.append(base + new_v * stride_j)
        self._toggle(1 << i, tids)
        return tids

    def _toggle(self, bit: int, tids: list[int]) -> None:
        """Flip ``bit`` in the row set of each tid, in order.

        A tid leaves its group, or the uncovered list, and joins the group of
        its new row set, or the uncovered list.  Group-size transitions drive
        the colliding list: leaving a group of 2 removes both members,
        joining a singleton adds both, and sizes >= 3 move a single member.
        """
        rowsets = self.rowsets
        groups = self._groups
        u_items = self.uncovered_ids
        u_pos = self._uncovered_pos
        c_items = self.colliding_ids
        c_pos = self._colliding_pos
        for tid in tids:
            rs = rowsets[tid]
            if rs:
                members = groups.pop(rs)
                if type(members) is not int:
                    members.discard(tid)
                    p = c_pos.pop(tid)
                    last = c_items.pop()
                    if last != tid:
                        c_items[p] = last
                        c_pos[last] = p
                    if len(members) == 1:
                        other = members.pop()
                        groups[rs] = other
                        p = c_pos.pop(other)
                        last = c_items.pop()
                        if last != other:
                            c_items[p] = last
                            c_pos[last] = p
                    else:
                        groups[rs] = members
            else:
                p = u_pos.pop(tid)
                last = u_items.pop()
                if last != tid:
                    u_items[p] = last
                    u_pos[last] = p
            rs ^= bit
            rowsets[tid] = rs
            if rs:
                members = groups.setdefault(rs, tid)
                if members is not tid:  # the row set was taken
                    if type(members) is int:
                        groups[rs] = {members, tid}
                        c_pos[members] = len(c_items)
                        c_items.append(members)
                    else:
                        members.add(tid)
                    c_pos[tid] = len(c_items)
                    c_items.append(tid)
            else:
                u_pos[tid] = len(u_items)
                u_items.append(tid)

    # --- queries ---------------------------------------------------------

    @property
    def uncovered_count(self) -> int:
        return len(self.uncovered_ids)

    @property
    def collision_count(self) -> int:
        return len(self.colliding_ids)

    def cost(self, weight: float) -> float:
        return weight * len(self.uncovered_ids) + len(self.colliding_ids)

    def is_locating(self) -> bool:
        return not self.uncovered_ids and not self.colliding_ids

    def snapshot(self):
        """Comparable state for consistency checks in tests."""
        return (tuple(self.rowsets), self.uncovered_count, self.collision_count)


def _partner_tables(catalog: InteractionCatalog) -> tuple[tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...], ...]:
    """Per factor j, one (offset, stride of j, ((other factor, stride), ...))
    entry for each factor combination containing j, in catalog order.

    A factor's stride is the product of the value counts of the factors
    after it in its combination.  The order fixes the order of the
    sample-set updates of an entry change, and so the positions the RNG
    picks from: catalog order for a fixed j is ascending in the partner
    factors at every strength.
    """
    values = catalog.model.values
    tables: list[list] = [[] for _ in values]
    shared: dict[tuple, tuple] = {}  # equal partner tuples are stored once
    for combo, offset in zip(catalog.combos, catalog.offsets):
        strides = []
        step = 1
        for j in reversed(combo):
            strides.append(step)
            step *= values[j]
        strides.reverse()
        for d, j in enumerate(combo):
            others = tuple((jj, stride) for e, (jj, stride) in enumerate(zip(combo, strides)) if e != d)
            tables[j].append((offset, strides[d], shared.setdefault(others, others)))
    return tuple(tuple(entries) for entries in tables)


@functools.lru_cache(maxsize=1)
def _tables(model: SutModel, t: int) -> tuple[InteractionCatalog, tuple]:
    """The catalog and partner tables of (model, t), read-only and shared by
    every index built on them, so the probes of one construct build them once."""
    catalog = enumerate_interactions(model, t)
    return catalog, _partner_tables(catalog)


def build_index(array: TestArray, t: int) -> CoverageIndex:
    """Build the coverage index of ``array`` at strength ``t``.

    Raises what ``model.check_capacity`` raises: ValueError for a strength
    outside 1..k, CapacityError when |I_t| would blow the memory budget.
    """
    return CoverageIndex(array, t)


def apply_move(index: CoverageIndex, array: TestArray, move: Move, weight: float = 1.0) -> float:
    """Apply ``move`` to array and index; returns the cost delta at ``weight``.

    The index logs the move and the tids each of its entry changes toggled,
    for ``undo_move``.
    """
    before = index.cost(weight)
    rows = array.rows
    entry_changed = index._entry_changed
    logged = []
    for i, j, old, new in move.assignments:
        row = rows[i]
        row[j] = new
        logged.append(entry_changed(row, i, j, old, new))
    index._last_move = move
    index._last_tids = logged
    return index.cost(weight) - before


def undo_move(index: CoverageIndex, array: TestArray, move: Move) -> None:
    """Exactly revert ``move``, which must be the last move applied to the index.

    Replays the tids ``apply_move`` logged, in reversed assignment order and
    with each (loses, gains) pair swapped: the tids, in the order, that
    recomputing the entry changes backwards would find.  Raises ValueError
    for any other move, including one already undone.
    """
    if move is not index._last_move:
        raise ValueError("undo_move reverts only the last move applied to the index")
    index._last_move = None
    rows = array.rows
    toggle = index._toggle
    for (i, j, old, _new), tids in zip(reversed(move.assignments), reversed(index._last_tids)):
        rows[i][j] = old
        swapped = tids[:]
        swapped[::2] = tids[1::2]
        swapped[1::2] = tids[::2]
        toggle(1 << i, swapped)
