"""Incremental coverage index and the annealing cost function.

The search cost of an array is ``weight * U + C`` where U counts t-way
interactions covered by no row and C counts interactions that share their
(non-empty) covering row set with another interaction.  The cost is zero,
for any positive weight, exactly when the array is a locating array.

The index keeps, per interaction, its covering row set as a bit mask, plus
a grouping of equal non-empty masks and the lists of uncovered and of
colliding interaction ids, all maintained in O(1) per touched interaction;
U and C are the lengths of those two lists.  A group is one int.  With
``one = 1 << len(rowsets).bit_length()``, a power of two above every tid, a
row set held by one interaction maps to its bare tid (< ``one``), and one
shared by n >= 2 maps to ``n * one`` plus the XOR of their tids; joining is
``(g + one) ^ tid``, leaving ``(g - one) ^ tid``, and a group of two that
loses a member leaves ``one`` plus the other tid.  Most interactions of a
nearly locating array are alone in their group, so lone tids stay bare: a
retarget then moves one dict slot and allocates no int.

The build fills every row set at once with ``model.row_sets``, the
column-mask kernel that ``verify`` also uses, and then groups them; the
grouping and the incremental engine below are this module's own.

A single entry change (row i, factor j) can only affect interactions
containing factor j whose other pairs match row i, so a move touches
O(C(k-1, t-1)) interactions rather than all of I_t.  The index finds them
through the catalog's per-factor partner tables,
``InteractionCatalog.partners``: for every factor combination containing
j, its block offset, j's stride and the (factor, stride) pairs of the
other factors.  The same path serves every strength.  Each interaction
touched loses or gains row i, so one toggle loop, which XORs the row bit,
updates both kinds.

The catalog and its tables come from the one (model, t) cache, described
in ``locaray.model``.  Every build first asks ``model.check_capacity``,
before the cache is consulted, so a lowered budget still refuses.

``apply_move`` logs the tids each entry change toggled, and ``undo_move``
replays that log rather than walking the partner tables again: the
assignments in reverse, each with its (loses, gains) pairs swapped.  So
an undo reverts only the last move applied; any other move raises.
"""

from dataclasses import dataclass

from .model import (
    _BYTES_PER_INTERACTION,  # the gate's footprint figure, which perfbench reads here
    TestArray,
    check_capacity,
    enumerate_interactions,
    row_sets,
)

@dataclass(slots=True)
class Move:
    """A candidate array change, recorded with enough state to undo it.

    ``assignments`` lists (row, factor, old_value, new_value) in application
    order; it is all ``apply_move`` and ``undo_move`` read.  It stays a
    class rather than a bare tuple of assignments because a tracer wraps
    ``apply_move`` and ``undo_move`` and reads ``move.assignments`` by name.
    One is built per annealing iteration, so it is slotted, built
    positionally and not frozen: each of those makes it cheaper to build.
    """

    assignments: tuple[tuple[int, int, int, int], ...]


def entry_move(array: TestArray, i: int, j: int, value: int) -> Move:
    old = array.rows[i][j]
    if value == old:
        raise ValueError("entry move must change the value")
    return Move(((i, j, old, value),))


def overwrite_move(array: TestArray, i: int, pairs: tuple[tuple[int, int], ...]) -> Move:
    """Stamp the (factor, value) ``pairs`` onto row i; only the entries that differ change."""
    row = array.rows[i]
    return Move(tuple([(i, j, row[j], v) for j, v in pairs if row[j] != v]))


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
        check_capacity(array.model, t)  # before the cache
        self.catalog = enumerate_interactions(array.model, t)
        self._partners = self.catalog.partners
        self.uncovered_ids: list[int] = []
        self.colliding_ids: list[int] = []
        # row set -> the tid holding it, or, once n >= 2 share it, n * one + the
        # XOR of their tids (``one`` is set by the build; see the module docstring)
        self._groups: dict[int, int] = {}
        # the last move applied and the tids each of its entry changes toggled
        self._last_move: Move | None = None
        self._last_tids: list[list[int]] = []

        self._build(array)

    # --- construction --------------------------------------------------

    def _build(self, array: TestArray) -> None:
        rowsets = self.rowsets = row_sets(array, self.catalog.strength)
        one = self._one = 1 << len(rowsets).bit_length()
        groups = self._groups
        uncovered = self.uncovered_ids
        colliding = self.colliding_ids
        for tid, rs in enumerate(rowsets):
            if rs == 0:
                uncovered.append(tid)
                continue
            g = groups.get(rs)
            if g is None:
                groups[rs] = tid
                continue
            if g < one:  # a lone tid becomes a group of one, then two
                colliding.append(g)
                g += one
            groups[rs] = (g + one) ^ tid
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
        one = self._one
        u_items = self.uncovered_ids
        u_pos = self._uncovered_pos
        c_items = self.colliding_ids
        c_pos = self._colliding_pos
        for tid in tids:
            rs = rowsets[tid]
            if rs:
                g = groups.pop(rs)
                if g >= one:  # tid was shared
                    g = (g - one) ^ tid
                    p = c_pos.pop(tid)
                    last = c_items.pop()
                    if last != tid:
                        c_items[p] = last
                        c_pos[last] = p
                    if g < 2 * one:  # one member left: g - one is its tid
                        other = g - one
                        groups[rs] = other
                        p = c_pos.pop(other)
                        last = c_items.pop()
                        if last != other:
                            c_items[p] = last
                            c_pos[last] = p
                    else:
                        groups[rs] = g
            else:
                p = u_pos.pop(tid)
                last = u_items.pop()
                if last != tid:
                    u_items[p] = last
                    u_pos[last] = p
            rs ^= bit
            rowsets[tid] = rs
            if rs:
                g = groups.setdefault(rs, tid)
                if g is not tid:  # the row set was taken
                    if g < one:
                        c_pos[g] = len(c_items)
                        c_items.append(g)
                        g += one
                    groups[rs] = (g + one) ^ tid
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
    uncovered, colliding = index.uncovered_ids, index.colliding_ids
    before = weight * len(uncovered) + len(colliding)  # CoverageIndex.cost, inlined
    rows = array.rows
    entry_changed = index._entry_changed
    logged = []
    for i, j, old, new in move.assignments:
        row = rows[i]
        row[j] = new
        logged.append(entry_changed(row, i, j, old, new))
    index._last_move = move
    index._last_tids = logged
    return weight * len(uncovered) + len(colliding) - before


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
