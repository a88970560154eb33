"""Definition-literal verifier and fault locator, the reference for the fast ones.

Every covering row set is recomputed by scanning all m rows for every
interaction, |I_t| * m * t steps per call.  The interactions come from this
module's own enumeration, sorted by the canonical order's definition, and a
tid is a position in it; so a report equal to ``locaray.verify``'s also
checks the catalog's order.  Only tests use this module: ``locaray.verify``
must give equal reports and ``locaray.locate_fault`` equal hits.
"""

import itertools

from locaray.model import Interaction, SutModel, TestArray, covers
from locaray.verify import VerifyReport


def literal_interactions(model: SutModel, t: int) -> list[Interaction]:
    """Every strength-t interaction, sorted by factor tuple, then by value tuple."""
    every = (
        Interaction(tuple(zip(combo, values)))
        for combo in itertools.combinations(range(model.k), t)
        for values in itertools.product(*(range(model.values[j]) for j in combo))
    )
    return sorted(every, key=Interaction.sort_key)


def _rows(array: TestArray, interaction: Interaction) -> frozenset[int]:
    return frozenset(i for i, row in enumerate(array.rows, start=1) if covers(row, interaction))


def literal_verify(array: TestArray, t: int, max_collision_pairs: int | None = None) -> VerifyReport:
    if not 1 <= t <= array.model.k:
        raise ValueError(f"strength {t} out of range for a {array.model.k}-factor model")
    groups: dict[int, list[int]] = {}
    uncovered: list[int] = []
    for tid, interaction in enumerate(literal_interactions(array.model, t)):
        mask = sum(1 << (i - 1) for i in _rows(array, interaction))  # bit i is row i + 1
        groups.setdefault(mask, []).append(tid)
        if not mask:
            uncovered.append(tid)

    collision_count = sum(
        len(members) * (len(members) - 1) // 2 for members in groups.values()
    )
    collisions: list[tuple[int, int, int]] = []
    truncated = False
    for mask, members in groups.items():
        if len(members) < 2 or truncated:
            continue
        for a, b in itertools.combinations(members, 2):
            if max_collision_pairs is not None and len(collisions) >= max_collision_pairs:
                truncated = True
                break
            collisions.append((a, b, mask))

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
        collisions_truncated=truncated,
    )


def literal_locate_fault(array: TestArray, failing, t: int) -> list[Interaction]:
    failing = frozenset(failing)
    for i in failing:
        if not 1 <= i <= array.m:
            raise ValueError(f"failing row index {i} out of range 1..{array.m}")
    if not failing:
        return []
    return [interaction for interaction in literal_interactions(array.model, t) if _rows(array, interaction) == failing]
