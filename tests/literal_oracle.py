"""Definition-literal verifier and fault locator, the reference for the fast ones.

Every covering row set is recomputed by scanning all m rows for every
interaction of the catalog, |I_t| * m * t steps per call.  Only tests use
this module: ``locaray.verify`` must give equal reports and hits.
"""

import itertools

from locaray.model import Interaction, TestArray, covers, enumerate_interactions
from locaray.verify import VerifyReport


def literal_verify(array: TestArray, t: int, max_collision_pairs: int | None = None) -> VerifyReport:
    if not 1 <= t <= array.model.k:
        raise ValueError(f"strength {t} out of range for a {array.model.k}-factor model")
    groups: dict[frozenset[int], list[Interaction]] = {}
    uncovered: list[Interaction] = []
    for interaction in enumerate_interactions(array.model, t):
        rows = frozenset(
            i
            for i, row in enumerate(array.rows, start=1)
            if covers(row, interaction)
        )
        groups.setdefault(rows, []).append(interaction)
        if not rows:
            uncovered.append(interaction)

    collision_count = sum(
        len(members) * (len(members) - 1) // 2 for members in groups.values()
    )
    collisions: list[tuple[Interaction, Interaction, frozenset[int]]] = []
    truncated = False
    for rows, members in groups.items():
        if len(members) < 2 or truncated:
            continue
        for a, b in itertools.combinations(members, 2):
            if max_collision_pairs is not None and len(collisions) >= max_collision_pairs:
                truncated = True
                break
            collisions.append((a, b, rows))

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
    hits = []
    for interaction in enumerate_interactions(array.model, t):
        rows = frozenset(
            i for i, row in enumerate(array.rows, start=1) if covers(row, interaction)
        )
        if rows == failing:
            hits.append(interaction)
    return hits
