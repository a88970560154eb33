"""Simulated annealing for a locating array of a fixed size.

One run starts from a uniformly random m x k array and repeatedly proposes a
neighbor, accepting it when the cost does not increase and otherwise with
probability exp(-delta/T) under a geometrically cooling temperature.  A run
ends as soon as a proposal (or the initial array) is locating, or after
``k_max`` iterations, whichever comes first.

Two neighbor notions are implemented: the baseline strategy changes one
uniformly chosen entry to a new value; the targeted strategy repairs a
deficiency directly, either covering a currently uncovered interaction by
overwriting a random row with it, or breaking up a pair of interactions
with identical covering rows.
"""

import math
import time
from dataclasses import dataclass
from random import Random

from .cost import CoverageIndex, Move, apply_move, build_index, entry_move, overwrite_move, undo_move
from .model import SutModel, TestArray, random_array

STRATEGIES = ("baseline", "proposed")


@dataclass(frozen=True)
class AnnealParams:
    """Control knobs of one annealing run.

    weight    relative penalty of an uncovered interaction vs. a collision
    t_init    initial temperature
    k_max     iteration cap per run
    cooling   geometric cooling rate per iteration, in (0, 1)
    strategy  neighbor selection: "proposed" (targeted) or "baseline"
    """

    weight: float = 4.0
    t_init: float = 0.5
    k_max: int = 2048
    cooling: float = 0.999
    strategy: str = "proposed"

    def __post_init__(self):
        if not 0 <= self.weight < math.inf:
            raise ValueError("weight must be finite and non-negative")
        if not 0 < self.t_init < math.inf:
            raise ValueError("t_init must be finite and positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling rate must lie in (0, 1)")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


class NoNeighborError(ValueError):
    """Raised when asked for a neighbor of an array that has none."""


def _random_other_value(rng: Random, domain: int, current: int) -> int:
    # uniform over the domain minus the current value, in one draw
    v = rng.randrange(domain - 1)
    return v + 1 if v >= current else v


def _nth_row(bits: int, n: int) -> int:
    """The row of the n-th lowest set bit of a row mask, counting from 0."""
    for _ in range(n):
        bits &= bits - 1  # peel the lowest set bit
    return (bits & -bits).bit_length() - 1


def select_neighbor_baseline(array: TestArray, rng: Random) -> Move:
    """Change one uniformly random entry to a uniformly random other value."""
    if array.m == 0:
        raise NoNeighborError("an array with no rows has no neighbors")
    i = rng.randrange(array.m)
    j = rng.randrange(array.model.k)
    v = _random_other_value(rng, array.model.values[j], array.rows[i][j])
    return entry_move(array, i, j, v)


def select_neighbor_proposed(array: TestArray, index: CoverageIndex, rng: Random) -> Move:
    """Targeted neighbor selection driven by the coverage index.

    If any interaction is uncovered, overwrite a uniformly random row with a
    uniformly random uncovered interaction.  Otherwise pick a uniformly
    random interaction among those sharing their covering rows with another
    one, and either alter one of its factors on a covering row (when it has
    more than one covering row and a fair coin says so) or stamp it onto a
    row outside its covering set.
    """
    m = array.m
    if m == 0:
        raise NoNeighborError("an array with no rows has no neighbors")
    randrange = rng.randrange
    tids = index.uncovered_ids
    if tids:
        tid = tids[randrange(len(tids))]
        return overwrite_move(array, randrange(m), index.catalog.pairs_at(tid))
    tids = index.colliding_ids
    if not tids:
        raise RuntimeError("array is already locating; no neighbor to select")
    tid = tids[randrange(len(tids))]
    pairs = index.catalog.pairs_at(tid)
    bits = index.rowsets[tid]
    covering = bits.bit_count()
    outside = m - covering
    if covering > 1:
        # no row left to overwrite forces the alter branch
        alter = outside == 0 or rng.getrandbits(1) == 1
    else:
        alter = outside == 0
    if alter:
        i = _nth_row(bits, randrange(covering))
        j = pairs[randrange(len(pairs))][0]
        v = _random_other_value(rng, array.model.values[j], array.rows[i][j])
        return entry_move(array, i, j, v)
    i = _nth_row(~bits & ((1 << m) - 1), randrange(outside))
    return overwrite_move(array, i, pairs)


def sa_run(
    model: SutModel,
    t: int,
    m: int,
    params: AnnealParams,
    rng: Random,
    deadline: float = math.inf,
    observer=None,
) -> TestArray | None:
    """One annealing run at a fixed size; the found array or None on failure.

    Deterministic for a fixed rng seed (as long as the deadline never
    fires).  The deadline is an absolute time.monotonic() value, checked
    once per iteration; the default, ``math.inf``, never fires.
    ``observer(iteration, temperature, delta, accepted, cost)`` is called
    after each acceptance decision, for tests and tracing.
    """
    array = random_array(model, m, rng)
    index = build_index(array, t)
    if index.is_locating():
        return array
    if m == 0:
        return None  # nothing to mutate and not locating
    weight = params.weight
    temperature = params.t_init
    cooling = params.cooling
    select_baseline = params.strategy == "baseline"
    random, exp, monotonic = rng.random, math.exp, time.monotonic
    # the index updates both lists in place; both empty means locating
    uncovered, colliding = index.uncovered_ids, index.colliding_ids
    # the neighbour selection, apply_move and undo_move are looked up in this
    # module's globals on every call, so a tracer can wrap them there
    for iteration in range(params.k_max):
        if monotonic() >= deadline:
            return None
        if select_baseline:
            move = select_neighbor_baseline(array, rng)
        else:
            move = select_neighbor_proposed(array, index, rng)
        delta = apply_move(index, array, move, weight)
        if not uncovered and not colliding:
            return array
        # a cooling rate <= 0.5 underflows the temperature to 0.0, where exp(-delta/T)
        # is 0; the draw is still made, so the rng stream stays the same
        accepted = delta <= 0 or random() < (exp(-delta / temperature) if temperature else 0.0)
        if not accepted:
            undo_move(index, array, move)
        if observer is not None:
            observer(iteration, temperature, delta, accepted, index.cost(weight))
        temperature *= cooling
    return None
