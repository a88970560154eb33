"""Core domain types: SUT models, interactions, test arrays, and coverage.

A system under test is described by the number of values each of its k
factors can take.  A test is a row assigning one value to every factor; an
interaction is a partial assignment touching t distinct factors.  The
central relation is which rows of an array cover which interactions:
``rho`` answers it for one interaction by scanning the rows, and
``row_sets`` for a whole catalog at once.

``row_sets`` is the one row-set kernel, shared by the coverage index's
build and by ``verify``.  It keeps one bit mask of rows per (factor,
value), and the row set of an interaction is the AND of the masks of its t
pairs, so a whole catalog costs about |I_t| big-int ANDs instead of
|I_t| * m row scans.  The ANDs are taken by prefix: each (t-1)-factor
prefix, from ``itertools.combinations``, starts from its first factor's
masks and ANDs in those of the rest, the last factor varying fastest, and
extends them by every later factor in one list comprehension.  Prefixes
come in lexicographic order and each extension in ascending factor order,
which is the catalog's order of combination blocks and of values within a
block: one extending comprehension per prefix, C(k - 1, t - 1) of them,
rather than one per combination, C(k, t).  At t = 1 the empty prefix,
covered by every row, extends to the masks themselves.

``InteractionCatalog`` numbers the strength-t interactions densely, one
block per factor combination; it holds the combinations and their block
offsets, and encodes indices for the coverage index through its
``partners`` tables, built on first use.  It decodes an index in one
place, ``pairs_at``, by ``divmod`` over the value counts, into the
canonical pairs tuple; that is also its one enumeration, tid by tid.  The
pairs are all the annealing loop reads, so an ``Interaction``, always
through its one checked constructor, is built only where a fault query
returns one or a reader decodes the tids of a ``verify`` report, through
``interactions_at``.

``enumerate_interactions`` is the one (model, t) cache: it keeps the
catalog of the last (model, t) asked for, and with it the partner tables
once an index has asked for them.  So every probe of one construct, and
every reader that decodes a ``verify`` report, share one catalog and one
set of tables, all read-only tuples; ``verify`` itself asks for no catalog,
and a run that only decodes never builds the tables.
``interaction_count`` keeps its own memo of |I_t| for the gate below,
which must count the catalog before anything of that size is built.

``check_capacity`` is the one gate in front of every structure that holds
a row set per interaction, the coverage index and ``verify``: it checks
the strength (1..k, through ``check_strength``, the one 1..k check on a
model, which ``locate_fault`` and the CLI also use) and returns how many
structures of |I_t| interactions fit the memory budget at once, 512 MiB
unless ``LOCARAY_MEM_BUDGET_MB`` says otherwise, raising ``CapacityError``
when not even one fits.  |I_t| is memoized for the last (model, t), but
the budget is read on every call, so a lowered budget still refuses.  The
CLI calls it too, in its own process before any file, pool or search.
Whatever runs probes at once, a construct with the one child it forks to
run probes beside it or ``search.construct_runs``' pool, runs no more of
them than the number it returns, nor more than the CPUs this process may
use.

Conventions: factors and values are 0-based everywhere in code; row indices
are 1-based in every human-facing or on-disk representation (``rho``,
reports, the array file format).
"""

import functools
import itertools
import math
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from random import Random


class ModelParseError(ValueError):
    """Raised for malformed model specifications."""


@dataclass(frozen=True)
class SutModel:
    """Per-factor domain sizes (v_1, ..., v_k) of the system under test."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 1:
            raise ValueError("a model needs at least one factor")
        for j, v in enumerate(self.values):
            if v < 2:
                raise ValueError(f"factor {j + 1} has {v} values; every factor needs at least 2")

    @property
    def k(self) -> int:
        return len(self.values)

    def spec_text(self) -> str:
        """Canonical textual form, run-length encoded: (2,2,2,3) -> '2^3 3'."""
        parts = []
        for v, run in itertools.groupby(self.values):
            n = len(list(run))
            parts.append(f"{v}^{n}" if n > 1 else f"{v}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.spec_text()


_TOKEN_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")

MAX_FACTORS = 10_000  # the largest bundled suite instance (gcc) has 199


def parse_model(spec: str) -> SutModel:
    """Parse a model specification such as ``"2^13 4^5"`` or ``"2,2,2,3"``.

    Tokens are separated by whitespace or commas.  Each token is either
    ``base^exp`` (exp factors with base values each) or a bare integer,
    shorthand for an exponent of 1.  Bases must be >= 2 and exponents >= 1,
    and the model may have at most ``MAX_FACTORS`` factors; the count is
    checked before the factor list grows.
    """
    tokens = spec.replace(",", " ").split()
    if not tokens:
        raise ModelParseError("empty model specification")
    values: list[int] = []
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise ModelParseError(f"malformed token {tok!r}")
        try:
            base = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:  # more digits than int() converts
            raise ModelParseError(f"token {tok!r}: number too long") from None
        if base < 2:
            raise ModelParseError(f"token {tok!r}: factors need at least 2 values")
        if exp < 1:
            raise ModelParseError(f"token {tok!r}: exponent must be at least 1")
        if exp > MAX_FACTORS - len(values):
            raise ModelParseError(f"token {tok!r}: a model may have at most {MAX_FACTORS} factors")
        values.extend([base] * exp)
    return SutModel(tuple(values))


@dataclass(frozen=True, slots=True)
class Interaction:
    """A set of (factor, value) pairs with pairwise-distinct factors.

    ``pairs`` is kept sorted by factor, which makes the representation
    canonical: two interactions are equal iff they assign the same values
    to the same factors.  The strength is the number of pairs.  Reports
    hold many of them, so the class is slotted: no per-object ``__dict__``.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(tuple(p) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        factors = [j for j, _ in pairs]
        if len(set(factors)) != len(factors):
            raise ValueError(f"duplicate factor in interaction {pairs}")

    @property
    def strength(self) -> int:
        return len(self.pairs)

    @property
    def factors(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.pairs)

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical ordering key: factor tuple first, then value tuple."""
        return (self.factors, tuple(v for _, v in self.pairs))

    def validate_for(self, model: SutModel) -> None:
        for j, v in self.pairs:
            if not 0 <= j < model.k:
                raise ValueError(f"factor {j} out of range for a {model.k}-factor model")
            if not 0 <= v < model.values[j]:
                raise ValueError(f"value {v} out of range for factor {j}")

    def __lt__(self, other: "Interaction") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        # human-facing: 1-based factors
        return "(" + ", ".join(f"{j + 1}={v}" for j, v in self.pairs) + ")"


@dataclass
class TestArray:
    """An m x k matrix of factor values; each row is one test."""

    __test__ = False  # not a pytest class, despite the name

    model: SutModel
    rows: list[list[int]]

    def __post_init__(self):
        self.rows = [list(row) for row in self.rows]
        k = self.model.k
        for i, row in enumerate(self.rows):
            if len(row) != k:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {k}")
            for j, a in enumerate(row):
                if not 0 <= a < self.model.values[j]:
                    raise ValueError(f"entry ({i + 1},{j + 1}) = {a} out of range")

    @property
    def m(self) -> int:
        return len(self.rows)

    def copy(self) -> "TestArray":
        return TestArray(self.model, [row[:] for row in self.rows])


def covers(row, interaction: Interaction) -> bool:
    """True iff the row agrees with every (factor, value) pair of the interaction."""
    return all(row[j] == v for j, v in interaction.pairs)


def rho(array: TestArray, interaction: Interaction) -> frozenset[int]:
    """The set of rows of the array covering the interaction (1-based indices)."""
    interaction.validate_for(array.model)
    return frozenset(
        i for i, row in enumerate(array.rows, start=1) if covers(row, interaction)
    )


def row_sets(array: TestArray, t: int) -> list[int]:
    """Covering row set of every strength-t interaction, in catalog order.

    Each row set is a bit mask, bit i set when row i + 1 covers the
    interaction; the kernel is described in the module docstring.  The
    strength is not checked here: callers pass ``check_capacity`` first.
    """
    # masks[j][v]: the rows holding value v at factor j
    masks = [[0] * v for v in array.model.values]
    for i, row in enumerate(array.rows):
        bit = 1 << i
        for j, value in enumerate(row):
            masks[j][value] |= bit
    k = len(masks)
    rowsets: list[int] = []
    # a prefix ends at factor k - 2 at the latest, so that a factor follows it
    for prefix in itertools.combinations(range(k - 1), t - 1):
        sets = masks[prefix[0]] if prefix else [-1]  # -1: the empty prefix, covered by every row
        for j in prefix[1:]:
            sets = [a & b for a in sets for b in masks[j]]
        rowsets += [a & b for j in range(prefix[-1] + 1 if prefix else 0, k) for a in sets for b in masks[j]]
    return rowsets


def random_array(model: SutModel, m: int, rng: Random) -> TestArray:
    """An m x k array with every entry drawn uniformly from its factor's domain."""
    if m < 0:
        raise ValueError("row count must be non-negative")
    return TestArray(model, [[rng.randrange(v) for v in model.values] for _ in range(m)])


@functools.lru_cache(maxsize=1)
def interaction_count(model: SutModel, t: int) -> int:
    """|I_t|: number of strength-t interactions, via the closed form
    sum over t-subsets S of factors of prod_{j in S} v_j (computed as the
    x^t coefficient of prod_j (1 + v_j x)).  Memoized for the last (model,
    t), which ``check_capacity`` asks about once per index build and verify
    and an ``InteractionCatalog`` takes as its size."""
    if t < 0 or t > model.k:
        raise ValueError(f"strength {t} out of range for a {model.k}-factor model")
    coeffs = [1] + [0] * t
    for v in model.values:
        for d in range(t, 0, -1):
            coeffs[d] += coeffs[d - 1] * v
    return coeffs[t]


DEFAULT_MEM_BUDGET_MB = 512
MEM_BUDGET_ENV = "LOCARAY_MEM_BUDGET_MB"
# per-interaction footprint of a running annealing probe: the coverage
# index (mask, group slot, sample-list slot) plus the catalog and partner
# tables of its (model, t), which a construct's first build allocates and
# its later probes share.  The tracemalloc peak of one default ``sa_run``,
# worst over Python 3.10-3.13, on 2^40 3^10 (t=2) at 12 / 20 / 33 rows was
# 333 / 271 / 299 B, and on 2^10 3^2 (t=3) at 12 / 20 / 33 rows 263 / 280 /
# 289 B, against at most 235 B right after a build: under churn the group
# dict resizes to about 3x its live entries.  ``verify``, which also holds
# a row set per interaction but reports tids, peaked on Python 3.11 at 54 /
# 85 / 115 / 141 B on 2^40 3^10 at 0 / 12 / 20 / 33 rows, and at 50 / 69 /
# 89 / 99 B on 2^10 3^2: on a 0-row array its report lists every tid as
# uncovered, one int each.
# The figure is the largest, 333 B, rounded up to a multiple of 40.
_BYTES_PER_INTERACTION = 360


class CapacityError(Exception):
    """The interaction catalog would exceed the configured memory budget."""

    def __init__(self, n_interactions: int, budget_mb: int):
        super().__init__(n_interactions, budget_mb)  # the args rebuild it when unpickled
        self.n_interactions = n_interactions
        self.budget_mb = budget_mb

    def __str__(self) -> str:
        return (
            f"{self.n_interactions} interactions exceed the {self.budget_mb} MiB index budget "
            f"(override with {MEM_BUDGET_ENV})"
        )


def check_strength(model: SutModel, t: int) -> None:
    """Raise ValueError unless strength ``t`` lies in 1..k; the CLI prints its message as it is."""
    if not 1 <= t <= model.k:
        raise ValueError(f"strength must lie in 1..{model.k}")


def check_capacity(model: SutModel, t: int) -> int:
    """How many structures, each holding a row set per strength-t
    interaction, fit the memory budget at once: an index or a ``verify``
    needs one, and a construct holds one per probe it runs at once.

    Raises ValueError for a strength outside 1..k or for a
    LOCARAY_MEM_BUDGET_MB that is not a non-negative whole number, and
    CapacityError when not even one structure of |I_t| interactions fits
    the budget in MiB that variable sets, 512 when it is unset.  The
    budget is read on every call.
    """
    check_strength(model, t)
    text = os.environ.get(MEM_BUDGET_ENV, str(DEFAULT_MEM_BUDGET_MB))
    if not text.strip().isdecimal():
        raise ValueError(f"{MEM_BUDGET_ENV} must be a non-negative whole number of MiB, got {text!r}")
    budget = int(text)
    n = interaction_count(model, t)
    fit = (budget << 20) // (n * _BYTES_PER_INTERACTION)
    if fit < 1:
        raise CapacityError(n, budget)
    return fit


class InteractionCatalog:
    """Dense, canonically ordered index of all strength-t interactions.

    The canonical order is lexicographic on the sorted factor tuple, then on
    the value tuple.  Indexing is arithmetic: each factor combination gets a
    contiguous block starting at its offset, with values ranked in mixed
    radix, the last factor varying fastest.  ``combos`` and ``offsets`` are
    tuples, so one catalog can be shared by everything built on the same
    (model, t).  The size is ``interaction_count``'s, which raises
    ValueError for a strength outside 0..k.
    """

    def __init__(self, model: SutModel, t: int):
        self.size = interaction_count(model, t)
        self.model = model
        self.strength = t
        self.combos: tuple[tuple[int, ...], ...] = tuple(itertools.combinations(range(model.k), t))
        value_count = model.values.__getitem__
        blocks = [math.prod(map(value_count, combo)) for combo in self.combos[:-1]]  # the last block ends at size
        self.offsets: tuple[int, ...] = tuple(itertools.accumulate(blocks, initial=0))

    def __len__(self) -> int:
        return self.size

    @functools.cached_property
    def partners(self) -> tuple[tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...], ...]:
        """Per factor j, one (offset, stride of j, ((other factor, stride), ...))
        entry for each factor combination containing j, in catalog order:
        the tid encoding of the coverage index's entry changes.

        A factor's stride is the product of the value counts of the factors
        after it in its combination, so a tid is its block's offset plus the
        sum of value * stride over its pairs.  The order fixes the order of
        the sample-set updates of an entry change, and so the positions the
        RNG picks from: catalog order for a fixed j is ascending in the
        partner factors at every strength.  Built on first use, so a catalog
        that was only asked to decode never holds them.
        """
        values = self.model.values
        tables: list[list] = [[] for _ in values]
        shared: dict[tuple, tuple] = {}  # equal partner tuples are stored once
        for combo, offset in zip(self.combos, self.offsets):
            strides = [math.prod(values[jj] for jj in combo[d + 1 :]) for d in range(len(combo))]
            for d, j in enumerate(combo):
                others = tuple((jj, stride) for e, (jj, stride) in enumerate(zip(combo, strides)) if e != d)
                tables[j].append((offset, strides[d], shared.setdefault(others, others)))
        return tuple(tuple(entries) for entries in tables)

    def pairs_at(self, tid: int) -> tuple[tuple[int, int], ...]:
        """The canonical (factor, value) pairs of the interaction at a dense
        index, sorted by factor; IndexError outside 0..len - 1.

        The one tid decoder: the block is found by bisecting the offsets,
        and the rank within it is peeled off from the last factor, which
        varies fastest, one ``divmod`` by its value count per factor.
        """
        if not 0 <= tid < self.size:
            raise IndexError(tid)
        offsets = self.offsets
        pos = bisect_right(offsets, tid) - 1
        rem = tid - offsets[pos]
        values = self.model.values
        pairs = []
        for j in reversed(self.combos[pos]):
            rem, v = divmod(rem, values[j])
            pairs.append((j, v))
        pairs.reverse()  # combos are ascending, so the pairs are now canonical
        return tuple(pairs)

    def interactions_at(self, tids) -> list[Interaction]:
        """The interactions at a sequence of dense indices, in that order."""
        return [Interaction(self.pairs_at(tid)) for tid in tids]


@functools.lru_cache(maxsize=1)
def enumerate_interactions(model: SutModel, t: int) -> InteractionCatalog:
    """Catalog of every strength-t interaction of the model, canonically ordered.

    The one (model, t) cache, described in the module docstring: the
    catalog of the last (model, t) asked for, with its partner tables once
    built, shared read-only by every coverage index and by every reader
    that decodes a ``verify`` report.
    """
    return InteractionCatalog(model, t)


# --- array file format ------------------------------------------------------
#
# line 1: model spec text          e.g.  2^3 3
# line 2: two integers  m t
# lines 3..m+2: k space-separated entries per row
# lines starting with '#' are comments and are ignored; LF endings.


def format_array(array: TestArray, strength: int) -> str:
    lines = [array.model.spec_text(), f"{array.m} {strength}"]
    lines.extend(" ".join(str(a) for a in row) for row in array.rows)
    return "\n".join(lines) + "\n"


def parse_array(text: str) -> tuple[TestArray, int]:
    """Parse the array file format; returns (array, strength)."""
    lines = [ln.strip() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError("array file needs a model line and an 'm t' line")
    model = parse_model(lines[0])
    head = lines[1].split()
    if len(head) != 2:
        raise ValueError(f"expected 'm t' on the second line, got {lines[1]!r}")
    m, t = int(head[0]), int(head[1])
    if m < 0 or t < 0:
        raise ValueError("m and t must be non-negative")
    row_lines = lines[2:]
    if len(row_lines) != m:
        raise ValueError(f"expected {m} row lines, found {len(row_lines)}")
    rows = []
    for ln in row_lines:
        rows.append([int(x) for x in ln.split()])
    return TestArray(model, rows), t


def save_array(array: TestArray, strength: int, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_array(array, strength))


def load_array(path) -> tuple[TestArray, int]:
    with open(path, encoding="utf-8") as fh:
        return parse_array(fh.read())
