"""Core domain types: SUT models, interactions, test arrays, and coverage.

A system under test is described by the number of values each of its k
factors can take.  A test is a row assigning one value to every factor; an
interaction is a partial assignment touching t distinct factors.  The
central relation is which rows of an array cover which interactions.

``InteractionCatalog`` numbers the strength-t interactions densely, one
block per factor combination; it holds only the combinations and their
block offsets, and decodes an index by ``divmod`` over the value counts.

``check_capacity`` is the one gate in front of every structure that holds
a row set per interaction, the coverage index and ``verify``: it checks
the strength (1..k, through ``check_strength``, which ``locate_fault``
also uses) and compares |I_t| with the memory budget, 512 MiB unless
``LOCARAY_MEM_BUDGET_MB`` says otherwise, raising ``CapacityError``.  The
CLI calls it too, in its own process before any file, pool or search.

Conventions: factors and values are 0-based everywhere in code; row indices
are 1-based in every human-facing or on-disk representation (``rho``,
reports, the array file format).
"""

import bisect
import itertools
import math
import os
import re
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


@dataclass(frozen=True)
class Interaction:
    """A set of (factor, value) pairs with pairwise-distinct factors.

    ``pairs`` is kept sorted by factor, which makes the representation
    canonical: two interactions are equal iff they assign the same values
    to the same factors.  The strength is the number of pairs.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(tuple(p) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        factors = [j for j, _ in pairs]
        if len(set(factors)) != len(factors):
            raise ValueError(f"duplicate factor in interaction {pairs}")

    @classmethod
    def _canonical(cls, pairs: tuple[tuple[int, int], ...]) -> "Interaction":
        """An interaction from pairs already sorted by distinct factors, unchecked."""
        interaction = object.__new__(cls)
        object.__setattr__(interaction, "pairs", pairs)
        return interaction

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


def random_array(model: SutModel, m: int, rng: Random) -> TestArray:
    """An m x k array with every entry drawn uniformly from its factor's domain."""
    if m < 0:
        raise ValueError("row count must be non-negative")
    return TestArray(model, [[rng.randrange(v) for v in model.values] for _ in range(m)])


def interaction_count(model: SutModel, t: int) -> int:
    """|I_t|: number of strength-t interactions, via the closed form
    sum over t-subsets S of factors of prod_{j in S} v_j (computed as the
    x^t coefficient of prod_j (1 + v_j x))."""
    if t < 0 or t > model.k:
        raise ValueError(f"strength {t} out of range for a {model.k}-factor model")
    coeffs = [1] + [0] * t
    for v in model.values:
        for d in range(t, 0, -1):
            coeffs[d] += coeffs[d - 1] * v
    return coeffs[t]


DEFAULT_MEM_BUDGET_MB = 512
MEM_BUDGET_ENV = "LOCARAY_MEM_BUDGET_MB"
# per-interaction footprint of the coverage index (mask, group slot,
# sample-set slot) plus the catalog and partner tables of its (model, t),
# which a construct's first build allocates and its later probes share.
# tracemalloc peaks of a first build were 129-235 B on random arrays of
# 2^40 3^10 (t=2) and 2^10 3^2 (t=3) at 0-80 rows; the peak is near the
# row count where most interactions collide, so this is the largest figure
# rounded up.  ``verify``, which also holds a row set per interaction, is
# held to the same figure.
_BYTES_PER_INTERACTION = 240


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
    """Raise ValueError unless strength ``t`` lies in 1..k."""
    if not 1 <= t <= model.k:
        raise ValueError(f"strength {t} out of range for a {model.k}-factor model")


def check_capacity(model: SutModel, t: int) -> None:
    """The gate before a row set is held per strength-t interaction.

    Raises ValueError for a strength outside 1..k or a malformed
    LOCARAY_MEM_BUDGET_MB, and CapacityError when |I_t| would not fit the
    budget in MiB that variable sets, 512 when it is unset.
    """
    check_strength(model, t)
    text = os.environ.get(MEM_BUDGET_ENV, str(DEFAULT_MEM_BUDGET_MB))
    if not text.strip().isdecimal():
        raise ValueError(f"{MEM_BUDGET_ENV} must be a non-negative whole number of MiB, got {text!r}")
    budget = int(text)
    n = interaction_count(model, t)
    if n * _BYTES_PER_INTERACTION > budget * (1 << 20):
        raise CapacityError(n, budget)


class InteractionCatalog:
    """Dense, canonically ordered index of all strength-t interactions.

    The canonical order is lexicographic on the sorted factor tuple, then on
    the value tuple.  Indexing is arithmetic: each factor combination gets a
    contiguous block starting at its offset, with values ranked in mixed
    radix, the last factor varying fastest.  ``combos`` and ``offsets`` are
    tuples, so one catalog can be shared by everything built on the same
    (model, t).
    """

    def __init__(self, model: SutModel, t: int):
        if t < 0 or t > model.k:
            raise ValueError(f"strength {t} out of range for a {model.k}-factor model")
        self.model = model
        self.strength = t
        self.combos: tuple[tuple[int, ...], ...] = tuple(itertools.combinations(range(model.k), t))
        value_count = model.values.__getitem__
        blocks = [math.prod(map(value_count, combo)) for combo in self.combos]
        *offsets, self.size = itertools.accumulate(blocks, initial=0)
        self.offsets: tuple[int, ...] = tuple(offsets)

    def __len__(self) -> int:
        return self.size

    def interaction_at(self, idx: int) -> Interaction:
        """Interaction at a dense index, in the order iteration yields them.

        The rank within the block is peeled off from the last factor, which
        varies fastest, one ``divmod`` by its value count per factor.
        """
        if not 0 <= idx < self.size:
            raise IndexError(idx)
        pos = bisect.bisect_right(self.offsets, idx) - 1
        rem = idx - self.offsets[pos]
        values = self.model.values
        pairs = []
        for j in reversed(self.combos[pos]):
            rem, v = divmod(rem, values[j])
            pairs.append((j, v))
        # combos are ascending, so the reversed pairs are canonical
        return Interaction._canonical(tuple(reversed(pairs)))

    def __iter__(self):
        for combo in self.combos:
            for values in itertools.product(*(range(self.model.values[j]) for j in combo)):
                yield Interaction(tuple(zip(combo, values)))


def enumerate_interactions(model: SutModel, t: int) -> InteractionCatalog:
    """Catalog of every strength-t interaction of the model, canonically ordered."""
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
    with open(path, "w", newline="\n") as fh:
        fh.write(format_array(array, strength))


def load_array(path) -> tuple[TestArray, int]:
    with open(path) as fh:
        return parse_array(fh.read())
