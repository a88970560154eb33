"""Golden construct outputs: a fixed seed must keep giving the same array file.

The two arrays were recorded before the coverage index's move engine was
rewritten, and the spin-s digest before the per-move work around it was
cut; any change to RNG consumption, sample-set order or the cost
arithmetic shows up here as a different array or probe sequence.
"""

import hashlib

import pytest

from locaray import AnnealParams, SearchBudget, construct, format_array, parse_model

GOLDEN_T2 = (
    "2^8 3^3\n19 2\n"
    "0 0 0 0 0 0 0 1 2 0 0\n0 1 0 1 1 1 1 0 2 2 1\n0 1 0 0 0 0 1 0 0 2 0\n"
    "0 1 1 1 0 0 1 0 1 1 1\n1 0 1 1 1 0 1 0 0 1 2\n0 0 0 0 1 1 0 0 2 1 2\n"
    "0 1 0 1 0 0 0 0 2 1 2\n0 0 0 1 1 1 0 0 0 0 0\n0 1 0 0 1 1 1 1 1 0 1\n"
    "1 1 1 0 0 0 0 1 0 1 1\n1 1 1 1 1 1 0 1 1 0 0\n1 0 0 1 0 1 0 1 0 0 2\n"
    "1 0 1 0 0 1 1 1 2 1 0\n0 1 1 1 1 1 0 1 0 2 2\n1 1 1 0 1 1 0 0 1 2 1\n"
    "1 1 0 1 1 0 1 1 1 1 2\n0 0 1 1 0 0 1 1 2 2 1\n1 0 0 0 1 0 0 0 2 2 0\n"
    "0 0 1 0 1 0 0 1 1 0 1\n"
)
PROBES_T2 = [(20, True), (13, False), (16, False), (18, False), (19, True), (18, False), (18, False), (18, False)]

GOLDEN_T3 = (
    "2^5 3\n25 3\n"
    "1 1 0 1 0 1\n0 1 1 0 1 2\n0 0 0 1 1 0\n0 1 0 0 0 0\n1 0 0 0 0 0\n"
    "1 0 1 0 1 2\n0 1 0 1 0 2\n1 1 0 1 0 0\n1 0 1 1 0 1\n1 1 1 0 0 1\n"
    "0 0 0 0 0 2\n0 0 0 1 1 2\n0 1 1 1 1 0\n1 0 0 1 0 2\n1 1 1 1 1 2\n"
    "1 1 0 0 1 0\n1 0 1 0 1 0\n1 1 1 0 0 2\n0 0 1 0 1 1\n0 1 0 0 1 1\n"
    "0 0 0 1 1 1\n1 0 1 1 1 0\n0 1 1 1 0 1\n0 0 1 1 0 0\n1 0 0 0 1 1\n"
)
PROBES_T3 = [(42, True), (28, True), (21, False), (24, False), (26, True), (25, True), (24, False), (24, False), (24, False)]


@pytest.mark.parametrize(
    "spec, t, seed, golden, probes",
    [("2^8 3^3", 2, 7, GOLDEN_T2, PROBES_T2), ("2^5 3", 3, 3, GOLDEN_T3, PROBES_T3)],
    ids=["t2", "t3"],
)
def test_construct_matches_golden_array(spec, t, seed, golden, probes):
    result = construct(parse_model(spec), t, AnnealParams(), SearchBudget(timeout=600, seed=seed))
    assert not result.timed_out
    assert [(rec.rows, rec.success) for rec in result.history] == probes
    assert format_array(result.array, t) == golden


# spin-s, the construct-narrow benchmark instance: its first construct seed
SPIN_S_PROBES = [
    (29, False), (40, True), (34, False), (37, True), (35, False), (36, True), (35, True), (34, False), (34, False), (34, False)
]
SPIN_S_SHA256 = "1e51a16e9518342e6798467fab7b7c41a97ed2726879c073e5108591648f6d0f"


def test_construct_on_spin_s_matches_golden_digest():
    result = construct(parse_model("2^13 4^5"), 2, AnnealParams(), SearchBudget(timeout=600, seed=1))
    assert not result.timed_out
    assert [(rec.rows, rec.success) for rec in result.history] == SPIN_S_PROBES
    assert hashlib.sha256(format_array(result.array, 2).encode()).hexdigest() == SPIN_S_SHA256
