"""Golden construct outputs: a fixed seed must keep giving the same array file.

The arrays were recorded before the coverage index's move engine was
rewritten; any change to RNG consumption, sample-set order or the cost
arithmetic shows up here as a different array or probe sequence.
"""

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
