import os

import pytest

import locaray.search
from locaray import SutModel, TestArray

# Printer example: layout(2) size(2) color(2) duplex(3).
PRINTER_MODEL = SutModel((2, 2, 2, 3))

# 10-row array that locates any single faulty pair of factor values.
PRINTER_LOCATING_ROWS = [
    [0, 0, 0, 0],
    [0, 0, 0, 2],
    [0, 0, 1, 1],
    [0, 1, 1, 0],
    [0, 1, 1, 2],
    [1, 0, 0, 0],
    [1, 0, 0, 1],
    [1, 0, 1, 2],
    [1, 1, 0, 0],
    [1, 1, 1, 1],
]

# 6-row array covering every pair of factor values but not locating.
PRINTER_COVERING_ROWS = [
    [0, 0, 0, 0],
    [0, 0, 1, 1],
    [0, 1, 1, 2],
    [1, 0, 0, 2],
    [1, 1, 0, 1],
    [1, 1, 1, 0],
]


@pytest.fixture
def printer_model():
    return PRINTER_MODEL


@pytest.fixture
def printer_locating():
    return TestArray(PRINTER_MODEL, PRINTER_LOCATING_ROWS)


@pytest.fixture
def printer_covering():
    return TestArray(PRINTER_MODEL, PRINTER_COVERING_ROWS)


class InlinePool:
    """Stand-in for a process pool: records its size and runs every job
    in this process, so pool sizing can be tested without spawning."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.jobs = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        self.jobs = list(jobs)
        return map(fn, self.jobs)


@pytest.fixture
def inline_pools(monkeypatch):
    """Every pool the search layer creates, in creation order; this process may use 2 CPUs."""
    pools = []

    def make(max_workers):
        pools.append(InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(locaray.search, "_process_pool", make)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pools
