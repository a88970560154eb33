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
    """Stand-in for a process pool: records its size and runs its
    initializer and then every job in this process, so pool sizing can be
    tested without spawning."""

    def __init__(self, max_workers, initializer):
        self.max_workers = max_workers
        self.initializer = initializer
        self.jobs = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        self.jobs = list(jobs)
        self.initializer()
        return map(fn, self.jobs)


@pytest.fixture
def inline_pools(monkeypatch):
    """Every pool the search layer creates, in creation order; this process
    may use 2 CPUs.  Once a pool has run, this process is its worker until
    the test ends, so its constructs fork no child."""
    pools = []

    def make(max_workers, initializer):
        pools.append(InlinePool(max_workers, initializer))
        return pools[-1]

    monkeypatch.setattr(locaray.search, "_process_pool", make)
    monkeypatch.setattr(locaray.search, "_in_pool", False)  # restored when the test ends
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pools


class InlineChild:
    """Stand-in for the forked child of ``search.construct``: runs its probe
    at once, in this process, before the parent's probe, and keeps the
    outcome for ``outcome()``.  ``cancelled`` is set by ``close()``, which
    construct calls only on a child whose outcome it did not read."""

    def __init__(self, probe, size, n):
        self.size, self.n = size, n
        self.ran = probe(size, n)
        self.cancelled = False

    def outcome(self):
        return self.ran

    def close(self):
        self.cancelled = True


@pytest.fixture
def inline_children(monkeypatch):
    """Every child ``construct`` makes, in creation order, each an
    ``InlineChild``; this process may use 2 CPUs, so it speculates."""
    children = []

    def make(probe, size, n):
        children.append(InlineChild(probe, size, n))
        return children[-1]

    monkeypatch.setattr(locaray.search, "_ProbeChild", make)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return children
