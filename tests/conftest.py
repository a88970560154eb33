import marshal
import math
import os
import threading

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
    """Stand-in for a process pool: records its size and runs every job in
    this process, so pool sizing can be tested without spawning."""

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
    """Every pool the search layer creates, in creation order; this process
    may use 2 CPUs.  The constructs a pool runs fork no child, as in a real
    pool's workers."""
    pools = []

    def make(max_workers):
        pools.append(InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(locaray.search, "_process_pool", make)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pools


PARENT, CHILD = "parent", "child"


class Killed(BaseException):
    """Raised in the child thread of ``Turns`` when its parent closes it."""


class Turns:
    """Stand-in for the clock of ``search.construct`` and for its forked
    child, ``search._Peer``: ``spawn`` runs the child's worker loop in a
    thread of this process, and the two workers take turns on a fake clock.
    One worker runs at a time and gives up its turn only to wait, in a
    probe (``probe``) or for a message (``receive``); the next turn goes to
    the worker whose wait ends first, the parent on a tie.  Messages arrive
    as they are sent, so a run is deterministic.  ``probes`` logs (worker,
    size, n, start, end) per probe; ``idle`` logs, at every wait for a
    message that found none, the first probe of the path that no worker
    held (None if there was none)."""

    def __init__(self):
        self.now = 0.0
        self.path = None  # path(known): the probes of the path, as search._path yields them
        self.turn = PARENT
        self.lock = threading.Condition()
        self.ends = {}  # worker -> when its wait ends, or None while it waits for a message
        self.inbox = {PARENT: [], CHILD: []}
        self.gone = {CHILD}  # workers that have exited or been killed
        self.thread = None
        self.spawned = 0
        self.running = {}  # worker -> (size, n) of the probe it runs
        self.done = {}  # (size, n) -> (True or None,): every outcome so far
        self.probes, self.idle, self.errors = [], [], []

    def monotonic(self):
        return self.now

    def worker(self):
        return CHILD if threading.current_thread() is self.thread else PARENT

    def probe(self, size, n, seconds, found):
        me = self.worker()
        start, self.running[me] = self.now, (size, n)
        self.wait(me, self.now + seconds)
        del self.running[me]
        self.done[size, n] = (True if found else None,)
        self.probes.append((me, size, n, start, self.now))

    def wait(self, me, until):
        with self.lock:
            self.ends[me] = until
            self.pass_turn()
            self.resume(me)

    def pass_turn(self):
        ends = {}
        for worker, until in self.ends.items():
            if until is None:
                other = CHILD if worker == PARENT else PARENT
                until = self.now if self.inbox[worker] or other in self.gone else math.inf
            ends[worker] = until
        worker = min(ends, key=lambda w: (ends[w], w != PARENT))
        if ends[worker] == math.inf:
            raise AssertionError("both workers wait for a message")
        self.now = max(self.now, ends[worker])
        self.turn = worker
        self.lock.notify_all()

    def resume(self, me):
        if not self.lock.wait_for(lambda: self.turn == me, timeout=60):
            raise AssertionError(f"the {me} never got its turn back")
        del self.ends[me]
        if me in self.gone:
            raise Killed

    def spawn(self, work):
        assert self.thread is None or not self.thread.is_alive(), "a second child"
        self.spawned += 1
        self.gone.discard(CHILD)
        self.inbox = {PARENT: [], CHILD: []}
        self.ends[CHILD] = self.now
        self.thread = threading.Thread(target=self.child, args=(work,))
        self.thread.start()
        return End(self, PARENT)

    def child(self, work):
        killed = False
        try:
            with self.lock:
                self.resume(CHILD)
            work(End(self, CHILD))
        except Killed:
            killed = True
        except locaray.search._PeerGone:
            pass
        except BaseException as error:
            self.errors.append(error)
        with self.lock:
            self.running.pop(CHILD, None)
            if killed:
                self.turn = PARENT  # the parent waits in close(), not for a turn
                return
            self.gone.add(CHILD)
            self.pass_turn()

    def receive(self, me, wait):
        other = CHILD if me == PARENT else PARENT
        if wait and not self.inbox[me] and other not in self.gone:
            if self.path is not None:
                unknown = (key for key in self.path(self.done) if key not in self.done)
                self.idle.append(next((key for key in unknown if key != self.running.get(other)), None))
            self.wait(me, None)
        if not self.inbox[me] and other in self.gone:
            raise locaray.search._PeerGone
        messages, self.inbox[me] = self.inbox[me], []
        return messages

    def send(self, me, message):
        if me == PARENT and CHILD in self.gone:
            return  # as over a pipe: the parent reads what its child sent, then learns it is gone
        self.inbox[CHILD if me == PARENT else PARENT].append(marshal.loads(marshal.dumps(message)))

    def close(self):
        with self.lock:
            if CHILD not in self.gone:
                self.gone.add(CHILD)
                self.turn = CHILD
                self.lock.notify_all()
        self.thread.join(timeout=60)
        assert not self.thread.is_alive()


class End:
    """One worker's end of ``Turns``, in place of a ``search._Peer``."""

    def __init__(self, turns, me):
        self.turns, self.me = turns, me

    def receive(self, wait):
        return self.turns.receive(self.me, wait)

    def send(self, message):
        self.turns.send(self.me, message)

    def close(self):
        self.turns.close()


@pytest.fixture
def turns(monkeypatch):
    """A ``Turns`` that stands in for the child of every construct; this
    process may use 2 CPUs, so a construct forks one.  Its clock is the
    search layer's only where a test patches ``search.time`` with it."""
    turns = Turns()
    monkeypatch.setattr(locaray.search, "_Peer", turns.spawn)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield turns
    assert turns.errors == []
