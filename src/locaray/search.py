"""Size bounds, the outer size search, and restarts of the construction driver.

``construct`` runs simulated annealing again and again at varying sizes, in
one loop that only runs probes: ``_path``, a generator over the outcomes
known so far, picks each size by the three rules its docstring gives
(bisect, widen, shrink).  A wall-clock timeout ends the search; the
smallest array found so far is the result.

Where two CPUs are free, one forked child runs probes beside the parent
(speculative computation, Witte, Chamberlain & Franklin, IEEE TPDS 2(4),
1991).  Both run one worker loop: each claims the first probe of the path
that nobody holds, taking a probe the other is running as failed, and runs
it on the seed the serial loop would give it, so neither idles while the
path has a free probe: the same sizes, seeds and arrays, in less wall time.
``construct_runs`` runs every construct, a plain one as one budget and
independent restarts as many, in this process or in a process pool;
``parallel_construct`` returns the restart with the smallest array, the
first restart being the plain construct.

One rule, ``_probes_at_once``, says how many probes may run at once: no
more than the CPUs this process may use, nor than ``model.check_capacity``
says fit the memory budget.  ``construct_runs`` alone applies it: it starts
no more pool processes than it allows, and lets a construct in this
process fork its child only where it allows two.
"""

import marshal
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import count
from random import Random

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .anneal import AnnealParams, sa_run
from .model import SutModel, TestArray, check_capacity, enumerate_interactions


def derive_seed(root: int, label: str) -> int:
    """Deterministic 64-bit child seed for a labeled subtask of a root seed:
    the first 8 bytes, big-endian, of the SHA-256 of ``"root:label"``.

    SHA-256 comes from the interpreter's built-in module, as ``random``
    takes its SHA-512, because ``hashlib`` loads OpenSSL's libcrypto, about
    3.5 MB of resident memory in every process, for one short digest per
    probe; ``hashlib`` is the fallback when no built-in module is compiled
    in.  The digest is the same either way."""
    digest = sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def tang_lower_bound(k: int, t: int, v: int) -> int:
    """Closed-form lower bound (Tang/Colbourn/Yin) on locating-array size.

    For a uniform model of k factors with v values each and strength t:

        min( ceil(2*C*v^t / (1+C)),
             ceil(-3/2 - C + sqrt(C^2 + (3+6*v^t)*C + 9/4)) )

    with C = C(k, t).  Evaluated in exact integer arithmetic: the second
    branch is ceil((sqrt(D) - (2C+3)) / 2) with D = 4C^2 + (12+24*v^t)C + 9,
    the least integer z with 2z + 2C + 3 >= ceil(sqrt(D)) = 1 + isqrt(D - 1).
    """
    if not 1 <= t <= k:
        raise ValueError(f"strength must lie in 1..{k}")
    if v < 2:
        raise ValueError("domain size must be at least 2")
    c = math.comb(k, t)
    w = v**t
    first = -((-2 * c * w) // (1 + c))  # exact ceiling division
    d = 4 * c * c + (12 + 24 * w) * c + 9
    shift = 2 * c + 3
    z = -((shift - (1 + math.isqrt(d - 1))) // 2)  # exact ceiling division
    return min(first, z)


def initial_bounds(model: SutModel, t: int) -> tuple[int, int]:
    """Search range for the optimum size: bound at min(v_i) below, at
    max(v_i)+1 above.  The upper end is a heuristic and may undershoot;
    the driver recovers by widening."""
    lo = tang_lower_bound(model.k, t, min(model.values))
    hi = tang_lower_bound(model.k, t, max(model.values) + 1)
    return lo, hi


@dataclass
class ProbeRecord:
    """One annealing run inside a construction: size tried, outcome, wall time."""

    rows: int
    success: bool
    elapsed: float


@dataclass
class SearchBudget:
    """Driver knobs: consecutive-failure cap while shrinking, wall-clock timeout, root seed."""

    max_retries: int = 3
    timeout: float = 3600.0
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if not self.timeout > 0:  # NaN fails too; inf means no deadline
            raise ValueError("timeout must be positive")


@dataclass
class SearchResult:
    """Smallest array found (None if none), every probe, and the seconds
    from the start until the search ended (``elapsed``) and until the best
    array was found (``time_to_best``).  From ``parallel_construct``, every
    field but ``elapsed`` and ``timed_out`` is the winning restart's own;
    those two describe the whole call."""

    array: TestArray | None
    rows: int | None
    history: list[ProbeRecord] = field(default_factory=list)
    timed_out: bool = False
    elapsed: float = 0.0
    time_to_best: float | None = None


def _path(known: dict, floor: int, high: int, max_retries: int):
    """Yield (size, n) for each probe of the search in turn, when probe n
    at size m has the outcome in ``known[m, n]``, its rows first (None if it
    failed), and every probe missing from ``known`` fails.  While probes are
    missing the path need not end: a search that finds nothing widens
    without end.

    The search starts from the range [floor, high] of ``initial_bounds``,
    with nothing found.  Each size follows one of three rules:

    - while the range [low, high] is not empty, probe its midpoint; a success
      moves ``high`` below the found size, a failure moves ``low`` past it;
    - when the range is empty and nothing has been found, the heuristic upper
      bound was too small: double ``high`` (no success has lowered it yet),
      so the search resumes at ``low``, above every size the failed pass
      ruled out, instead of probing from ``floor`` again (unbounded search,
      Bentley & Yao, IPL 5(3), 1976);
    - when the range is empty and an array has been found, probe one row
      fewer than the best array, stopping after ``max_retries`` failures in
      a row or below ``floor``.
    """
    low, best, failures = floor, None, 0
    for n in count():
        while low > high and best is None:
            high *= 2
        if low <= high:
            size = (low + high) // 2
        elif failures < max_retries and best > floor:
            size = best - 1
        else:
            return
        yield size, n
        if known.get((size, n), (None,))[0] is not None:
            # while shrinking, low is above the new high: the range stays empty
            best, high, failures = size, size - 1, 0
        elif low <= high:
            low = size + 1
        else:
            failures += 1


def construct(
    model: SutModel,
    t: int,
    params: AnnealParams | None = None,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Construct a small locating array for ``model`` at strength ``t``,
    probing the sizes ``_path`` picks: ``construct_runs`` with one budget,
    which decides whether a child runs probes beside this process.

    Probe n runs on child seed ``sa:n``, so its outcome does not depend on
    the process that runs it.  Probes run in one worker loop, ``work``:
    before each probe a worker reads what its peer has sent, walks the path
    of ``_path`` over the outcomes it knows, taking a probe its peer is
    running as failed, and claims the first probe on it that no worker
    holds; it waits for its peer only when the path has no such probe.
    Where a child is forked, it runs the loop beside this process, which
    stays a worker too, and is killed once the path is complete.  Alone, on
    one CPU or once the child has exited, the loop runs the probes of the
    path one after another.  The result is read off the path, so it is
    deterministic for a fixed budget seed, with or without the child,
    provided the timeout never fires.
    """
    return construct_runs(model, t, params or AnnealParams(), [budget or SearchBudget()], 1)[0]


def _construct(model: SutModel, t: int, params: AnnealParams, budget: SearchBudget, fork: bool = False) -> SearchResult:
    # construct, forking one child to run probes beside this process if fork
    # is set; construct_runs decides that, and its pool leaves it unset
    started = time.monotonic()
    deadline = started + budget.timeout
    floor, high = initial_bounds(model, t)

    def path(known):
        return _path(known, floor, high, budget.max_retries)

    def work(peer, known, child=False):
        # probe until the path is complete or the deadline has passed, keeping
        # each outcome in known: (size, n) -> (rows or None, start, elapsed)
        held = set()  # the probes the peer has claimed and not reported
        wait = child  # a child first waits for its parent's first claim, so they never start on one probe
        while True:
            if peer is not None:
                for key, *outcome in peer.receive(wait):
                    if outcome:  # (key, (rows or None, start, elapsed))
                        known.setdefault(key, outcome[0])
                        held.remove(key)
                    else:  # a claim: (key,)
                        held.add(key)
            free = next((key for key in path(known) if key not in known and key not in held), None)
            if free is None and all(key in known for key in path(known)):
                return  # the path is complete
            if time.monotonic() >= deadline:
                return
            wait = free is None  # every probe left on the path is the peer's
            if wait:
                continue
            size, n = free
            start = time.monotonic()
            if peer is not None:
                peer.send((free,))
            found = sa_run(model, t, size, params, Random(derive_seed(budget.seed, f"sa:{n}")), deadline)
            rows = None if found is None else found.rows
            elapsed = time.monotonic() - start
            known[free] = rows, start, elapsed
            if peer is not None:
                # only a parent needs the arrays; sending its child none keeps its
                # messages so small that it never blocks on a write
                peer.send((free, (rows if child or rows is None else True, start, elapsed)))
            if rows is None and start + elapsed >= deadline:
                return  # the failure says nothing about the size

    known = {}
    peer = None
    if fork:
        enumerate_interactions(model, t).partners  # built once, here, and inherited by the child
        try:
            peer = _Peer(partial(work, known={}, child=True))
        except OSError:
            pass  # no process to spare: every probe runs here
    try:
        try:
            work(peer, known)
        except _PeerGone:
            work(None, known)  # the child has exited: the probes it held run here
    finally:
        if peer is not None:
            peer.close()

    history, best, best_at, timed_out = [], None, None, False
    for size, n in path(known):
        if (size, n) not in known:
            timed_out = True  # the deadline cut the search with a size left to probe
            break
        rows, start, elapsed = known[size, n]
        history.append(ProbeRecord(size, rows is not None, elapsed))
        if rows is not None:
            best, best_at = TestArray(model, rows), start + elapsed - started
        elif start + elapsed >= deadline:
            timed_out = True  # the failure says nothing about the size
            break
    return SearchResult(
        array=best,
        rows=best.m if best is not None else None,
        history=history,
        timed_out=timed_out,
        elapsed=time.monotonic() - started,
        time_to_best=best_at,
    )


def _probes_at_once(model: SutModel, t: int) -> int:
    """How many probes of ``model`` at strength ``t`` may run at once: no
    more than the CPUs this process may use, nor than the structures
    ``check_capacity`` says fit the memory budget, whose errors it raises.
    The CPUs are read from the affinity mask, where os has one: under
    ``taskset -c 0`` it holds 1 CPU, whatever the host has."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, check_capacity(model, t))


class _PeerGone(Exception):
    """The other worker of a construct has exited or closed its pipes."""


class _Peer:
    """The other worker of a construct.  In the parent, ``_Peer(work)``
    forks a child that calls ``work`` with its own ``_Peer`` for the parent
    and exits when that returns or raises.  Messages are marshalled tuples,
    each framed by its length, over one pipe each way.  ``receive`` raises
    ``_PeerGone`` once it has read all that the other side sent before it
    closed its end; in the child, ``send`` raises it too, so a child whose
    parent has died exits at its next probe boundary.  In the parent,
    ``close()`` kills and reaps the child and closes the pipes; it does
    nothing the second time."""

    def __init__(self, work):
        down, up = os.pipe(), os.pipe()  # parent to child, child to parent
        try:
            pid = os.fork()
        except OSError:
            for fd in (*down, *up):
                os.close(fd)
            raise
        self.buffer = b""
        if pid == 0:
            try:
                os.close(down[1])
                os.close(up[0])
                self.pid, self.read, self.write = None, down[0], up[1]
                work(self)
            finally:
                os._exit(0)  # runs none of the parent's cleanup, whatever was raised
        os.close(down[0])
        os.close(up[1])
        self.pid, self.read, self.write = pid, up[0], down[1]

    def receive(self, wait: bool) -> list[tuple]:
        """The messages the peer has sent since the last call; if ``wait``,
        blocks until there is one."""
        messages = []
        while True:
            os.set_blocking(self.read, wait and not messages)
            try:
                data = os.read(self.read, 1 << 16)
            except BlockingIOError:
                return messages  # nothing more to read now
            if not data:
                if messages:
                    return messages  # the next call raises
                raise _PeerGone
            self.buffer += data
            while len(self.buffer) >= 4:
                end = 4 + int.from_bytes(self.buffer[:4], "little")
                if len(self.buffer) < end:
                    break
                messages.append(marshal.loads(self.buffer[4:end]))
                self.buffer = self.buffer[end:]

    def send(self, message: tuple) -> None:
        data = marshal.dumps(message)
        data = len(data).to_bytes(4, "little") + data
        try:
            while data:
                data = data[os.write(self.write, data):]
        except BrokenPipeError:
            if self.pid is None:
                raise _PeerGone from None  # the parent has died: its child stops here
            # the child has exited: receive reads what it sent before, then raises

    def close(self) -> None:
        if self.pid is not None:
            from signal import SIGKILL  # imported here, as only a construct that forked needs it

            os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for fd in (self.read, self.write):
            if fd is not None:
                os.close(fd)
        self.read = self.write = None


def construct_runs(
    model: SutModel,
    t: int,
    params: AnnealParams,
    budgets: list[SearchBudget],
    workers: int,
) -> list[SearchResult]:
    """One construct per budget, results in budget order; ``construct`` is
    this with one budget and one worker.

    Runs in min(workers, number of budgets, ``_probes_at_once``) processes,
    each holding one probe.  When that is 2 or more, a pool runs them, and
    its workers fork none.  Otherwise they run in this process, and each
    forks one child to run probes beside it if ``_probes_at_once`` allows
    two, os has ``fork`` and no other thread runs (a child of a threaded
    process may inherit a lock that another thread held).  Every budget
    runs whatever the pool size, so a capped pool changes only the wall
    time, never the results.  Raises what ``model.check_capacity`` raises,
    once, from this process and before any probe or pool starts.
    """
    at_once = _probes_at_once(model, t)
    size = min(workers, len(budgets), at_once)
    if size > 1:
        with _process_pool(size) as pool:
            return list(pool.map(partial(_construct, model, t, params), budgets))
    threading = sys.modules.get("threading")  # if not imported, no thread was started through it
    fork = at_once > 1 and hasattr(os, "fork") and not (threading and threading.active_count() > 1)
    return [_construct(model, t, params, budget, fork) for budget in budgets]


def _process_pool(max_workers: int):
    # imported here, so that importing locaray loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def parallel_construct(
    model: SutModel,
    t: int,
    params: AnnealParams | None = None,
    budget: SearchBudget | None = None,
    workers: int = 1,
) -> SearchResult:
    """``workers`` independent restarts, run by ``construct_runs``; the
    result with the fewest rows wins, ties broken toward the lowest restart
    index.  Restart 0 is the plain construct on the budget's seed, so more
    workers never return more rows than one, provided the timeout never
    fires; restart i >= 1 runs on child seed derive_seed(seed, "worker:i").

    The result is the winner's: its ``array``, ``rows``, ``history`` and
    ``time_to_best``, the last counted from the start of that restart.
    Only ``elapsed``, the wall time of the whole call, and ``timed_out``,
    set when any restart timed out, describe the call."""
    started = time.monotonic()
    budget = budget or SearchBudget()
    budgets = [budget] + [replace(budget, seed=derive_seed(budget.seed, f"worker:{i}")) for i in range(1, workers)]
    results = construct_runs(model, t, params or AnnealParams(), budgets, workers)
    best = min(results, key=lambda res: res.rows if res.rows is not None else math.inf)
    return replace(best, timed_out=any(res.timed_out for res in results), elapsed=time.monotonic() - started)
