"""Command-line front end: generate, verify, bound, locate, bench.

Commands print.  ``main`` runs the argument parser and the command inside
one ``contextlib.redirect_stdout`` into a buffer, so ``--help`` and every
report land there, and writes that buffer to stdout once, after the
command has finished.  ``_Output`` is the one writer (that stdout write,
``generate --out``, ``bench``'s CSV and log; files are UTF-8) and ``_read``
the one reader (``--array`` and ``--suite``, UTF-8).  Every bad input
raises ``_UsageError`` or goes through ``_usage``, and ``main`` prints it
as one stderr line.

Exit codes: 0 success, 1 verification failed, 2 no array within the
timeout, 3 interaction catalog over the memory budget, 64 usage error:
a bad flag, model or environment value, an input file that cannot be read
or decoded, ``bench --out`` and ``--log`` naming one file, or an output,
stdout included, that cannot be written or encoded, before or after the
search.
"""

import argparse
import contextlib
import csv
import io
import os
import sys
from importlib import resources

from .anneal import AnnealParams, STRATEGIES
from .model import CapacityError, check_capacity, check_strength, enumerate_interactions, format_array, parse_array, parse_model
from .search import SearchBudget, construct_runs, derive_seed, initial_bounds, parallel_construct
from .verify import verify, locate_fault

EXIT_OK = 0
EXIT_NOT_LOCATING = 1
EXIT_NO_ARRAY = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 64

SHOWN = 20  # uncovered interactions and colliding pairs `verify` prints, each
MAX_RUNS = 10_000  # --workers and bench --runs; a budget is built per run before any search
BENCH_HEADER = ("name", "model", "x", "y", "runs", "mean_time_s", "mean_rows", "min_rows")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_run_flags(p, budget: SearchBudget, workers: str):
    """--timeout, --seed and --workers, shared by generate and bench;
    ``workers`` begins the --workers help, saying what it counts there."""
    p.add_argument("--timeout", type=float, default=budget.timeout, help="wall-clock budget in seconds per run (default %(default)s)")
    p.add_argument("--seed", type=int, default=budget.seed, help="root RNG seed (default %(default)s)")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help=f"{workers}; no more processes run than CPUs this process may use; a pool starts only for two or more; "
        "a run in this process may fork one child process (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="locaray", description="Construct and verify locating arrays for combinatorial interaction testing.")
    sub = parser.add_subparsers(dest="command", required=True)
    params, budget = AnnealParams(), SearchBudget()  # the library's defaults

    g = sub.add_parser("generate", help="construct a locating array")
    g.set_defaults(run=cmd_generate)
    g.add_argument("--model", required=True, help="model spec, e.g. '2^13 4^5' or '2,2,2,3'")
    g.add_argument("--strength", type=int, required=True, help="interaction strength t")
    g.add_argument("--weight", type=float, default=params.weight, help="uncovered-interaction penalty weight (default %(default)s)")
    g.add_argument("--t-init", type=float, default=params.t_init, help="initial temperature (default %(default)s)")
    g.add_argument("--k-max", type=int, default=params.k_max, help="iterations per annealing run (default %(default)s)")
    g.add_argument("--cooling", type=float, default=params.cooling, help="geometric cooling rate (default %(default)s)")
    g.add_argument("--strategy", choices=STRATEGIES, default=params.strategy, help="neighbor selection strategy (default %(default)s)")
    g.add_argument("--max-retries", type=int, default=budget.max_retries, help="consecutive failures ending the shrink phase (default %(default)s)")
    _add_run_flags(g, budget, f"independent restarts, at most {MAX_RUNS}, the first on the root seed; the fewest rows win")
    g.add_argument("--out", help="array file to write (stdout when omitted)")

    v = sub.add_parser("verify", help="check the covering/locating properties of an array file")
    v.set_defaults(run=cmd_verify)
    v.add_argument("--array", required=True, help="array file to check")
    v.add_argument("--strength", type=int, help="override the strength recorded in the file")

    b = sub.add_parser("bound", help="print the search bounds for a model")
    b.set_defaults(run=cmd_bound)
    b.add_argument("--model", required=True)
    b.add_argument("--strength", type=int, required=True)

    l = sub.add_parser("locate", help="map a failing-test set to candidate faulty interactions")
    l.set_defaults(run=cmd_locate)
    l.add_argument("--array", required=True)
    l.add_argument("--failing", required=True, help="comma-separated 1-based failing row indices (empty for none)")
    l.add_argument("--strength", type=int, help="override the strength recorded in the file")

    be = sub.add_parser("bench", help="run a benchmark suite and emit a CSV summary")
    be.set_defaults(run=cmd_bench)
    be.add_argument("--suite", help="suite file of 'name,model' lines (bundled 35-instance suite when omitted)")
    be.add_argument("--runs", type=int, default=5, help=f"runs per instance, at most {MAX_RUNS} (default %(default)s)")
    be.add_argument("--strength", type=int, default=2, help="interaction strength t (default %(default)s)")
    _add_run_flags(be, budget, f"processes, at most {MAX_RUNS}, that run each instance's runs; they change the wall time, never the rows")
    be.add_argument("--out", help="CSV path (stdout when omitted)")
    be.add_argument("--log", help="per-run detail log (default: <out>.log, or bench.log)")
    return parser


@contextlib.contextmanager
def _usage(where: str = ""):
    """A ValueError from a bad flag, environment value or input, raised in
    the ``with`` body, becomes a usage error prefixed by ``where``."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(f"{where}{exc}") from None


def _parse_model(spec: str, where: str = ""):
    """Every model spec the CLI parses: a bad one is the usage error
    ``WHEREbad model: reason``."""
    with _usage(f"{where}bad model: "):
        return parse_model(spec)


def _check_count(flag: str, value: int) -> None:
    """--workers and bench --runs, checked before any search."""
    if not 1 <= value <= MAX_RUNS:
        raise _UsageError(f"{flag} must lie in 1..{MAX_RUNS}")


def _check_catalogs(t: int, models) -> None:
    """The last check before any file, pool or search: strength ``t`` on
    every (message prefix, model) pair, then the model's capacity gate on
    each, so an over-budget catalog exits 3 from this process, after every
    usage error and before any work."""
    for where, model in models:
        with _usage(where):
            check_strength(model, t)
    for _, model in models:
        with _usage():
            check_capacity(model, t)


def _check_writable(path: str) -> None:
    """Usage error unless ``path`` names a file that can be written, so a
    bad output path fails before the search instead of losing its result."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise _UsageError(f"cannot write {path}")


class _Report(io.StringIO):
    """The buffer ``main`` redirects stdout into; ``stream`` is the stdout it
    is written to once the command has finished."""

    def __init__(self, stream):
        super().__init__()
        self.stream = stream

    def check_encodes(self, text: str) -> None:
        """Usage error unless ``stream`` can encode ``text``, so a part of the
        report known before the search fails before it, not after.  A
        stand-in stdout with no encoding takes any text."""
        encoding = getattr(self.stream, "encoding", None)
        if encoding:
            try:
                text.encode(encoding, getattr(self.stream, "errors", None) or "strict")
            except UnicodeEncodeError as exc:
                raise _UsageError(f"cannot write stdout: {exc}") from None


class _Output(contextlib.AbstractContextManager):
    """The one writer: the file at ``path`` opened for writing as UTF-8, or
    ``sys.stdout`` when ``path`` is None.  Every write is flushed.  Each
    failure is the usage error ``cannot write PATH: reason``, PATH being
    ``stdout`` for ``sys.stdout``: an OSError from the open, a write or
    flush, or the close (which, after a failed write, fails again on what
    is still buffered), and a UnicodeEncodeError from a stdout whose
    encoding cannot take the text.

    After a failed write to ``sys.stdout``, fd 1 is pointed at
    ``os.devnull``, so interpreter shutdown does not flush the kept buffer
    again and exit 120; a stand-in stdout without an fd is left as it is."""

    def __init__(self, path: str | None = None):
        self.path, self.fh = path or "stdout", None  # _checked reads fh when the open fails
        self.fh = self._checked(open, path, "w", encoding="utf-8", newline="") if path else sys.stdout

    def _checked(self, action, *args, **kwargs):
        try:
            return action(*args, **kwargs)
        except (OSError, UnicodeEncodeError) as exc:
            if self.fh is sys.stdout:
                with contextlib.suppress(OSError, ValueError):
                    fd = sys.stdout.fileno()
                    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
            raise _UsageError(f"cannot write {self.path}: {exc}") from None

    def write(self, text: str) -> None:
        self._checked(self.fh.write, text)
        self._checked(self.fh.flush)

    def __exit__(self, *exc) -> None:
        if self.fh is not sys.stdout:
            self._checked(self.fh.close)


def _read(path: str, what: str = "") -> str:
    """The one reader, of ``--array`` and ``--suite``: the UTF-8 text of
    ``path``, with an OSError or an undecodable byte turned into the usage
    error ``cannot read WHATPATH: reason``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {what}{path}: {exc}") from None


def _load(path: str, strength: int | None):
    """The array in ``path`` and its strength: ``strength`` unless it is
    None, else the one the file records."""
    with _usage(f"bad array file {path}: "):
        array, file_t = parse_array(_read(path))
    return array, strength if strength is not None else file_t


def cmd_generate(args) -> int:
    model = _parse_model(args.model)
    _check_count("--workers", args.workers)
    if args.out:
        _check_writable(args.out)
    with _usage():
        params = AnnealParams(weight=args.weight, t_init=args.t_init, k_max=args.k_max, cooling=args.cooling, strategy=args.strategy)
        budget = SearchBudget(max_retries=args.max_retries, timeout=args.timeout, seed=args.seed)
    _check_catalogs(args.strength, [("", model)])
    result = parallel_construct(model, args.strength, params, budget, workers=args.workers)
    print(f"model={model.spec_text()}")
    print(f"strength={args.strength}")
    print(f"seed={args.seed}")
    print(f"strategy={params.strategy}")
    print(f"weight={params.weight}")
    print(f"t_init={params.t_init}")
    print(f"k_max={params.k_max}")
    print(f"cooling={params.cooling}")
    print(f"max_retries={budget.max_retries}")
    print(f"workers={args.workers}")
    print(f"elapsed_s={result.elapsed:.1f}")
    print(f"timed_out={'true' if result.timed_out else 'false'}")
    if result.array is None:
        print("rows=none")
        return EXIT_NO_ARRAY
    print(f"rows={result.rows}")
    with _Output(args.out) as fh:
        fh.write(format_array(result.array, args.strength))
    if args.out:
        print(f"out={args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    array, t = _load(args.array, args.strength)
    _check_catalogs(t, [("", array.model)])
    report = verify(array, t, max_collision_pairs=SHOWN)
    print(f"model={array.model.spec_text()}")
    print(f"rows={array.m}")
    print(f"strength={t}")
    print(f"is_covering={'true' if report.is_covering else 'false'}")
    print(f"is_locating_exact1={'true' if report.is_locating_exact1 else 'false'}")
    print(f"is_locating_1bar={'true' if report.is_locating_1bar else 'false'}")
    print(f"uncovered_count={len(report.uncovered)}")
    print(f"collision_count={report.collision_count}")
    if report.is_locating_1bar:
        print(f"# OK: every strength-{t} interaction is covered and all covering row sets are distinct")
    else:
        # the report holds tids and row masks; only what is printed is decoded
        decode = enumerate_interactions(array.model, t).interactions_at
        if report.uncovered:
            shown = decode(report.uncovered[:SHOWN])
            print(f"# {len(report.uncovered)} uncovered interactions, first {len(shown)}:")
            for interaction in shown:
                print(f"#   uncovered {interaction}")
        if report.collision_count:
            print(f"# {report.collision_count} colliding pairs, first {len(report.collisions)}:")
            for a, b, bits in report.collisions:
                a, b = decode((a, b))
                rows = ",".join(str(i + 1) for i in range(bits.bit_length()) if bits >> i & 1)  # bit i is row i + 1
                print(f"#   {a} ~ {b} rows={{{rows}}}")
    return EXIT_OK if report.is_locating_1bar else EXIT_NOT_LOCATING


def cmd_bound(args) -> int:
    model = _parse_model(args.model)
    with _usage():
        low, high = initial_bounds(model, args.strength)
    print(f"low={low} high={high}")
    return EXIT_OK


def cmd_locate(args) -> int:
    array, t = _load(args.array, args.strength)
    with _usage("--failing: "):
        failing = frozenset(int(x) for x in args.failing.split(",") if x.strip())
    with _usage():
        hits = locate_fault(array, failing, t)
    print(f"candidates={len(hits)}")
    for interaction in hits:
        print(interaction)
    return EXIT_OK


def _bundled_suite_text() -> str:
    return resources.files("locaray").joinpath("data/benchmark_suite.txt").read_text(encoding="utf-8")


def load_suite(text: str) -> list[tuple[str, str]]:
    """Parse 'name,model' suite lines; '#' comments and blank lines are skipped."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, spec = line.partition(",")
        if not sep or not name.strip() or not spec.strip():
            raise ValueError(f"suite line {lineno}: expected 'name,model', got {raw!r}")
        entries.append((name.strip(), spec.strip()))
    return entries


def cmd_bench(args) -> int:
    text = _read(args.suite, "suite ") if args.suite else _bundled_suite_text()
    with _usage():
        suite = load_suite(text)
    entries = [(name, spec, _parse_model(spec, f"suite instance {name}: ")) for name, spec in suite]
    if not entries:
        raise _UsageError("the suite lists no instances")
    _check_count("--runs", args.runs)
    _check_count("--workers", args.workers)
    with _usage():
        SearchBudget(timeout=args.timeout)
    log_path = args.log or (f"{args.out}.log" if args.out else "bench.log")
    if args.out and os.path.realpath(args.out) == os.path.realpath(log_path):
        raise _UsageError(f"--out and --log name the same file {args.out}")
    for path in filter(None, (args.out, log_path)):
        _check_writable(path)
    if not args.out:  # the CSV goes to stdout, through main's _Report
        sys.stdout.check_encodes("\n".join([",".join(BENCH_HEADER)] + [f"{name},{spec}" for name, spec, _ in entries]))
    _check_catalogs(args.strength, [(f"suite instance {name}: ", model) for name, _, model in entries])

    with _Output(args.out) as table, _Output(log_path) as log:
        writer = csv.writer(table, lineterminator="\n")
        writer.writerow(BENCH_HEADER)
        for name, spec, model in entries:
            writer.writerow(_bench_instance(name, spec, model, args, log))
    return EXIT_OK


def _bench_instance(name, spec, model, args, log) -> list:
    budgets = [
        SearchBudget(timeout=args.timeout, seed=derive_seed(args.seed, f"{name}:{r}")) for r in range(args.runs)
    ]
    runs = construct_runs(model, args.strength, AnnealParams(), budgets, args.workers)

    finished = [res for res in runs if not res.timed_out]
    produced = [res for res in runs if res.array is not None]
    for r, (budget, res) in enumerate(zip(budgets, runs)):
        log.write(
            f"{name} run={r} seed={budget.seed} rows={res.rows} timed_out={res.timed_out} "
            f"elapsed={res.elapsed:.1f} time_to_best="
            f"{'-' if res.time_to_best is None else f'{res.time_to_best:.1f}'}\n"
        )
    x, y = len(finished), len(produced)
    if produced:
        mean_time = sum(res.time_to_best for res in produced) / y
        mean_rows = sum(res.rows for res in produced) / y
        min_rows = min(res.rows for res in produced)
        return [name, spec, x, y, args.runs, f"{mean_time:.1f}", f"{mean_rows:.1f}", min_rows]
    return [name, spec, x, y, args.runs, "-", "-", "-"]


def main(argv=None) -> int:
    report = _Report(sys.stdout)  # --help and the command's report, written to stdout once
    try:
        with contextlib.redirect_stdout(report):
            args = build_parser().parse_args(argv)
            code = args.run(args)
    except SystemExit as exc:  # from argparse: --help, or a usage error already on stderr
        code = exc.code if exc.code is not None else EXIT_USAGE
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        code = EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        print(f"interactions={exc.n_interactions}", file=report)
        code = EXIT_CAPACITY
    try:
        if report.tell():  # even an empty write fails on a full device
            with _Output() as stdout:
                stdout.write(report.getvalue())
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
