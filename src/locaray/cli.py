"""Command-line front end: generate, verify, bound, locate, bench.

Exit codes: 0 success, 1 verification failed, 2 no array within the
timeout, 3 interaction catalog over the memory budget, 64 usage error.
"""

import argparse
import csv
import os
import sys
from importlib import resources

from .anneal import AnnealParams, STRATEGIES
from .model import CapacityError, ModelParseError, check_capacity, load_array, parse_model, save_array, format_array
from .search import SearchBudget, construct_runs, derive_seed, initial_bounds, parallel_construct
from .verify import verify, locate_fault

EXIT_OK = 0
EXIT_NOT_LOCATING = 1
EXIT_NO_ARRAY = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 64

SHOWN = 20  # uncovered interactions and colliding pairs `verify` prints, each
MAX_RUNS = 10_000  # --workers and bench --runs; a budget is built per run before any search


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_run_flags(p, budget: SearchBudget):
    """--timeout, --seed and --workers, shared by generate and bench."""
    p.add_argument("--timeout", type=float, default=budget.timeout, help="wall-clock budget in seconds per run (default %(default)s)")
    p.add_argument("--seed", type=int, default=budget.seed, help="root RNG seed (default %(default)s)")
    p.add_argument("--workers", type=int, default=1, help=f"processes for independent runs, at most {MAX_RUNS} (default %(default)s)")


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
    _add_run_flags(g, budget)
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
    _add_run_flags(be, budget)
    be.add_argument("--out", help="CSV path (stdout when omitted)")
    be.add_argument("--log", help="per-run detail log (default: <out>.log, or bench.log)")
    return parser


def _usage_checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError from a bad flag or
    environment value turned into a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _check_run_flags(args) -> None:
    """--workers, shared by generate and bench, checked before any search."""
    if not 1 <= args.workers <= MAX_RUNS:
        raise _UsageError(f"--workers must lie in 1..{MAX_RUNS}")


def _check_strength(t: int, model, where: str = "") -> None:
    """Usage error unless strength ``t`` lies in 1..k; ``where`` prefixes the message."""
    if not 1 <= t <= model.k:
        raise _UsageError(f"{where}strength must lie in 1..{model.k}")


def _check_catalogs(t: int, models) -> None:
    """The last check before any file, pool or search: strength ``t`` on
    every (message prefix, model) pair, then the model's capacity gate on
    each, so an over-budget catalog exits 3 from this process, after every
    usage error and before any work."""
    for where, model in models:
        _check_strength(t, model, where)
    for _, model in models:
        _usage_checked(check_capacity, model, t)


def _check_writable(path: str) -> None:
    """Usage error unless ``path`` names a file that can be written, so a
    bad output path fails before the search instead of losing its result."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise _UsageError(f"cannot write {path}")


def _params_from(args) -> AnnealParams:
    return _usage_checked(
        AnnealParams,
        weight=args.weight,
        t_init=args.t_init,
        k_max=args.k_max,
        cooling=args.cooling,
        strategy=args.strategy,
    )


def _load(path):
    try:
        return load_array(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise _UsageError(f"bad array file {path}: {exc}")


def cmd_generate(args) -> int:
    model = parse_model(args.model)
    _check_run_flags(args)
    if args.out:
        _check_writable(args.out)
    params = _params_from(args)
    budget = _usage_checked(SearchBudget, max_retries=args.max_retries, timeout=args.timeout, seed=args.seed)
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
    if args.out:
        save_array(result.array, args.strength, args.out)
        print(f"out={args.out}")
    else:
        sys.stdout.write(format_array(result.array, args.strength))
    return EXIT_OK


def cmd_verify(args) -> int:
    array, file_t = _load(args.array)
    t = args.strength if args.strength is not None else file_t
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
        if report.uncovered:
            shown = report.uncovered[:SHOWN]
            print(f"# {len(report.uncovered)} uncovered interactions, first {len(shown)}:")
            for interaction in shown:
                print(f"#   uncovered {interaction}")
        if report.collision_count:
            print(f"# {report.collision_count} colliding pairs, first {len(report.collisions)}:")
            for a, b, rows in report.collisions:
                print(f"#   {a} ~ {b} rows={{{','.join(str(r) for r in sorted(rows))}}}")
    return EXIT_OK if report.is_locating_1bar else EXIT_NOT_LOCATING


def cmd_bound(args) -> int:
    model = parse_model(args.model)
    _check_strength(args.strength, model)
    low, high = initial_bounds(model, args.strength)
    print(f"low={low} high={high}")
    return EXIT_OK


def cmd_locate(args) -> int:
    array, file_t = _load(args.array)
    t = args.strength if args.strength is not None else file_t
    _check_strength(t, array.model)
    try:
        failing = frozenset(int(x) for x in args.failing.split(",") if x.strip())
        hits = locate_fault(array, failing, t)
    except ValueError as exc:
        raise _UsageError(str(exc))
    print(f"candidates={len(hits)}")
    for interaction in hits:
        print(str(interaction))
    return EXIT_OK


def _bundled_suite_text() -> str:
    return resources.files("locaray").joinpath("data/benchmark_suite.txt").read_text()


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
        parse_model(spec)  # validate early
        entries.append((name.strip(), spec.strip()))
    return entries


def cmd_bench(args) -> int:
    if args.suite:
        try:
            with open(args.suite) as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read suite {args.suite}: {exc}")
    else:
        text = _bundled_suite_text()
    entries = _usage_checked(load_suite, text)
    if not entries:
        raise _UsageError("the suite lists no instances")
    if not 1 <= args.runs <= MAX_RUNS:
        raise _UsageError(f"--runs must lie in 1..{MAX_RUNS}")
    _check_run_flags(args)
    _usage_checked(SearchBudget, timeout=args.timeout)
    log_path = args.log or (f"{args.out}.log" if args.out else "bench.log")
    for path in filter(None, (args.out, log_path)):
        _check_writable(path)
    _check_catalogs(args.strength, [(f"suite instance {name}: ", parse_model(spec)) for name, spec in entries])

    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out_fh, lineterminator="\n")
        writer.writerow(["name", "model", "x", "y", "runs", "mean_time_s", "mean_rows", "min_rows"])
        with open(log_path, "w") as log:
            for name, spec in entries:
                record = _bench_instance(name, spec, args, log)
                writer.writerow(record)
                out_fh.flush()
    finally:
        if out_fh is not sys.stdout:
            out_fh.close()
    return EXIT_OK


def _bench_instance(name, spec, args, log) -> list:
    model = parse_model(spec)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.run(args)
    except ModelParseError as exc:
        print(f"bad model: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        print(f"interactions={exc.n_interactions}")
        return EXIT_CAPACITY


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
