"""Command-line interface.

Subcommands:

- invert: read a matrix from a .csv or .mtx file, invert it with the
  chosen method, and write the inverse (stdout or --output), optionally
  reporting the exact multiplication/division and square-root tallies.
- bench: run one of the three benchmark experiments and emit the report
  as CSV or a markdown table.
- count: print the closed-form operation counts for a list of orders.
- verify: run the library's invariant suite and report each check.

Exit status is 0 on success, 1 on a reported failure (bad matrix,
inapplicable method, failed verification), and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import complexity, genbench
from .errors import InvalidArgument, LinAlgError
from .matcore import OpCounter
from .mmio import _WRITERS, _dispatch, csv_lines, read_matrix, write_matrix


def _parse_int_list(text, what):
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise InvalidArgument(f"expected a comma-separated list of {what}")
    try:
        return [int(piece) for piece in items]
    except ValueError:
        raise InvalidArgument(f"invalid {what} list: {text!r}") from None


def _parse_methods(text):
    """The --methods list for ``run_experiment``: "all", or a tuple of names."""
    return text if text == "all" else tuple(p.strip() for p in text.split(",") if p.strip())


def _print_matrix(stream, m):
    stream.writelines(csv_lines(m))


def cmd_invert(args):
    if args.output:
        # Refuse an output extension before the read and the inversion.
        _dispatch(_WRITERS, args.output, "write")
    a = read_matrix(args.input)
    counter = OpCounter()
    inv = genbench.METHOD_FUNCS[args.method](a, counter)
    if args.output:
        write_matrix(args.output, inv)
        count_stream = sys.stdout
    else:
        _print_matrix(sys.stdout, inv)
        count_stream = sys.stderr
    if args.count:
        count_stream.write(f"muldiv={counter.muldiv} sqrt={counter.sqrt}\n")
    return 0


def cmd_bench(args):
    sizes = _parse_int_list(args.sizes, "matrix orders") if args.sizes else None
    reports = genbench.run_experiment(
        args.experiment, sizes=sizes, methods=_parse_methods(args.methods),
        seed=args.seed,
    )
    text = genbench.emit_report(reports, format=args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_count(args):
    sizes = _parse_int_list(args.sizes, "matrix orders")
    columns = ("method", "n", "muldiv", "sqrt")
    rows = [[str(row[c]) for c in columns] for row in complexity.count_table(sizes)]
    sys.stdout.write(genbench.render_table(columns, rows, args.format))
    return 0


def cmd_verify(args):
    results = genbench.run_verification(max_n=args.max_n, seed=args.seed)
    failures = 0
    for name, ok, detail in results:
        marker = "ok  " if ok else "FAIL"
        print(f"{marker} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="syminv",
        description="Square-root-free symmetric matrix inversion with exact "
        "operation counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_invert = sub.add_parser("invert", help="invert a matrix from a file")
    p_invert.add_argument("--method", choices=sorted(genbench.METHOD_FUNCS),
                          default="v2", help="inversion method (default: v2)")
    p_invert.add_argument("--input", required=True,
                          help="input matrix (.csv or .mtx)")
    p_invert.add_argument("--output",
                          help="write the inverse here instead of stdout")
    p_invert.add_argument("--count", action="store_true",
                          help="also print the operation tallies")
    p_invert.set_defaults(func=cmd_invert)

    p_bench = sub.add_parser("bench", help="run a benchmark experiment")
    p_bench.add_argument("--experiment", type=int, required=True,
                         choices=(1, 2, 3),
                         help="1 and 2 run on diag_dominant matrices, 3 on non_dominant "
                         "ones; each reports counts, residual, dist2 and seconds")
    p_bench.add_argument("--sizes", help="comma-separated matrix orders")
    p_bench.add_argument("--methods", default="all",
                         help="comma-separated method names, or 'all'")
    p_bench.add_argument("--seed", type=int, default=genbench.DEFAULT_SEED,
                         help="base seed (default: %(default)s)")
    p_bench.add_argument("--format", choices=("csv", "markdown"),
                         default="csv", help="report format (default: csv)")
    p_bench.add_argument("--output", help="write the report here")
    p_bench.set_defaults(func=cmd_bench)

    p_count = sub.add_parser("count",
                             help="print closed-form operation counts")
    p_count.add_argument("--sizes", required=True,
                         help="comma-separated matrix orders")
    p_count.add_argument("--format", choices=("csv", "markdown"),
                         default="csv", help="table format (default: csv)")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--max-n", type=int, default=40,
                          help="largest order in the count sweep "
                          "(default: %(default)s)")
    p_verify.add_argument("--seed", type=int, default=genbench.DEFAULT_SEED,
                          help="base seed (default: %(default)s)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LinAlgError, OSError) as exc:
        print(f"syminv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
