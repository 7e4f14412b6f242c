"""Command-line front end.

Subcommands:
  eigs      tabulate exact eigenvalues over a wavenumber grid
  figure    reproduce the eigenvalues-vs-asymptotics comparison tables
  validate  run the validation suites and report pass/fail

Exit statuses: 0 ok, 1 validation failure, 2 usage error (including an
output path that cannot be written), 3 numerical failure.
All output is deterministic: identical configuration yields byte-identical
tables (timings go to stderr).  A CSV table is its header plus one line per
``SpectrumSample`` row, made by one %-format call with 17 significant digits
per number, the text ``tables.format_cell`` gives each cell.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path
from typing import Iterator, List, Optional

from . import tables
from .eigenvalues import DEFAULT_TOL, DEFAULT_Z_SWITCH, MaterialParams, eval_spectrum

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL_FAILURE = 3


def _material(args) -> MaterialParams:
    return MaterialParams(
        n=args.dim,
        delta=args.delta,
        beta=args.beta,
        mu=args.mu,
        lambda_star=args.lambda_star,
    )


def _rows_to_dicts(columns, rows) -> List[dict]:
    return [{col: getattr(row, col) for col in columns} for row in rows]


def _emit(columns, rows, fmt: str, out: str) -> None:
    if fmt == "csv":
        chunks = _render_csv(columns, rows)
    else:
        chunks = (json.dumps(_rows_to_dicts(columns, rows), sort_keys=False) + "\n",)
    if out == "-":
        sys.stdout.writelines(chunks)
    else:  # not Path(out): pathlib interns each part of the name, so new names grow the interned-string table
        with open(out, "w", encoding="ascii") as fh:
            fh.writelines(chunks)


#: One %-format per CSV line: '%.17g' writes a float as ``tables.format_cell``
#: does, nan, inf and -0 included; the branch column's strings need no quoting.
_CSV_LINES = {
    tables.EIGS_COLUMNS: "%.17g,%.17g,%.17g,%.17g,%.17g\n",
    tables.FIGURE_COLUMNS: "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n",
}


def _render_csv(columns, rows) -> Iterator[str]:
    """The header, then one line per row, as they are written; a row with an
    absent (None) cell, written empty, goes through ``tables.format_cell``
    cell by cell."""
    line, cells = _CSV_LINES[columns], operator.attrgetter(*columns)
    yield ",".join(columns) + "\n"
    for values in map(cells, rows):
        yield line % values if None not in values else ",".join(map(tables.format_cell, values)) + "\n"


def cmd_eigs(args) -> int:
    params = _material(args)
    z_switch = math.inf if args.policy == "series" else args.z_switch
    grid = tables.wavenumber_grid(args.nu_min, args.nu_max, args.points)
    samples = eval_spectrum(params, grid, z_switch, args.tol)
    _emit(tables.EIGS_COLUMNS, samples, args.format, args.out)
    return EXIT_OK


def cmd_figure(args) -> int:
    single = args.beta is not None and args.delta is not None
    panels = tables.default_panels(args.dim, args.beta, args.delta)
    if single:
        beta, delta = panels[0]
        rows = tables.figure_table(args.dim, beta, delta, args.mu, args.lambda_star, tol=args.tol)
        _emit(tables.FIGURE_COLUMNS, rows, args.format, args.out)
        return EXIT_OK
    out_dir = Path("." if args.out == "-" else args.out)
    if out_dir.exists() and not out_dir.is_dir():
        raise ValueError(f"--out must be a directory for a panel set, got {out_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for beta, delta in panels:
        rows = tables.figure_table(args.dim, beta, delta, args.mu, args.lambda_star, tol=args.tol)
        name = f"figure_dim{args.dim}_beta{beta:g}_delta{delta:g}.{args.format}"
        _emit(tables.FIGURE_COLUMNS, rows, args.format, str(out_dir / name))
        print(out_dir / name)
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import validation  # with the oracle, the only modules that load numpy

    results = validation.run_validation(args.level)
    if args.format == "json":
        payload = {
            "level": args.level,
            "passed": all(r.passed for r in results),
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=False) + "\n")
    else:
        for r in results:
            print(r.line())
        print(("OK" if all(r.passed for r in results) else "FAILED") + f" ({args.level} level)")
    for r in results:
        print(f"  {r.name}: {r.elapsed_s:.1f}s", file=sys.stderr)
    if args.oracle_report is not None:
        report = validation.oracle_report(validation.ORACLE_LATTICE)
        Path(args.oracle_report).write_text(json.dumps(report, indent=2, sort_keys=True), encoding="ascii")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION_FAILURE


def _add_material_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, required=True, help="spatial dimension n")
    p.add_argument("--beta", type=float, required=True, help="kernel exponent")
    p.add_argument("--delta", type=float, default=1.0, help="interaction horizon")
    p.add_argument("--mu", type=float, default=1.0, help="shear modulus")
    p.add_argument("--lambda-star", dest="lambda_star", type=float, default=2.0, help="second Lame parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perispec",
        description="Eigenvalues of the linear peridynamic operator and their large-wavenumber asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eigs = sub.add_parser("eigs", help="tabulate eigenvalues over a wavenumber grid")
    _add_material_flags(p_eigs)
    p_eigs.add_argument("--nu-min", type=float, default=0.0)
    p_eigs.add_argument("--nu-max", type=float, default=30.0)
    p_eigs.add_argument("--points", type=int, default=1000)
    p_eigs.add_argument("--tol", type=float, default=DEFAULT_TOL, help="relative tolerance of the series")
    p_eigs.add_argument("--policy", choices=("series", "hybrid"), default="hybrid")
    p_eigs.add_argument("--z-switch", dest="z_switch", type=float, default=DEFAULT_Z_SWITCH)
    p_eigs.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eigs.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_eigs.set_defaults(func=cmd_eigs)

    p_fig = sub.add_parser(
        "figure",
        help="exact vs asymptotic tables, 1000 points on [0, 30]; omit --beta/--delta for the default panel set",
    )
    p_fig.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p_fig.add_argument("--beta", type=float, default=None)
    p_fig.add_argument("--delta", type=float, default=None)
    p_fig.add_argument("--mu", type=float, default=1.0)
    p_fig.add_argument("--lambda-star", dest="lambda_star", type=float, default=2.0)
    p_fig.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig.add_argument("--out", default="-", help="file for a single panel, directory for the panel set")
    p_fig.set_defaults(func=cmd_figure)

    p_val = sub.add_parser("validate", help="run the validation suites")
    p_val.add_argument("--level", choices=("quick", "full"), default="quick")
    p_val.add_argument("--format", choices=("text", "json"), default="text")
    p_val.add_argument(
        "--oracle-report",
        default=None,
        help="also write the full quadrature-vs-series lattice report (JSON) to this path",
    )
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # no name keeps the parser alive through the command, so a young collection frees its reference cycles
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or an --out / --oracle-report path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # PrecisionExhaustedError, QuadratureConvergenceError, overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
