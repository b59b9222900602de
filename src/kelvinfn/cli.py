"""Command-line front end: point evaluation, tables, verification.

Subcommands
-----------
eval    one function at one (nu, x); prints value, error estimate, method
table   CSV sweep over nu/x ranges with all four values and derivatives
verify  run identity suites, emit the report CSV, exit 1 on any failure

``eval`` of an order derivative, and each order of a table over its x
other than 0, is one plan of one entry (``orderderiv._plan_rows``); the
orders of a table share one dict of K starts (``bessel._k_sums``).  CSV
output uses 17 significant digits, '\n' line endings and no quoting, so two
runs with identical flags are byte-identical.  Every value is computed to full
double precision; no flag or environment variable changes that.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import KelvinError
from .kelvin import _eval_ber_bei, _eval_ker_kei
from .orderderiv import _plan_rows
from .verify import SUITES, run_suites

_VALUE_FNS = ("ber", "bei", "ker", "kei")
_DERIV_FNS = ("dber", "dbei", "dker", "dkei")
_TABLE_HEADER = "nu,x,ber,bei,ker,kei,dber,dbei,dker,dkei,method"
_REPORT_HEADER = "name,nu,x,lhs,rhs,abs_diff,tol,pass"
# a table row: nu, x, the four values and the four order derivatives, each
# cell the string of _fmt ('%.17g' and '{:.17g}' agree on every double)
_TABLE_ROW = "%.17g," * 10 + "series"
# the most points one range may hold, far above a grid of 81 orders by 20 x
MAX_RANGE_POINTS = 10 ** 6


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_range(spec: str, what: str) -> list[float]:
    """Parse 'a:b:step' (inclusive grid of at most ``MAX_RANGE_POINTS``) or
    a single number."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"{what}: expected 'a:b:step', got {spec!r}")
    a, b, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (a, b, step))) or step <= 0.0 or b < a:
        raise ValueError(f"{what}: need finite a, b and step, step > 0 and b >= a in {spec!r}")
    count = (b - a) / step + 1e-9  # not finite where the quotient overflows
    if not count < MAX_RANGE_POINTS:
        raise ValueError(f"{what}: more than {MAX_RANGE_POINTS} points in {spec!r}")
    return [a + k * step for k in range(int(count) + 1)]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args: argparse.Namespace) -> int:
    fn = args.fn_pos or args.fn
    if fn is None:
        print("eval: missing function selector (positional or --fn)", file=sys.stderr)
        return 2
    if fn not in _VALUE_FNS + _DERIV_FNS:
        print(f"eval: unknown function {fn!r}", file=sys.stderr)
        return 2
    try:
        if fn in _VALUE_FNS:
            if fn in ("ber", "bei"):
                ber, bei, est = _eval_ber_bei(args.nu, args.x)
                value = ber if fn == "ber" else bei
            else:
                ker, kei, est = _eval_ker_kei(args.nu, args.x)
                value = ker if fn == "ker" else kei
        else:
            # dber/dbei carry the series side's estimate, dker/dkei the K side's
            (row,), = _plan_rows(((args.nu, True),), (args.x,), None)
            i = _DERIV_FNS.index(fn)
            value, est = row[4 + i], row[8 + i // 2]
    except KelvinError as exc:
        print(f"eval: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        _emit(["fn,nu,x,value,err_estimate,method",
               f"{fn},{_fmt(args.nu)},{_fmt(args.x)},{_fmt(value)},{_fmt(est)},series"],
              args.out)
    else:
        _emit([f"{fn}(nu={_fmt(args.nu)}, x={_fmt(args.x)}) = {_fmt(value)}",
               f"err_estimate = {_fmt(est)}",
               "method = series"], args.out)
    return 0


def _origin_row(nu: float, x: float) -> str:
    """The row at x = 0 (or -0): ber/bei where they are defined, and a note."""
    try:
        ber, bei, _ = _eval_ber_bei(nu, 0.0)
        cells = [_fmt(ber), _fmt(bei)]
    except KelvinError:
        cells = ["", ""]
    return ",".join([_fmt(nu), _fmt(x)] + cells + [""] * 6 + ["undefined_at_x0"])


def _table_rows(nu: float, xs: list[float], starts: dict | None) -> list[str]:
    """The rows of order nu over ``xs``; those at x != 0 are one plan."""
    rows = iter(_plan_rows(((nu, True),), [x for x in xs if x != 0.0], starts)[0])
    return [_origin_row(nu, x) if x == 0.0 else _TABLE_ROW % ((nu, x) + next(rows)[:8])
            for x in xs]


def cmd_table(args: argparse.Namespace) -> int:
    try:
        nus = _parse_range(args.nu_range, "--nu-range") if args.nu_range else [args.nu]
        xs = _parse_range(args.x_range, "--x-range") if args.x_range else [args.x]
        if nus == [None] or xs == [None]:
            raise ValueError("table needs --nu/--x or --nu-range/--x-range")
    except ValueError as exc:
        print(f"table: {exc}", file=sys.stderr)
        return 2
    lines, starts = [_TABLE_HEADER], {} if len(nus) > 1 else None
    try:
        for nu in nus:          # nu-major, then x: deterministic row order
            lines += _table_rows(nu, xs, starts)
    except KelvinError as exc:
        print(f"table: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(lines, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        reports = run_suites(args.suite, tol_override=args.tol)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        lines = [_REPORT_HEADER] + [r.csv_row() for r in reports]
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} nu={_fmt(r.nu)} "
                 f"x={_fmt(r.x)} |diff|={_fmt(r.abs_diff)} tol={_fmt(r.tol)}"
                 for r in reports]
        n_fail = sum(not r.passed for r in reports)
        lines.append(f"{len(reports) - n_fail}/{len(reports)} identities passed")
    _emit(lines, args.out)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kelvinfn",
        description="Kelvin functions, their order derivatives, and identity checks")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at one point")
    pe.add_argument("fn_pos", nargs="?", metavar="FN",
                    help="one of ber bei ker kei dber dbei dker dkei")
    pe.add_argument("--fn", help="function selector (alternative to positional)")
    pe.add_argument("--nu", type=float, required=True)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--format", choices=("csv", "plain"), default="plain")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="CSV sweep over nu/x grids")
    pt.add_argument("--nu", type=float, default=None)
    pt.add_argument("--x", type=float, default=None)
    pt.add_argument("--nu-range", dest="nu_range", default=None, metavar="A:B:STEP")
    pt.add_argument("--x-range", dest="x_range", default=None, metavar="A:B:STEP")
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("--suite", default="all",
                    choices=["all"] + sorted(SUITES))
    pv.add_argument("--tol", type=float, default=None,
                    help="override every per-row tolerance")
    pv.add_argument("--format", choices=("csv", "plain"), default="csv")
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)
    return p


# main's parser, built once per process: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
