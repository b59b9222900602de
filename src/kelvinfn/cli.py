"""Command-line front end: point evaluation, tables, verification.

Subcommands
-----------
eval    one function at one (nu, x); prints value, error estimate, method
table   CSV sweep over nu/x ranges with all four values and derivatives
verify  run identity suites, emit the report CSV, exit 1 on any failure

``eval`` of an order derivative is one plan of one entry, and a table over
its x other than 0 one plan of all its orders (``orderderiv._plan_rows``),
which owns the dict of K starts they share (``bessel._k_sums``).  A table's
``--nu`` and ``--x`` are second spellings of ``--nu-range`` and
``--x-range``, each an 'a:b:step' range or one number, and a grid of more
than ``MAX_RANGE_POINTS`` rows is refused before either axis is built.  CSV
output uses 17 significant digits, '\n' line endings and no quoting, so two
runs with identical flags are byte-identical.  Every value is computed to
full double precision, and ``verify`` checks at the manifest tolerances; no
flag or environment variable changes that.  ``main`` is the one exit-2
boundary: a ``KelvinError`` from any command (a bad range or a grid too
large is a ``DomainError``) and an unwritable ``--out`` (``OSError``) each
print one line, '<command>: <Type>: <message>', and no traceback; any
other exception is a fault of the program and surfaces with its traceback.
``verify`` exits 1 where a row fails, a row whose integral or closed form
missed its target included.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import DomainError, KelvinError
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
# the most points of a range and rows of a table, far above 81 orders by 20 x
MAX_RANGE_POINTS = 10 ** 6


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _range_spec(spec: str, what: str) -> tuple[float, float, int]:
    """(a, step, n) of the n points a + k step of 'a:b:step' (an inclusive
    grid of at most ``MAX_RANGE_POINTS``), or (x, -0.0, 1) of a single
    number x: adding -0.0 leaves every double as it is."""
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return float(spec), -0.0, 1
        a, b, step = map(float, parts)
    except ValueError:  # not a number, or not three
        raise DomainError(f"{what}: expected a number or 'a:b:step', got {spec!r}") from None
    if not all(map(math.isfinite, (a, b, step))) or step <= 0.0 or b < a:
        raise DomainError(f"{what}: need finite a, b and step, step > 0 and b >= a in {spec!r}")
    count = (b - a) / step + 1e-9  # not finite where the quotient overflows
    if not count < MAX_RANGE_POINTS:
        raise DomainError(f"{what}: more than {MAX_RANGE_POINTS} points in {spec!r}")
    return a, step, int(count) + 1


def _points(a: float, step: float, n: int) -> list[float]:
    return [a + k * step for k in range(n)]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args: argparse.Namespace) -> int:
    fn = args.fn
    if fn in ("ber", "bei"):
        ber, bei, est = _eval_ber_bei(args.nu, args.x)
        value = ber if fn == "ber" else bei
    elif fn in ("ker", "kei"):
        ker, kei, est = _eval_ker_kei(args.nu, args.x)
        value = ker if fn == "ker" else kei
    else:
        # dber/dbei carry the series side's estimate, dker/dkei the K side's
        (row,), = _plan_rows(((args.nu, True),), (args.x,))
        i = _DERIV_FNS.index(fn)
        value, est = row[4 + i], row[8 + i // 2]
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


def _table_rows(nus: list[float], xs: list[float]) -> list[str]:
    """The rows of the orders ``nus`` over ``xs``, nu-major, then x; those
    at x != 0 are one plan."""
    plan = [(nu, True) for nu in nus]
    rows = (r for rs in _plan_rows(plan, [x for x in xs if x != 0.0]) for r in rs)
    return [_origin_row(nu, x) if x == 0.0 else _TABLE_ROW % ((nu, x) + next(rows)[:8])
            for nu in nus for x in xs]


def cmd_table(args: argparse.Namespace) -> int:
    nus = _range_spec(args.nu_range, "--nu-range")
    xs = _range_spec(args.x_range, "--x-range")
    rows = nus[2] * xs[2]  # the point counts
    if rows > MAX_RANGE_POINTS:  # before either axis is built
        raise DomainError(f"a grid of {rows} rows, more than {MAX_RANGE_POINTS}")
    _emit([_TABLE_HEADER] + _table_rows(_points(*nus), _points(*xs)), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suites(args.suite)
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
    pe.add_argument("fn", metavar="FN", choices=_VALUE_FNS + _DERIV_FNS, help="one of %(choices)s")
    pe.add_argument("--nu", type=float, required=True)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--format", choices=("csv", "plain"), default="plain")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="CSV sweep over nu/x grids")
    pt.add_argument("--nu-range", "--nu", dest="nu_range", required=True, metavar="A:B:STEP")
    pt.add_argument("--x-range", "--x", dest="x_range", required=True, metavar="A:B:STEP")
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("--suite", default="all",
                    choices=["all"] + sorted(SUITES))
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
    except (KelvinError, OSError) as exc:  # the latter an --out that cannot be written
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
