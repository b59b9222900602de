"""The benchmark's three workloads: seeded inputs, the call, the output check.

Every workload drives a public entry point of kelvinfn and checks what comes
back against frozen references in ``oracle/`` (written by make_oracle.py), so
nothing here needs mpmath.  Input generation and oracle loading happen in the
constructor, before any kelvinfn import, and are not part of set-up time.

A workload cycles through a seeded list of ``pass_len`` calls (one pass);
``call(i)`` makes the i-th call and ``check(i, out)`` turns its output into a
``Check``.  ``warm()`` makes one fixed call, the same for every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

ORACLE_DIR = Path(__file__).resolve().parent / "oracle"

# A component is accurate when |got - ref| <= ACCURACY_TOL * |pair|, where the
# pair is ber+i*bei, ker+i*kei, or the matching derivative pair, so that a zero
# of one component does not blow up the ratio.
ACCURACY_TOL = 1e-10

# values_scatter: each order class is split into strata evenly spaced in
# log(x); the pool holds CANDIDATES points per stratum and a seed takes one
# from each, so the class shares and the x spread are the same for every seed.
X_MIN, X_MAX = 0.1, 20.0
CLASS_STRATA = (("integer", 205), ("half", 154), ("generic", 665))
CANDIDATES = 2

# table_grid: one call is one order over TABLE_X; a pass takes the orders in
# nu-major order, starting at a seeded offset and wrapping around.
TABLE_NU = tuple(-10.0 + 0.25 * k for k in range(81))
TABLE_X_SPEC = "1:20:1"
TABLE_X = tuple(1.0 + k for k in range(20))
TABLE_HEADER = "nu,x,ber,bei,ker,kei,dber,dbei,dker,dkei,method"

# verify_all: rows per suite at the frozen manifest grids, in the program's order.
VERIFY_ROWS = {"fd": 240, "reflection": 96, "ode": 24, "apelblat": 78,
               "theorem5": 30, "appendix": 23, "brychkov": 32, "integer": 80}
VERIFY_HEADER = "name,nu,x,lhs,rhs,abs_diff,tol,pass"

X_BANDS = ((5.0, "x_le_5"), (12.0, "x_5_to_12"), (math.inf, "x_gt_12"))


@dataclass
class Check:
    """Outcome of one call: ops done, ops failed, accurate / checked components."""

    ops: int
    failed: int
    accurate: int
    components: int
    points: tuple[tuple[float, float], ...] = ()
    routes: tuple[str, ...] = ()


def _pairs_accurate(got, ref) -> int:
    """Accurate components of (a, b, a, b, ...) against ref, scaled per pair."""
    n = 0
    for k in range(0, len(ref), 2):
        scale = math.hypot(ref[k], ref[k + 1])
        for j in (k, k + 1):
            if abs(got[j] - ref[j]) <= ACCURACY_TOL * scale:
                n += 1
    return n


def _capture(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def x_band(x: float) -> str:
    return next(name for hi, name in X_BANDS if x <= hi)


def read_oracle(name: str) -> list[dict[str, str]]:
    with open(ORACLE_DIR / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class ValuesScatter:
    """One op is one kelvin_all(nu, x) call at a seeded point."""

    name = "values_scatter"

    def __init__(self, seed: int):
        by_stratum: dict[int, list] = {}
        for row in read_oracle("values_scatter.csv"):
            point = (float(row["nu"]), float(row["x"]),
                     tuple(float(row[k]) for k in ("ber", "bei", "ker", "kei")))
            by_stratum.setdefault(int(row["stratum"]), []).append(point)
        rng = random.Random(seed)
        self.points = [rng.choice(by_stratum[s]) for s in sorted(by_stratum)]
        rng.shuffle(self.points)
        self.pass_len = len(self.points)
        self.entry = None

    def bind(self, kf) -> None:
        self.entry = kf.kelvin_all

    def warm(self):
        return self.entry(0.5, 1.0)

    def call(self, i: int):
        nu, x, _ = self.points[i % len(self.points)]
        return self.entry(nu, x)

    def check(self, i: int, out) -> Check:
        nu, x, ref = self.points[i % len(self.points)]
        try:
            got = (out.ber, out.bei, out.ker, out.kei)
            ok = out.nu == nu and out.x == x and all(map(math.isfinite, got))
        except (AttributeError, TypeError):
            ok = False
        if not ok:
            return Check(1, 1, 0, 4, ((nu, x),))
        return Check(1, 0, _pairs_accurate(got, ref), 4, ((nu, x),))


class TableGrid:
    """One op is one CSV row; one call is ``kelvinfn table`` for one order."""

    name = "table_grid"

    def __init__(self, seed: int):
        self.ref = {}
        for row in read_oracle("table_grid.csv"):
            vals = tuple(float(row[k]) for k in TABLE_HEADER.split(",")[2:10])
            self.ref[(float(row["nu"]), float(row["x"]))] = vals
        start = random.Random(seed).randrange(len(TABLE_NU))
        self.orders = TABLE_NU[start:] + TABLE_NU[:start]
        self.pass_len = len(self.orders)
        self.main = None

    def bind(self, kf) -> None:
        self.main = kf.cli.main

    def warm(self):
        return _capture(self.main, ["table", "--nu-range=0.25", f"--x-range={TABLE_X_SPEC}"])

    def call(self, i: int):
        nu = self.orders[i % len(self.orders)]
        return _capture(self.main, ["table", f"--nu-range={nu!r}",
                                    f"--x-range={TABLE_X_SPEC}"])

    def check(self, i: int, out) -> Check:
        nu = self.orders[i % len(self.orders)]
        n = len(TABLE_X)
        points = tuple((nu, x) for x in TABLE_X)
        code, text = out if isinstance(out, tuple) else (None, "")
        lines = text.split("\n")
        if code != 0 or lines[0] != TABLE_HEADER or lines[-1] != "":
            return Check(n, n, 0, 8 * n, points)
        rows = lines[1:-1]
        failed = n - min(len(rows), n)
        accurate = 0
        routes = []
        for x, line in zip(TABLE_X, rows):
            cells = line.split(",")
            try:
                got = [float(c) for c in cells[:10]]
                ok = (len(cells) == 11 and cells[10] != "" and got[0] == nu
                      and got[1] == x and all(map(math.isfinite, got)))
            except ValueError:
                ok = False
            if not ok:
                failed += 1
                continue
            accurate += _pairs_accurate(got[2:], self.ref[(nu, x)])
            routes.append(cells[10])
        return Check(n, failed, accurate, 8 * n, points, tuple(routes))


class VerifyAll:
    """One op is one identity row; one call is ``kelvinfn verify`` for one suite.

    The suites run over frozen grids, so the seed does not change the inputs.
    """

    name = "verify_all"

    def __init__(self, seed: int):
        self.suites = list(VERIFY_ROWS)
        self.pass_len = len(self.suites)
        self.main = None

    def bind(self, kf) -> None:
        self.main = kf.cli.main

    def warm(self):
        return _capture(self.main, ["verify", "--suite", "appendix"])

    def call(self, i: int):
        return _capture(self.main, ["verify", "--suite", self.suites[i % len(self.suites)]])

    def check(self, i: int, out) -> Check:
        n = VERIFY_ROWS[self.suites[i % len(self.suites)]]
        code, text = out if isinstance(out, tuple) else (None, "")
        lines = text.split("\n")
        if code not in (0, 1) or lines[0] != VERIFY_HEADER or lines[-1] != "":
            return Check(n, n, 0, n)
        passed = 0
        points = []
        for line in lines[1:-1][:n]:
            cells = line.split(",")
            if len(cells) == 8 and cells[7] == "1":
                passed += 1
            with contextlib.suppress(ValueError, IndexError):
                points.append((float(cells[1]), float(cells[2])))
        return Check(n, n - passed, passed, n, tuple(points))


WORKLOADS = {w.name: w for w in (ValuesScatter, TableGrid, VerifyAll)}
