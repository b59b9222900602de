"""Regenerate the frozen references in oracle/ with mpmath at 40 digits.

    python3 perfbench/make_oracle.py

Needs mpmath (written with 1.3.0); the benchmark itself does not.  Writes

* oracle/values_scatter.csv: the values_scatter pool, CANDIDATES points per
  stratum (see workloads.py), with ber/bei/ker/kei at each point;
* oracle/table_grid.csv: every (nu, x) of the table_grid grid, with the four
  values and their order derivatives (mpmath.diff over nu).

Inputs are stored as exact doubles (repr); references are computed at 40
significant digits from those doubles and stored rounded to DIGITS digits,
far below the 1e-10 accuracy check.
"""

from __future__ import annotations

import csv
import math
import random

import mpmath as mp

from workloads import (CANDIDATES, CLASS_STRATA, ORACLE_DIR, TABLE_NU, TABLE_X,
                       X_MAX, X_MIN)

POOL_SEED = 1806_09164
DIGITS = 20
FUNCS = (mp.ber, mp.bei, mp.ker, mp.kei)


def draw_order(cls: str, rng: random.Random) -> float:
    if cls == "integer":
        return float(rng.randint(-10, 10))
    if cls == "half":
        return rng.randint(-10, 9) + 0.5
    while True:  # generic: at least 1e-6 away from every multiple of 1/2
        nu = rng.uniform(-10.0, 10.0)
        if abs(2.0 * nu - round(2.0 * nu)) > 2e-6:
            return nu


def values_pool() -> list[tuple[int, float, float]]:
    rng = random.Random(POOL_SEED)
    lo, hi = math.log(X_MIN), math.log(X_MAX)
    pool = []
    stratum = 0
    for cls, count in CLASS_STRATA:
        for j in range(count):
            for _ in range(CANDIDATES):
                x = math.exp(lo + (j + rng.random()) / count * (hi - lo))
                pool.append((stratum, draw_order(cls, rng), min(max(x, X_MIN), X_MAX)))
            stratum += 1
    return pool


def fmt(v) -> str:
    return mp.nstr(v, DIGITS, min_fixed=1, max_fixed=0)


def main() -> None:
    mp.mp.dps = 40
    ORACLE_DIR.mkdir(exist_ok=True)
    with open(ORACLE_DIR / "values_scatter.csv", "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["stratum", "nu", "x", "ber", "bei", "ker", "kei"])
        for stratum, nu, x in values_pool():
            out.writerow([stratum, repr(nu), repr(x)] + [fmt(f(nu, x)) for f in FUNCS])
    with open(ORACLE_DIR / "table_grid.csv", "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["nu", "x", "ber", "bei", "ker", "kei", "dber", "dbei", "dker", "dkei"])
        for nu in TABLE_NU:
            for x in TABLE_X:
                vals = [f(nu, x) for f in FUNCS]
                ders = [mp.diff(lambda n, f=f: f(n, x), nu) for f in FUNCS]
                out.writerow([repr(nu), repr(x)] + [fmt(v) for v in vals + ders])


if __name__ == "__main__":
    main()
