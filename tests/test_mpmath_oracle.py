"""dkelvin against mpmath at 30 digits.

All four values and all four order derivatives on nu = -10:10:0.5 and
x in {0.5, 1, 2, 5}, each pair (ber + i bei, ker + i kei, and likewise for
the derivatives) within 1e-10 relative.  The grid covers negative integers
and half-integers, where the order derivatives are hardest to get right.

A second grid holds the pairs to 1e-13 at large |nu| and small x, where the
values are far below 1 and only a relative stopping rule keeps them
accurate.  A third holds ber/bei to 1e-13 within 1e-6 of negative integers,
where the values come from the series at the order itself.

Near integers the K-side order derivative is known to break down: the
connection formula's csc(pi nu) amplifies the cancellation of the two I
derivatives just outside ``NEAR_EXCLUDED``.  Strict xfails pin that defect
so that a fix shows up as an unexpected pass.
"""

import pytest

mpmath = pytest.importorskip("mpmath")

from kelvinfn.kelvin import kelvin_ber_bei  # noqa: E402
from kelvinfn.orderderiv import dkelvin  # noqa: E402

ORDERS = [k / 2.0 for k in range(-20, 21)]
XS = [0.5, 1.0, 2.0, 5.0]
REL = 1e-10
SMALL_ORDERS = [-10.0, -9.5, -9.0, -6.5, 6.5, 9.0, 9.5, 9.75, 10.0]
SMALL_XS = [0.1, 0.25, 0.5, 1.0]
SMALL_REL = 1e-13
NEAR_NEG_ORDERS = [-n + d for n in (1, 2, 3, 5, 8, 10)
                   for d in (-9e-7, -5e-7, -1e-8, 1e-8, 5e-7, 9e-7) if n - d <= 10.0]
NEAR_NEG_XS = [0.5, 2.0, 8.0]
NEAR_NEG_REL = 1e-13
DK_BREAKDOWN = [(3.000002, 8.0), (-3.000002, 8.0), (2e-6, 8.0), (5.00001, 8.0)]


def oracle(nu: float, x: float) -> dict[str, complex]:
    """The four pairs at 30 digits; order derivatives by mpmath.diff."""
    mp = mpmath.mp
    with mp.workdps(30):
        n, z = mp.mpf(nu), mp.mpf(x)

        def pair(f, g):
            return complex(f(n, z), g(n, z))

        def dpair(f, g):
            return complex(mp.diff(lambda t: f(t, z), n), mp.diff(lambda t: g(t, z), n))

        return {"bb": pair(mp.ber, mp.bei), "kk": pair(mp.ker, mp.kei),
                "dbb": dpair(mp.ber, mp.bei), "dkk": dpair(mp.ker, mp.kei)}


def check(nu: float, x: float, rel: float) -> None:
    d = dkelvin(nu, x)
    q = d.values
    got = {"bb": complex(q.ber, q.bei), "kk": complex(q.ker, q.kei),
           "dbb": complex(d.dber, d.dbei), "dkk": complex(d.dker, d.dkei)}
    want = oracle(nu, x)
    for key, w in want.items():
        assert abs(got[key] - w) <= rel * abs(w), (key, got[key], w)


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("nu", ORDERS)
def test_dkelvin_against_mpmath(nu, x):
    check(nu, x, REL)


@pytest.mark.parametrize("x", SMALL_XS)
@pytest.mark.parametrize("nu", SMALL_ORDERS)
def test_small_values_relative(nu, x):
    check(nu, x, SMALL_REL)


@pytest.mark.parametrize("x", NEAR_NEG_XS)
@pytest.mark.parametrize("nu", NEAR_NEG_ORDERS)
def test_near_negative_integers(nu, x):
    got = complex(*kelvin_ber_bei(nu, x))
    with mpmath.mp.workdps(30):
        want = complex(mpmath.mp.ber(nu, x), mpmath.mp.bei(nu, x))
    assert abs(got - want) <= NEAR_NEG_REL * abs(want), (got, want)


@pytest.mark.xfail(strict=True, reason="dK/dnu loses its digits just outside NEAR_EXCLUDED "
                                       "of an integer")
@pytest.mark.parametrize("nu, x", DK_BREAKDOWN)
def test_dk_near_integers(nu, x):
    d = dkelvin(nu, x)
    got = complex(d.dker, d.dkei)
    want = oracle(nu, x)["dkk"]
    assert abs(got - want) <= REL * abs(want), (got, want)
