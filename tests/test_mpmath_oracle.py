"""dkelvin against mpmath at 30 digits.

All four values and all four order derivatives on nu = -10:10:0.5 and
x in {0.5, 1, 2, 5}, each pair (ber + i bei, ker + i kei, and likewise for
the derivatives) within 1e-10 relative.  The grid covers negative integers
and half-integers, where the order derivatives are hardest to get right.

A second grid holds the pairs to 1e-13 at large |nu| and small x, where the
values are far below 1 and only a relative stopping rule keeps them
accurate.  A third sits at and within 1e-6 of the integers +-n, where the
J series passes the poles of Gamma at -n and K is one step from K_n: it
holds ber/bei and their order derivatives to 1e-13 and ker/kei and theirs
to 1e-10.

dK/dnu on the Kelvin ray, the trapezoidal sum of ``bessel._ray_dk``, is
held to 1e-12 against the 40-digit derivative of mpmath's K_nu, with its
error estimate calibrated against the true error, at integers, just off
them and at generic orders.

Just outside ``NEAR_EXCLUDED`` of an integer the K *values* still break
down: the connection formula's csc(pi nu) amplifies the cancellation of
I_{-nu} and I_nu, so ker/kei, and with them dker/dkei, are ~1e-6 off at
x = 8.  Strict xfails pin that defect so that a fix shows up as an
unexpected pass.
"""

import functools

import pytest

mpmath = pytest.importorskip("mpmath")

from kelvinfn.hyper import DEFAULT_SERIES  # noqa: E402
from kelvinfn.kelvin import _point  # noqa: E402
from kelvinfn.orderderiv import dkelvin  # noqa: E402

ORDERS = [k / 2.0 for k in range(-20, 21)]
XS = [0.5, 1.0, 2.0, 5.0]
REL = 1e-10
SMALL_ORDERS = [-10.0, -9.5, -9.0, -6.5, 6.5, 9.0, 9.5, 9.75, 10.0]
SMALL_XS = [0.1, 0.25, 0.5, 1.0]
SMALL_REL = 1e-13
NEAR_NEG_ORDERS = [s * n + d for n in (1, 2, 3, 5, 8, 10) for s in (-1, 1)
                   for d in (0.0, -9e-7, -5e-7, -1e-8, -1e-9, 1e-9, 1e-8, 5e-7, 9e-7)
                   if abs(s * n + d) <= 10.0]
NEAR_NEG_XS = [0.5, 2.0, 8.0]
NEAR_NEG_REL = {"bb": 1e-13, "dbb": 1e-13, "kk": REL, "dkk": REL}
DK_BREAKDOWN = [(3.000002, 8.0), (-3.000002, 8.0), (2e-6, 8.0), (5.00001, 8.0)]
DK_ORDERS = [2e-6, 0.3, 3.0, 3.000002, 5.00001, 7.75, 10.0]
DK_XS = [0.1, 2.0, 8.0, 15.0, 20.0]
DK_REL = 1e-12


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


def check(nu: float, x: float, rel: float | dict[str, float]) -> None:
    d = dkelvin(nu, x)
    q = d.values
    got = {"bb": complex(q.ber, q.bei), "kk": complex(q.ker, q.kei),
           "dbb": complex(d.dber, d.dbei), "dkk": complex(d.dker, d.dkei)}
    want = oracle(nu, x)
    for key, w in want.items():
        bound = rel[key] if isinstance(rel, dict) else rel
        assert abs(got[key] - w) <= bound * abs(w), (key, got[key], w)


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
    check(nu, x, NEAR_NEG_REL)


@functools.lru_cache(maxsize=None)
def dk_oracle(nu: float, x: float) -> complex:
    """dK/dnu at e^(i pi/4) x, 40 digits."""
    mp = mpmath.mp
    with mp.workdps(40):
        z = mp.mpf(x) * mp.expjpi(mp.mpf(1) / 4)
        return complex(mp.diff(lambda t: mp.besselk(t, z), mp.mpf(nu)))


@pytest.mark.parametrize("x", DK_XS)
@pytest.mark.parametrize("nu", DK_ORDERS)
def test_dk_quadrature(nu, x):
    got = _point(nu, x, DEFAULT_SERIES).dk(nu).value
    want = dk_oracle(nu, x)
    assert abs(got - want) <= DK_REL * abs(want), (got, want)


@pytest.mark.parametrize("x", DK_XS)
@pytest.mark.parametrize("nu", DK_ORDERS)
def test_dk_error_estimate_calibrated(nu, x):
    """The estimate covers the true error and, where that error is above
    1e-15 of the value, overstates it by at most 1e3."""
    res = _point(nu, x, DEFAULT_SERIES).dk(nu)
    want = dk_oracle(nu, x)
    err = abs(res.value - want)
    assert res.abs_err_estimate >= err
    if err > 1e-15 * abs(want):
        assert res.abs_err_estimate <= 1e3 * err, (res.abs_err_estimate, err)


@pytest.mark.xfail(strict=True, reason="ker/kei just outside NEAR_EXCLUDED of an integer come "
                                       "from the connection formula, whose csc(pi nu) "
                                       "amplifies the I_{-nu}, I_nu cancellation")
@pytest.mark.parametrize("nu, x", DK_BREAKDOWN)
def test_dk_near_integers(nu, x):
    d = dkelvin(nu, x)
    got = complex(d.dker, d.dkei)
    want = oracle(nu, x)["dkk"]
    assert abs(got - want) <= REL * abs(want), (got, want)
