"""dkelvin against mpmath at 30 digits.

All four values and all four order derivatives on nu = -10:10:0.5 and
x in {0.5, 1, 2, 5, 8, 10, 12, 15, 18, 20}, each pair (ber + i bei,
ker + i kei, and likewise for the derivatives) within 1e-10 relative.  The
grid covers negative integers and half-integers, where the order
derivatives are hardest to get right, and the large x where K is small
against the terms of the I series it was once taken from.

A second grid holds the pairs to 1e-13 at large |nu| and small x, where the
values are far below 1 and only a relative stopping rule keeps them
accurate.  A third sits at and within 1e-6 of the integers +-n, where the
J series passes the poles of Gamma at -n: it holds ber/bei and their order
derivatives to 1e-13 and ker/kei and theirs to 1e-10.

K and dK/dnu on the Kelvin ray, the one trapezoidal sum of
``bessel._ray_k``, are held to 1e-12 against 40-digit mpmath, each with its
error estimate calibrated against the true error, at integers, just off
them and at generic orders; ker/kei to 1e-12 on nu = -10:10:0.25 over
x in [0.1, 20] and at small x just off an integer.  The ber/bei estimate
that ``eval`` prints is calibrated the same way on an 80-point grid.  Just outside 1e-6 of an
integer, where the connection formula (pi/2)(I_{-nu} - I_nu)/sin(pi nu)
would lose digits to its csc factor, dker/dkei hold 1e-10 at x = 8.
"""

import functools
import math

import pytest

mpmath = pytest.importorskip("mpmath")

from kelvinfn.cli import main  # noqa: E402
from kelvinfn.errors import ConvergenceError  # noqa: E402
from kelvinfn.hyper import DEFAULT_SERIES  # noqa: E402
from kelvinfn.kelvin import _eval_ber_bei, _point, kelvin_all, kelvin_ker_kei  # noqa: E402
from kelvinfn.orderderiv import dkelvin  # noqa: E402

ORDERS = [k / 2.0 for k in range(-20, 21)]
XS = [0.5, 1.0, 2.0, 5.0, 8.0, 10.0, 12.0, 15.0, 18.0, 20.0]
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
KK_ORDERS = [k / 4.0 for k in range(-40, 41)]
KK_XS = [0.1, 0.3, 1.0, 3.0, 8.0, 15.0, 20.0]
# just off an integer at small x, where csc(pi nu) and the cancellation of
# I_{-nu} against I_nu once cost ker/kei up to 2.4e-10
KK_NEAR = [(5.0 - 2e-6, 0.01), (-5.0 + 2e-6, 0.01), (5.0 - 2e-6, 0.05), (-5.0 + 2e-6, 0.05),
           (-3.0 + 3e-6, 0.02)]
KK_REL = 1e-12
BB_CAL_ORDERS = [0.0, 0.3, 1.0, 2.5, 5.0, 7.75, 10.0, -1.5, -3.3, -7.0]
BB_CAL_XS = [0.1, 0.5, 2.0, 5.0, 8.0, 12.0, 15.0, 20.0]


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
    """The four pairs within ``rel`` of the oracle, and dkelvin's error
    estimate calibrated against the worst of the four order derivatives:
    it covers that error and, where the error is above 1e-15 of its pair,
    overstates it by at most 1e3."""
    d = dkelvin(nu, x)
    q = d.values
    got = {"bb": complex(q.ber, q.bei), "kk": complex(q.ker, q.kei),
           "dbb": complex(d.dber, d.dbei), "dkk": complex(d.dker, d.dkei)}
    want = oracle(nu, x)
    for key, w in want.items():
        bound = rel[key] if isinstance(rel, dict) else rel
        assert abs(got[key] - w) <= bound * abs(w), (key, got[key], w)
    err, pair = max((abs(g - w), abs(want[key])) for key in ("dbb", "dkk")
                    for g, w in ((got[key].real, want[key].real), (got[key].imag, want[key].imag)))
    assert d.err_estimate >= err, (d.err_estimate, err)
    if err > 1e-15 * pair:
        assert d.err_estimate <= 1e3 * err, (d.err_estimate, err)


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


def kk_oracle(nu: float, x: float) -> complex:
    """ker + i kei at 40 digits."""
    mp = mpmath.mp
    with mp.workdps(40):
        return complex(mp.ker(mp.mpf(nu), mp.mpf(x)), mp.kei(mp.mpf(nu), mp.mpf(x)))


@pytest.mark.parametrize("x", BB_CAL_XS)
@pytest.mark.parametrize("nu", BB_CAL_ORDERS)
def test_ber_bei_error_estimate_calibrated(nu, x):
    """The estimate that ``eval ber``/``eval bei`` print covers the error of
    both against 40-digit mpmath and, where that error is above 1e-15 (or
    above 1e-15 of the pair, for pairs below 1), overstates it by at most 1e3."""
    ber, bei, est, _ = _eval_ber_bei(nu, x, DEFAULT_SERIES)
    mp = mpmath.mp
    with mp.workdps(40):
        n, z = mp.mpf(nu), mp.mpf(x)
        wb, wi = mp.ber(n, z), mp.bei(n, z)
        err = float(max(abs(mp.mpf(ber) - wb), abs(mp.mpf(bei) - wi)))
        pair = float(mp.sqrt(wb * wb + wi * wi))
    assert est >= err, (est, err)
    if err > 1e-15 * min(1.0, pair):
        assert est <= 1e3 * err, (est, err)


@pytest.mark.parametrize("nu, x", [(nu, x) for nu in KK_ORDERS for x in KK_XS] + KK_NEAR)
def test_ker_kei_pairs(nu, x):
    want = kk_oracle(nu, x)
    assert abs(complex(*kelvin_ker_kei(nu, x)) - want) <= KK_REL * abs(want)


@functools.lru_cache(maxsize=None)
def k_oracle(nu: float, x: float) -> complex:
    """K_nu at e^(i pi/4) x, 40 digits."""
    mp = mpmath.mp
    with mp.workdps(40):
        return complex(mp.besselk(mp.mpf(nu), mp.mpf(x) * mp.expjpi(mp.mpf(1) / 4)))


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
    p = _point(nu, x, DEFAULT_SERIES)
    for got, want in ((p.dk(nu).value, dk_oracle(nu, x)), (p.k(nu).value, k_oracle(nu, x))):
        assert abs(got - want) <= DK_REL * abs(want), (got, want)


@pytest.mark.parametrize("x", DK_XS)
@pytest.mark.parametrize("nu", DK_ORDERS)
def test_dk_error_estimate_calibrated(nu, x):
    """Each estimate, of dK/dnu and of K, covers the true error and, where
    that error is above 1e-15 of the value, overstates it by at most 1e3."""
    p = _point(nu, x, DEFAULT_SERIES)
    for res, want in ((p.dk(nu), dk_oracle(nu, x)), (p.k(nu), k_oracle(nu, x))):
        err = abs(res.value - want)
        assert res.abs_err_estimate >= err
        if err > 1e-15 * abs(want):
            assert res.abs_err_estimate <= 1e3 * err, (res.abs_err_estimate, err)


@pytest.mark.parametrize("nu, x", DK_BREAKDOWN)
def test_dk_near_integers(nu, x):
    d = dkelvin(nu, x)
    got = complex(d.dker, d.dkei)
    want = oracle(nu, x)["dkk"]
    assert abs(got - want) <= REL * abs(want), (got, want)


def test_k_below_the_envelope(capsys):
    """Far below x = 0.1 the K sum still meets 1e-12, at x = 1e-12 and at
    x = 1e-300, where it needs 9936 nodes past the term cap of dK/dnu, which
    stops there and says so with an infinite estimate.  At the smallest
    double the nodes run out: ker raises a typed error that ``eval ker``
    reports."""
    for nu, x in ((0.0, 1e-12), (10.0, 1e-12), (0.0, 1e-300), (0.3, 1e-300)):
        want = kk_oracle(nu, x)
        assert abs(complex(*kelvin_ker_kei(nu, x)) - want) <= KK_REL * abs(want)
    dk = _point(0.3, 1e-300, DEFAULT_SERIES).dk(0.3)
    assert dk.terms_used == DEFAULT_SERIES.max_terms and "no_convergence" in dk.flags
    assert dk.abs_err_estimate == math.inf and dkelvin(0.3, 1e-300).err_estimate == math.inf
    assert main(["eval", "ker", "--nu", "0.3", "--x", "1e-300"]) == 0
    est = capsys.readouterr().out.splitlines()[1]
    assert est.startswith("err_estimate = ") and math.isfinite(float(est.split("= ")[1]))
    assert main(["eval", "ker", "--nu", "0", "--x", "5e-324"]) == 2
    assert "ConvergenceError" in capsys.readouterr().err


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 20.0, 30.0])
@pytest.mark.parametrize("nu", [15.0, -15.0, 14.5])
def test_k_at_the_order_bound(nu, x):
    """Up to |nu| = 15 and x = 30 ker/kei hold 1e-12 and dker/dkei 3e-12."""
    want = oracle(nu, x)
    d = dkelvin(nu, x)
    assert abs(complex(d.values.ker, d.values.kei) - want["kk"]) <= KK_REL * abs(want["kk"])
    assert abs(complex(d.dker, d.dkei) - want["dkk"]) <= 3 * KK_REL * abs(want["dkk"])


@pytest.mark.parametrize("nu, x", [(20.0, 1.0), (30.0, 1.0), (-20.0, 10.0), (15.5, 0.1),
                                   (0.0, 40.0), (10.0, 100.0), (100.0, 20.0)])
def test_k_past_the_bounds_is_typed(nu, x):
    """Past |nu| = 15 or x = 30 the step no longer resolves the K integrand
    (7e-10 off at nu = 20, 5e-4 at 30): ker/kei and their order derivatives
    raise a typed error instead of a value labelled accurate."""
    for call in (kelvin_ker_kei, kelvin_all, dkelvin):
        with pytest.raises(ConvergenceError):
            call(nu, x)
