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

K and dK/dnu on the Kelvin ray, from the start of ``bessel._k_sums``
(Temme's series at |z| <= ``TEMME_MAX_ARG``, for dK/dnu only to
``TEMME_DK_MAX_ARG``, the trapezoidal sum above) climbed from
nu - floor(nu) to the order, are held to 1e-12 against 40-digit mpmath,
each with its error estimate calibrated against the true error, at
integers, just off them, at generic orders and out to nu = 50, and on both
sides of each border to 1.8e-15 (K) and 3.1e-15 (dK/dnu); ker/kei to
1e-12 on nu = -10:10:0.25 over x in [0.1, 20], to 2.6e-15 at the borders,
and at small x just off an integer.
The coefficient tables of Temme's start are recomputed here from mpmath.
The ber/bei estimate that ``eval`` prints is calibrated the same way on an
80-point grid.  Just outside 1e-6 of an integer, where the connection
formula (pi/2)(I_{-nu} - I_nu)/sin(pi nu) would lose digits to its csc
factor, dker/dkei hold 1e-10 at x = 8.
"""

import cmath
import functools
import math
import random
import sys

import pytest

mpmath = pytest.importorskip("mpmath")

from kelvinfn import bessel  # noqa: E402
from kelvinfn.bessel import (K_MAX_ARG, TEMME_DK_MAX_ARG, TEMME_MAX_ARG,  # noqa: E402
                             _gamma12, _k_sums, bessel_i, bessel_j, bessel_k, dj_dnu_any,
                             dk_dnu_any)
from kelvinfn.cli import main  # noqa: E402
from kelvinfn.errors import BranchError, ConvergenceError  # noqa: E402
from kelvinfn import manifest, orderderiv, quad  # noqa: E402
from kelvinfn.kelvin import (ROT_J, ROT_K, _eval_ber_bei, _eval_ker_kei, kelvin_all,  # noqa: E402
                             kelvin_ker_kei)
from kelvinfn.orderderiv import dkelvin  # noqa: E402
from kelvinfn.scalars import gamma_real  # noqa: E402

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
DK_ORDERS = [2e-6, 0.3, 3.0, 3.000002, 5.00001, 7.75, 10.0, 12.5, 15.0, 20.0, 30.0, 50.0]
DK_XS = [0.1, 2.0, 8.0, 15.0, 20.0, 25.0, 30.0]
DK_REL = 1e-12
KK_ORDERS = [k / 4.0 for k in range(-40, 41)]
KK_XS = [0.1, 0.3, 1.0, 3.0, 8.0, 12.0, 15.0, 18.0, 20.0]
# just off an integer at small x, where csc(pi nu) and the cancellation of
# I_{-nu} against I_nu once cost ker/kei up to 2.4e-10
KK_NEAR = [(5.0 - 2e-6, 0.01), (-5.0 + 2e-6, 0.01), (5.0 - 2e-6, 0.05), (-5.0 + 2e-6, 0.05),
           (-3.0 + 3e-6, 0.02)]
KK_REL = 1e-12
# the ker + i kei pairs of KK_ORDERS x KK_XS and KK_NEAR; the worst is 2.58e-15,
# at nu = 9.75, x = 18
KK_PAIR_REL = 3e-15
# the exact Kelvin ray at large x, where K ~ e^(-z) carries the rounding of
# the double z = ROT_K x into ker/kei
RAY_ROUNDING_ORDERS = [2e-6, 0.3, 3.0, 3.000002, 7.75, 10.0]
RAY_ROUNDING_XS = [12.0, 18.0, 20.0, 22.0, 25.0, 30.0]
BB_CAL_ORDERS = [0.0, 0.3, 1.0, 2.5, 5.0, 7.75, 10.0, -1.5, -3.3, -7.0]
BB_CAL_XS = [0.1, 0.5, 2.0, 5.0, 8.0, 12.0, 15.0, 20.0]


def ray_k(nu: float, x: float, dk: bool) -> tuple:
    """The K sum at nu >= 0 on the Kelvin ray: (K, dK/dnu or None), each
    (value, estimate, nodes, converged, scale)."""
    return _k_sums(nu, ROT_K * x, dk)


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
    ber, bei, est = _eval_ber_bei(nu, x)
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
    assert abs(complex(*kelvin_ker_kei(nu, x)) - want) <= KK_PAIR_REL * abs(want)


@pytest.mark.parametrize("x", RAY_ROUNDING_XS)
@pytest.mark.parametrize("nu", RAY_ROUNDING_ORDERS)
def test_k_estimates_cover_the_ray_rounding(nu, x):
    """The K sum is exact to its estimate at the double z = ROT_K x, which
    is up to 0.81 eps x off the ray; K ~ e^(-z) turns that into ~x eps of
    ker/kei.  The ker/kei estimate and dkelvin's K-side estimate (the last
    entry of a derivative row of ``_plan_rows``) each cover the error against mpmath on
    the exact ray and, where it is above 1e-15 of the pair, overstate it by
    at most 1e3."""
    ker, kei, est = _eval_ker_kei(nu, x)
    (d,), = orderderiv._plan_rows([(nu, True)], (x,))
    for got, want, e in ((complex(ker, kei), kk_oracle(nu, x), est),
                         (complex(d[6], d[7]), oracle(nu, x)["dkk"], d[9])):
        err = abs(got - want)
        assert e >= err, (e, err)
        if err > 1e-15 * abs(want):
            assert e <= 1e3 * err, (e, err)


@pytest.mark.parametrize("fn", ["dber", "dbei", "dker", "dkei"])
@pytest.mark.parametrize("nu, x", [(0.3, 20.0), (0.3, 2.0), (-2.7, 8.0), (2.5, 0.5),
                                   (7.75, 12.0), (-0.5, 15.0), (1.0, 5.0)])
def test_eval_derivative_estimates_calibrated(capsys, fn, nu, x):
    """``eval dber``/``dbei`` print the series side's estimate and ``eval
    dker``/``dkei`` the K side's: each covers the error of its value against
    40-digit ``mp.diff`` and is at most 1e3 times it.  dker at (0.3, 20),
    good to ~2e-22, used to print the ber/bei side's 4.3e-08."""
    assert main(["eval", fn, "--nu", repr(nu), "--x", repr(x), "--format", "csv"]) == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    value, est = float(cells[3]), float(cells[4])
    f = {"dber": mpmath.ber, "dbei": mpmath.bei, "dker": mpmath.ker, "dkei": mpmath.kei}[fn]
    mp = mpmath.mp
    with mp.workdps(40):
        err = float(abs(mp.mpf(value) - mp.diff(lambda t: f(t, mp.mpf(x)), mp.mpf(nu))))
    assert err <= est <= 1e3 * err, (err, est)


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
    k, dk = ray_k(nu, x, True)
    for got, want in ((dk[0], dk_oracle(nu, x)), (k[0], k_oracle(nu, x))):
        assert abs(got - want) <= DK_REL * abs(want), (got, want)


@pytest.mark.parametrize("x", DK_XS)
@pytest.mark.parametrize("nu", DK_ORDERS)
def test_dk_error_estimate_calibrated(nu, x):
    """Each estimate, of dK/dnu and of K, covers the true error and, where
    that error is above 1e-15 of the value, overstates it by at most 1e3."""
    k, dk = ray_k(nu, x, True)
    for (value, est, _, _, _), want in ((dk, dk_oracle(nu, x)), (k, k_oracle(nu, x))):
        err = abs(value - want)
        assert est >= err
        if err > 1e-15 * abs(want):
            assert est <= 1e3 * err, (est, err)


@pytest.mark.parametrize("nu, x", DK_BREAKDOWN)
def test_dk_near_integers(nu, x):
    d = dkelvin(nu, x)
    got = complex(d.dker, d.dkei)
    want = oracle(nu, x)["dkk"]
    assert abs(got - want) <= REL * abs(want), (got, want)


def test_k_below_the_envelope(capsys):
    """Far below x = 0.1 Temme's start still meets 1e-12, at x = 1e-12 and
    at x = 1e-300, where dK/dnu, which the trapezoidal sum cut at its term
    cap with an infinite estimate, takes 2 terms and has a finite, calibrated
    estimate.  At the smallest double z/2 underflows to 0: ker raises a
    typed error that ``eval ker`` reports."""
    for nu, x in ((0.0, 1e-12), (10.0, 1e-12), (0.0, 1e-300), (0.3, 1e-300)):
        want = kk_oracle(nu, x)
        assert abs(complex(*kelvin_ker_kei(nu, x)) - want) <= KK_REL * abs(want)
    dk = ray_k(0.3, 1e-300, True)[1]
    err = abs(dk[0] - dk_oracle(0.3, 1e-300))
    assert dk[2] == 2 and dk[3] and err <= DK_REL * abs(dk[0])
    assert err <= dk[1] <= 1e3 * err
    assert math.isfinite(dkelvin(0.3, 1e-300).err_estimate)
    assert main(["eval", "ker", "--nu", "0.3", "--x", "1e-300"]) == 0
    est = capsys.readouterr().out.splitlines()[1]
    assert est.startswith("err_estimate = ") and math.isfinite(float(est.split("= ")[1]))
    assert main(["eval", "ker", "--nu", "0", "--x", "5e-324"]) == 2
    assert "ConvergenceError" in capsys.readouterr().err


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 20.0, 30.0])
@pytest.mark.parametrize("nu", [15.0, -15.0, 14.5])
def test_k_at_the_order_bound(nu, x):
    """At |nu| = 15, the bound of the one-order sum that climbing the order
    replaced, and up to x = 30, ker/kei hold 1e-12 and dker/dkei 3e-12."""
    want = oracle(nu, x)
    d = dkelvin(nu, x)
    assert abs(complex(d.values.ker, d.values.kei) - want["kk"]) <= KK_REL * abs(want["kk"])
    assert abs(complex(d.dker, d.dkei) - want["dkk"]) <= 3 * KK_REL * abs(want["dkk"])


@pytest.mark.parametrize("nu, x", [(20.0, 1.0), (30.0, 1.0), (-20.0, 10.0), (15.5, 0.1),
                                   (0.0, 40.0), (10.0, 100.0), (100.0, 20.0)])
def test_k_past_the_bounds_is_typed(nu, x):
    """Past |nu| = 15 the sum at nu - floor(nu), climbed to the order, holds
    ker/kei and dker/dkei to 1e-12, where the one-order sum was 7e-10 off at
    nu = 20 and 5e-4 at 30.  Past x = 30 the step no longer resolves the
    K integrand: ker/kei and their order derivatives raise a typed error
    instead of a value labelled accurate."""
    if abs(x) > K_MAX_ARG:
        for call in (kelvin_ker_kei, kelvin_all, dkelvin):
            with pytest.raises(ConvergenceError):
                call(nu, x)
        return
    want = oracle(nu, x)
    d = dkelvin(nu, x)
    assert (d.values.ker, d.values.kei) == kelvin_ker_kei(nu, x)
    assert abs(complex(d.values.ker, d.values.kei) - want["kk"]) <= KK_REL * abs(want["kk"])
    assert abs(complex(d.dker, d.dkei) - want["dkk"]) <= KK_REL * abs(want["dkk"])


# The complex API at a general z: J and I at every real order of the grid,
# negative integers included, and dJ/dnu at nu >= 0, held to 1e-13 relative
# against 40-digit mpmath over |z| from 0.05 to 5 and six phases, and
# flagged ``degraded`` wherever they are not, out to |z| = 20; K and dK/dnu
# at integers and generic orders to 5e-12 on |z| in [0.1, 20] at the same
# phases, all in the right half-plane (at Re z < 0 they raise BranchError,
# tests/test_bessel.py).
API_ORDERS = [-10.0, -8.0, -7.5, -5.0, -3.3, -3.0, -2.5, -2.0, -1.0, -0.5, 0.0, 0.3, 1.0,
              2.0, 2.5, 3.5, 5.0, 6.3, 8.0, 10.0, 12.5]
API_PHASES = [0.0, math.pi / 4.0, -math.pi / 4.0, 0.7, 1.2, 1.5]
API_ZS = [cmath.rect(r, ph) for r in (0.05, 0.1, 0.3, 0.5, 0.8, 1.0, 2.0, 5.0)
          for ph in API_PHASES]
API_REL = 1e-13
# |z| from 5 to 20, where the ascending series cancel
JI_CAL_ZS = [cmath.rect(r, ph) for r in (5.0, 10.0, 15.0, 20.0) for ph in API_PHASES]
K_INTEGERS = [0, 1, 2, 3, 5, 8]
K_GENERIC = [0.3, 1.5, 2.7, 4.25]
K_ZS = [cmath.rect(r, ph) for r in (0.1, 0.3, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
        for ph in API_PHASES]
K_REL = 5e-12


@functools.lru_cache(maxsize=None)
def api_oracle(name: str, nu: float, z: complex, diff: bool = False) -> complex:
    """mpmath's besselj/besseli/besselk at (nu, z), or with ``diff`` its
    order derivative, at 40 digits."""
    mp = mpmath.mp
    f = getattr(mp, name)
    with mp.workdps(40):
        n, w = mp.mpf(nu), mp.mpc(z.real, z.imag)
        return complex(mp.diff(lambda t: f(t, w), n) if diff else f(n, w))


def api_misses(fn, name: str, nu: float, zs, rel: float, diff: bool = False) -> list:
    """The points of ``zs`` where fn(nu, z) is not within ``rel`` of the oracle."""
    out = []
    for z in zs:
        got = fn(nu, z).value
        want = api_oracle(name, nu, z, diff)
        if not abs(got - want) <= rel * abs(want):
            out.append((z, abs(got - want) / abs(want)))
    return out


def api_miscalibrated(fn, name: str, nu: float, zs, diff: bool = False) -> list:
    """The points of ``zs`` where the estimate of fn(nu, z) does not cover
    the error against the oracle or, where that error is above 1e-15 (or
    above 1e-15 of the value, for values below 1), overstates it by more
    than 1e3."""
    out = []
    for z in zs:
        res = fn(nu, z)
        want = api_oracle(name, nu, z, diff)
        err, est = abs(res.value - want), res.abs_err_estimate
        if est < err or err > 1e-15 * min(1.0, abs(want)) and est > 1e3 * err:
            out.append((z, err, est))
    return out


@pytest.mark.parametrize("nu", API_ORDERS)
@pytest.mark.parametrize("fn, name", [(bessel_j, "besselj"), (bessel_i, "besseli")],
                         ids=["J", "I"])
def test_bessel_ji_against_mpmath(fn, name, nu):
    assert api_misses(fn, name, nu, API_ZS, API_REL) == []


@pytest.mark.parametrize("nu", API_ORDERS)
@pytest.mark.parametrize("fn, name", [(bessel_j, "besselj"), (bessel_i, "besseli")],
                         ids=["J", "I"])
def test_bessel_ji_error_estimate_calibrated(fn, name, nu):
    """Where the ascending series cancel, |z| from 5 to 20, the J and I
    estimates (and at nu >= 0 that of dJ/dnu) cover the error and overstate
    it by at most 1e3."""
    assert api_miscalibrated(fn, name, nu, JI_CAL_ZS) == []
    if fn is bessel_j and nu >= 0.0:
        assert api_miscalibrated(dj_dnu_any, name, nu, JI_CAL_ZS, diff=True) == []


@pytest.mark.parametrize("nu", [nu for nu in API_ORDERS if nu >= 0.0])
def test_dj_dnu_any_against_mpmath(nu):
    assert api_misses(dj_dnu_any, "besselj", nu, API_ZS, API_REL, diff=True) == []


def test_degraded_where_ji_miss():
    """J, I and (at nu >= 0) dJ/dnu carry ``degraded`` at every point of
    API_ZS and JI_CAL_ZS more than 1e-13 off 40-digit mpmath, J_0.3(20)
    (2.7e-9 off) among them.  Of the points within 1e-14 some carry it too,
    where the estimate, built to cover the error, overstates it; their
    count is reported, and held to 1% of those points (measured: 2 of
    3264)."""
    missed, false, good = [], 0, 0
    for fn, name in ((bessel_j, "besselj"), (bessel_i, "besseli"), (dj_dnu_any, "besselj")):
        diff = fn is dj_dnu_any
        for nu in API_ORDERS:
            if diff and nu < 0.0:
                continue
            for z in dict.fromkeys(API_ZS + JI_CAL_ZS):
                res = fn(nu, z)
                want = api_oracle(name, nu, z, diff)
                err = abs(res.value - want) / abs(want)
                flagged = "degraded" in res.flags
                if err > 1e-13 and not flagged:
                    missed.append((fn.__name__, nu, z, err))
                if err <= 1e-14:
                    good += 1
                    false += flagged
    print(f"degraded on {false} of the {good} points within 1e-14")
    assert missed == []
    assert false <= 0.01 * good
    assert "degraded" in bessel_j(0.3, 20.0).flags


@pytest.mark.parametrize("nu", [float(n) for n in K_INTEGERS] + K_GENERIC)
def test_bessel_k_against_mpmath(nu):
    assert api_misses(bessel_k, "besselk", nu, K_ZS, K_REL) == []


@pytest.mark.parametrize("n", K_INTEGERS)
def test_dk_dnu_any_at_integers_against_mpmath(n):
    """dK/dnu at the integers; at 0, where K is even in the order, exactly 0
    (the sum's order-derivative weights vanish)."""
    if n == 0:
        assert all(dk_dnu_any(0.0, z).value == 0.0 for z in K_ZS)
    else:
        assert api_misses(dk_dnu_any, "besselk", float(n), K_ZS, K_REL, diff=True) == []


@pytest.mark.parametrize("nu", K_GENERIC)
def test_dk_dnu_any_against_mpmath(nu):
    assert api_misses(dk_dnu_any, "besselk", nu, K_ZS, K_REL, diff=True) == []


def test_order_derivatives_at_negative_orders():
    """dJ/dnu and dK/dnu at negative orders, integers included: the series
    with psi/Gamma entire, and dK/dnu odd in the order.  Measured within
    3.0e-15 (dJ/dnu) and 1.6e-15 (dK/dnu) of 40-digit mpmath.  At
    z = -2 + i dK/dnu is refused."""
    zs = [0.5 + 0.2j, 2.0 - 1.0j, 5.0 + 3.0j, 0.1 + 0.3j]
    for nu in (-0.3, -0.5, -1.0, -2.3, -3.0, -7.75):
        assert api_misses(dj_dnu_any, "besselj", nu, zs + [-2.0 + 1.0j], 1e-14, diff=True) == [], nu
        assert api_misses(dk_dnu_any, "besselk", nu, zs, 1e-14, diff=True) == [], nu
        assert all(dk_dnu_any(nu, z).value == -dk_dnu_any(-nu, z).value for z in zs)
        with pytest.raises(BranchError):
            dk_dnu_any(nu, -2.0 + 1.0j)


@pytest.mark.parametrize("nu", [float(n) for n in K_INTEGERS] + K_GENERIC)
def test_bessel_k_error_estimate_calibrated(nu):
    """The K and dK/dnu estimates cover the error on K_ZS and overstate it
    by at most 1e3 (dK/dnu at nu > 0)."""
    assert api_miscalibrated(bessel_k, "besselk", nu, K_ZS) == []
    if nu:
        assert api_miscalibrated(dk_dnu_any, "besselk", nu, K_ZS, diff=True) == []


def test_k_off_the_right_half_plane():
    """On the imaginary axis and within 0.002 of it, where the sum on the
    real t axis had no step and raised ConvergenceError above
    ``TEMME_MAX_ARG`` (K) and ``TEMME_DK_MAX_ARG`` (dK/dnu), the bent
    contour holds K and dK/dnu to K_REL, as Temme's series does below the
    borders: at |z| = 2, 3 and 1 (both sums), 1 (K) and 0.5 (both).  A real
    part of -0.0 is on the axis too."""
    near = cmath.rect(1.0, math.pi / 2.0 - 0.002)
    zs = [2j, -3j, near, complex(-0.0, 2.0), complex(-0.0, -3.0)]
    assert api_misses(bessel_k, "besselk", 1.5, zs, K_REL) == []
    assert api_misses(dk_dnu_any, "besselk", 1.5, zs, K_REL, diff=True) == []
    assert api_misses(bessel_k, "besselk", 1.5, [1j, cmath.rect(1.0, math.pi / 2.0 - 0.01)],
                      K_REL) == []
    zs = [cmath.rect(0.5, math.pi / 2.0 - 0.002), 0.5j, -0.5j, complex(-0.0, 0.5)]
    assert api_misses(bessel_k, "besselk", 1.5, zs, K_REL) == []
    assert api_misses(dk_dnu_any, "besselk", 1.5, zs, K_REL, diff=True) == []


# where the sum on the real t axis halved its step, or had none: |ph z| past
# pi/4 up to the imaginary axis, and |z| to K_MAX_ARG
AXIS_ZS = [cmath.rect(r, ph) for r in (1.3, 5.0, 10.0, 20.0, 30.0)
           for ph in (0.0, math.pi / 4.0, 1.2, math.pi / 2.0 - 0.002, math.pi / 2.0,
                      -math.pi / 2.0)]


@pytest.mark.parametrize("nu", [float(n) for n in K_INTEGERS] + K_GENERIC)
def test_k_towards_the_imaginary_axis(nu):
    """K and (at nu > 0) dK/dnu within K_REL of 40-digit mpmath on AXIS_ZS,
    each estimate covering the error and, where that is above 1e-15 (of the
    value, below 1), overstating it by at most 1e3."""
    assert api_misses(bessel_k, "besselk", nu, AXIS_ZS, K_REL) == []
    assert api_miscalibrated(bessel_k, "besselk", nu, AXIS_ZS) == []
    if nu:
        assert api_misses(dk_dnu_any, "besselk", nu, AXIS_ZS, K_REL, diff=True) == []
        assert api_miscalibrated(dk_dnu_any, "besselk", nu, AXIS_ZS, diff=True) == []


BORDER_XS = [0.1, 0.3, TEMME_DK_MAX_ARG - 1e-9, TEMME_DK_MAX_ARG + 1e-9, 1.0,
             TEMME_MAX_ARG - 1e-9, TEMME_MAX_ARG + 1e-9, 2.0]
BORDER_ORDERS = [0.0, 2e-6, 0.25, 0.5 - 1e-9, 0.5 + 1e-9, 0.75, 0.999999, 1.0, 2.3, 7.75, 50.0]


@functools.lru_cache(maxsize=None)
def k_oracle_at_double(nu: float, x: float) -> tuple[complex, complex]:
    """K_nu and dK/dnu, 40 digits, at the double z = ROT_K * x that
    :func:`ray_k` passes: at nu = 50 the rounding of z alone moves K by up
    to 50 x 1.1e-16 against the exact ray, which no start can take back."""
    mp = mpmath.mp
    z = ROT_K * x
    with mp.workdps(40):
        w = mp.mpc(z.real, z.imag)
        return (complex(mp.besselk(mp.mpf(nu), w)),
                complex(mp.diff(lambda t: mp.besselk(t, w), mp.mpf(nu))))


@pytest.mark.parametrize("x", BORDER_XS)
@pytest.mark.parametrize("nu", BORDER_ORDERS)
def test_k_across_the_temme_border(nu, x):
    """On both sides of each border between the K starts, K on the Kelvin
    ray holds 1.8e-15 and dK/dnu 3.1e-15 (measured: 1.7e-15 and 1.1e-15),
    each estimate calibrated as in test_dk_error_estimate_calibrated."""
    k, dk = ray_k(nu, x, True)
    # Temme's terms, or the trapezoid's nodes (18 to 24)
    assert k[2] <= 12 if x < TEMME_MAX_ARG else k[2] >= 18
    assert dk[2] <= 9 if x < TEMME_DK_MAX_ARG else dk[2] >= 18
    for (value, est, _, conv, _), want, rel in zip((k, dk), k_oracle_at_double(nu, x),
                                                   (1.8e-15, 3.1e-15)):
        err = abs(value - want)
        assert conv and err <= rel * abs(want) and est >= err, (value, want, est)
        if err > 1e-15 * abs(want):
            assert est <= 1e3 * err, (est, err)
    if nu == 0.0:
        assert dk[0] == 0.0


@pytest.mark.parametrize("x", BORDER_XS)
def test_ker_kei_across_the_temme_border(x):
    """ker + i kei within 2.6e-15 of 40 digits on nu = -10:10:0.25 on both
    sides of each border (measured: 1.8e-15)."""
    for nu in KK_ORDERS:
        want = kk_oracle(nu, x)
        assert abs(complex(*kelvin_ker_kei(nu, x)) - want) <= 2.6e-15 * abs(want), nu


def test_temme_tables():
    """The tables of Temme's start, recomputed from mpmath: the Taylor
    coefficients in mu^2 of Gamma_1 and Gamma_2 as stored, those of their
    mu^2-derivatives and of d(sinh(s)/s)/ds, made at import, within an ulp;
    and Gamma_1, Gamma_2 and their mu-derivatives as evaluated, within
    1e-16 of 40 digits on 201 points of |mu| <= 1/2, mu = 0 included."""
    mp = mpmath.mp
    with mp.workdps(40):
        c = mp.taylor(lambda t: mp.rgamma(1 + t), 0, 21)
        g1, g2 = [-c[k] for k in range(21, 0, -2)], [c[k] for k in range(20, -1, -2)]
        assert bessel._G1 == tuple(map(float, g1)) and bessel._G2 == tuple(map(float, g2))
        want = [(k * a, k * b) for k, a, b in zip(range(10, 0, -1), g1, g2)]
        ulp = sys.float_info.epsilon
        assert all(abs(got - w) <= ulp * abs(w) for pair, wp in zip(bessel._DG, want)
                   for got, w in zip(pair, wp))
        want = [2 * k / mp.factorial(2 * k + 1) for k in range(9, 0, -1)]
        assert len(bessel._DSINHC) == len(want)
        assert all(abs(got - w) <= ulp * w for got, w in zip(bessel._DSINHC, want))

        def gamma1(t):
            return (mp.rgamma(1 - t) - mp.rgamma(1 + t)) / (2 * t) if t else -mp.euler

        def gamma2(t):
            return (mp.rgamma(1 - t) + mp.rgamma(1 + t)) / 2

        for i in range(201):
            mu = -0.5 + i / 200.0
            t = mp.mpf(mu)
            want = (gamma1(t), gamma2(t), mp.diff(gamma1, t), mp.diff(gamma2, t))
            assert all(abs(got - w) <= 1e-16 for got, w in zip(_gamma12(mu, True), want)), mu


# Gamma between -184 and -170, where the quotient of the x < 1 chain once went
# subnormal before its last, small divisors: -176.00000000000003 was 7e-4
# off and -179.99999999999997 (1.75e-316) came back 0; a seeded sample of
# the interval besides, the points next to its integers among them
_GAMMA_RNG = random.Random(29)
GAMMA_LOW = [-176.00000000000003, -179.99999999999997, -170.5, -171.5, -183.99999999999997,
             -172.00000000000003] + [
    _GAMMA_RNG.uniform(-184.0, -170.0) for _ in range(40)] + [
    math.nextafter(float(n), n + d) for n in range(-183, -170) for d in (-1.0, 1.0)]


@pytest.mark.parametrize("x", GAMMA_LOW)
def test_gamma_below_the_double_range(x):
    """Within 1e-15 relative of 40-digit mpmath, or 1 ulp of the least
    subnormal where that is larger: a subnormal Gamma is the chain's value,
    good to ~2e-16 relative, rounded once onto the subnormals."""
    with mpmath.mp.workdps(40):
        want = mpmath.gamma(mpmath.mpf(x))
        assert abs(gamma_real(x) - want) <= max(1e-15 * abs(want), 5e-324), x


def check_quad_estimate(res, want) -> None:
    """The tanh-sinh estimate covers the error against 30 digits and, where
    that error is above 1e-15 of the integral, overstates it by at most 1e3."""
    err = abs(res.value - complex(want))
    assert res.converged and res.abs_err_estimate >= err, (res, err)
    if err > 1e-15 * abs(want):
        assert res.abs_err_estimate <= 1e3 * err, (res, err)


@pytest.mark.parametrize("variant", ["sin", "cos"])
@pytest.mark.parametrize("x", manifest.APPENDIX_X)
def test_appendix_quadrature_estimate_calibrated(integrals, x, variant):
    """Without its rounding floor the estimate at x = 10 fell 1e6 short."""
    quad.appendix_ber_bei(x, variant)
    mp = mpmath.mp
    with mp.workdps(30):
        big_x, sc = mp.mpf(x) / mp.sqrt(2), mp.sin if variant == "sin" else mp.cos

        def f(t):
            s = big_x * sc(t)
            return mp.mpc(mp.cosh(s) * mp.cos(s), mp.sinh(s) * mp.sin(s))

        want = mp.quad(f, [0, mp.pi / 4, mp.mpf(math.pi / 2)])
    [res] = integrals
    check_quad_estimate(res, want)


@pytest.mark.parametrize("x", [2.0, 8.0])
@pytest.mark.parametrize("nu", [0.3, 1.7])
def test_apelblat_finite_part_estimate_calibrated(integrals, nu, x):
    quad.apelblat_ber_bei(nu, x)
    mp = mpmath.mp
    with mp.workdps(30):
        big_x, n = mp.mpf(x) / mp.sqrt(2), mp.mpf(nu)
        cpn, spn = mp.cos(mp.pi * n), mp.sin(mp.pi * n)

        def fin(t):
            s = big_x * mp.sin(t)
            c, sn = mp.cos(s - n * t), mp.sin(s - n * t)
            ch, sh = mp.cosh(s), mp.sinh(s)
            return mp.mpc(cpn * c * ch - spn * sn * sh, cpn * sn * sh + spn * c * ch)

        want = mp.quad(fin, [0, mp.pi / 2, mp.mpf(math.pi)])
    check_quad_estimate(integrals[0], want)


@pytest.mark.parametrize("x", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("nu", [0.3, 1.7, -2.3])
def test_apelblat_tail_estimate_covers_its_error(integrals, nu, x):
    """The estimate of the tail cut at T covers its error against 30 digits
    of the tail over (0, 2T), the part past the cut included (past 2T,
    where phi(2T) >= 2 phi(T), it is below e^(-80)).  It overstates that
    error by up to 1.6e4 (nu = -2.3, x = 8; 5.3e3 at nu = 0.3, x = 2), past
    the 1e3 of check_quad_estimate, so no upper bound is asserted."""
    quad.apelblat_ber_bei(nu, x)
    mp = mpmath.mp
    with mp.workdps(30):
        big_x, n = mp.mpf(x) / mp.sqrt(2), mp.mpf(nu)
        z, turn = mp.mpc(big_x, -big_x), mp.expjpi(n)
        cut = quad._tail_cut(nu, x / math.sqrt(2))
        want = mp.quad(lambda t: turn * mp.exp(-n * t - z * mp.sinh(t)),
                       [0, cut / 4, cut / 2, cut, 2 * cut])
    res = integrals[1]
    assert res.converged and res.abs_err_estimate >= abs(res.value - complex(want))


def test_theorem5_quadrature_estimate_calibrated(integrals):
    """The log(1-u^2) end at u = 1, where the nodes closer than eps round
    onto the end, is covered by the node-rounding part of the floor."""
    nu, x = 0.5, 2.0
    quad.theorem5_identities(nu, x)
    mp = mpmath.mp
    with mp.workdps(30):
        n = mp.mpf(nu)

        def g(u):
            y = mp.mpf(x) * u
            return u ** (n + 1) * mp.log(1 - u * u) * mp.mpc(mp.ber(n, y), mp.bei(n, y))

        want = mp.quad(g, [0, 1])
    [res] = integrals
    check_quad_estimate(res, want)


@pytest.mark.parametrize("nu", [0.3, 1.3, 2.7])
def test_closed_form_estimates_cover_their_cancellation(nu):
    """The estimates of the paper's closed forms for dJ/dnu and dK/dnu on
    the Kelvin rays (``bessel.dj_dnu``, ``bessel.dk_dnu``) cover their error
    against 40-digit mpmath from x = 5 to x = 30, where the cancellation of
    their 2F3/3F4 series leaves no digit.  Without those series' rounding
    floors they understated it from x = 15 on: at order 0.3 by 8 (dJ/dnu)
    and 18 times (dK/dnu) at x = 20, and by up to 5.9e2 at x = 30."""
    mp = mpmath.mp
    for x in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        for fn, name, z in ((bessel.dj_dnu, "besselj", ROT_J * x),
                            (bessel.dk_dnu, "besselk", ROT_K * x)):
            r = fn(nu, z)
            with mp.workdps(40):
                bf = getattr(mp, name)
                want = complex(mp.diff(lambda n: bf(n, mp.mpc(z)), nu))
            assert r.abs_err_estimate >= abs(r.value - want), (name, x)


@pytest.mark.parametrize("nu", [0.3, 1.3, 2.7, 4.25, 7.3])
def test_brychkov_estimate_covers_its_error(monkeypatch, nu):
    """The estimate of Brychkov's reference form (``dkelvin_bb_brychkov``)
    covers its error against 40-digit mpmath at x <= 5.  Counting only the
    rounding of its c- and d-weighted terms, it was 0.2% of the error at
    order 7.3 (x = 0.5), 2.6% at order 2.7 and 9.4% at order 4.25."""
    ests = []

    def seen(re, im, est, nu, x):
        ests.append(est)
        return re, im

    monkeypatch.setattr(orderderiv, "_some_digit", seen)
    mp = mpmath.mp
    for x in (0.5, 1.0, 2.0, 5.0):
        re, im = orderderiv.dkelvin_bb_brychkov(nu, x)
        with mp.workdps(40):
            want = complex(mp.diff(lambda n: mp.ber(n, x), nu),
                           mp.diff(lambda n: mp.bei(n, x), nu))
        assert ests[-1] >= abs(complex(re, im) - want), x
