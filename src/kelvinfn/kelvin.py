"""The four Kelvin functions of arbitrary real order.

Every order comes straight from the defining rotations

    ber_nu(x) + i bei_nu(x) = e^(i pi nu)    J_nu(e^(-i pi/4) x)
    ker_nu(x) + i kei_nu(x) = e^(-i pi nu/2) K_|nu|(e^(i pi/4)  x)

with J_nu the ascending series, entire in the order, and K_|nu| started
near |nu| - floor(|nu|), by Temme's series at x <= 1.2 and the trapezoidal
sum of DLMF 10.32.9 on a contour bent towards steepest descent above, and
climbed to |nu| (see ``bessel``); K is even in the order (DLMF 10.27.3).
Neither route has a special case at or next to an integer order, nor a
bound on the order.

J_mu and I_mu of one order are one real series on the two rays, turned by
one exact phase e^(3i pi mu/4) into ber + i bei, so ber_{-n} = (-1)^n ber_n
holds bit for bit; the K side's phase e^(-i pi nu/2) is exact likewise, so
ker_{-n} = (-1)^n ker_n.  Each value is one run of each kernel:
``bessel._ray_sums`` on an order set up once (``bessel._RayOrder``: Gamma
and psi at the anchor, the phase) and ``bessel._k_sums``, checked by
``_k_bound`` and turned by e^(-i pi nu/2).  ``kelvin_all`` composes the
two runs itself.  Orders at many x run as one *plan*
(``orderderiv._plan_rows``, for a table order, ``eval``, ``dkelvin`` and
the verify suites); a caller that evaluates one point at a time (integrand
nodes, ODE stencils, the value rows of a suite) keeps one ``_RayOrder``
per order and runs the kernels itself.  ``_eval_ber_bei`` and
``_eval_ker_kei`` are the one-sided entries, with error estimates
(``eval``, the closed forms).  ``_finite`` (``bessel._finite``, shared
with the complex API) is where every entry rejects a non-finite order or
argument, and ``_finite_positive`` where an entry defined at x > 0 alone
also rejects x <= 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import bessel
from .bessel import _EPS, _finite, _RayOrder, _turn
from .errors import ConvergenceError, DomainError

_HALF_SQRT2 = math.sqrt(0.5)
# e^(-i pi/4) and e^(i pi/4); built componentwise so conjugation tests are exact
ROT_J = complex(_HALF_SQRT2, -_HALF_SQRT2)
ROT_K = complex(_HALF_SQRT2, _HALF_SQRT2)
# the rounding floor of a ber/bei series and of its psi sum (``orderderiv``)
# per unit of its largest term; against 40-digit mpmath on the grids of the
# tests the least that covers the true error is 7.2e-16 for the values (at
# nu = -3.3, x = 0.1), 6e-16 for the order derivatives (nu = 7.9999995, x = 8)
_VALUE_FLOOR = 1e-15


class KelvinQuad(NamedTuple):
    """All four Kelvin function values at one (nu, x)."""

    ber: float
    bei: float
    ker: float
    kei: float
    nu: float
    x: float


def _finite_positive(nu: float, x: float) -> None:
    """DomainError unless the order nu and the argument x are finite and
    x > 0: the first check of every entry defined off the origin."""
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("x must be positive")


def _k_bound(nu: float, x: float, k: tuple) -> None:
    """ConvergenceError where the K sum ``k`` at |nu| and x (a tuple of
    ``bessel._k_sums``) has no error bound."""
    if not k[3]:
        raise ConvergenceError(f"the K sum at order {nu:g} has no error bound at x = {x:g}")


def _eval_ber_bei(nu: float, x: float) -> tuple[float, float, float]:
    """(ber, bei, abs error estimate) from one kernel run at x > 0, and
    (ber, bei, 0) at x = 0; DomainError at x < 0, and at x = 0 where the
    order is negative and not an integer; ConvergenceError where the
    estimate exceeds |ber + i bei|, past x ~ 127: no digit is right."""
    _finite(nu, x)
    if x < 0.0:
        raise DomainError("Kelvin functions defined for x >= 0")
    if x == 0.0:
        if nu < 0.0 and nu != round(nu):
            raise DomainError("ber/bei of negative non-integer order are singular at x = 0")
        return (1.0 if nu == 0.0 else 0.0), 0.0, 0.0
    o = _RayOrder(nu)
    s, err, _, _, max_term, _ = bessel._ray_sums(o, x, False)
    value = o.phase() * s
    est = err + _VALUE_FLOOR * max_term
    return (*_some_digit(value.real, value.imag, est, nu, x), est)


def _some_digit(re: float, im: float, est: float, nu: float, x: float) -> tuple[float, float]:
    """(re, im), a pair at order nu and x, or ConvergenceError where its
    error estimate ``est`` is not below |re + i im|: no digit is right."""
    if not est < math.hypot(re, im):
        raise ConvergenceError(f"order {nu:g} at x = {x:g}: the error estimate {est:.3g} "
                               f"exceeds |value| = {math.hypot(re, im):.3g}")
    return re, im


def _eval_ker_kei(nu: float, x: float) -> tuple[float, float, float]:
    """(ker, kei, abs error estimate) from one K start and climb at x.  The
    sum is taken at the double z = ``ROT_K`` x, off the ray by its rounding,
    so the estimate adds what that moves K by (:func:`_ray_rounding`)."""
    _finite_positive(nu, x)
    k = bessel._k_sums(abs(nu), ROT_K * x, False)[0]  # K is even in the order
    _k_bound(nu, x, k)
    w = _turn(-0.5 * nu) * k[0]  # exact at integer nu (``bessel._turn``)
    return w.real, w.imag, k[1] + _ray_rounding(nu, x, k[0])


def _ray_rounding(nu: float, x: float, v: complex) -> float:
    """eps (x + |nu|) |v|: about what the rounding of z = ``ROT_K`` x to a
    double (|dz| < 0.81 eps x) moves v = K_nu or dK/dnu by at large x, where
    |dv/dz| is near (1 + |nu|/x) |v|.  With it the estimates are 2.4 to 15
    times the error against mpmath on the exact ray at x in [12, 30]."""
    return _EPS * (x + abs(nu)) * abs(v)


def kelvin_ber_bei(nu: float, x: float) -> tuple[float, float]:
    """(ber_nu(x), bei_nu(x)) for x >= 0.

    Raises
    ------
    DomainError
        If nu or x is not finite, x < 0, or x = 0 at negative non-integer
        order, where (x/2)^nu is singular.
    ConvergenceError
        Past x ~ 127, where the series' error estimate exceeds the value.
    """
    return _eval_ber_bei(nu, x)[:2]


def kelvin_ker_kei(nu: float, x: float) -> tuple[float, float]:
    """(ker_nu(x), kei_nu(x)) for x > 0; DomainError at x = 0 (log singularity)
    and at non-finite nu or x."""
    return _eval_ker_kei(nu, x)[:2]


def kelvin_all(nu: float, x: float) -> KelvinQuad:
    """All four Kelvin functions at (nu, x), x > 0; DomainError otherwise and
    at non-finite nu or x.  The values of ``_eval_ber_bei`` and
    ``_eval_ker_kei`` bit for bit, from their two kernel runs, less the
    error estimates; a series error is raised before a K sum error.  It
    composes the runs itself: from those two it was 5.5% slower (7 of 30
    runs won), and as a plan of one entry (``orderderiv._plan_rows``) 5-35%."""
    _finite_positive(nu, x)
    o = _RayOrder(nu)
    bb = o.phase() * bessel._ray_sums(o, x, False)[0]
    k = bessel._k_sums(abs(nu), ROT_K * x, False)[0]
    _k_bound(nu, x, k)
    kk = _turn(-0.5 * nu) * k[0]
    return KelvinQuad(bb.real, bb.imag, kk.real, kk.imag, nu, x)
