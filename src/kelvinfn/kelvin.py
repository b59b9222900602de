"""The four Kelvin functions of arbitrary real order.

Every order comes straight from the defining rotations

    ber_nu(x) + i bei_nu(x) = e^(i pi nu)    J_nu(e^(-i pi/4) x)
    ker_nu(x) + i kei_nu(x) = e^(-i pi nu/2) K_|nu|(e^(i pi/4)  x)

with J_nu the ascending series, entire in the order, and K_|nu| the
trapezoidal sum of its integral along the ray, DLMF 10.32.9 (see
``bessel``); K is even in the order (DLMF 10.27.3).  Neither route has a
special case at or next to an integer order.  The method tag is 'series'.

J_mu and I_mu of one order are one real series on the two rays, turned by
one exact phase e^(3i pi mu/4) into ber + i bei, so ber_{-n} = (-1)^n ber_n
holds bit for bit.  Each entry calls the kernels itself, once each:
``bessel._ray_sums`` on an order set up once (``bessel._RayOrder``: Gamma
and psi at the anchor, the phase) and ``bessel._ray_k``, turned by
e^(-i pi nu/2) (``_k_turn``).  ``_eval_ber_bei`` takes an optional dict of
orders: a caller that evaluates one order at many x (integrand nodes, ODE
stencils) passes the same dict each time, so that the order is set up once
per top-level call.  ``_finite`` (``bessel._finite``, shared with the
complex API) is where every entry rejects a non-finite order or argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bessel
from .bessel import _finite, _order, _phase, _RayOrder
from .errors import ConvergenceError, DomainError
from .hyper import DEFAULT_SERIES, SeriesConfig
from .scalars import PI

_HALF_SQRT2 = math.sqrt(0.5)
# e^(-i pi/4) and e^(i pi/4); built componentwise so conjugation tests are exact
ROT_J = complex(_HALF_SQRT2, -_HALF_SQRT2)
ROT_K = complex(_HALF_SQRT2, _HALF_SQRT2)
# the rounding floor of ber/bei per unit of the series' largest term; against
# 40-digit mpmath on the grid of the tests 7.2e-16 is the least that covers
# the true error (at nu = -3.3, x = 0.1)
_VALUE_FLOOR = 1e-15


@dataclass(frozen=True)
class KelvinQuad:
    """All four Kelvin function values at one (nu, x)."""

    ber: float
    bei: float
    ker: float
    kei: float
    nu: float
    x: float


def _origin(nu: float, x: float) -> tuple[float, float, float, str]:
    """(ber, bei, 0, method tag) at x = 0; DomainError at x < 0, and at x = 0
    where the order is negative and not an integer."""
    if x < 0.0:
        raise DomainError("Kelvin functions defined for x >= 0")
    if nu < 0.0 and nu != round(nu):
        raise DomainError("ber/bei of negative non-integer order are singular at x = 0")
    return (1.0 if nu == 0.0 else 0.0), 0.0, 0.0, "series"


def _rotate(o: _RayOrder, run: tuple) -> tuple[float, float, float, str]:
    """(ber, bei, abs error estimate, method tag) from the kernel run of ``o``."""
    s, err, _, _, max_term, _ = run
    value = o.phase() * s
    return value.real, value.imag, err + _VALUE_FLOOR * max_term, "series"


def _k_turn(nu: float, x: float, k: tuple) -> complex:
    """e^(-i pi nu/2), which turns the K sum ``k`` at |nu| and x (a tuple of
    ``bessel._ray_k``) into ker + i kei; ConvergenceError where that sum has
    no error bound."""
    if not k[3]:
        raise ConvergenceError(f"the K sum at order {nu:g} has no error bound at x = {x:g}")
    return _phase(-PI * nu / 2.0)


def _eval_ber_bei(nu: float, x: float, cfg: SeriesConfig,
                  orders: dict | None = None) -> tuple[float, float, float, str]:
    """(ber, bei, abs error estimate, method tag) from one kernel run at x.

    A caller that evaluates order nu at many x passes them all one dict
    ``orders``, in which nu is set up once (``bessel._RayOrder``).
    """
    _finite(nu, x)
    if x <= 0.0:
        return _origin(nu, x)
    o = _RayOrder(nu) if orders is None else _order(orders, nu)
    return _rotate(o, bessel._ray_sums(o, x, cfg, False))


def _eval_ker_kei(nu: float, x: float, cfg: SeriesConfig) -> tuple[float, float, float, str]:
    """(ker, kei, abs error estimate, method tag) from one K sum at x."""
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("ker/kei defined for x > 0")
    k = bessel._ray_k(abs(nu), x, cfg, False)[0]  # K is even in the order
    w = _k_turn(nu, x, k) * k[0]
    return w.real, w.imag, k[1], "series"


def kelvin_ber_bei(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(ber_nu(x), bei_nu(x)) for x >= 0.

    Raises
    ------
    DomainError
        If nu or x is not finite, x < 0, or x = 0 at negative non-integer
        order, where (x/2)^nu is singular.
    """
    ber, bei, _, _ = _eval_ber_bei(nu, x, cfg)
    return ber, bei


def kelvin_ker_kei(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(ker_nu(x), kei_nu(x)) for x > 0; DomainError at x = 0 (log singularity)
    and at non-finite nu or x."""
    ker, kei, _, _ = _eval_ker_kei(nu, x, cfg)
    return ker, kei


def kelvin_all(nu: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> KelvinQuad:
    """All four Kelvin functions at (nu, x), x > 0; DomainError otherwise and
    at non-finite nu or x."""
    if x <= 0.0:
        raise DomainError("kelvin_all requires x > 0 (ker/kei singular at 0)")
    ber, bei, _, _ = _eval_ber_bei(nu, x, cfg)
    ker, kei, _, _ = _eval_ker_kei(nu, x, cfg)
    return KelvinQuad(ber, bei, ker, kei, nu, x)
