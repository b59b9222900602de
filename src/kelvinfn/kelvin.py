"""The four Kelvin functions of arbitrary real order.

Every order comes straight from the defining rotations

    ber_nu(x) + i bei_nu(x) = e^(i pi nu)    J_nu(e^(-i pi/4) x)
    ker_nu(x) + i kei_nu(x) = e^(-i pi nu/2) K_|nu|(e^(i pi/4)  x)

with J_nu the ascending series, valid at any order but a negative integer,
and K_nu from the connection formula, or from the exact series of
DLMF 10.31.1 at integer order (see ``bessel``); K is even in the order
(DLMF 10.27.3).  The method tag is 'series'.  Within ``ORDER_EPS`` of a
negative integer -n, where the terms of the J series pass the poles of
Gamma, ber/bei take the reflection ber_{-n} = (-1)^n ber_n (tag
'reflection').

The private ``_ber_bei``/``_ker_kei``/``_quad`` read their series from a
``bessel._RayPoint`` on the two rays (``_point``), where J_mu and I_mu of
one order are one real series, e^(3i pi mu/4)-rotated into ber + i bei:
every order is summed once per x, for the values and the order derivatives
alike.  ``_point`` is also where every public entry rejects a non-finite
order or argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import ORDER_EPS, _phase, _RayPoint
from .errors import DomainError
from .hyper import DEFAULT_SERIES, SeriesConfig
from .scalars import PI

_HALF_SQRT2 = math.sqrt(0.5)
# e^(-i pi/4) and e^(i pi/4); built componentwise so conjugation tests are exact
ROT_J = complex(_HALF_SQRT2, -_HALF_SQRT2)
ROT_K = complex(_HALF_SQRT2, _HALF_SQRT2)


@dataclass(frozen=True)
class KelvinQuad:
    """All four Kelvin function values at one (nu, x)."""

    ber: float
    bei: float
    ker: float
    kei: float
    nu: float
    x: float


def _point(nu: float, x: float, cfg: SeriesConfig) -> _RayPoint:
    """The series holder at x: J on the ray e^(-i pi/4) x, I and K on e^(i pi/4) x.

    Raises DomainError unless nu and x are finite.
    """
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise DomainError(f"order and argument must be finite, got nu={nu!r}, x={x!r}")
    return _RayPoint(ROT_J * x, ROT_K * x, x, cfg)


def _negative_integer(nu: float, eps: float) -> int:
    """n if nu is within eps of the negative integer -n, else 0."""
    n = -round(nu)
    return n if n >= 1 and abs(nu + n) <= eps else 0


def _ber_bei(nu: float, x: float, p: _RayPoint) -> tuple[float, float, float, str]:
    """(ber, bei, abs error estimate, method tag) from the series at ``p``."""
    if x < 0.0:
        raise DomainError("Kelvin functions defined for x >= 0")
    n = _negative_integer(nu, ORDER_EPS)
    if n:
        ber, bei, est, _ = _ber_bei(float(n), x, p)
        sgn = -1.0 if n % 2 else 1.0
        return sgn * ber, sgn * bei, est, "reflection"
    if x == 0.0:
        if nu < 0.0:
            raise DomainError("ber/bei of negative non-integer order are singular at x = 0")
        return (1.0 if nu == 0.0 else 0.0), 0.0, 0.0, "series"
    r = p.j(nu)
    w = _phase(PI * nu) * r.value
    est = r.abs_err_estimate + 2e-16 * r.max_abs_term
    return w.real, w.imag, est, "series"


def _ker_kei(nu: float, x: float, p: _RayPoint) -> tuple[float, float, float, str]:
    """(ker, kei, abs error estimate, method tag) from the series at ``p``."""
    if x <= 0.0:
        raise DomainError("ker/kei defined for x > 0")
    r = p.k(abs(nu))  # K is even in the order
    w = _phase(-PI * nu / 2.0) * r.value
    return w.real, w.imag, r.abs_err_estimate, "series"


def _quad(nu: float, x: float, p: _RayPoint) -> KelvinQuad:
    # K first: at integer order it asks for the psi sums that J then reuses
    ker, kei, _, _ = _ker_kei(nu, x, p)
    ber, bei, _, _ = _ber_bei(nu, x, p)
    return KelvinQuad(ber, bei, ker, kei, nu, x)


def _eval_ber_bei(nu: float, x: float,
                  cfg: SeriesConfig) -> tuple[float, float, float, str]:
    """(ber, bei, abs error estimate, method tag)."""
    return _ber_bei(nu, x, _point(nu, x, cfg))


def _eval_ker_kei(nu: float, x: float,
                  cfg: SeriesConfig) -> tuple[float, float, float, str]:
    """(ker, kei, abs error estimate, method tag)."""
    return _ker_kei(nu, x, _point(nu, x, cfg))


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
    p = _point(nu, x, cfg)
    if x <= 0.0:
        raise DomainError("kelvin_all requires x > 0 (ker/kei singular at 0)")
    return _quad(nu, x, p)
