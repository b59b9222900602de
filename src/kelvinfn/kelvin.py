"""The four Kelvin functions of arbitrary real order.

For nu >= 0 the values come straight from the defining rotations

    ber_nu(x) + i bei_nu(x) = e^(i pi nu)    J_nu(e^(-i pi/4) x)
    ker_nu(x) + i kei_nu(x) = e^(-i pi nu/2) K_nu(e^(i pi/4)  x)

with K_nu from the connection formula, or from the exact series of
DLMF 10.31.1 at integer order (see ``bessel``); the method tag is
'series'.  Negative orders always go through the reflection formulas, never
through a direct series at nu < 0, which keeps the J/K evaluation in its
well-conditioned regime; the method tag is 'reflection'.

The private ``_ber_bei``/``_ker_kei``/``_quad`` read their series from a
``bessel._RayPoint`` on the two rays (``_point``), where J_mu and I_mu of
one order are one real series, e^(3i pi mu/4)-rotated into ber + i bei:
every order is summed once per x, for the values, the order derivatives
and both reflections alike.  ``_point`` is also where every public entry
rejects a non-finite order or argument.
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


def _point(nu: float, x: float, cfg: SeriesConfig, psi: bool = False) -> _RayPoint:
    """The series holder at x: J on the ray e^(-i pi/4) x, I and K on e^(i pi/4) x.

    ``psi`` sums the psi-weighted series along with every order, for the
    order derivatives.  Raises DomainError unless nu and x are finite.
    """
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise DomainError(f"order and argument must be finite, got nu={nu!r}, x={x!r}")
    return _RayPoint(ROT_J * x, ROT_K * x, x, cfg, psi)


def _ber_bei(nu: float, x: float, p: _RayPoint) -> tuple[float, float, float, str]:
    """(ber, bei, abs error estimate, method tag) from the series at ``p``."""
    if x < 0.0:
        raise DomainError("Kelvin functions defined for x >= 0")
    if nu >= 0.0:
        if x == 0.0:
            return (1.0 if nu == 0.0 else 0.0), 0.0, 0.0, "series"
        r = p.j(nu)
        w = _phase(PI * nu) * r.value
        est = r.abs_err_estimate + 2e-16 * r.max_abs_term
        return w.real, w.imag, est, "series"
    m = -nu
    if abs(m - round(m)) <= ORDER_EPS:
        n = int(round(m))
        ber, bei, est, _ = _ber_bei(float(n), x, p)
        sgn = -1.0 if n % 2 else 1.0
        return sgn * ber, sgn * bei, est, "reflection"
    if x == 0.0:
        raise DomainError("reflection at non-integer order needs ker(0), undefined")
    ber, bei, est_b, _ = _ber_bei(m, x, p)
    ker, kei, est_k, _ = _ker_kei(m, x, p)
    c = math.cos(PI * m)
    s = math.sin(PI * m)
    est = est_b + abs(s) * (2.0 / PI) * est_k
    return (c * ber + s * bei + (2.0 / PI) * s * ker,
            -s * ber + c * bei + (2.0 / PI) * s * kei, est, "reflection")


def _ker_kei(nu: float, x: float, p: _RayPoint) -> tuple[float, float, float, str]:
    """(ker, kei, abs error estimate, method tag) from the series at ``p``."""
    if x <= 0.0:
        raise DomainError("ker/kei defined for x > 0")
    if nu >= 0.0:
        r = p.k(nu)
        w = _phase(-PI * nu / 2.0) * r.value
        return w.real, w.imag, r.abs_err_estimate, "series"
    m = -nu
    ker, kei, est, _ = _ker_kei(m, x, p)
    c = math.cos(PI * m)
    s = math.sin(PI * m)
    return c * ker - s * kei, s * ker + c * kei, est, "reflection"


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
        order (the reflection needs ker, which is singular at the origin).
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
