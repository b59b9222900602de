"""Order derivatives of the four Kelvin functions, all real orders.

Every order nu rotates the Bessel order derivatives onto the Kelvin rays
(method tag 'series'):

    d ber_nu/d nu = Re[e^(i pi nu)    dJ/dnu(e^(-i pi/4) x)] - pi   bei_nu(x)
    d bei_nu/d nu = Im[e^(i pi nu)    dJ/dnu(e^(-i pi/4) x)] + pi   ber_nu(x)
    d ker_nu/d nu = Re[e^(-i pi nu/2) dK/dnu(e^(i pi/4)  x)] + pi/2 kei_nu(x)
    d kei_nu/d nu = Im[e^(-i pi nu/2) dK/dnu(e^(i pi/4)  x)] - pi/2 ker_nu(x)

with dJ/dnu the term-wise derivative of the J series at nu, whose weights
1/Gamma and psi/Gamma are entire, so it holds at every order, negative
integers included, and dK/dnu at |nu|, odd in nu because K is even, from
the trapezoidal rule on its integral along the Kelvin ray
(``bessel._ray_dk``), one quadrature at every real order.  The *_neg ops
read the order derivatives at -nu from ``dkelvin``.

The paper's closed forms stay as oracles for the verify suites and tests:
``dkelvin_bb_pos`` (csc/2F3/3F4 dJ/dnu), ``dkelvin_kk_pos`` (closed-form
dK/dnu), ``dkelvin_bb_brychkov`` (3F6/4F7) and ``dkelvin_integer`` (finite
sums over lower-order Kelvin values, tag 'integer_sum').

``dkelvin`` evaluates one point: the four values and the four order
derivatives come from one ``kelvin._point``, so each order's series is
summed once per (nu, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import NEAR_EXCLUDED, ORDER_EPS, _dj_dnu, _dji_dnu_direct, _dk_dnu, _is_near_int
from .errors import DomainError, NegativeIntegerOrderError, OrderClassError
from .hyper import DEFAULT_SERIES, HyperSpec, SeriesConfig, pfq
from .kelvin import KelvinQuad, _ber_bei, _ker_kei, _phase, _point, _quad
from .scalars import PI, digamma_real, gamma_real


@dataclass(frozen=True)
class OrderDerivQuad:
    """The four order derivatives at one (nu, x), with provenance.

    ``method`` is 'series' from ``dkelvin`` and 'integer_sum' from
    ``dkelvin_integer``.  ``values`` holds the four Kelvin values at the
    requested order, equal bit for bit to ``kelvin_all(nu, x)``.
    """

    dber: float
    dbei: float
    dker: float
    dkei: float
    nu: float
    x: float
    method: str
    err_estimate: float
    values: KelvinQuad


def _bb_pos(nu: float, dj: complex, ber: float, bei: float) -> tuple[float, float]:
    e = _phase(PI * nu) * dj
    return e.real - PI * bei, e.imag + PI * ber


def _kk_pos(nu: float, dk: complex, ker: float, kei: float) -> tuple[float, float]:
    e = _phase(-PI * nu / 2.0) * dk
    return e.real + PI / 2.0 * kei, e.imag - PI / 2.0 * ker


def dkelvin_bb_pos(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(d ber_nu/d nu, d bei_nu/d nu) for non-integer nu >= 0, x > 0, by the
    paper's csc/2F3/3F4 closed form for dJ/dnu."""
    p = _point(nu, x, cfg)
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu < 0.0 or abs(nu - round(nu)) <= ORDER_EPS:
        raise OrderClassError(f"integer or negative order {nu}: use the dispatcher")
    ber, bei, _, _ = _ber_bei(nu, x, p)
    return _bb_pos(nu, _dj_dnu(nu, p).value, ber, bei)


def dkelvin_kk_pos(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(d ker_nu/d nu, d kei_nu/d nu) for nu >= 0 with 2 nu non-integer, x > 0,
    by the paper's closed form for dK/dnu.  Orders with 2 nu within 1e-6 of
    an integer are refused."""
    p = _point(nu, x, cfg)
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu < 0.0 or _is_near_int(2.0 * nu, NEAR_EXCLUDED):
        raise OrderClassError(f"order {nu} excluded for the K-side closed form")
    ker, kei, _, _ = _ker_kei(nu, x, p)
    return _kk_pos(nu, _dk_dnu(nu, p).value, ker, kei)


def dkelvin_bb_neg(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """Order derivatives of ber and bei evaluated at order -nu, for nu > 0;
    read from ``dkelvin(-nu, x)``."""
    if nu <= 0.0 or x <= 0.0:
        raise DomainError("requires nu > 0 and x > 0")
    d = dkelvin(-nu, x, cfg)
    return d.dber, d.dbei


def dkelvin_kk_neg(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """Order derivatives of ker and kei evaluated at order -nu, for nu > 0;
    read from ``dkelvin(-nu, x)``."""
    if nu <= 0.0 or x <= 0.0:
        raise DomainError("requires nu > 0 and x > 0")
    d = dkelvin(-nu, x, cfg)
    return d.dker, d.dkei


def dkelvin_integer(n: int, x: float,
                    cfg: SeriesConfig = DEFAULT_SERIES) -> OrderDerivQuad:
    """All four order derivatives at integer order n >= 0 via the finite sums.

    d ber/d nu |_n = -(pi/2) bei_n - ker_n
        + (n!/2) sum_{k=0}^{n-1} (x/2)^(k-n) / (k! (n-k))
            [cos(5(k-n)pi/4) ber_k + sin(5(k-n)pi/4) bei_k]

    with the analogous sums (3(k-n)pi/4 weights) on the K side.  Sums are
    empty at n = 0.  Kept as an oracle for ``dkelvin`` at integer order.
    """
    p = _point(n, x, cfg)
    if n < 0:
        raise NegativeIntegerOrderError("finite sums defined for n >= 0 only")
    if x <= 0.0:
        raise DomainError("x must be positive")
    quads = [_quad(float(k), x, p) for k in range(n + 1)]
    top = quads[n]
    dber = -PI / 2.0 * top.bei - top.ker
    dbei = PI / 2.0 * top.ber - top.kei
    dker = PI / 2.0 * top.kei
    dkei = -PI / 2.0 * top.ker
    half_fact = math.factorial(n) / 2.0
    for k in range(n):
        w = half_fact * (x / 2.0) ** (k - n) / (math.factorial(k) * (n - k))
        c5 = math.cos(5.0 * (k - n) * PI / 4.0)
        s5 = math.sin(5.0 * (k - n) * PI / 4.0)
        c3 = math.cos(3.0 * (k - n) * PI / 4.0)
        s3 = math.sin(3.0 * (k - n) * PI / 4.0)
        q = quads[k]
        dber += w * (c5 * q.ber + s5 * q.bei)
        dbei += w * (c5 * q.bei - s5 * q.ber)
        dker += w * (c3 * q.ker - s3 * q.kei)
        dkei += w * (s3 * q.ker + c3 * q.kei)
    est = 1e-12 * (1.0 + abs(dber) + abs(dbei) + abs(dker) + abs(dkei))
    return OrderDerivQuad(dber, dbei, dker, dkei, float(n), x, "integer_sum", est, top)


def coef_c(nu: float, x: float, a: int, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """c(nu, x, a): the 3F6 factor of the reference ber/bei order derivatives."""
    spec = HyperSpec(
        ((2.0 * nu + a + 1.0) / 4.0, (2.0 * nu + 3.0) / 4.0, (2.0 * nu + 5.0 * a) / 4.0),
        (a + 0.5, (nu + a + 1.0) / 2.0, (nu + a) / 2.0 + 1.0, (nu + a) / 2.0 + 1.0,
         nu + (a + 1.0) / 2.0, nu + 1.0 + a / 2.0),
        -x ** 4 / 16.0,
    )
    return pfq(spec, cfg).value.real


def coef_d(nu: float, x: float, a: int, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """d(nu, x, a): the 4F7 factor of the reference ber/bei order derivatives."""
    spec = HyperSpec(
        ((a + 1.0) / 2.0, (a + 1.0) / 2.0, (2.0 * a + 3.0) / 4.0, (2.0 * a + 5.0) / 4.0),
        (a + 0.5, (a + 3.0) / 2.0, (a + 3.0) / 2.0, (nu + a) / 2.0 + 1.0,
         (nu + a + 3.0) / 2.0, (a - nu) / 2.0 + 1.0, (a - nu + 3.0) / 2.0),
        -x ** 4 / 16.0,
    )
    return pfq(spec, cfg).value.real


def dkelvin_bb_brychkov(nu: float, x: float,
                        cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """Reference closed form for (d ber/d nu, d bei/d nu) built from c and d.

    Kept as an independent evaluation path for differential testing against
    :func:`dkelvin_bb_pos`; it routes through negative-order Kelvin values
    and the real 3F6/4F7 series instead of complex-argument 2F3/3F4.
    """
    p = _point(nu, x, cfg)
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu <= 0.0 or abs(nu - round(nu)) <= ORDER_EPS:
        raise OrderClassError("reference form needs non-integer nu > 0")
    ber, bei, _, _ = _ber_bei(nu, x, p)
    ber_m, bei_m, _, _ = _ber_bei(-nu, x, p)
    c0 = coef_c(nu, x, 0, cfg)
    c1 = coef_c(nu, x, 1, cfg)
    d0 = coef_d(nu, x, 0, cfg)
    d1 = coef_d(nu, x, 1, cfg)
    lg = math.log(x / 2.0) - digamma_real(nu) - 1.0 / (2.0 * nu)
    csc = 1.0 / math.sin(PI * nu)
    g1 = gamma_real(nu + 1.0)
    g2 = gamma_real(nu + 2.0)
    c32 = math.cos(3.0 * PI * nu / 2.0)
    s32 = math.sin(3.0 * PI * nu / 2.0)
    p0 = PI * csc / (2.0 * g1 * g1) * (x / 2.0) ** (2.0 * nu)
    p1 = PI * nu * csc / (g2 * g2) * (x / 2.0) ** (2.0 * nu + 2.0)
    q = x * x / (4.0 * (1.0 - nu * nu))
    r = 3.0 * x * x / (8.0 * (4.0 - nu * nu))
    dber = (lg * ber - 3.0 * PI / 4.0 * bei
            + p0 * (s32 * bei_m - c32 * ber_m) * c0
            + p1 * (c32 * bei_m + s32 * ber_m) * c1
            - q * (bei * d0 + r * ber * d1))
    dbei = (lg * bei + 3.0 * PI / 4.0 * ber
            - p0 * (c32 * bei_m + s32 * ber_m) * c0
            - p1 * (c32 * ber_m - s32 * bei_m) * c1
            + q * (ber * d0 - r * bei * d1))
    return dber, dbei


def dkelvin(nu: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> OrderDerivQuad:
    """The four order derivatives at any real order nu and x > 0.

    Every order rotates the term-wise dJ/dnu of the series at nu and the
    quadrature dK/dnu at |nu|, odd in nu, onto the Kelvin rays (method
    'series').  The result also carries the four values at nu.
    """
    p = _point(nu, x, cfg)
    if x <= 0.0:
        raise DomainError("x must be positive")
    # dJ/dnu before the values, so that the series at nu is summed once,
    # with its psi sums
    dj = _dji_dnu_direct(nu, -1.0, p)
    values = _quad(nu, x, p)
    dk = p.dk(abs(nu))
    dber, dbei = _bb_pos(nu, dj.value, values.ber, values.bei)
    dker, dkei = _kk_pos(nu, -dk.value if nu < 0.0 else dk.value, values.ker, values.kei)
    return OrderDerivQuad(dber, dbei, dker, dkei, nu, x, "series",
                          dj.abs_err_estimate + dk.abs_err_estimate, values)
