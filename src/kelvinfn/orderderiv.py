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
(``bessel._ray_k``): the same sum that gives K, so one quadrature at every
real order yields ker/kei and dker/dkei.  The *_neg ops read the order
derivatives at -nu from ``dkelvin``.

The paper's closed forms stay as oracles for the verify suites and tests:
``dkelvin_bb_pos`` (csc/2F3/3F4 dJ/dnu), ``dkelvin_kk_pos`` (closed-form
dK/dnu), ``dkelvin_bb_brychkov`` (3F6/4F7) and ``dkelvin_integer`` (finite
sums over lower-order Kelvin values, tag 'integer_sum').  The first two
read J and I on the rays from one ``bessel._ray_sums`` run per order
(``_ray_reader``).

``dkelvin`` is two kernel calls: the series at nu with its psi sums, T and
P (``bessel._ray_sums``), and the K sum at |nu| with dK/dnu
(``bessel._ray_k``).  Each side takes one phase: with ber + i bei = phi T,
d(ber + i bei)/dnu = phi ((log(x/2) + 3i pi/4) T - P), as
dT/dnu = log(x/2) T - P, and the K side turns by e^(-i pi nu/2).  The
series side (``_bb_series``) also gives theorem 5 (``quad``) its ber/bei
and dJ/dnu at nu + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bessel
from .bessel import (NEAR_EXCLUDED, ORDER_EPS, _degraded_flags, _dj_dnu, _dk_dnu, _is_near_int,
                     _order, _RayOrder, _turn)
from .errors import DomainError, NegativeIntegerOrderError, OrderClassError
from .hyper import DEFAULT_SERIES, EvalResult, HyperSpec, SeriesConfig, pfq
from .kelvin import (ROT_J, ROT_K, KelvinQuad, _eval_ber_bei, _eval_ker_kei, _finite, _k_turn,
                     _phase, kelvin_all)
from .scalars import PI, digamma_real, gamma_real

# dkelvin's rounding floor of a series per unit of its largest term; on the
# mpmath grids of the tests 3e-16 is the least that covers the true error
_SERIES_FLOOR = 5e-16


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


def _ray_reader(x: float, cfg: SeriesConfig, c: float):
    """The closed forms' reader of J_mu at e^(-i pi/4) x (c = -1/4) or of
    I_mu at e^(i pi/4) x (c = 1/4): one ``bessel._ray_sums`` run of the
    order, turned by e^(i pi (c mu + k0/2)) (``bessel._turn``)."""
    def read(mu: float) -> EvalResult:
        o = _RayOrder(mu)
        s, err, terms, conv, max_term, _ = bessel._ray_sums(o, x, cfg, False)
        flags = (() if conv else ("no_convergence",)) + _degraded_flags(mu, x)
        return EvalResult(_turn(c * mu + 0.5 * o.k0) * s, err, terms, conv, flags, max_term)
    return read


def dkelvin_bb_pos(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(d ber_nu/d nu, d bei_nu/d nu) for non-integer nu >= 0, x > 0, by the
    paper's csc/2F3/3F4 closed form for dJ/dnu; ber + i bei = e^(i pi nu) J_nu
    from the J_nu that the closed form reads."""
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu < 0.0 or abs(nu - round(nu)) <= ORDER_EPS:
        raise OrderClassError(f"integer or negative order {nu}: use the dispatcher")
    dj, j = _dj_dnu(nu, ROT_J * x, _ray_reader(x, cfg, -0.25), cfg)
    turn = _phase(PI * nu)
    bb, e = turn * j.value, turn * dj.value
    return e.real - PI * bb.imag, e.imag + PI * bb.real


def dkelvin_kk_pos(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(d ker_nu/d nu, d kei_nu/d nu) for nu >= 0 with 2 nu non-integer, x > 0,
    by the paper's closed form for dK/dnu.  Orders with 2 nu within 1e-6 of
    an integer are refused."""
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu < 0.0 or _is_near_int(2.0 * nu, NEAR_EXCLUDED):
        raise OrderClassError(f"order {nu} excluded for the K-side closed form")
    ker, kei, _, _ = _eval_ker_kei(nu, x, cfg)
    e = _phase(-PI * nu / 2.0) * _dk_dnu(nu, ROT_K * x, _ray_reader(x, cfg, 0.25), cfg).value
    return e.real + PI / 2.0 * kei, e.imag - PI / 2.0 * ker


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
    _finite(n, x)
    if n < 0:
        raise NegativeIntegerOrderError("finite sums defined for n >= 0 only")
    if x <= 0.0:
        raise DomainError("x must be positive")
    quads = [kelvin_all(float(k), x, cfg) for k in range(n + 1)]
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
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu <= 0.0 or abs(nu - round(nu)) <= ORDER_EPS:
        raise OrderClassError("reference form needs non-integer nu > 0")
    ber, bei, _, _ = _eval_ber_bei(nu, x, cfg)
    ber_m, bei_m, _, _ = _eval_ber_bei(-nu, x, cfg)
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
    ber, bei, ker, kei, dber, dbei, dker, dkei, est = _dkelvin(nu, x, cfg)
    return OrderDerivQuad(dber, dbei, dker, dkei, nu, x, "series", est,
                          KelvinQuad(ber, bei, ker, kei, nu, x))


def _dkelvin(nu: float, x: float, cfg: SeriesConfig, orders: dict | None = None) -> tuple:
    """``dkelvin`` as the plain tuple (ber, bei, ker, kei, dber, dbei, dker,
    dkei, abs error estimate); the rows of a table order pass one dict
    ``orders``, in which nu is set up once.  The estimate adds to the
    series' estimate (:func:`_bb_series`) that of dK/dnu and pi/2 times the
    K estimate."""
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    o = _RayOrder(nu) if orders is None else _order(orders, nu)
    run = bessel._ray_sums(o, x, cfg, True)
    k, dk = bessel._ray_k(abs(nu), x, cfg, True)
    turn = _k_turn(nu, x, k)
    # log(x/2) after the K sum, which raises where x/2 underflows to 0
    bb, dbb, est = _bb_series(o, run, x)
    kk, e = turn * k[0], turn * (-dk[0] if nu < 0.0 else dk[0])
    est = est + dk[1] + PI / 2.0 * k[1]
    return (bb.real, bb.imag, kk.real, kk.imag, dbb.real, dbb.imag,
            e.real + PI / 2.0 * kk.imag, e.imag - PI / 2.0 * kk.real, est)


def _bb_series(o: _RayOrder, run: tuple, x: float) -> tuple[complex, complex, float]:
    """(ber + i bei, d(ber + i bei)/dnu, abs error estimate of the latter)
    from the run of ``bessel._ray_sums`` with psi sums, T and P, of the order
    ``o`` at x: ber + i bei = phi T and d(ber + i bei)/dnu =
    phi ((log(x/2) + 3i pi/4) T - P), phi = ``o.phase()``.  The estimate
    adds to the run's estimates the floor of each series, ``_SERIES_FLOOR``
    times its largest term, each scaled as in the derivative."""
    t, t_err, _, _, t_max, (p, p_err, p_max, _, _) = run
    lg = complex(math.log(0.5 * x), 0.75 * PI)
    phi = o.phase()
    return (phi * t, phi * (lg * t - p),
            abs(lg) * (t_err + _SERIES_FLOOR * t_max) + p_err + _SERIES_FLOOR * p_max)
