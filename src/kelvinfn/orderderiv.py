"""Order derivatives of the four Kelvin functions, all real orders.

Positive non-excluded orders use the rotation of the closed-form Bessel
order derivatives:

    d ber_nu/d nu = Re[e^(i pi nu)    dJ/dnu(e^(-i pi/4) x)] - pi   bei_nu(x)
    d bei_nu/d nu = Im[e^(i pi nu)    dJ/dnu(e^(-i pi/4) x)] + pi   ber_nu(x)
    d ker_nu/d nu = Re[e^(-i pi nu/2) dK/dnu(e^(i pi/4)  x)] + pi/2 kei_nu(x)
    d kei_nu/d nu = Im[e^(-i pi nu/2) dK/dnu(e^(i pi/4)  x)] - pi/2 ker_nu(x)

Negative orders differentiate the reflection formulas (the *_neg ops return
the order derivative evaluated at order -nu for nu > 0); nonnegative integer
orders use the finite sums over lower-order Kelvin values; everything else is
reached by delta^2 extrapolation of the closed forms.  The dispatcher
``dkelvin`` stitches the order classes together and tags the method used.

``dkelvin`` evaluates one point: the four values and the four order
derivatives come from one ``kelvin._point``, so each J, I and pFq series is
summed once per (nu, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import ORDER_EPS, _dj_dnu, _Point
from .errors import DomainError, NegativeIntegerOrderError, OrderClassError
from .hyper import DEFAULT_SERIES, EvalResult, HyperSpec, SeriesConfig, pfq
from .kelvin import KelvinQuad, _ber_bei, _ker_kei, _phase, _point, _quad
from .scalars import PI, digamma_real, gamma_real


@dataclass(frozen=True)
class OrderDerivQuad:
    """The four order derivatives at one (nu, x), with provenance.

    ``method`` is one of 'closed_form', 'integer_sum', 'extrapolated',
    'reference_brychkov', or the mixed tag 'closed_form+extrapolated' when
    the J side admits the closed form but the K side sits at a half-integer
    (or vice versa).  ``values`` holds the four Kelvin values at the
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


def _bb_pos(nu: float, dj: EvalResult, ber: float, bei: float) -> tuple[float, float]:
    e = _phase(PI * nu) * dj.value
    return e.real - PI * bei, e.imag + PI * ber


def _kk_pos(nu: float, dk: EvalResult, ker: float, kei: float) -> tuple[float, float]:
    e = _phase(-PI * nu / 2.0) * dk.value
    return e.real + PI / 2.0 * kei, e.imag - PI / 2.0 * ker


def dkelvin_bb_pos(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(d ber_nu/d nu, d bei_nu/d nu) for non-integer nu >= 0, x > 0."""
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu < 0.0 or abs(nu - round(nu)) <= ORDER_EPS:
        raise OrderClassError(f"integer or negative order {nu}: use the dispatcher")
    p = _point(x, cfg)
    ber, bei, _, _ = _ber_bei(nu, x, p)
    return _bb_pos(nu, _dj_dnu(nu, p), ber, bei)


def dkelvin_kk_pos(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """(d ker_nu/d nu, d kei_nu/d nu) for nu >= 0 with 2 nu non-integer, x > 0."""
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu < 0.0 or abs(2.0 * nu - round(2.0 * nu)) <= ORDER_EPS:
        raise OrderClassError(f"order {nu} excluded for the K-side closed form")
    p = _point(x, cfg)
    dk = p.dk(nu)
    if "extrapolated" in dk.flags:
        raise OrderClassError(f"order {nu} too close to an excluded order")
    ker, kei, _, _ = _ker_kei(nu, x, p)
    return _kk_pos(nu, dk, ker, kei)


def _bb_neg(nu: float, p: _Point) -> tuple[float, float, float, bool]:
    """Order derivative of ber/bei at order -nu (nu > 0), via the reflection.

    d ber_mu/d mu |_{mu=-nu} =
      -Re[ e^(-i pi nu/2) { (e^(-i pi nu) + cos pi nu) K_nu(e^(i pi/4) x)
                            + (2/pi) sin(pi nu) dK/dnu(e^(i pi/4) x) }
           + dJ/dnu(e^(-i pi/4) x) ]

    and the bei counterpart is the imaginary part.  When sin(pi nu)
    vanishes (integer nu) the dK term is dropped exactly.
    """
    s = math.sin(PI * nu)
    kv = p.k(nu)
    inner = (_phase(-PI * nu) + math.cos(PI * nu)) * kv.value
    est = 2.0 * kv.abs_err_estimate
    extrap = False
    if abs(s) >= 1e-12:
        dk = p.dk(nu)
        inner += (2.0 / PI) * s * dk.value
        est += abs(s) * dk.abs_err_estimate
        extrap = "extrapolated" in dk.flags
    dj = p.dj(nu)
    extrap = extrap or "extrapolated" in dj.flags
    est += dj.abs_err_estimate
    w = _phase(-PI * nu / 2.0) * inner + dj.value
    return -w.real, -w.imag, est, extrap


def _kk_neg(nu: float, p: _Point) -> tuple[float, float, float, bool]:
    """Order derivative of ker/kei at order -nu (nu > 0):

    d ker_mu/d mu |_{mu=-nu} = (pi/2) Im[e^(i pi nu/2) K_nu(e^(i pi/4) x)]
                               - Re[e^(i pi nu/2) dK/dnu(e^(i pi/4) x)]
    d kei_mu/d mu |_{mu=-nu} = -(pi/2) Re[e^(i pi nu/2) K_nu(e^(i pi/4) x)]
                               - Im[e^(i pi nu/2) dK/dnu(e^(i pi/4) x)]
    """
    kv = p.k(nu)
    dk = p.dk(nu)
    ph = _phase(PI * nu / 2.0)
    wk = ph * kv.value
    wd = ph * dk.value
    est = kv.abs_err_estimate * PI / 2.0 + dk.abs_err_estimate
    return (PI / 2.0 * wk.imag - wd.real,
            -PI / 2.0 * wk.real - wd.imag,
            est, "extrapolated" in dk.flags)


def dkelvin_bb_neg(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """Order derivatives of ber and bei evaluated at order -nu, for nu > 0."""
    if nu <= 0.0 or x <= 0.0:
        raise DomainError("requires nu > 0 and x > 0")
    dber, dbei, _, _ = _bb_neg(nu, _point(x, cfg))
    return dber, dbei


def dkelvin_kk_neg(nu: float, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float]:
    """Order derivatives of ker and kei evaluated at order -nu, for nu > 0."""
    if nu <= 0.0 or x <= 0.0:
        raise DomainError("requires nu > 0 and x > 0")
    dker, dkei, _, _ = _kk_neg(nu, _point(x, cfg))
    return dker, dkei


def dkelvin_integer(n: int, x: float,
                    cfg: SeriesConfig = DEFAULT_SERIES) -> OrderDerivQuad:
    """All four order derivatives at integer order n >= 0 via the finite sums.

    d ber/d nu |_n = -(pi/2) bei_n - ker_n
        + (n!/2) sum_{k=0}^{n-1} (x/2)^(k-n) / (k! (n-k))
            [cos(5(k-n)pi/4) ber_k + sin(5(k-n)pi/4) bei_k]

    with the analogous sums (3(k-n)pi/4 weights) on the K side.  Sums are
    empty at n = 0.
    """
    if n < 0:
        raise NegativeIntegerOrderError("finite sums defined for n >= 0 only")
    if x <= 0.0:
        raise DomainError("x must be positive")
    p = _point(x, cfg)
    return _integer_sums(n, x, p, _quad(float(n), x, p))


def _integer_sums(n: int, x: float, p: _Point, values: KelvinQuad) -> OrderDerivQuad:
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
    return OrderDerivQuad(dber, dbei, dker, dkei, float(n), x, "integer_sum", est, values)


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
    if x <= 0.0:
        raise DomainError("x must be positive")
    if nu <= 0.0 or abs(nu - round(nu)) <= ORDER_EPS:
        raise OrderClassError("reference form needs non-integer nu > 0")
    p = _point(x, cfg)
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
    """Order-derivative dispatcher over the whole real order line.

    Routing: nonnegative integer orders -> finite sums; other nu >= 0 ->
    closed forms with extrapolated fallback near excluded orders; nu < 0 ->
    reflection-derived forms at |nu|.  The method tag is deterministic in
    (nu, x, cfg).  The result also carries the four values at nu.
    """
    if x <= 0.0:
        raise DomainError("x must be positive")
    p = _point(x, cfg)
    values = _quad(nu, x, p)
    if abs(nu - round(nu)) <= ORDER_EPS and round(nu) >= 0:
        return _integer_sums(int(round(nu)), x, p, values)
    if nu >= 0.0:
        dj = p.dj(nu)
        dk = p.dk(nu)
        dber, dbei = _bb_pos(nu, dj, values.ber, values.bei)
        dker, dkei = _kk_pos(nu, dk, values.ker, values.kei)
        est = dj.abs_err_estimate + dk.abs_err_estimate
        ex_b, ex_k = "extrapolated" in dj.flags, "extrapolated" in dk.flags
    else:
        dber, dbei, est_b, ex_b = _bb_neg(-nu, p)
        dker, dkei, est_k, ex_k = _kk_neg(-nu, p)
        est = est_b + est_k
    return OrderDerivQuad(dber, dbei, dker, dkei, nu, x, _method_tag(ex_b, ex_k), est, values)


def _method_tag(extrap_bb: bool, extrap_kk: bool) -> str:
    if extrap_bb and extrap_kk:
        return "extrapolated"
    if extrap_bb or extrap_kk:
        return "closed_form+extrapolated"
    return "closed_form"
