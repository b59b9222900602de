"""Complex-argument Bessel functions of real order and their order derivatives.

Ascending series only; the working regime is |z| <= 20 where the compensated
summation keeps the cancellation budget acceptable.  Powers use the principal
branch z^nu = exp(nu log z), arg z in (-pi, pi].

The closed forms for dJ/dnu and dK/dnu degenerate at integer (J) resp.
integer-or-half-integer (K) orders; ``dj_dnu_any`` / ``dk_dnu_any`` fall back
to evaluating just off the excluded order and extrapolating in delta^2.

Every kernel reads its series from a :class:`_Point`, which sums each J, I
and pFq series at most once.  The public functions build a fresh point per
call; the Kelvin layer shares one point between the values and the order
derivatives at one (nu, x).
"""

from __future__ import annotations

import cmath
import math

from .errors import ArgumentZeroError, BranchError, OrderClassError
from .hyper import DEFAULT_SERIES, EvalResult, HyperSpec, SeriesConfig, pfq, sum_series
from .scalars import PI, digamma_real, gamma_real

# Orders closer than this to an excluded value are classified as excluded.
ORDER_EPS = 1e-9
# Orders closer than this to an excluded value take the extrapolated path.
NEAR_EXCLUDED = 1e-6
# Offsets for the extrapolated fallback, fixed for reproducibility.
EXTRAP_DELTAS = (1e-3, 5e-4)
# Averaging offset for K at near-integer order.
K_AVG_DELTA = 1e-4

_DEGRADED_ABS_Z = 20.0
_DEGRADED_ORDER = 10.0


def _is_near_int(x: float, eps: float) -> bool:
    return abs(x - round(x)) <= eps


def _degraded_flags(nu: float, z: complex) -> tuple[str, ...]:
    if abs(z) > _DEGRADED_ABS_Z or abs(nu) > _DEGRADED_ORDER:
        return ("degraded",)
    return ()


def _half_pow(nu: float, z: complex) -> complex:
    """(z/2)^nu on the principal branch."""
    return cmath.exp(nu * cmath.log(z / 2.0))


def _ji_series(nu: float, z: complex, sign: float, cfg: SeriesConfig) -> EvalResult:
    """Shared ascending series for J (sign=-1) and I (sign=+1)."""
    if z == 0:
        if nu < 0.0:
            raise BranchError("z = 0 with negative order")
        value = 1.0 + 0.0j if nu == 0.0 else 0.0 + 0.0j
        return EvalResult(value, 0.0, 1, True, _degraded_flags(nu, z))
    if nu < 0.0 and _is_near_int(nu, 0.0):
        # J_{-n} = (-1)^n J_n, I_{-n} = I_n
        n = int(round(-nu))
        inner = _ji_series(float(n), z, sign, cfg)
        parity = -1.0 if (sign < 0 and n % 2) else 1.0
        return EvalResult(parity * inner.value, inner.abs_err_estimate,
                          inner.terms_used, inner.converged, inner.flags,
                          inner.max_abs_term)
    first = _half_pow(nu, z) / gamma_real(nu + 1.0)
    q = sign * z * z / 4.0

    def ratio(k: int) -> complex:
        return q / ((k + 1.0) * (nu + k + 1.0))

    res = sum_series(first, ratio, cfg)
    flags = res.flags + _degraded_flags(nu, z)
    return EvalResult(res.value, res.abs_err_estimate, res.terms_used,
                      res.converged, flags, res.max_abs_term)


class _Point:
    """The series of one evaluation point, each summed at most once.

    J_mu is summed at ``zj`` and I_mu (hence K_nu) at ``zk``.  The 2F3/3F4
    factors of the order derivatives take the argument zk^2, or -zj^2 when
    only ``zj`` is set.  On the Kelvin rays zj = e^(-i pi/4) x and
    zk = e^(i pi/4) x the two arguments differ only in the sign of a zero
    real part, which leaves every term, and so the sum, bit for bit the
    same: dJ/dnu and dK/dnu share those series.  K_nu and both order
    derivatives are kept as well.  A point lives for one top-level call;
    nothing is kept between calls.
    """

    __slots__ = ("zj", "zk", "cfg", "memo")

    def __init__(self, zj: complex | None, zk: complex | None, cfg: SeriesConfig):
        self.zj = zj
        self.zk = zk
        self.cfg = cfg
        self.memo: dict = {}

    def _once(self, key: tuple, fn, *args) -> EvalResult:
        res = self.memo.get(key)
        if res is None:
            res = self.memo[key] = fn(*args)
        return res

    def _pfq(self, upper: tuple, lower: tuple) -> EvalResult:
        w = self.zk * self.zk if self.zk is not None else -self.zj * self.zj
        return pfq(HyperSpec(upper, lower, w), self.cfg)

    def j(self, mu: float) -> EvalResult:
        return self._once(("j", mu), bessel_j, mu, self.zj, self.cfg)

    def i(self, mu: float) -> EvalResult:
        return self._once(("i", mu), bessel_i, mu, self.zk, self.cfg)

    def k(self, nu: float) -> EvalResult:
        return self._once(("k", nu), _bessel_k, nu, self)

    def dj(self, nu: float) -> EvalResult:
        """dJ/dnu by :func:`dj_dnu_any`."""
        return self._once(("dj", nu), _dj_dnu_any, nu, self)

    def dk(self, nu: float) -> EvalResult:
        """dK/dnu by :func:`dk_dnu_any`."""
        return self._once(("dk", nu), _dk_dnu_any, nu, self)

    def f23(self, nu: float) -> EvalResult:
        """2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; w)."""
        return self._once(("f23", nu), self._pfq, (nu, nu + 0.5),
                          (nu + 1.0, nu + 1.0, 2.0 * nu + 1.0))

    def f23m(self, nu: float) -> EvalResult:
        """2F3(-nu, 1/2-nu; 1-nu, 1-nu, 1-2nu; w)."""
        return self._once(("f23m", nu), self._pfq, (-nu, 0.5 - nu),
                          (1.0 - nu, 1.0 - nu, 1.0 - 2.0 * nu))

    def f34(self, nu: float) -> EvalResult:
        """3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; w)."""
        return self._once(("f34", nu), self._pfq, (1.0, 1.0, 1.5),
                          (2.0, 2.0, 2.0 - nu, 2.0 + nu))


def bessel_j(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """J_nu(z) by the ascending series sum_k (-1)^k (z/2)^(nu+2k) / (k! Gamma(nu+k+1))."""
    return _ji_series(nu, complex(z), -1.0, cfg)


def bessel_i(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """I_nu(z), the (+1)^k counterpart of :func:`bessel_j`."""
    return _ji_series(nu, complex(z), 1.0, cfg)


def bessel_k(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """K_nu(z) via the connection formula K = (pi/2)(I_{-nu} - I_nu)/sin(pi nu).

    Within 1e-6 of an integer order the formula is evaluated at n +/- delta
    (the singularity is removable and even in nu - n to leading order); the
    delta^2 bias of the plain average is removed by a second average at
    delta/2 and Richardson extrapolation.  The error estimate is amplified
    by the csc factor and by the cancellation budget of the I series.
    """
    return _bessel_k(nu, _Point(None, complex(z), cfg))


def _bessel_k(nu: float, p: _Point) -> EvalResult:
    z = p.zk
    if z == 0:
        raise ArgumentZeroError("K_nu undefined at z = 0")
    nu = abs(nu)  # K is even in the order
    if _is_near_int(nu, NEAR_EXCLUDED):
        n = round(nu)

        def avg(delta: float) -> tuple[complex, float, int, bool, float]:
            lo = _k_connection(abs(n - delta), p)
            hi = _k_connection(n + delta, p)
            return ((lo.value + hi.value) / 2.0,
                    lo.abs_err_estimate + hi.abs_err_estimate,
                    lo.terms_used + hi.terms_used,
                    lo.converged and hi.converged,
                    max(lo.max_abs_term, hi.max_abs_term))

        v1, e1, t1, c1, m1 = avg(K_AVG_DELTA)
        v2, e2, t2, c2, m2 = avg(K_AVG_DELTA / 2.0)
        value = (4.0 * v2 - v1) / 3.0
        est = e1 + e2 + abs(v2 - v1) / 3.0
        return EvalResult(value, est, t1 + t2, c1 and c2,
                          ("near_integer_averaged",) + _degraded_flags(nu, z),
                          max(m1, m2))
    return _k_connection(nu, p)


def _k_connection(nu: float, p: _Point) -> EvalResult:
    im = p.i(-nu)
    ip = p.i(nu)
    s = math.sin(PI * nu)
    amp = PI / (2.0 * abs(s))
    value = (PI / 2.0) * (im.value - ip.value) / s
    # cancellation floor: the I series are summed to ~1 ulp of their largest term
    cancel = 2e-16 * (im.max_abs_term + ip.max_abs_term)
    est = amp * (im.abs_err_estimate + ip.abs_err_estimate + cancel)
    return EvalResult(value, est, im.terms_used + ip.terms_used,
                      im.converged and ip.converged,
                      _degraded_flags(nu, p.zk),
                      max(im.max_abs_term, ip.max_abs_term))


def dj_dnu(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """Closed form of the order derivative of J_nu at non-integer nu > 0.

    dJ/dnu = -pi J_{-nu}(z) csc(pi nu) / (2 Gamma(nu+1)^2) (z/2)^(2 nu)
               * 2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; -z^2)
             - J_nu(z) [ z^2/(4(1-nu^2)) 3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; -z^2)
                         + log(2/z) + 1/(2 nu) + psi(nu) ]
    """
    return _dj_dnu(nu, _Point(complex(z), None, cfg))


def _dj_dnu(nu: float, p: _Point) -> EvalResult:
    z = p.zj
    if nu <= 0.0 or _is_near_int(nu, ORDER_EPS):
        raise OrderClassError(f"dJ/dnu closed form invalid at nu = {nu}")
    if z == 0:
        raise BranchError("z = 0")
    jm = p.j(-nu)
    jp = p.j(nu)
    f1 = p.f23(nu)
    f2 = p.f34(nu)
    g1 = gamma_real(nu + 1.0)
    coef_a = -PI / math.sin(PI * nu) / (2.0 * g1 * g1) * _half_pow(2.0 * nu, z)
    a = coef_a * jm.value * f1.value
    bracket = (z * z / (4.0 * (1.0 - nu * nu)) * f2.value
               + cmath.log(2.0 / z) + 1.0 / (2.0 * nu) + digamma_real(nu))
    b = jp.value * bracket
    value = a - b
    est = (abs(coef_a) * (abs(jm.value) * f1.abs_err_estimate + abs(f1.value) * jm.abs_err_estimate)
           + abs(bracket) * jp.abs_err_estimate
           + abs(jp.value) * abs(z * z / (4.0 * (1.0 - nu * nu))) * f2.abs_err_estimate)
    conv = jm.converged and jp.converged and f1.converged and f2.converged
    terms = jm.terms_used + jp.terms_used + f1.terms_used + f2.terms_used
    return EvalResult(value, est, terms, conv, _degraded_flags(nu, z),
                      max(jm.max_abs_term, jp.max_abs_term))


def dk_dnu(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """Closed form of the order derivative of K_nu, excluded at 2 nu integer.

    dK/dnu = (pi/2) csc(pi nu) { pi cot(pi nu) I_nu(z)
               - [I_nu(z) + I_{-nu}(z)] [ z^2/(4(1-nu^2)) 3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; z^2)
                                           + log(z/2) - psi(nu) - 1/(2 nu) ] }
             + (1/4) { I_{-nu}(z) Gamma(-nu)^2 (z/2)^(2 nu)
                         * 2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; z^2)
                     - I_nu(z) Gamma(nu)^2 (z/2)^(-2 nu)
                         * 2F3(-nu, 1/2-nu; 1-nu, 1-nu, 1-2nu; z^2) }

    This is the derivative of the connection formula combined with the
    closed form for dI/dnu; it reproduces finite differences of K over the
    order to full working precision.
    """
    return _dk_dnu(nu, _Point(None, complex(z), cfg))


def _dk_dnu(nu: float, p: _Point) -> EvalResult:
    z = p.zk
    if nu <= 0.0 or _is_near_int(2.0 * nu, ORDER_EPS):
        raise OrderClassError(f"dK/dnu closed form invalid at nu = {nu}")
    if z == 0:
        raise ArgumentZeroError("z = 0")
    ip = p.i(nu)
    im = p.i(-nu)
    z2 = z * z
    f34 = p.f34(nu)
    f23p = p.f23(nu)
    f23m = p.f23m(nu)
    s = math.sin(PI * nu)
    c = math.cos(PI * nu)
    bracket = (z2 / (4.0 * (1.0 - nu * nu)) * f34.value
               + cmath.log(z / 2.0) - digamma_real(nu) - 1.0 / (2.0 * nu))
    p1 = (PI / (2.0 * s)) * (PI * (c / s) * ip.value - (ip.value + im.value) * bracket)
    gm = gamma_real(-nu)
    gp = gamma_real(nu)
    t_m = im.value * gm * gm * _half_pow(2.0 * nu, z) * f23p.value
    t_p = ip.value * gp * gp * _half_pow(-2.0 * nu, z) * f23m.value
    value = p1 + (t_m - t_p) / 4.0
    amp = PI / (2.0 * abs(s))
    cancel = 2e-16 * (ip.max_abs_term + im.max_abs_term) * (1.0 + abs(bracket))
    est = amp * (ip.abs_err_estimate * (PI * abs(c / s) + abs(bracket))
                 + im.abs_err_estimate * abs(bracket) + cancel) \
        + 0.25 * (abs(t_m) + abs(t_p)) * 1e-14
    conv = ip.converged and im.converged and f34.converged and f23p.converged and f23m.converged
    terms = ip.terms_used + im.terms_used + f34.terms_used + f23p.terms_used + f23m.terms_used
    return EvalResult(value, est, terms, conv, _degraded_flags(nu, z),
                      max(ip.max_abs_term, im.max_abs_term))


def _dji_dnu_direct(mu: float, sign: float, p: _Point) -> EvalResult:
    """Term-wise order derivative of the J (sign=-1) / I (sign=+1) series:

        d/dmu = F_mu(z) log(z/2)
                - (z/2)^mu sum_k (sign)^k psi(mu+k+1) (z^2/4)^k / (k! Gamma(mu+k+1))

    Valid whenever mu+k+1 never hits a nonpositive integer (any non-integer
    mu, and any mu >= 0).  Unlike the csc-form closed forms this has no pole
    amplification near excluded orders, so it is the safe kernel to
    extrapolate across them.  The psi-weighted sum is Neumaier-compensated
    per component, like :func:`hyper.sum_series`.
    """
    if sign < 0.0:
        z, f = p.zj, p.j(mu)
    else:
        z, f = p.zk, p.i(mu)
    rel_tol = p.cfg.rel_tol
    max_terms = p.cfg.max_terms
    q = sign * z * z / 4.0
    g = 1.0 / gamma_real(mu + 1.0)
    term = digamma_real(mu + 1.0) * g + 0.0j
    re = im = cre = cim = 0.0
    qpow = 1.0 + 0.0j
    max_term = abs(term)
    small_run = 0
    k = 0
    converged = False
    while True:
        tr = term.real
        s = re + tr
        if abs(re) >= abs(tr):
            cre += (re - s) + tr
        else:
            cre += (tr - s) + re
        re = s
        ti = term.imag
        s = im + ti
        if abs(im) >= abs(ti):
            cim += (im - s) + ti
        else:
            cim += (ti - s) + im
        im = s
        if k:
            mag = abs(term)
            if mag > max_term:
                max_term = mag
            if mag <= rel_tol * (1.0 + abs(complex(re + cre, im + cim))):
                small_run += 1
                if small_run >= 2:
                    converged = True
                    break
            else:
                small_run = 0
        if k >= max_terms:
            break
        g = g / ((k + 1.0) * (mu + k + 1.0))
        qpow *= q
        k += 1
        term = digamma_real(mu + k + 1.0) * g * qpow
    psi_sum = complex(re + cre, im + cim)
    pref = _half_pow(mu, z)
    value = f.value * cmath.log(z / 2.0) - pref * psi_sum
    est = f.abs_err_estimate * abs(cmath.log(z / 2.0)) + abs(pref) * 10.0 * abs(term)
    return EvalResult(value, est, f.terms_used + k, converged and f.converged,
                      f.flags, max(f.max_abs_term, abs(pref) * max_term))


def _dk_dnu_direct(nu: float, p: _Point) -> EvalResult:
    """dK/dnu from the differentiated connection formula:

        dK/dnu = (pi / (2 sin(pi nu))) [ -dI/dmu|_{-nu} - dI/dmu|_{+nu} ]
                 - pi cot(pi nu) K_nu(z)

    Regular at half-integers (csc = +-1, cot = 0); removable singularity at
    integers, where the caller extrapolates across it.  K_nu reuses the two
    I series of the derivatives.
    """
    s = math.sin(PI * nu)
    dim = _dji_dnu_direct(-nu, 1.0, p)
    dip = _dji_dnu_direct(nu, 1.0, p)
    kv = _k_connection(abs(nu), p)
    value = (PI / (2.0 * s)) * (-dim.value - dip.value) \
        - PI * (math.cos(PI * nu) / s) * kv.value
    amp = PI / (2.0 * abs(s))
    est = amp * (dim.abs_err_estimate + dip.abs_err_estimate
                 + 2e-16 * (dim.max_abs_term + dip.max_abs_term)) \
        + PI * abs(math.cos(PI * nu) / s) * kv.abs_err_estimate
    return EvalResult(value, est, dim.terms_used + dip.terms_used + kv.terms_used,
                      dim.converged and dip.converged and kv.converged,
                      _degraded_flags(nu, p.zk),
                      max(dim.max_abs_term, dip.max_abs_term))


def _extrapolate(fn, nu0: float, p: _Point) -> EvalResult:
    """Richardson extrapolation (linear in delta^2) across an excluded order.

    ``fn`` is evaluated at nu0 +/- delta for the two fixed deltas; averaging
    kills the odd parts of the removable singularity and the Richardson step
    cancels the even delta^2 term.
    """
    d1, d2 = EXTRAP_DELTAS

    def centered(d: float) -> tuple[complex, EvalResult]:
        a = fn(nu0 + d, p)
        b = fn(nu0 - d, p)
        return (a.value + b.value) / 2.0, a

    m1, r1 = centered(d1)
    m2, r2 = centered(d2)
    value = (4.0 * m2 - m1) / 3.0
    est = abs(m2 - m1) / 3.0 + r1.abs_err_estimate + r2.abs_err_estimate
    flags = ("extrapolated", f"deltas={d1:g},{d2:g}")
    return EvalResult(value, est, r1.terms_used + r2.terms_used,
                      r1.converged and r2.converged, flags,
                      max(r1.max_abs_term, r2.max_abs_term))


def dj_dnu_any(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """dJ/dnu for any nu >= 0: the closed form away from integers, else the
    direct series derivative extrapolated across the integer."""
    return _dj_dnu_any(nu, _Point(complex(z), None, cfg))


def _dj_dnu_any(nu: float, p: _Point) -> EvalResult:
    if nu < 0.0:
        raise OrderClassError("nu must be >= 0")
    if _is_near_int(nu, NEAR_EXCLUDED):
        return _extrapolate(lambda mu, pt: _dji_dnu_direct(mu, -1.0, pt),
                            float(round(nu)), p)
    return _dj_dnu(nu, p)


def dk_dnu_any(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """dK/dnu for any nu >= 0: the closed form away from multiples of 1/2,
    else the connection-formula derivative extrapolated across the excluded
    order (the csc-form closed form amplifies rounding by 1/delta^2 there)."""
    return _dk_dnu_any(nu, _Point(None, complex(z), cfg))


def _dk_dnu_any(nu: float, p: _Point) -> EvalResult:
    if nu < 0.0:
        raise OrderClassError("nu must be >= 0")
    if _is_near_int(2.0 * nu, NEAR_EXCLUDED):
        nu0 = round(2.0 * nu) / 2.0
        if nu0 == 0.0:
            # K is even in the order, so its order derivative vanishes at 0
            return EvalResult(0.0 + 0.0j, 0.0, 0, True, ("extrapolated",), 0.0)
        return _extrapolate(_dk_dnu_direct, nu0, p)
    return _dk_dnu(nu, p)
