"""Bessel functions of real order and their order derivatives.

Ascending series only; the working regime is |z| <= 20 where the compensated
summation keeps the cancellation budget acceptable.  Powers use the principal
branch z^nu = exp(nu log z), arg z in (-pi, pi].

Each quantity has one evaluation route:

- J_nu and I_nu: the ascending series.
- K_nu: the connection formula (pi/2)(I_{-nu} - I_nu)/sin(pi nu) away from
  integers; the logarithmic series of DLMF 10.31.1 for K_n within
  ``NEAR_EXCLUDED`` of an integer n.
- dJ/dnu (nu >= 0): the term-wise order derivative of the J series, regular
  at every nu >= 0.
- dK/dnu (nu >= 0) on the Kelvin ray z = e^(i pi/4) x: the trapezoidal rule
  on int_0^inf t sinh(nu t) e^(-z cosh t) dt (:func:`_ray_dk`), regular at
  every order, integers included.  At a general complex z
  (:func:`dk_dnu_any`): the differentiated connection formula away from
  integers; the finite sum of DLMF 10.38.4 over K_0 .. K_{n-1} within
  ``NEAR_EXCLUDED`` of an integer n; 0 at nu = 0.

Every kernel reads its series from a :class:`_Point`, which sums each
series at most once.  On the Kelvin rays (:class:`_RayPoint`, built by the
Kelvin layer for the values and the order derivatives at one (nu, x)) the J
and I series of one order are one real series, summed by :func:`_ray_sums`
together with its psi-weighted sums in one pass.  At a general complex z
(the public functions, a fresh point per call) J and I go through
:func:`hyper.sum_series` and the psi-weighted sums through one compensated
loop, :func:`_psi_sum`.  The paper's closed forms ``dj_dnu`` (csc, 2F3, 3F4)
and ``dk_dnu`` are kept as independent oracles for the verify suites and
tests; no route above calls them.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import (ArgumentZeroError, BranchError, GammaOverflowError, OrderClassError,
                     PowerOverflowError, SeriesOverflowError)
from .hyper import DEFAULT_SERIES, EvalResult, HyperSpec, SeriesConfig, pfq, sum_series
from .scalars import EULER_GAMMA, PI, digamma_real, gamma_real

# Orders closer than this to an excluded value are classified as excluded.
ORDER_EPS = 1e-9
# Orders closer than this to an integer n take K_n (and, in dk_dnu_any, dK/dnu|_n).
NEAR_EXCLUDED = 1e-6

# Step of the trapezoidal rule for dK/dnu on the Kelvin ray (:func:`_ray_dk`)
DK_STEP = 0.07

_DEGRADED_ABS_Z = 20.0
_DEGRADED_ORDER = 10.0
_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon
_HALF_SQRT2 = math.sqrt(0.5)


def _is_near_int(x: float, eps: float) -> bool:
    return abs(x - round(x)) <= eps


def _degraded_flags(nu: float, z: complex) -> tuple[str, ...]:
    if abs(z) > _DEGRADED_ABS_Z or abs(nu) > _DEGRADED_ORDER:
        return ("degraded",)
    return ()


def _half_pow(nu: float, z: complex) -> complex:
    """(z/2)^nu on the principal branch."""
    try:
        return cmath.exp(nu * cmath.log(z / 2.0))
    except OverflowError:
        raise PowerOverflowError(
            f"(z/2)^{nu:g} overflows double precision at |z| = {abs(z):g}") from None


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
    first = _half_pow(nu, z)
    g = gamma_real(nu + 1.0)
    if -_TINY < g < _TINY:
        raise GammaOverflowError(f"1/gamma({nu + 1.0:g}) overflows double precision")
    first /= g
    q = sign * z * z / 4.0

    def ratio(k: int) -> complex:
        return q / ((k + 1.0) * (nu + k + 1.0))

    res = sum_series(first, ratio, cfg)
    flags = res.flags + _degraded_flags(nu, z)
    return EvalResult(res.value, res.abs_err_estimate, res.terms_used,
                      res.converged, flags, res.max_abs_term)


def _ray_sums(mu: float, x: float, cfg: SeriesConfig, psi: bool) -> tuple:
    """The Kelvin-ray series of order mu at x > 0, in real arithmetic:

        S = sum_k i^k a_k,   a_k = (x/2)^(mu+2k) / (k! Gamma(mu+k+1)),

    and, with ``psi``, P = sum_k i^k psi(mu+k+1) a_k from the same pass,
    together with H = sum_k i^k psi(k+1) a_k where mu is a non-negative
    integer (the orders of K_n; elsewhere H, its error and its largest term
    are 0), the weights stepping by psi(a+1) = psi(a) + 1/a.  Each pass adds
    an even k to the real parts and k+1 to the imaginary ones,
    Neumaier-compensated (TwoSum error terms); the sign flips every pass.
    S stops once both terms of a pass are below rel_tol |S|, the same pass
    with or without ``psi``; P and H go on until their terms are below
    rel_tol |P| and rel_tol |H|.  Error estimates are 10x the first
    neglected term.

    Returns (S, err, terms, converged, max |a_k|, psi part), the psi part
    None or (P, H, err P, err H, max P term, max H term, terms, converged).
    """
    tol = cfg.rel_tol
    hypot = math.hypot
    q = 0.25 * x * x
    try:
        t = (0.5 * x) ** mu
    except OverflowError:
        raise PowerOverflowError(
            f"(x/2)^{mu:g} overflows double precision at x = {x:g}") from None
    g = gamma_real(mu + 1.0)
    if mu < 0.0:
        # the leading term of a negative order divides a small power by a
        # small Gamma; both must be normal doubles for it to keep its digits
        if t < _TINY:
            raise PowerOverflowError(
                f"(x/2)^{mu:g} underflows double precision at x = {x:g}")
        if -_TINY < g < _TINY:
            raise GammaOverflowError(f"1/gamma({mu + 1.0:g}) overflows double precision")
    t /= g
    re = im = cre = cim = mx = 0.0
    plain = None
    if psi:
        harm = mu >= 0.0 and mu == math.floor(mu)
        wa = digamma_real(mu + 1.0)
        wh = -EULER_GAMMA if harm else 0.0
        pre = pim = pcre = pcim = hre = him = hcre = hcim = mp = mh = g = g2 = 0.0
        psi_conv = False
    for k in range(0, cfg.max_terms, 2):
        a = mu + k + 1.0
        u = t * q / ((k + 1.0) * a)
        nt = -u * q / ((k + 2.0) * (a + 1.0))
        s = re + t
        cre += (re - (s - (s - re))) + (t - (s - re))
        re = s
        s = im + u
        cim += (im - (s - (s - im))) + (u - (s - im))
        im = s
        if t > mx or -t > mx:
            mx = t if t > 0.0 else -t
        if u > mx or -u > mx:
            mx = u if u > 0.0 else -u
        if plain is None:
            lim = tol * hypot(re, im)
            if -lim <= t <= lim and -lim <= u <= lim:
                plain = (complex(re + cre, im + cim), 10.0 * abs(nt), k + 2, True)
                if not psi:
                    break
        if psi:
            v = wa * t
            s = pre + v
            pcre += (pre - (s - (s - pre))) + (v - (s - pre))
            pre = s
            wa += 1.0 / a
            v2 = wa * u
            s = pim + v2
            pcim += (pim - (s - (s - pim))) + (v2 - (s - pim))
            pim = s
            wa += 1.0 / (a + 1.0)
            if v > mp or -v > mp:
                mp = v if v > 0.0 else -v
            if v2 > mp or -v2 > mp:
                mp = v2 if v2 > 0.0 else -v2
            if harm:
                g = wh * t
                s = hre + g
                hcre += (hre - (s - (s - hre))) + (g - (s - hre))
                hre = s
                wh += 1.0 / (k + 1.0)
                g2 = wh * u
                s = him + g2
                hcim += (him - (s - (s - him))) + (g2 - (s - him))
                him = s
                wh += 1.0 / (k + 2.0)
                if g > mh or -g > mh:
                    mh = g if g > 0.0 else -g
                if g2 > mh or -g2 > mh:
                    mh = g2 if g2 > 0.0 else -g2
            if plain is not None:
                lp = tol * hypot(pre, pim)
                lh = tol * hypot(hre, him)
                if -lp <= v <= lp and -lp <= v2 <= lp and -lh <= g <= lh and -lh <= g2 <= lh:
                    psi_conv = True
                    break
        t = nt
    if not math.isfinite(re + im + (pre + pim + hre + him if psi else 0.0)):
        raise SeriesOverflowError(f"the order-{mu:g} series is not finite at x = {x:g}")
    plain = plain or (complex(re + cre, im + cim), 10.0 * abs(nt), k + 2, False)
    if not psi:
        return plain + (mx, None)
    return plain + (mx, (complex(pre + pcre, pim + pcim), complex(hre + hcre, him + hcim),
                         10.0 * abs(wa * nt), 10.0 * abs(wh * nt), mp, mh, k + 2, psi_conv))


def _ray_dk(nu: float, x: float, cfg: SeriesConfig) -> EvalResult:
    """dK/dnu at nu >= 0 on the Kelvin ray z = e^(i pi/4) x, x > 0, by the
    trapezoidal rule with step h = ``DK_STEP`` on

        dK/dnu(z) = int_0^inf t sinh(nu t) e^(-z cosh t) dt,

    the order derivative of DLMF 10.32.9.  In real arithmetic
    e^(-z cosh t) = e^(-c) (cos c - i sin c) with c = x cosh(t)/sqrt(2).
    The integrand is analytic in |Im t| < pi/4 and decays doubly
    exponentially, so the rule converges geometrically in 1/h (Trefethen
    and Weideman, SIAM Review 56, 2014) at every order, integers included.
    Each pass adds an odd and an even node; the sum stops once both terms
    are below rel_tol |T_h|, or after ``cfg.max_terms`` nodes
    (no_convergence, with an infinite error estimate: the tail is unknown).

    The even nodes alone are the rule T_2h of step 2h, off by about
    e = |T_h - T_2h|.  Halving the step raises the relative error to a power
    p: against 34-digit sums p is 2 to 3 at nu <= 3, where the error of T_h
    is below 1e-21, and 3.7 to 7 at nu in [10, 15], where it reaches
    rounding.  The estimate takes p = 3, |T_h| (e/|T_h|)^3, plus the
    rounding floor n eps h sum_k |f(kh)| over the n nodes.
    """
    if nu < 0.0:
        raise OrderClassError("nu must be >= 0")
    a = _HALF_SQRT2 * x
    h = DK_STEP
    tol = cfg.rel_tol
    exp, cos, sin, cosh, sinh, hypot = (math.exp, math.cos, math.sin, math.cosh, math.sinh,
                                        math.hypot)
    ore = oim = ere = eim = mag = t = 0.0
    n = 0
    converged = False
    try:
        for n in range(2, cfg.max_terms + 1, 2):
            t += h
            c = a * cosh(t)
            w = t * sinh(nu * t) * exp(-c)
            ore += w * cos(c)
            oim += w * sin(c)
            t += h
            c = a * cosh(t)
            w2 = t * sinh(nu * t) * exp(-c)
            ere += w2 * cos(c)
            eim += w2 * sin(c)
            mag += w + w2
            lim = tol * hypot(ore + ere, oim + eim)
            if w <= lim and w2 <= lim:
                converged = True
                break
    except OverflowError:
        raise SeriesOverflowError(
            f"the dK/dnu quadrature at order {nu:g} overflows at x = {x:g}") from None
    if not math.isfinite(mag):
        raise SeriesOverflowError(f"the dK/dnu quadrature at order {nu:g} is not finite "
                                  f"at x = {x:g}")
    value = complex(h * (ore + ere), -h * (oim + eim))
    if converged:
        size = abs(value)
        e = h * math.hypot(ore - ere, oim - eim)
        est = (e * (e / size) ** 2 if size else 0.0) + n * _EPS * h * mag
    else:
        est = math.inf
    flags = (() if converged else ("no_convergence",)) + _degraded_flags(nu, x)
    return EvalResult(value, est, n, converged, flags)


class _Point:
    """The series of one evaluation point, each summed at most once.

    J_mu is summed at ``zj`` and I_mu (hence K_nu) at ``zk``; K_nu and both
    order derivatives are kept as well.  A point lives for one top-level
    call; nothing is kept between calls.  :class:`_RayPoint` is the point
    of the Kelvin functions.
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

    def j(self, mu: float) -> EvalResult:
        return self._once(("j", mu), bessel_j, mu, self.zj, self.cfg)

    def i(self, mu: float) -> EvalResult:
        return self._once(("i", mu), bessel_i, mu, self.zk, self.cfg)

    def psi(self, mu: float, sign: float, harmonic: float) -> EvalResult:
        """The psi-weighted series of :func:`_psi_sum`, J (sign=-1) at ``zj``
        or I (sign=+1) at ``zk``."""
        z = self.zj if sign < 0.0 else self.zk
        return _psi_sum(mu, z, sign, harmonic, self.cfg)

    def k(self, nu: float) -> EvalResult:
        return self._once(("k", nu), _bessel_k, nu, self)

    def dj(self, nu: float) -> EvalResult:
        """dJ/dnu at nu >= 0, by :func:`dj_dnu_any`."""
        return self._once(("dj", nu), _dj_dnu_any, nu, self)

    def dk(self, nu: float) -> EvalResult:
        """dK/dnu at nu >= 0, by :func:`dk_dnu_any`."""
        return self._once(("dk", nu), _dk_dnu_any, nu, self)


def _phase(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


class _RayPoint(_Point):
    """The point x > 0 of the Kelvin functions: zj = e^(-i pi/4) x and
    zk = e^(i pi/4) x.

    There -zj^2/4 = zk^2/4 = i x^2/4, so J_mu(zj) = e^(-i pi mu/4) S and
    I_mu(zk) = e^(i pi mu/4) S share the real series S of :func:`_ray_sums`,
    and the psi sums of dJ/dmu, dI/dmu and K_n take the same phases.  The
    kernel runs once per order, with the psi sums if they are asked for
    before J or I of that order; a later request sums the order again, so
    K_n and the order derivatives ask first.  dK/dnu comes from its own
    quadrature, :func:`_ray_dk`, and needs no series.
    """

    __slots__ = ("x",)

    def __init__(self, zj: complex, zk: complex, x: float, cfg: SeriesConfig):
        super().__init__(zj, zk, cfg)
        self.x = x

    def _sums(self, mu: float, psi: bool) -> tuple:
        key = ("ray", mu)
        r = self.memo.get(key)
        if r is None or (psi and r[5] is None):
            r = self.memo[key] = _ray_sums(mu, self.x, self.cfg, psi)
        return r

    def _rotated(self, mu: float, sign: float) -> EvalResult:
        s, err, terms, conv, max_term, _ = self._sums(mu, False)
        flags = (() if conv else ("no_convergence",)) + _degraded_flags(mu, self.zk)
        return EvalResult(_phase(sign * PI * mu / 4.0) * s, err, terms, conv, flags, max_term)

    def j(self, mu: float) -> EvalResult:
        return self._once(("j", mu), self._rotated, mu, -1.0)

    def i(self, mu: float) -> EvalResult:
        return self._once(("i", mu), self._rotated, mu, 1.0)

    def psi(self, mu: float, sign: float, harmonic: float) -> EvalResult:
        sp, sh, err_p, err_h, max_p, max_h, terms, conv = self._sums(mu, True)[5]
        if harmonic:
            sp, err_p, max_p = sp + sh, err_p + err_h, max_p + max_h
        return EvalResult(_phase(sign * PI * mu / 4.0) * sp, err_p, terms, conv,
                          () if conv else ("no_convergence",), max_p)

    def dk(self, nu: float) -> EvalResult:
        """dK/dnu at nu >= 0, by :func:`_ray_dk`."""
        return self._once(("dk", nu), _ray_dk, nu, self.x, self.cfg)


def bessel_j(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """J_nu(z) by the ascending series sum_k (-1)^k (z/2)^(nu+2k) / (k! Gamma(nu+k+1))."""
    return _ji_series(nu, complex(z), -1.0, cfg)


def bessel_i(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """I_nu(z), the (+1)^k counterpart of :func:`bessel_j`."""
    return _ji_series(nu, complex(z), 1.0, cfg)


def bessel_k(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """K_nu(z), even in nu.

    Away from integers: the connection formula
    K = (pi/2)(I_{-nu} - I_nu)/sin(pi nu), whose error estimate is amplified
    by the csc factor and by the cancellation budget of the I series.  At
    integer n, and within 1e-6 of it: the logarithmic series of
    DLMF 10.31.1 for K_n.
    """
    return _bessel_k(nu, _Point(None, complex(z), cfg))


def _bessel_k(nu: float, p: _Point) -> EvalResult:
    if p.zk == 0:
        raise ArgumentZeroError("K_nu undefined at z = 0")
    nu = abs(nu)  # K is even in the order
    n = round(nu)
    if abs(nu - n) <= NEAR_EXCLUDED:
        return _k_integer(n, p)
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


def _k_integer(n: int, p: _Point) -> EvalResult:
    """K_n(z) at integer n >= 0 by DLMF 10.31.1:

        K_n(z) = (1/2)(z/2)^(-n) sum_{k<n} (n-k-1)!/k! (-z^2/4)^k
                 + (-1)^(n+1) log(z/2) I_n(z)
                 + (-1)^n (1/2)(z/2)^n sum_k (psi(k+1) + psi(n+k+1))
                                          (z^2/4)^k / (k! (n+k)!)

    The psi sum is asked for before I_n, so that a ray point sums order n
    once.
    """
    z = p.zk
    s = p.psi(float(n), 1.0, 1.0)
    f = p.i(float(n))
    lg = cmath.log(z / 2.0)
    # (1/2)(n-k-1)!/k! (-z^2/4)^k (z/2)^(-n) = (+-1/2)(n-k-1)!/k! (z/2)^(2k-n)
    fin_terms = [(-0.5 if k % 2 else 0.5) * (math.factorial(n - k - 1) / math.factorial(k))
                 * _half_pow(2 * k - n, z) for k in range(n)]
    fin = sum(fin_terms, 0.0 + 0.0j)
    fin_max = max(map(abs, fin_terms), default=0.0)
    sgn = -1.0 if n % 2 else 1.0
    value = fin - sgn * lg * f.value + sgn * 0.5 * s.value
    est = (abs(lg) * f.abs_err_estimate + 0.5 * s.abs_err_estimate
           + 2e-16 * (fin_max + abs(lg) * f.max_abs_term + 0.5 * s.max_abs_term))
    return EvalResult(value, est, f.terms_used + s.terms_used,
                      f.converged and s.converged, _degraded_flags(n, z),
                      max(fin_max, abs(lg) * f.max_abs_term, 0.5 * s.max_abs_term))


def _psi_sum(mu: float, z: complex, sign: float, harmonic: float,
             cfg: SeriesConfig) -> EvalResult:
    """The psi-weighted J (sign=-1) / I (sign=+1) series

        (z/2)^mu sum_k w_k (sign z^2/4)^k / (k! Gamma(mu+k+1)),
        w_k = psi(mu+k+1) + harmonic psi(k+1),

    with ``harmonic`` 0 for the order derivatives of J/I and 1 for K_n.
    The weights step by psi(a+1) = psi(a) + 1/a from one digamma call.  The
    terms carry the prefactor, so they have the scale of the J/I terms and
    the stopping rule of :func:`hyper.sum_series` means the same there; the
    sum is Neumaier-compensated per component like it, and the error
    estimate is 10x the first neglected term.
    """
    rel_tol = cfg.rel_tol
    max_terms = cfg.max_terms
    q = sign * z * z / 4.0
    psi_a = digamma_real(mu + 1.0)
    psi_1 = -EULER_GAMMA
    c = _half_pow(mu, z) / gamma_real(mu + 1.0)
    term = (psi_a + harmonic * psi_1) * c
    re = im = cre = cim = 0.0
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
        a = mu + k + 1.0
        k += 1
        c = c * q / (k * a)
        psi_a += 1.0 / a
        psi_1 += 1.0 / k
        term = (psi_a + harmonic * psi_1) * c
    if converged:
        nxt = abs(term * q) / ((k + 1.0) * (mu + k + 1.0))
    else:
        nxt = abs(term)
    return EvalResult(complex(re + cre, im + cim), 10.0 * nxt, k + 1, converged,
                      () if converged else ("no_convergence",), max_term)


def _f23(nu: float, w: complex, cfg: SeriesConfig) -> EvalResult:
    """2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; w); at -nu, 2F3(-nu, 1/2-nu; 1-nu, 1-nu, 1-2nu; w)."""
    return pfq(HyperSpec((nu, nu + 0.5), (nu + 1.0, nu + 1.0, 2.0 * nu + 1.0), w), cfg)


def _f34(nu: float, w: complex, cfg: SeriesConfig) -> EvalResult:
    """3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; w)."""
    return pfq(HyperSpec((1.0, 1.0, 1.5), (2.0, 2.0, 2.0 - nu, 2.0 + nu), w), cfg)


def dj_dnu(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """Closed form of the order derivative of J_nu at non-integer nu > 0.

    dJ/dnu = -pi J_{-nu}(z) csc(pi nu) / (2 Gamma(nu+1)^2) (z/2)^(2 nu)
               * 2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; -z^2)
             - J_nu(z) [ z^2/(4(1-nu^2)) 3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; -z^2)
                         + log(2/z) + 1/(2 nu) + psi(nu) ]

    The paper's form, kept as an oracle; :func:`dj_dnu_any` is the route.
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
    f1 = _f23(nu, -z * z, p.cfg)
    f2 = _f34(nu, -z * z, p.cfg)
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
    order to full working precision.  The paper's form, kept as an oracle;
    :func:`dk_dnu_any` is the route.
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
    f34 = _f34(nu, z2, p.cfg)
    f23p = _f23(nu, z2, p.cfg)
    f23m = _f23(-nu, z2, p.cfg)
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
    mu, and any mu >= 0).  Unlike the csc-form closed forms it has no pole
    amplification near integer or half-integer orders.
    """
    s = p.psi(mu, sign, 0.0)
    if sign < 0.0:
        z, f = p.zj, p.j(mu)
    else:
        z, f = p.zk, p.i(mu)
    lg = cmath.log(z / 2.0)
    value = f.value * lg - s.value
    est = f.abs_err_estimate * abs(lg) + s.abs_err_estimate
    return EvalResult(value, est, f.terms_used + s.terms_used, s.converged and f.converged,
                      f.flags, max(f.max_abs_term, s.max_abs_term))


def _dk_dnu_direct(nu: float, p: _Point) -> EvalResult:
    """dK/dnu from the differentiated connection formula:

        dK/dnu = (pi / (2 sin(pi nu))) [ -dI/dmu|_{-nu} - dI/dmu|_{+nu} ]
                 - pi cot(pi nu) K_nu(z)

    Regular at half-integers (csc = +-1, cot = 0); removable singularity at
    integers, where :func:`_dk_integer` takes over.  K_nu reuses the two I
    series of the derivatives.
    """
    s = math.sin(PI * nu)
    dim = _dji_dnu_direct(-nu, 1.0, p)
    dip = _dji_dnu_direct(nu, 1.0, p)
    kv = p.k(nu)
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


def _dk_integer(n: int, p: _Point) -> EvalResult:
    """dK/dnu at integer n >= 1 by DLMF 10.38.4:

        dK/dnu|_n = (n! (z/2)^(-n) / 2) sum_{k<n} (z/2)^k K_k(z) / (k! (n-k))
    """
    ks = [p.k(float(k)) for k in range(n)]
    ws = [_half_pow(k - n, p.zk) * (math.factorial(n) / (2 * math.factorial(k) * (n - k)))
          for k in range(n)]
    value = sum((w * kk.value for w, kk in zip(ws, ks)), 0.0 + 0.0j)
    est = sum(abs(w) * (kk.abs_err_estimate + 2e-16 * kk.max_abs_term) for w, kk in zip(ws, ks))
    return EvalResult(value, est, sum(kk.terms_used for kk in ks),
                      all(kk.converged for kk in ks), _degraded_flags(n, p.zk),
                      max(abs(w) * kk.max_abs_term for w, kk in zip(ws, ks)))


def dj_dnu_any(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """dJ/dnu for any nu >= 0, by the term-wise derivative of the series."""
    return _Point(complex(z), None, cfg).dj(nu)


def _dj_dnu_any(nu: float, p: _Point) -> EvalResult:
    if nu < 0.0:
        raise OrderClassError("nu must be >= 0")
    if p.zj == 0:
        raise BranchError("z = 0")
    return _dji_dnu_direct(nu, -1.0, p)


def dk_dnu_any(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """dK/dnu for any nu >= 0: the differentiated connection formula away
    from integers, the finite sum of DLMF 10.38.4 within 1e-6 of an integer
    (0 at nu = 0)."""
    return _Point(None, complex(z), cfg).dk(nu)


def _dk_dnu_any(nu: float, p: _Point) -> EvalResult:
    if nu < 0.0:
        raise OrderClassError("nu must be >= 0")
    if p.zk == 0:
        raise ArgumentZeroError("z = 0")
    n = round(nu)
    if abs(nu - n) > NEAR_EXCLUDED:
        return _dk_dnu_direct(nu, p)
    if n == 0:
        # K is even in the order, so its order derivative vanishes at 0
        return EvalResult(0.0 + 0.0j, 0.0, 0, True, (), 0.0)
    return _dk_integer(n, p)
