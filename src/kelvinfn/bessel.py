"""Bessel functions of real order and their order derivatives.

The working regime is |z| <= 20.  Powers use the principal branch
z^nu = exp(nu log z), arg z in (-pi, pi].  On the Kelvin rays, where every
Kelvin value and order derivative is taken, each quantity has one route:

- J_nu and I_nu: the ascending series, with 1/Gamma and psi/Gamma entire,
  at every real order (:func:`_ray_sums`); dJ/dnu is its term-wise order
  derivative, from the psi-weighted sums of the same pass.
- K_nu and dK/dnu (nu >= 0) on z = e^(i pi/4) x: one trapezoidal sum over
  int_0^inf e^(-z cosh t) (cosh(nu t), t sinh(nu t)) dt (:func:`_ray_k`),
  regular at every order, integers included; past nu = 15 or x = 30 it
  reports no_convergence.

A :class:`_RayOrder` holds what :func:`_ray_sums` takes from the order
alone (Gamma and psi at the anchor, the weights below it, the phase of
ber + i bei), so the kernel does only the work that depends on x; the K
sum reads one table of nodes, which depends on neither.  The Kelvin values
and order derivatives call the two kernels directly, once each per (nu, x);
a caller that evaluates one order at many x (table rows, integrand nodes,
stencils) keeps one dict of orders, so each is set up once.  A
:class:`_RayPoint` holds one x and runs each kernel at most once per order,
read as J, I, K and their order derivatives by the paper's closed forms.
Nothing but the node table outlives the top-level call.

At a general complex z (the public functions, one :class:`_Point` per
call) J and I go through :func:`hyper.sum_series`, the psi sums through
:func:`_psi_sum`, and K and dK/dnu through the connection formula and its
order derivative, or DLMF 10.31.1 and 10.38.4 near an integer
(:func:`bessel_k`, :func:`dk_dnu_any`).  The paper's closed forms
``dj_dnu`` and ``dk_dnu`` are oracles for the verify suites and tests only.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import accumulate, repeat
from operator import mul

from .errors import (ArgumentZeroError, BranchError, GammaOverflowError, OrderClassError,
                     PowerOverflowError, SeriesOverflowError)
from .hyper import DEFAULT_SERIES, EvalResult, HyperSpec, SeriesConfig, pfq, sum_series
from .scalars import EULER_GAMMA, PI, digamma_real, gamma_real

# Orders closer than this to an excluded value are classified as excluded.
ORDER_EPS = 1e-9
# Orders closer than this to an integer n step from K_n (in dk_dnu_any, take dK/dnu|_n).
NEAR_EXCLUDED = 1e-6

# Step of the trapezoidal rule for K and dK/dnu on the Kelvin ray (:func:`_ray_k`),
# and the order and argument past which it no longer resolves their integrands
DK_STEP = 0.07
K_MAX_ORDER = 15.0
K_MAX_ARG = 30.0

_DEGRADED_ABS_Z = 20.0
_DEGRADED_ORDER = 10.0
_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon
_HALF_SQRT2 = math.sqrt(0.5)
_LN2 = math.log(2.0)


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


class _RayOrder:
    """What the Kelvin-ray kernels take from the order mu alone.

    An order is set up once and run at every argument of a top-level call:
    :func:`_ray_sums` reads the anchor k0 = max(0, ceil(-mu)), the divisor
    k0! Gamma(a0) at a0 = mu+k0+1, psi(a0) and the weights r = 1/Gamma and
    w = psi/Gamma of the k0 terms below the anchor; ber + i bei reads
    :meth:`phase`.  Each part is made by the first run that needs it: psi(a0)
    and w only for the psi sums.  A part that overflows is not kept, so it
    raises from every run that needs it, after that run's own checks of
    (x/2)^mu.  An order holds nothing that depends on x, and K none of it.
    """

    __slots__ = ("mu", "k0", "g0", "tden", "r", "wa", "w", "bb")

    def __init__(self, mu: float):
        self.mu = mu
        self.k0 = 0 if mu >= 0.0 else math.ceil(-mu)
        self.tden = self.wa = self.bb = None

    def anchor(self, psi: bool) -> None:
        """Set up k0! Gamma(a0) and r(mu+k+1), k < k0; with ``psi`` also
        psi(a0) and w(mu+k+1).  Below the anchor r(a-1) = (a-1) r(a) and
        w(a-1) = (a-1) w(a) - r(a) divide by nothing (an exact 0 at a pole)."""
        mu, k0 = self.mu, self.k0
        a0 = mu + k0 + 1.0
        if self.tden is None:
            g0 = gamma_real(a0)
            if k0:
                if k0 > 170:
                    raise GammaOverflowError(f"1/gamma({mu + 1.0:g}) overflows double precision")
                r = [1.0 / g0]  # r at a0, a0 - 1, ..., mu + 1
                for k in range(k0 - 1, -1, -1):
                    r.append((mu + k + 1.0) * r[-1])
                if not math.isfinite(r[-1]):
                    raise GammaOverflowError(f"1/gamma({mu + 1.0:g}) overflows double precision")
                self.r = r
            self.g0 = g0
            self.tden = math.factorial(k0) * g0
        if psi and self.wa is None:
            wa = digamma_real(a0)
            if k0:
                r = self.r
                w = [wa / self.g0]
                for k, rk in zip(range(k0 - 1, -1, -1), r):
                    w.append((mu + k + 1.0) * w[-1] - rk)
                if not math.isfinite(r[-1] + w[-1]):
                    raise GammaOverflowError(f"1/gamma({mu + 1.0:g}) overflows double precision")
                self.w = w
            self.wa = wa

    def phase(self) -> complex:
        """e^(i pi (3 mu/4 + k0/2)), which turns the anchored sum T into
        ber_mu + i bei_mu."""
        p = self.bb
        if p is None:
            p = self.bb = _turn(0.75 * self.mu + 0.5 * self.k0)
        return p


def _order(orders: dict, mu: float) -> _RayOrder:
    """The order mu of ``orders``, set up on first use."""
    o = orders.get(mu)
    if o is None:
        o = orders[mu] = _RayOrder(mu)
    return o


# The nodes t_k = k DK_STEP of _ray_k, k = 1, 2, ..., each the one before
# plus DK_STEP, and cosh t_k, for every order and argument.  A run that
# needs more rebinds a longer copy, so a table once read never changes
# under a run in another thread.  Past t = 700 cosh t nears overflow.
_DK_NODES: tuple[tuple, tuple] = ((), ())
_MAX_NODES = 10000


def _dk_nodes(n: int) -> tuple[tuple, tuple]:
    """(t_k, cosh t_k) for at least min(n, ``_MAX_NODES``) nodes, extending the table."""
    global _DK_NODES
    ts, chs = _DK_NODES
    n = min(n, _MAX_NODES)
    if len(ts) < n:
        more = tuple(accumulate(repeat(DK_STEP, n - len(ts)), initial=ts[-1] if ts else 0.0))[1:]
        ts, chs = ts + more, chs + tuple(map(math.cosh, more))
        _DK_NODES = (ts, chs)
    return ts, chs


def _ray_sums(o: _RayOrder, x: float, cfg: SeriesConfig, psi: bool) -> tuple:
    """The Kelvin-ray series of the order ``o`` (mu) at x > 0, in real
    arithmetic:

        S = sum_k i^k a_k,   a_k = (x/2)^(mu+2k) r(mu+k+1) / k!,

    and, with ``psi``, P = sum_k i^k (x/2)^(mu+2k) w(mu+k+1) / k! from the
    same pass.  r = 1/Gamma and w = psi/Gamma are entire
    (DLMF 5.5), so one series serves every real order, the negative integers
    included, and dS/dmu = log(x/2) S - P.

    The sum is anchored at k0 = max(0, ceil(-mu)), so that a0 = mu+k0+1 is
    at least 1, and below 2 if k0 > 0 (the kernel interval of
    ``gamma_real``): one Gamma(a0), one psi(a0), none at a negative
    argument, all taken once per order (:class:`_RayOrder`).  The k0 terms
    below the anchor enter as correctly rounded sums.  The sums are returned
    as T = i^(-k0) S (P likewise), so that the caller folds i^k0 into
    its one phase (:meth:`_RayOrder.phase`); the run at -n is the run at n,
    bit for bit.

    From the anchor on, each pass adds an even k - k0 to the real parts and
    the next k to the imaginary ones, Neumaier-compensated (TwoSum error
    terms), with psi(a+1) = psi(a) + 1/a.  S stops once both terms of a pass
    are below rel_tol |S|, the same pass with or without ``psi``; P goes on
    until its terms are below rel_tol |P|.  Error estimates are 10x the
    first neglected term.

    Returns (T, err, terms, converged, max |a_k|, psi part), the psi part
    None or (P, err P, max P term, terms, converged).
    """
    mu, k0 = o.mu, o.k0
    tol = cfg.rel_tol
    hypot = math.hypot
    q = 0.25 * x * x
    try:
        t = (0.5 * x) ** (mu + 2 * k0)
        c = (0.5 * x) ** mu if k0 else t
    except (OverflowError, ZeroDivisionError):  # the latter where x/2 is 0 and mu < 0
        raise PowerOverflowError(
            f"(x/2)^{mu:g} overflows double precision at x = {x:g}") from None
    # the terms below the anchor need (x/2)^mu as a normal double
    if k0 and c < _TINY:
        raise PowerOverflowError(f"(x/2)^{mu:g} underflows double precision at x = {x:g}")
    if o.tden is None or psi and o.wa is None:
        o.anchor(psi)
    re = im = cre = cim = mx = 0.0
    plain = None
    if psi:
        wa = o.wa
        pre = pim = pcre = pcim = mp = 0.0
        psi_conv = False
    if k0:
        # c (x/2)^2k / k! times i^(k-k0), k = 0 .. k0-1: re from even k - k0
        vs = []
        for k in range(k0):
            vs.append(-c if (k - k0) & 2 else c)
            c *= q / (k + 1.0)
        sp = list(map(mul, vs, reversed(o.r)))
        re, im = math.fsum(sp[k0 & 1::2]), math.fsum(sp[1 - (k0 & 1)::2])
        mx = max(map(abs, sp))
        if psi:
            pp = list(map(mul, vs, reversed(o.w)))
            pre, pim = math.fsum(pp[k0 & 1::2]), math.fsum(pp[1 - (k0 & 1)::2])
            mp = max(map(abs, pp))
    t /= o.tden
    for k in range(k0, k0 + cfg.max_terms, 2):
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
            if plain is not None:
                lp = tol * hypot(pre, pim)
                if -lp <= v <= lp and -lp <= v2 <= lp:
                    psi_conv = True
                    break
        t = nt
    if not math.isfinite(re + im + (pre + pim if psi else 0.0)):
        raise SeriesOverflowError(f"the order-{mu:g} series is not finite at x = {x:g}")
    plain = plain or (complex(re + cre, im + cim), 10.0 * abs(nt), k + 2, False)
    if not psi:
        return plain + (mx, None)
    return plain + (mx, (complex(pre + pcre, pim + pcim), 10.0 * abs(wa * nt), mp, k + 2,
                         psi_conv))


def _ray_k(nu: float, x: float, cfg: SeriesConfig, dk: bool) -> tuple:
    """K_nu at nu >= 0 on the Kelvin ray z = e^(i pi/4) x, x > 0, and with
    ``dk`` dK/dnu, by one trapezoidal sum h (f(0)/2 + sum_k f(kh)), step
    h = ``DK_STEP``, over

        K_nu(z)   = int_0^inf cosh(nu t) e^(-z cosh t) dt     (DLMF 10.32.9)
        dK/dnu(z) = int_0^inf t sinh(nu t) e^(-z cosh t) dt,

    e^(-z cosh t) = e^(-c) (cos c - i sin c), c = x cosh(t)/sqrt(2), taken
    once per node of a shared table (:func:`_dk_nodes`); a dK/dnu term is
    the K term times t tanh(nu t).  The integrands are analytic in
    |Im t| < pi/4 and decay doubly exponentially, so the rule converges
    geometrically in 1/h (Trefethen and Weideman, SIAM Review 56, 2014): to
    3e-12 of 40-digit sums at nu <= ``K_MAX_ORDER``, x <= ``K_MAX_ARG``.
    Past them the step no longer resolves the integrand (7e-10 off at
    nu = 20, x = 1; 3e-9 at nu = 10, x = 100): both sums report no_convergence.

    Each pass adds an odd and an even node.  The terms f e^(-c) rise to one
    peak and then fall, so K stops once the terms of a pass fall and are
    below rel_tol |K|, |K| read again only when they pass the bound last
    read: the same pass, so the same bits, with or without ``dk``; by
    t = log(2/x) + 5 at nu <= ``K_MAX_ORDER``.  K sums at most
    ``cfg.max_terms`` nodes past t = max(0, log(2/x)), where e^(-c) starts
    to decay, and none past the table's end, t = 700 (x below 1e-304);
    dK/dnu goes on to its own rule, within ``cfg.max_terms`` nodes from
    t = 0.  A sum stopped by a cap is unconverged: no_convergence, infinite
    estimate, as the tail is unknown.

    The even nodes with t = 0 are the rule T_2h, off by about
    e = |T_h - T_2h|.  Halving h raises the relative error to a power p,
    against 34-digit sums 2 to 3 at nu <= 3 and 3.7 to 7 at nu in [10, 15];
    the estimates take p = 3, |T_h| (e/|T_h|)^3, plus the rounding floor
    n eps h sum_k |f(kh)| over the n nodes.

    Returns (K, dK/dnu or None), each a plain tuple (value, abs error
    estimate, nodes, converged) (:func:`_trapezoid`).  Raises PowerOverflowError where
    (x/2)^(-nu), the scale of K near 0, overflows.
    """
    try:
        (0.5 * x) ** -nu
    except (OverflowError, ZeroDivisionError):
        raise PowerOverflowError(
            f"(x/2)^{-nu:g} overflows double precision at x = {x:g}") from None
    na = -_HALF_SQRT2 * x  # m = na cosh t is -c, so the sine sums carry -sin c
    tol = cfg.rel_tol
    exp, cos, sin, cosh = math.exp, math.cos, math.sin, math.cosh
    tanh, hypot = math.tanh, math.hypot
    top = min(_MAX_NODES, max(0, int((_LN2 - math.log(x)) / DK_STEP)) + cfg.max_terms)
    ts, chs = _dk_nodes(top)
    w = 0.5 * exp(na)  # f(0)/2, summed with the even nodes
    ore = oim = dore = doim = dere = deim = dmag = 0.0
    ere, eim, mag = w * cos(na), w * sin(na), w
    ks = None  # K's sums once it stops
    lim = dlim = math.inf  # rel_tol |K| and rel_tol |dK/dnu| as last read
    dconv = False
    i = -2  # a pass adds the nodes at index i and i + 1 of the tables
    try:
        if dk:
            # the K arithmetic of the loop below; each dK/dnu term is the K term times t tanh(nu t)
            for i in range(0, min(top, cfg.max_terms) - 1, 2):
                t = ts[i]
                m = na * chs[i]
                w = cosh(nu * t) * exp(m)
                p, q = w * cos(m), w * sin(m)
                ore, oim = ore + p, oim + q
                t *= tanh(nu * t)
                u = w * t
                dore, doim = dore + p * t, doim + q * t
                t = ts[i + 1]
                m = na * chs[i + 1]
                w2 = cosh(nu * t) * exp(m)
                p, q = w2 * cos(m), w2 * sin(m)
                ere, eim = ere + p, eim + q
                t *= tanh(nu * t)
                u2 = w2 * t
                dere, deim = dere + p * t, deim + q * t
                mag += w + w2
                dmag += u + u2
                if ks is None and w2 <= w and w <= lim:
                    lim = tol * hypot(ore + ere, oim + eim)
                    if w <= lim:
                        ks = (ore, oim, ere, eim, mag, i + 2)
                if ks is not None and u2 <= u and u <= dlim:
                    dlim = tol * hypot(dore + dere, doim + deim)
                    if u <= dlim:
                        dconv = True
                        break
        dn = i + 2
        if ks is None:
            # K alone, or on from where the dK/dnu sum stopped short of it
            for i in range(dn, top - 1, 2):
                m = na * chs[i]
                w = cosh(nu * ts[i]) * exp(m)
                ore, oim = ore + w * cos(m), oim + w * sin(m)
                m = na * chs[i + 1]
                w2 = cosh(nu * ts[i + 1]) * exp(m)
                ere, eim = ere + w2 * cos(m), eim + w2 * sin(m)
                mag += w + w2
                if w2 <= w and w <= lim:
                    lim = tol * hypot(ore + ere, oim + eim)
                    if w <= lim:
                        ks = (ore, oim, ere, eim, mag, i + 2)
                        break
    except OverflowError:
        raise SeriesOverflowError(
            f"the K quadrature at order {nu:g} overflows at x = {x:g}") from None
    if not math.isfinite(mag + dmag):
        raise SeriesOverflowError(f"the K quadrature at order {nu:g} is not finite at x = {x:g}")
    ok = nu <= K_MAX_ORDER and x <= K_MAX_ARG
    k = _trapezoid(*(ks or (ore, oim, ere, eim, mag, i + 2)), ok and ks is not None)
    return k, (_trapezoid(dore, doim, dere, deim, dmag, dn, ok and dconv) if dk else None)


def _trapezoid(ore: float, oim: float, ere: float, eim: float, mag: float, n: int,
               converged: bool) -> tuple:
    """(T_h, abs error estimate, n, converged) of :func:`_ray_k` from its odd
    and even sums of f e^(-c) cos c and -f e^(-c) sin c over n nodes, the
    f e^(-c) adding up to ``mag``."""
    h = DK_STEP
    value = complex(h * (ore + ere), h * (oim + eim))
    if not converged:
        return value, math.inf, n, False
    size = abs(value)
    e = h * math.hypot(ore - ere, oim - eim)
    return value, (e * (e / size) ** 2 if size else 0.0) + n * _EPS * h * mag, n, True


class _Point:
    """The series of one evaluation point, each summed at most once.

    J_mu is summed at ``zj`` and I_mu at ``zk``, where K_nu takes them; K_nu
    and both order derivatives are kept as well.  A point lives for one
    top-level call; nothing is kept between calls.  :class:`_RayPoint`, the
    point of the Kelvin functions, takes K from a quadrature instead.
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

    def psi(self, mu: float, sign: float, harmonic: float = 0.0) -> EvalResult:
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


def _turn(t: float) -> complex:
    """e^(i pi t) as i^m e^(i pi e), m = round(2t), e = t - m/2 exactly."""
    m = round(2.0 * t)
    return _phase(PI * (t - 0.5 * m)) * (1, 1j, -1, -1j)[m & 3]


class _RayPoint(_Point):
    """The point x > 0 of the Kelvin functions: zj = e^(-i pi/4) x and
    zk = e^(i pi/4) x.

    There -zj^2/4 = zk^2/4 = i x^2/4, so J_mu(zj) = e^(-i pi mu/4) S and
    I_mu(zk) = e^(i pi mu/4) S share the real series S of :func:`_ray_sums`,
    and the psi sums of dJ/dmu and dI/dmu take the same phases, each one
    :func:`_turn` with the i^k0 of the anchored sum folded in.  K and dK/dnu
    come from one trapezoidal sum, :func:`_ray_k`, and need no series.
    Each kernel runs once per order, with the psi sums (the dK/dnu sum) if
    they are asked for before J or I (before K) of that order; a later
    request runs the kernel again, so the order derivatives ask first.
    Each order (:class:`_RayOrder`) is set up once, among the results.  The
    point serves the paper's closed forms and the tests; the Kelvin values
    and ``dkelvin`` call the kernels directly.
    """

    __slots__ = ("x",)

    def __init__(self, zj: complex, zk: complex, x: float, cfg: SeriesConfig):
        super().__init__(zj, zk, cfg)
        self.x = x

    def run(self, mu: float, psi: bool) -> tuple[_RayOrder, tuple]:
        """The order mu and its series run at x, with the psi sums if ``psi``."""
        o = _order(self.memo, mu)
        key = ("ray", mu)
        r = self.memo.get(key)
        if r is None or (psi and r[5] is None):
            r = self.memo[key] = _ray_sums(o, self.x, self.cfg, psi)
        return o, r

    def ksum(self, nu: float, dk: bool) -> tuple[EvalResult, EvalResult | None]:
        """K at nu >= 0 and, if ``dk``, dK/dnu, from one run of :func:`_ray_k` at x,
        each with its flags."""
        key = ("k", nu)
        r = self.memo.get(key)
        if r is None or (dk and r[1] is None):
            k, d = _ray_k(nu, self.x, self.cfg, dk)
            r = self.memo[key] = (self._flagged(nu, k), d and self._flagged(nu, d))
        return r

    def _flagged(self, nu: float, s: tuple) -> EvalResult:
        """The sum ``s`` of :func:`_ray_k` at order nu, with its flags."""
        flags = (() if s[3] else ("no_convergence",)) + _degraded_flags(nu, self.x)
        return EvalResult(*s, flags)

    def rotated(self, mu: float, c: float) -> EvalResult:
        """e^(i pi c mu) S of order mu: c = -1/4 gives J_mu(zj), 1/4
        I_mu(zk) and 3/4 ber_mu + i bei_mu."""
        o, (s, err, terms, conv, max_term, _) = self.run(mu, False)
        flags = (() if conv else ("no_convergence",)) + _degraded_flags(mu, self.zk)
        return EvalResult(_turn(c * mu + 0.5 * o.k0) * s, err, terms, conv, flags, max_term)

    def j(self, mu: float) -> EvalResult:
        return self._once(("j", mu), self.rotated, mu, -0.25)

    def i(self, mu: float) -> EvalResult:
        return self._once(("i", mu), self.rotated, mu, 0.25)

    def psi(self, mu: float, sign: float) -> EvalResult:
        o, (*_, (sp, err_p, max_p, terms, conv)) = self.run(mu, True)
        return EvalResult(_turn(0.25 * sign * mu + 0.5 * o.k0) * sp, err_p, terms, conv,
                          () if conv else ("no_convergence",), max_p)

    def k(self, nu: float) -> EvalResult:
        """K_nu at nu >= 0, by :func:`_ray_k`."""
        return self.ksum(nu, False)[0]

    def dk(self, nu: float) -> EvalResult:
        """dK/dnu at nu >= 0, from the same sum as K."""
        return self.ksum(nu, True)[1]


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
    integer n: the logarithmic series of DLMF 10.31.1 for K_n; within 1e-6
    of n, K_n + (nu - n) dK/dnu.
    """
    return _bessel_k(nu, _Point(None, complex(z), cfg))


def _bessel_k(nu: float, p: _Point) -> EvalResult:
    if p.zk == 0:
        raise ArgumentZeroError("K_nu undefined at z = 0")
    nu = abs(nu)  # K is even in the order
    n = round(nu)
    if abs(nu - n) > NEAR_EXCLUDED:
        return _k_connection(nu, p)
    kn = _k_integer(n, p)
    if nu == n:
        return kn
    # one step from K_n, off by (nu - n)^2 K''/2: about step^2/K where log K
    # is near linear in the order, and step/2 at n = 0 (K even, K' = nu K'')
    dk = p.dk(nu)
    step = (nu - n) * dk.value
    est = abs(nu - n) * dk.abs_err_estimate + (0.5 * abs(step) if n == 0 else
                                               abs(step) ** 2 / abs(kn.value))
    return EvalResult(kn.value + step, kn.abs_err_estimate + est, kn.terms_used + dk.terms_used,
                      kn.converged and dk.converged, kn.flags, kn.max_abs_term)


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
    if not cmath.isfinite(value):
        raise SeriesOverflowError(f"K_{n} is not finite at |z| = {abs(z):g}")
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

    At a :class:`_RayPoint` the weights are the entire psi/Gamma of
    :func:`_ray_sums`, so it holds at every real order, negative integers
    included; at a general z (:func:`_psi_sum`) whenever mu+k+1 never hits
    a nonpositive integer (any non-integer mu, and any mu >= 0).  Unlike
    the csc-form closed forms it has no pole amplification near integer or
    half-integer orders.
    """
    s = p.psi(mu, sign)
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
