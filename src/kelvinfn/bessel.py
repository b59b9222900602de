"""Bessel functions of real order and their order derivatives.

The working regime is |z| <= 20.  Powers use the principal branch
z^nu = exp(nu log z), arg z in (-pi, pi].  Each quantity has one route:

- J_nu and I_nu: the ascending series, with 1/Gamma and psi/Gamma entire,
  at every real order, negative integers included; dJ/dnu and dI/dnu are
  its term-wise order derivative, from the psi-weighted sums of the same
  pass.  On the Kelvin rays the series is summed in real arithmetic
  (:func:`_ray_sums`), at a general complex z by its twin
  (:func:`_z_sums`).
- K_nu and dK/dnu (nu >= 0) on z = e^(i pi/4) x: one trapezoidal sum over
  int_0^inf e^(-z cosh t) (cosh(nu t), t sinh(nu t)) dt (:func:`_ray_k`),
  regular at every order, integers included; past nu = 15 or x = 30 it
  reports no_convergence.
- K_nu at a general z: the connection formula
  (pi/2)(I_{-nu} - I_nu)/sin(pi nu), at an integer its limit, which takes
  the order derivatives of I at +-n (:func:`_k_limit`), and dK/dnu the
  derivative of the connection formula, or DLMF 10.38.4 near an integer
  (:func:`bessel_k`, :func:`dk_dnu_any`).

A :class:`_RayOrder` holds what both series kernels take from the order
alone (Gamma and psi at the anchor, the weights below it, the phase of
ber + i bei), so a kernel run does only the work that depends on the
argument; the K sum reads one table of nodes, which depends on neither.
The Kelvin values and order derivatives call the ray kernels directly, once
each per (nu, x); a caller that evaluates one order at many x (table rows,
integrand nodes, stencils) keeps one dict of orders, so each is set up
once.  One psi run gives a function and its order derivative together, so
nothing is memoised: nothing but the node table outlives the top-level
call.

The paper's closed forms ``dj_dnu`` and ``dk_dnu`` are oracles for the
verify suites and tests only; they read J (or I) at an order from a
function passed to them, so that on the Kelvin rays they read the ray
kernel.  Every public function rejects a non-finite order or argument
first (:func:`_finite`).
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import accumulate, repeat
from operator import mul

from .errors import (ArgumentZeroError, BranchError, DomainError, GammaOverflowError,
                     OrderClassError, PowerOverflowError, SeriesOverflowError)
from .hyper import DEFAULT_SERIES, EvalResult, HyperSpec, SeriesConfig, pfq
from .hyper import sum_series  # noqa: F401  bound here for perfbench/tracing.py, which wraps it
from .scalars import PI, digamma_real, gamma_real

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


class _RayOrder:
    """What the series kernels take from the order mu alone.

    An order is set up once and run at every argument of a top-level call:
    :func:`_ray_sums` and its general-z twin :func:`_z_sums` read the anchor
    k0 = max(0, ceil(-mu)), the divisor k0! Gamma(a0) at a0 = mu+k0+1,
    psi(a0) and the weights r = 1/Gamma and w = psi/Gamma of the k0 terms
    below the anchor; ber + i bei reads :meth:`phase`.  Each part is made by
    the first run that needs it: psi(a0) and w only for the psi sums.  A
    part that overflows is not kept, so it raises from every run that needs
    it, after that run's own checks of (x/2)^mu.  An order holds nothing
    that depends on the argument, and K none of it.
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




def _phase(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def _turn(t: float) -> complex:
    """e^(i pi t) as i^m e^(i pi e), m = round(2t), e = t - m/2 exactly."""
    m = round(2.0 * t)
    return _phase(PI * (t - 0.5 * m)) * (1, 1j, -1, -1j)[m & 3]


def _two_sum(s: float, c: float, v: float) -> tuple[float, float]:
    """s + v, and c plus the rounding error of that sum (Knuth's TwoSum)."""
    n = s + v
    return n, c + ((s - (n - (n - s))) + (v - (n - s)))


def _z_sums(o: _RayOrder, z: complex, sign: float, cfg: SeriesConfig, psi: bool) -> tuple:
    """The twin of :func:`_ray_sums` at a complex z != 0: F = J_mu(z)
    (sign = -1) or I_mu(z) (sign = +1) of the order ``o`` (mu),

        F = sum_k c_k r(mu+k+1),   c_k = (z/2)^mu (sign z^2/4)^k / k!,

    and, with ``psi``, P = sum_k c_k w(mu+k+1) from the same pass, so that
    dF/dmu = log(z/2) F - P at every real order, the negative integers
    included.

    The order is set up and the sum anchored as in :func:`_ray_sums`: the
    k0 terms below the anchor enter as correctly rounded sums of each
    component, and the powers (z/2)^(mu+2k0) and (z/2)^mu are taken before
    the order's Gamma and psi.  From the anchor on each pass adds the terms
    k and k+1, each component Neumaier-compensated (TwoSum error terms), so
    that the run at conj(z) is the exact conjugate of the run at z.  At
    mu = -n the weights below the anchor are exact zeros and each term past
    it is sign^n times the term of the run at n, so F_(-n) = sign^n F_n bit
    for bit.  F stops once both terms of a pass are below rel_tol |F|, the
    same pass with or without ``psi``; P goes on until its terms are below
    rel_tol |P|.  Error estimates are 10x the first neglected term.

    Returns (F, err, terms, converged, max |term|, psi part), the psi part
    None or (P, err P, max P term, terms, converged).
    """
    mu, k0 = o.mu, o.k0
    tol = cfg.rel_tol
    hypot = math.hypot
    q = sign * z * z / 4.0
    t = _half_pow(mu + 2 * k0, z)
    c = _half_pow(mu, z) if k0 else t
    # the terms below the anchor need (z/2)^mu as a normal double
    if k0 and abs(c) < _TINY:
        raise PowerOverflowError(f"(z/2)^{mu:g} underflows double precision at |z| = {abs(z):g}")
    if o.tden is None or psi and o.wa is None:
        o.anchor(psi)
    re = im = cre = cim = mx = 0.0
    plain = None
    if psi:
        wa = o.wa
        pre = pim = pcre = pcim = mp = 0.0
        psi_conv = False
    if k0:
        cs = []
        for k in range(k0):
            cs.append(c)
            c = c * q / (k + 1.0)
        sp = list(map(mul, cs, reversed(o.r)))
        re, im = math.fsum(v.real for v in sp), math.fsum(v.imag for v in sp)
        mx = max(map(abs, sp))
        if psi:
            pp = list(map(mul, cs, reversed(o.w)))
            pre, pim = math.fsum(v.real for v in pp), math.fsum(v.imag for v in pp)
            mp = max(map(abs, pp))
    t /= o.tden
    if sign < 0.0 and k0 & 1:
        t = -t
    for k in range(k0, k0 + cfg.max_terms, 2):
        a = mu + k + 1.0
        u = t * q / ((k + 1.0) * a)
        nt = u * q / ((k + 2.0) * (a + 1.0))
        re, cre = _two_sum(re, cre, t.real)
        im, cim = _two_sum(im, cim, t.imag)
        re, cre = _two_sum(re, cre, u.real)
        im, cim = _two_sum(im, cim, u.imag)
        at, au = abs(t), abs(u)
        mx = max(mx, at, au)
        if plain is None:
            lim = tol * hypot(re, im)
            if at <= lim and au <= lim:
                plain = (complex(re + cre, im + cim), 10.0 * abs(nt), k + 2, True)
                if not psi:
                    break
        if psi:
            vr, vi = wa * t.real, wa * t.imag
            wa += 1.0 / a
            ur, ui = wa * u.real, wa * u.imag
            wa += 1.0 / (a + 1.0)
            pre, pcre = _two_sum(pre, pcre, vr)
            pim, pcim = _two_sum(pim, pcim, vi)
            pre, pcre = _two_sum(pre, pcre, ur)
            pim, pcim = _two_sum(pim, pcim, ui)
            av, aw = hypot(vr, vi), hypot(ur, ui)
            mp = max(mp, av, aw)
            if plain is not None:
                lp = tol * hypot(pre, pim)
                if av <= lp and aw <= lp:
                    psi_conv = True
                    break
        t = nt
    if not math.isfinite(re + im + (pre + pim if psi else 0.0)):
        raise SeriesOverflowError(f"the order-{mu:g} series is not finite at |z| = {abs(z):g}")
    plain = plain or (complex(re + cre, im + cim), 10.0 * abs(nt), k + 2, False)
    if not psi:
        return plain + (mx, None)
    return plain + (mx, (complex(pre + pcre, pim + pcim), 10.0 * abs(wa * nt), mp, k + 2,
                         psi_conv))


def _finite(nu: float, z: complex) -> None:
    """DomainError unless the order nu and the argument z are finite: the
    first check of every public entry."""
    if not (math.isfinite(nu) and cmath.isfinite(z)):
        raise DomainError(f"order and argument must be finite, got nu={nu!r}, x={z!r}")


def _ji(mu: float, z: complex, sign: float, cfg: SeriesConfig,
        psi: bool = False) -> tuple[EvalResult, EvalResult | None]:
    """F = J_mu(z) (sign = -1) or I_mu(z) (sign = +1) at z != 0 from one run
    of :func:`_z_sums`, and with ``psi`` dF/dmu = log(z/2) F - P from the
    same run (else None)."""
    f, err, terms, conv, max_term, ps = _z_sums(_RayOrder(mu), z, sign, cfg, psi)
    flags = (() if conv else ("no_convergence",)) + _degraded_flags(mu, z)
    res = EvalResult(f, err, terms, conv, flags, max_term)
    if ps is None:
        return res, None
    p, p_err, p_max, p_terms, p_conv = ps
    lg = cmath.log(z / 2.0)
    return res, EvalResult(f * lg - p, err * abs(lg) + p_err, p_terms, conv and p_conv, flags,
                           max(abs(lg) * max_term, p_max))


def _bessel_ji(nu: float, z: complex, sign: float, cfg: SeriesConfig) -> EvalResult:
    _finite(nu, z)
    z = complex(z)
    if z == 0:
        if nu < 0.0 and nu != round(nu):
            raise BranchError("z = 0 with negative non-integer order")
        # 1/Gamma(nu+1) vanishes at the negative integers, so F_(-n)(0) = 0
        return EvalResult(1.0 + 0.0j if nu == 0.0 else 0.0j, 0.0, 1, True,
                          _degraded_flags(nu, z))
    return _ji(nu, z, sign, cfg)[0]


def bessel_j(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """J_nu(z) by the ascending series sum_k (-1)^k (z/2)^(nu+2k) / (k! Gamma(nu+k+1)),
    1/Gamma entire, at every real order (0 at z = 0 and a negative integer order)."""
    return _bessel_ji(nu, z, -1.0, cfg)


def bessel_i(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """I_nu(z), the (+1)^k counterpart of :func:`bessel_j`."""
    return _bessel_ji(nu, z, 1.0, cfg)


def bessel_k(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """K_nu(z), even in nu.

    Away from integers: the connection formula
    K = (pi/2)(I_{-nu} - I_nu)/sin(pi nu), whose error estimate is amplified
    by the csc factor and by the cancellation budget of the I series.  At
    integer n: its limit (:func:`_k_limit`); within 1e-6 of n,
    K_n + (nu - n) dK/dnu.
    """
    _finite(nu, z)
    z = complex(z)
    if z == 0:
        raise ArgumentZeroError("K_nu undefined at z = 0")
    nu = abs(nu)  # K is even in the order
    n = round(nu)
    if abs(nu - n) > NEAR_EXCLUDED:
        return _k_connection(nu, z, _ji(-nu, z, 1.0, cfg)[0], _ji(nu, z, 1.0, cfg)[0])
    kn = _k_limit(n, z, cfg)
    if nu == n or n == 0:
        # K is even in the order, so K_nu = K_0 + O(nu^2) next to 0
        return kn
    # one step from K_n, off by (nu - n)^2 K''/2: about step^2/K where log K
    # is near linear in the order
    dk = _dk_integer(n, z, cfg)
    step = (nu - n) * dk.value
    est = abs(nu - n) * dk.abs_err_estimate + abs(step) ** 2 / abs(kn.value)
    return EvalResult(kn.value + step, kn.abs_err_estimate + est, kn.terms_used + dk.terms_used,
                      kn.converged and dk.converged, kn.flags, kn.max_abs_term)


def _k_connection(nu: float, z: complex, im: EvalResult, ip: EvalResult) -> EvalResult:
    """K_nu(z) from I_{-nu} (``im``) and I_nu (``ip``) by the connection formula."""
    s = math.sin(PI * nu)
    amp = PI / (2.0 * abs(s))
    value = (PI / 2.0) * (im.value - ip.value) / s
    # cancellation floor: the I series are summed to ~1 ulp of their largest term
    cancel = 2e-16 * (im.max_abs_term + ip.max_abs_term)
    est = amp * (im.abs_err_estimate + ip.abs_err_estimate + cancel)
    return EvalResult(value, est, im.terms_used + ip.terms_used,
                      im.converged and ip.converged, _degraded_flags(nu, z),
                      max(im.max_abs_term, ip.max_abs_term))


def _k_limit(n: int, z: complex, cfg: SeriesConfig) -> EvalResult:
    """K_n(z) at integer n >= 0, the limit of the connection formula
    (DLMF 10.27.4) at the integer,

        K_n(z) = ((-1)^(n-1)/2) (dI/dnu|_n + dI/dnu|_(-n)),

    each order derivative log(z/2) I - P from one psi run of :func:`_z_sums`.
    Below its anchor the run at -n takes the weights psi/Gamma at the poles
    -m of Gamma, (-1)^(m+1) m!: the finite sum of DLMF 10.31.1.
    """
    dm = _ji(-float(n), z, 1.0, cfg, True)[1]
    dp = _ji(float(n), z, 1.0, cfg, True)[1]
    value = (0.5 if n % 2 else -0.5) * (dp.value + dm.value)
    if not cmath.isfinite(value):
        raise SeriesOverflowError(f"K_{n} is not finite at |z| = {abs(z):g}")
    est = 0.5 * (dp.abs_err_estimate + dm.abs_err_estimate
                 + 2e-16 * (dp.max_abs_term + dm.max_abs_term))
    return EvalResult(value, est, dp.terms_used + dm.terms_used, dp.converged and dm.converged,
                      _degraded_flags(n, z), max(dp.max_abs_term, dm.max_abs_term))


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
    _finite(nu, z)
    z = complex(z)
    return _dj_dnu(nu, z, lambda mu: bessel_j(mu, z, cfg), cfg)[0]


def _dj_dnu(nu: float, z: complex, j, cfg: SeriesConfig) -> tuple[EvalResult, EvalResult]:
    """:func:`dj_dnu` with J_mu(z) read as j(mu), and the J_nu it read."""
    if nu <= 0.0 or _is_near_int(nu, ORDER_EPS):
        raise OrderClassError(f"dJ/dnu closed form invalid at nu = {nu}")
    if z == 0:
        raise BranchError("z = 0")
    jm = j(-nu)
    jp = j(nu)
    f1 = _f23(nu, -z * z, cfg)
    f2 = _f34(nu, -z * z, cfg)
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
                      max(jm.max_abs_term, jp.max_abs_term)), jp


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
    _finite(nu, z)
    z = complex(z)
    return _dk_dnu(nu, z, lambda mu: bessel_i(mu, z, cfg), cfg)


def _dk_dnu(nu: float, z: complex, i, cfg: SeriesConfig) -> EvalResult:
    """:func:`dk_dnu` with I_mu(z) read as i(mu)."""
    if nu <= 0.0 or _is_near_int(2.0 * nu, ORDER_EPS):
        raise OrderClassError(f"dK/dnu closed form invalid at nu = {nu}")
    if z == 0:
        raise ArgumentZeroError("z = 0")
    ip = i(nu)
    im = i(-nu)
    z2 = z * z
    f34 = _f34(nu, z2, cfg)
    f23p = _f23(nu, z2, cfg)
    f23m = _f23(-nu, z2, cfg)
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


def _dk_dnu_direct(nu: float, z: complex, cfg: SeriesConfig) -> EvalResult:
    """dK/dnu from the differentiated connection formula:

        dK/dnu = (pi / (2 sin(pi nu))) [ -dI/dmu|_{-nu} - dI/dmu|_{+nu} ]
                 - pi cot(pi nu) K_nu(z)

    Regular at half-integers (csc = +-1, cot = 0); removable singularity at
    integers, where :func:`_dk_integer` takes over.  I_{-nu}, I_nu and their
    order derivatives come from one psi run each, and K_nu from the same
    two I.
    """
    im, dim = _ji(-nu, z, 1.0, cfg, True)
    ip, dip = _ji(nu, z, 1.0, cfg, True)
    kv = _k_connection(nu, z, im, ip)
    s = math.sin(PI * nu)
    value = (PI / (2.0 * s)) * (-dim.value - dip.value) \
        - PI * (math.cos(PI * nu) / s) * kv.value
    amp = PI / (2.0 * abs(s))
    est = amp * (dim.abs_err_estimate + dip.abs_err_estimate
                 + 2e-16 * (dim.max_abs_term + dip.max_abs_term)) \
        + PI * abs(math.cos(PI * nu) / s) * kv.abs_err_estimate
    return EvalResult(value, est, dim.terms_used + dip.terms_used,
                      dim.converged and dip.converged, _degraded_flags(nu, z),
                      max(dim.max_abs_term, dip.max_abs_term))


def _dk_integer(n: int, z: complex, cfg: SeriesConfig) -> EvalResult:
    """dK/dnu at integer n >= 1 by DLMF 10.38.4:

        dK/dnu|_n = (n! (z/2)^(-n) / 2) sum_{k<n} (z/2)^k K_k(z) / (k! (n-k))
    """
    ks = [_k_limit(k, z, cfg) for k in range(n)]
    ws = [_half_pow(k - n, z) * (math.factorial(n) / (2 * math.factorial(k) * (n - k)))
          for k in range(n)]
    value = sum((w * kk.value for w, kk in zip(ws, ks)), 0.0 + 0.0j)
    est = sum(abs(w) * (kk.abs_err_estimate + 2e-16 * kk.max_abs_term) for w, kk in zip(ws, ks))
    return EvalResult(value, est, sum(kk.terms_used for kk in ks),
                      all(kk.converged for kk in ks), _degraded_flags(n, z),
                      max(abs(w) * kk.max_abs_term for w, kk in zip(ws, ks)))


def dj_dnu_any(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """dJ/dnu for any nu >= 0, by the term-wise derivative of the series,
    log(z/2) J_nu - P with the psi sum P of the same run:

        P = (z/2)^nu sum_k (-1)^k psi(nu+k+1) (z^2/4)^k / (k! Gamma(nu+k+1))

    Unlike the csc-form closed form it has no pole amplification near
    integer or half-integer orders.
    """
    _finite(nu, z)
    z = complex(z)
    if nu < 0.0:
        raise OrderClassError("nu must be >= 0")
    if z == 0:
        raise BranchError("z = 0")
    return _ji(nu, z, -1.0, cfg, True)[1]


def dk_dnu_any(nu: float, z: complex, cfg: SeriesConfig = DEFAULT_SERIES) -> EvalResult:
    """dK/dnu for any nu >= 0: the differentiated connection formula away
    from integers, the finite sum of DLMF 10.38.4 within 1e-6 of an integer
    (0 at nu = 0)."""
    _finite(nu, z)
    z = complex(z)
    if nu < 0.0:
        raise OrderClassError("nu must be >= 0")
    if z == 0:
        raise ArgumentZeroError("z = 0")
    n = round(nu)
    if abs(nu - n) > NEAR_EXCLUDED:
        return _dk_dnu_direct(nu, z, cfg)
    if n == 0:
        # K is even in the order, so its order derivative vanishes at 0
        return EvalResult(0.0 + 0.0j, 0.0, 0, True, (), 0.0)
    return _dk_integer(n, z, cfg)
