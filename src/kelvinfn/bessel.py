"""Bessel functions of real order and their order derivatives.

The working regime is |z| <= 20.  Powers use the principal branch
z^nu = exp(nu log z), arg z in (-pi, pi].  Each quantity has one route:

- J_nu and I_nu: the ascending series, with 1/Gamma and psi/Gamma entire,
  at every real order, negative integers included; dJ/dnu and dI/dnu are
  its term-wise order derivative, from the psi-weighted sums of the same
  pass.  On the Kelvin rays the series is summed in real arithmetic
  (:func:`_ray_sums`), at a general complex z by its twin
  (:func:`_z_sums`).
- K_nu and dK/dnu, even and odd in nu, at every order: one start record
  near mu = |nu| - floor(|nu|) from a start chosen by |z| alone, Temme's
  series at |z| <= 1.2 (0.5 for dK/dnu) and above one trapezoidal sum over
  int_0^inf cosh(mu t) e^(-z cosh t) dt on a contour bent towards steepest
  descent, at every Re z >= 0, the imaginary axis included, then one climb
  to |nu| and one estimate (:func:`_k_sums`); past |z| = 30 the sum reports
  no_convergence.  At Re z < 0 K is refused (BranchError): the
  continuation there (DLMF 10.34.2) cancels, dK/dnu 2e-7 off at |z| = 20.

A :class:`_RayOrder` holds what the series kernels take from the order
alone (Gamma and psi at the anchor, the weights below it, the phase of
ber + i bei), so a kernel run does only the work that depends on the
argument; the K starts read fixed tables (on the Kelvin ray the contour's
nodes per step, Gamma_1 and Gamma_2), which depend on neither.
The Kelvin values and order derivatives call the ray kernels directly, once
each per (nu, x); a caller that evaluates one order at many x sets it up
once: orders over an x grid (a table, ``eval``, a verify suite call) run
as one plan (``orderderiv._plan_rows``), and integrand nodes, stencils
and the value rows of a suite run the kernels on one set-up per integral
or order; a plan of several orders and the ODE suite keep one dict of K
starts, one per (mu, z), which also answers a repeat of a K request (same
|nu|, z and dk).  One psi run gives a function and its order derivative
together, and nothing but the node tables outlives the top-level call.

The paper's closed forms ``dj_dnu`` and ``dk_dnu`` are oracles for the
verify suites and tests only; they read J (or I) at nu and -nu from one
run of :func:`_z_sums` each (:func:`_ji`), on the Kelvin rays as at every
other z, so the ray kernel serves only the Kelvin values and order
derivatives.  Every public function rejects a non-finite order or argument
first (:func:`_finite`).  The complex API flags a result ``degraded`` where
its own estimate is above ``DEGRADED_REL`` of its value (:func:`_result`).
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import mul

from .errors import (ArgumentZeroError, BranchError, ConvergenceError, DomainError,
                     GammaOverflowError, OrderClassError, PowerOverflowError,
                     SeriesOverflowError)
from . import hyper
from .hyper import EvalResult, pfq
from .hyper import sum_series  # noqa: F401  bound here for perfbench/tracing.py, which wraps it
from .scalars import PI, digamma_real, gamma_real

# Orders closer than this to an excluded value are classified as excluded.
ORDER_EPS = 1e-9

# Steps of the trapezoidal sum for K and dK/dnu (:func:`_k_sums`) at |z| up
# to each bound, past it the last: at |ph z| <= pi/4 each at most the
# largest step whose truncation error (in 30-digit arithmetic) is below
# 1e-16 of K_mu and K'_mu and 4e-16 of D_mu and D'_mu at mu = 0.05, 0.5 and
# 0.95 and |z| up to the bound; nearer the imaginary axis 0.7 of that (0.75
# holds at ph z = +-pi/2).  Past K_MAX_ARG the sum reports no_convergence.
_K_STEPS = ((2.0, 0.225), (4.0, 0.215), (7.0, 0.2), (10.0, 0.19), (12.0, 0.18), (15.0, 0.165),
            (20.0, 0.145), (25.0, 0.13), (30.0, 0.12))
K_MAX_ARG = 30.0
# ph z on the Kelvin ray, exactly atan2(y, y) for z = ROT_K x = y + iy
_RAY_PHASE = PI / 4.0

# Temme's series starts K at |z| up to TEMME_MAX_ARG and dK/dnu up to
# TEMME_DK_MAX_ARG (:func:`_k_temme`), the trapezoidal sum above; its dK/dnu
# sums cancel 10-25 fold near order 1/2, 1.9e-15 off at |z| = 0.5, 4.8e-15 at 1
TEMME_MAX_ARG = 1.2
TEMME_DK_MAX_ARG = 0.5
# Taylor coefficients in mu^2, highest power first, of Gamma_2 = (1/Gamma(1-mu)
# + 1/Gamma(1+mu))/2 and Gamma_1 = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu), from
# 50-digit mpmath: to |mu| = 1/2 the first term left out is below 1e-18
_G2 = (-3.696805618642206e-12, 1.0434267116911005e-10, 5.002007644469223e-09,
       -2.056338416977607e-07, -1.2504934821426706e-06, 0.0001280502823881162,
       -0.0011651675918590652, -0.009621971527876973, 0.16653861138229148,
       -0.6558780715202539, 1.0)
_G1 = (-5.100370287454476e-13, -7.782263439905071e-12, 1.18127457048702e-09, -6.116095104481416e-09,
       -1.133027231981696e-06, 2.013485478078824e-05, 0.00021524167411495098,
       -0.0072189432466631, 0.04219773455554433, 0.04200263503409524, -0.5772156649015329)
_G = tuple(zip(_G1, _G2))
_DG = tuple((k * a, k * b) for k, (a, b) in zip(range(10, 0, -1), _G))  # d/d(mu^2)
# 2k/(2k+1)!, k = 9 .. 1: d(sinh(s)/s)/ds = s sum_k 2k s^(2k-2)/(2k+1)!, for |s| <= 1
_DSINHC = tuple(2.0 * k / math.factorial(2 * k + 1) for k in range(9, 0, -1))
# The K estimate's rounding floor per eps and unit of scale
# (:func:`_k_estimate`); against 40-digit mpmath over |z| <= 30 and six
# phases it needs 3.4 (at nu < 1, |z| = 15 to 20)
_K_FLOOR = 6.0

# The rounding floor of J and I at a general z per unit of the largest term:
# over |z| in {5, 10, 15, 20}, six phases and the orders of the tests, 5 to 10
# eps (with :func:`_ji`'s part per term) covers the error against 40-digit
# mpmath and overstates it by at most 1e3
_JI_FLOOR = 8.0 * sys.float_info.epsilon

# A J, I or dJ/dnu result is ``degraded`` where its estimate is above this
# share of its value: over 21 orders, |z| from 0.05 to 20 and six phases,
# every point more than 1e-13 off 40-digit mpmath is above it (the least
# 2.8e-12), and 2 of the points within 1e-14 are
DEGRADED_REL = 1e-12
_LOG2 = math.log(2.0)
_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon


def _is_near_int(x: float, eps: float) -> bool:
    return abs(x - round(x)) <= eps


def _log_half(z: complex) -> complex:
    """log(z/2) on the principal branch, also where z/2 underflows to 0."""
    h = z / 2.0
    return cmath.log(h) if h else cmath.log(z) - _LOG2


def _half_pow(nu: float, z: complex) -> complex:
    """(z/2)^nu on the principal branch."""
    try:
        return cmath.exp(nu * _log_half(z))
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


def _ray_sums(o: _RayOrder, x: float, psi: bool) -> tuple:
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
    are below ``hyper.REL_TOL`` |S|, the same pass with or without ``psi``;
    P goes on until its terms are below ``hyper.REL_TOL`` |P|; the run ends
    after ``hyper.MAX_TERMS`` terms.  Error estimates are 10x the first
    neglected term.

    Returns (T, err, terms, converged, max |a_k|, psi part), the psi part
    None or (P, err P, max P term, terms, converged).
    """
    mu, k0 = o.mu, o.k0
    tol = hyper.REL_TOL
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
        mx = max(map(abs, sp))
        if psi:
            pp = list(map(mul, vs, reversed(o.w)))
            mp = max(map(abs, pp))
        # a term that overflows would reach fsum as -inf + inf
        if mx == math.inf or psi and mp == math.inf:
            raise SeriesOverflowError(f"the order-{mu:g} series is not finite at x = {x:g}")
        re, im = math.fsum(sp[k0 & 1::2]), math.fsum(sp[1 - (k0 & 1)::2])
        if psi:
            pre, pim = math.fsum(pp[k0 & 1::2]), math.fsum(pp[1 - (k0 & 1)::2])
    t /= o.tden
    for k in range(k0, k0 + hyper.MAX_TERMS, 2):
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


_K_NODES: dict = {}  # step h -> the passes of :func:`_k_nodes` on the Kelvin ray


def _k_nodes(h: float, th: float, n: int) -> tuple:
    """The nodes u = k h, k = 1 .. 2n, of the contour t(u) = u - i th
    tanh(u/2), as n passes (t, cosh t - 1, t', |cosh t - 1|) of an odd node
    and then an even one, with cosh t - 1 = 2 sinh^2(t/2) and
    t' = 1 - (i th/2)(1 - tanh^2(u/2)).  At the Kelvin ray's phase the table
    of h is shared, and a run that needs more passes rebinds it to a longer
    copy (so no thread sees it change); at any other phase it is made for
    the run."""
    shared = th == _RAY_PHASE
    passes = _K_NODES.get(h, ()) if shared else ()
    if len(passes) < n:
        more = []
        for k in range(2 * len(passes) + 1, 2 * n + 1):
            s = math.tanh(0.5 * k * h)
            t = complex(k * h, -th * s)
            cm = 2.0 * cmath.sinh(0.5 * t) ** 2
            more.append((t, cm, complex(1.0, -0.5 * th * (1.0 - s * s)), abs(cm)))
        passes += tuple(a + b for a, b in zip(more[::2], more[1::2]))
        if shared:
            _K_NODES[h] = passes
    return passes


def _k_sums(nu: float, z: complex, dk: bool, starts: dict | None = None) -> tuple:
    """K_nu(z) at nu >= 0, Re z >= 0, and with ``dk`` D_nu = dK/dnu, climbed
    (:func:`_k_from`) from the start record of Temme's series
    (:func:`_k_temme`) for K at |z| <= ``TEMME_MAX_ARG`` and for D at |z| <=
    ``TEMME_DK_MAX_ARG``, of the trapezoidal sum (:func:`_k_trapezoid`)
    above.  One dict ``starts`` for all the orders of a call shares each
    start, bit for bit, between +-nu, nu + n and the integers of one z, a
    start with D serving K alone too.  It also keeps each request's result,
    keyed (nu, z, dk): an exact repeat returns it without the climb and the
    estimate; a request that raises is not kept.

    Returns (K, D or None), tuples of :func:`_k_estimate`;
    PowerOverflowError where (|z|/2)^(-nu) overflows, SeriesOverflowError
    where K or D does, and past ``K_MAX_ARG``, where a climb would take
    more than ``hyper.MAX_TERMS`` steps, ConvergenceError without the
    climb, or zeros from a start that underflowed to zeros.
    """
    if starts and (nu, z, dk) in starts:  # a repeat
        return starts[nu, z, dk]
    sz = abs(z)
    try:
        (0.5 * sz) ** -nu
    except (OverflowError, ZeroDivisionError):
        raise PowerOverflowError(
            f"(z/2)^{-nu:g} overflows double precision at |z| = {sz:g}") from None
    if sz > TEMME_MAX_ARG:
        res = _k_from("sum", nu, z, dk, starts)
    elif dk and sz > TEMME_DK_MAX_ARG:
        # two starts (Temme's D sums cancel here), the sum's K unused: K from the sum
        # too sped dkelvin here 23% but slowed values_scatter 2-6% (ROADMAP)
        res = _k_from("temme", nu, z, False, starts)[0], _k_from("sum", nu, z, True, starts)[1]
    else:
        res = _k_from("temme", nu, z, dk, starts)
    if starts is not None:
        starts[nu, z, dk] = res
    return res


def _k_from(route: str, nu: float, z: complex, dk: bool, starts: dict | None) -> tuple:
    """(K_nu, D_nu or None) of :func:`_k_sums` from the start record of
    ``route`` ("temme" at m = nu - floor(nu), or m - 1 where m > 1/2; "sum"
    at nu - floor(nu)), read from or kept in ``starts`` under (start order,
    z, route): one climb (:func:`_climb`) to nu and one estimate each side."""
    n = int(nu)
    mu = nu - n
    if route == "temme" and mu > 0.5:
        mu -= 1.0
        n += 1
    st = starts.get((mu, z, route)) if starts else None
    if st is None or dk and st[1] is None:
        st = (_k_temme if route == "temme" else _k_trapezoid)(mu, z, dk)
        if starts is not None:
            starts[mu, z, route] = st
    ks, ds = st
    k, k1 = ks[0], ks[1]
    d, d1 = (ds[0], ds[1]) if dk else (None, None)
    if n > hyper.MAX_TERMS and abs(z) > K_MAX_ARG:
        # a start with no error bound is not climbed far: on the imaginary
        # axis e^(-z) keeps modulus 1, and a climb below the order |z|/2
        # neither overflows nor ends; where e^(-z) underflowed to 0 the
        # start is zeros, and so is K at the order
        if k or k1:
            raise ConvergenceError(f"K_{nu:g} at |z| = {abs(z):g}: the sum has no error bound "
                                   f"past |z| = {K_MAX_ARG:g}, and the climb is {n} steps")
        n = 0
    if n:
        k, d = _climb(n, mu, 0.5 * z, k, k1, d, d1)
    if not cmath.isfinite(k) or dk and not cmath.isfinite(d):
        raise SeriesOverflowError(f"K_{nu:g} overflows double precision at |z| = {abs(z):g}")
    k = _k_estimate(k, n, ks)
    return k, _k_estimate(d, n, ds) if dk else None


def _k_trapezoid(mu: float, z: complex, dk: bool) -> tuple:
    """The start record of :func:`_k_sums` at mu in [0, 1), |z| >
    ``TEMME_DK_MAX_ARG``, from one trapezoidal sum: K_mu = int_0^inf f(t) dt,
    f(t) = cosh(mu t) e^(-z cosh t) (DLMF 10.32.9), even in t, on the contour
    t(u) = u - i th tanh(u/2), th = ph z, which leaves t = 0 towards the
    steepest descent from the saddle and ends on Im t = -th, where
    z cosh t is real: g(u) = f(t(u)) t'(u) is even in u, so one trapezoidal
    sum h (g(0)/2 + sum_k g(kh)) gives K_mu, its z-derivative K'_mu (the
    weight -cosh t) and, with ``dk``, D_mu and D'_mu (the same times
    t tanh(mu t)); K_(mu+1) = (mu/z) K_mu - K'_mu (DLMF 10.29.2) and
    D_(mu+1) = K_mu/z + (mu/z) D_mu - D'_mu.  Each node takes
    e^(-z (cosh t - 1)) once, with t, cosh t - 1 and t' from a table
    (:func:`_k_nodes`), and the sums take the factor e^(-z) once: the
    exponent is small where the terms are large, so its rounding does not
    grow with |z|.  The primed sums carry -z (cosh t - 1), as K'_mu = -K_mu
    + the sum of the terms times (1 - cosh t).  g is analytic in
    |Im u| < pi/2, where its tails decay doubly exponentially, at every
    phase, the imaginary axis included, so the rule converges geometrically
    in 1/h (Trefethen and Weideman, SIAM Review 56, 2014) at a step that
    depends on |z| and, towards the imaginary axis, on |ph z|
    (``_K_STEPS``).

    Each pass adds an odd and an even node (the even ones and u = 0 are
    T_2h).  The terms |g| rise to one peak and fall, so K stops once the
    terms of a pass fall and its last K and primed terms are below
    ``hyper.REL_TOL`` of their sums, each read again when its term passes
    it: the same pass, and bits, with or without ``dk``; D goes on to its
    own rule.  The sums take at most ``hyper.MAX_TERMS`` nodes, none past
    |z| (cosh u - 1) = 80; a sum out of nodes, or past |z| = ``K_MAX_ARG``,
    is unconverged.  r and c are those of :func:`_k_estimate`, c at n > 0
    also that of the value at mu + 1."""
    sz = abs(z)
    th = math.atan2(z.imag, z.real)
    for bound, h in _K_STEPS:  # past the last bound, its step
        if sz <= bound:
            break
    if abs(th) > _RAY_PHASE:
        h *= 0.7
    # passes to |z| (cosh u - 1) = 80, where the terms are below e^(-80) of g(0)
    top = min(int(math.acosh(1.0 + 80.0 / sz) / h) + 2, hyper.MAX_TERMS) // 2
    nz, tol = -z, hyper.REL_TOL
    exp, cosh, tanh = cmath.exp, cmath.cosh, cmath.tanh
    w = complex(0.5, -0.25 * th)  # g(0)/2 / e^(-z), summed with the even nodes
    so, se, s1, d1, do, de = 0j, w, 0j, 0j, 0j, 0j
    mag, mag1, dmag, dmag1 = abs(w), 0.0, 0.0, 0.0
    ks = None  # K's sums once it stops
    # REL_TOL of the K, primed K, D and primed D sums, as last read
    lim = lim1 = dlim = dlim1 = math.inf
    # D sums while dsum; at mu = 0 its terms are exact zeros, so it is done at once
    dsum, dconv, dn, kn = dk and mu > 0.0, dk, 0, 0
    for t, cm, tp, am, t2, cm2, tp2, am2 in _k_nodes(h, th, top)[:top]:
        kn += 2
        y, y2 = nz * cm, nz * cm2
        w, w2 = exp(y) * cosh(mu * t) * tp, exp(y2) * cosh(mu * t2) * tp2
        so, se = so + w, se + w2
        s1 += y * w + y2 * w2
        m, m2 = abs(w), abs(w2)
        mag += m + m2
        mag1 += am * m + am2 * m2
        if dsum:
            # each D term is the K term times t tanh(mu t)
            p, p2 = t * tanh(mu * t) * w, t2 * tanh(mu * t2) * w2
            do, de = do + p, de + p2
            d1 += y * p + y2 * p2
            v, v2 = abs(p), abs(p2)
            dmag += v + v2
            dmag1 += am * v + am2 * v2
        if ks is None and m2 <= m and (m2 <= lim or sz * am2 * m2 <= lim1):
            lim, lim1 = tol * abs(so + se), tol * abs(s1)
            if m2 <= lim and sz * am2 * m2 <= lim1:
                ks = (so, se, s1, mag, mag1, kn)
                if not dsum:
                    break
        if dsum and ks is not None and v2 <= v and (v2 <= dlim or sz * am2 * v2 <= dlim1):
            dlim, dlim1 = tol * abs(do + de), tol * abs(d1)
            if v2 <= dlim and sz * am2 * v2 <= dlim1:
                dsum, dn = False, kn
                break
    if dsum:  # out of nodes
        dconv, dn = False, kn
    kconv = ks is not None and sz <= K_MAX_ARG
    so, se, s1, kmag, kmag1, kn = ks or (so, se, s1, mag, mag1, kn)
    s = abs(so + se)
    r, c = abs(so - se) / s, kmag / s
    he = h * exp(nz)
    kv = he * (so + se)
    k1 = kv + (mu * kv - he * s1) / z
    s = (kmag * (1.0 + mu / sz) + kmag1) * abs(he) / (abs(k1) or 1.0)
    c1 = s if s > c else c
    k = kv, k1, r ** 5, c, c1, kn, kconv
    if not dk:
        return k, None
    dv = he * (do + de)
    s = abs(do + de) or 1.0  # 0 at mu = 0
    dr, dc = max(r, abs(do - de) / s), max(c, dmag / s)
    d1v = dv + (kv + mu * dv - he * d1) / z
    dc1 = max(dc, c1, ((kmag + dmag * mu) / sz + dmag + dmag1) * abs(he) / (abs(d1v) or 1.0))
    return k, (dv, d1v, dr ** 5, dc, dc1, dn or kn, dconv and kconv)


def _gamma12(m: float, dk: bool) -> tuple:
    """Gamma_1 and Gamma_2 at m, |m| <= 1/2, from their tables (``_G``), and
    with ``dk`` their m-derivatives (else 0.0)."""
    s = m * m
    g1 = g2 = 0.0
    for a, b in _G:
        g1, g2 = g1 * s + a, g2 * s + b
    if not dk:
        return g1, g2, 0.0, 0.0
    d1 = d2 = 0.0
    for a, b in _DG:
        d1, d2 = d1 * s + a, d2 * s + b
    return g1, g2, 2.0 * m * d1, 2.0 * m * d2


def _k_temme(m: float, z: complex, dk: bool) -> tuple:
    """The start record of :func:`_k_sums` at |m| <= 1/2 and |z| <=
    ``TEMME_MAX_ARG``, from Temme's series (J. Comput. Phys. 19, 1975)

        K_m = sum_k c_k f_k,   K_(m+1) = (2/z) sum_k c_k (p_k - k f_k),
        c_k = (z^2/4)^k / k!,  f_k = (k f_(k-1) + p_(k-1) + q_(k-1)) / (k^2 - m^2),
        p_k = p_(k-1) / (k - m),   q_k = q_(k-1) / (k + m),

    from p_0 = Gamma(1+m) (z/2)^(-m) / 2, q_0 = Gamma(1-m) (z/2)^m / 2 and
    f_0 = A_1 cosh(s) + A_2 log(2/z) sinh(s)/s, s = m log(2/z), with
    A_1, A_2 = (Gamma(1+m) -+ Gamma(1-m)) / (2m, 2) from 1/Gamma(1 -+ m) =
    Gamma_2 +- m Gamma_1 (:func:`_gamma12`), so nothing divides by m.  With
    ``dk`` the pass carries d/dm of each quantity (forward mode) to D_m and
    D_(m+1); p + q and p - q take their own recurrences, whose odd parts
    carry the factor m, so D_0 = 0 exactly.  K stops once the terms of both
    its sums are below ``hyper.REL_TOL`` of them, each limit read again when
    a term passes it: the same term, and bits, with or without ``dk``; D goes
    on to its own rule.  r (:func:`_k_estimate`) is the first neglected
    term, bounded by the last times |z^2/4|/(k+1), plus |s| eps (the
    rounding of s), D's added to K's; c, at every n, the sums of |terms|
    over the sums."""
    h = 0.5 * z
    if not h:
        raise ConvergenceError(f"K_{m:g} has no start at |z| = {abs(z):g}: z/2 underflows to 0")
    s = m * m
    g1, g2, dg1, dg2 = _gamma12(m, dk)
    rp, rm = g2 - m * g1, g2 + m * g1  # 1/Gamma(1+m), 1/Gamma(1-m)
    gg = 1.0 / (rp * rm)  # Gamma(1+m) Gamma(1-m)
    a1, a2 = gg * g1, gg * g2
    lg = -cmath.log(h)  # log(2/z)
    sg = m * lg
    ep, ch = cmath.exp(sg), cmath.cosh(sg)
    sh = cmath.sinh(sg) / sg if sg else 1.0
    lsh = lg * sh  # sinh(s) / m
    b1, b2 = ch * a1, lsh * a2
    f = b1 + b2
    p, q, w = 0.5 * ep / rp, 0.5 / (ep * rm), h * h
    ks, k1s, kmag, k1mag = f, p, abs(b1) + abs(b2), abs(p)
    if dk:
        e, gg2 = g1 + m * dg1, gg * gg
        da1 = gg * dg1 + 2.0 * g1 * gg2 * (m * g1 * e - g2 * dg2)
        da2 = 2.0 * m * g1 * g2 * e * gg2 - 0.5 * dg2 * (1.0 / (rp * rp) + 1.0 / (rm * rm))
        if abs(sg) <= 1.0:  # d(sinh(s)/s)/ds
            t, s2 = 0.0, sg * sg
            for a in _DSINHC:
                t = t * s2 + a
            dsh = sg * t
        else:
            dsh = (ch - sh) / sg
        dch, dlsh = m * lg * lsh, lg * lg * dsh
        # added left to right: from 3.12 on, sum() of floats is compensated
        b = (dch * a1, ch * da1, dlsh * a2, lsh * da2)
        df = b[0] + b[1] + b[2] + b[3]
        du = dch * a2 + ch * da2 + m * (2.0 * lsh * a1 + m * (dlsh * a1 + lsh * da1))
        v, dv = m * f, f + m * df  # p - q
        dp = p * (lg - (dg2 - e) / rp)
        ds, d1s, d1mag = df, dp, abs(dp)
        dmag = abs(b[0]) + abs(b[1]) + abs(b[2]) + abs(b[3])
    # from here on f, p, q (and their derivatives) carry the factor c_k
    tol, lim, lim1, dlim, dlim1 = hyper.REL_TOL, math.inf, math.inf, math.inf, math.inf
    kn, dn, r, dr = 0, 0, 0.0, 0.0
    for k in range(1, hyper.MAX_TERMS):
        a = w / k
        den = k * k - s
        pq = p + q
        f = (k * f + pq) * a / den
        p *= a / (k - m)
        q *= a / (k + m)
        if dk:
            df = ((k * df + du) * a + 2.0 * m * f) / den
            dp = (a * dp + p) / (k - m)
            vn = (k * v + m * pq) * a / den
            du, dv = (((k * du + v + m * dv) * a + 2.0 * m * (p + q)) / den,
                      ((k * dv + pq + m * du) * a + 2.0 * m * vn) / den)
            v = vn
            if not dn:
                t = dp - k * df
                ds, d1s = ds + df, d1s + t
                at, at1 = abs(df), abs(t)
                dmag, d1mag = dmag + at, d1mag + at1
                if at <= dlim and at1 <= dlim1:
                    dlim, dlim1 = tol * abs(ds), tol * abs(d1s)
                    if at <= dlim and at1 <= dlim1:
                        dr = max(at / (abs(ds) or 1.0), at1 / abs(d1s)) * abs(w) / (k + 1)
                        dn = k + 1
                        if kn:
                            break
        if not kn:
            t = p - k * f
            ks, k1s = ks + f, k1s + t
            at, at1 = abs(f), abs(t)
            kmag, k1mag = kmag + at, k1mag + at1
            if at <= lim and at1 <= lim1:
                lim, lim1 = tol * abs(ks), tol * abs(k1s)
                if at <= lim and at1 <= lim1:
                    kn, r = k + 1, max(at / abs(ks), at1 / abs(k1s)) * abs(w) / (k + 1)
                    if dn or not dk:
                        break
    r += abs(sg) * _EPS
    c = max(kmag / abs(ks), k1mag / abs(k1s))
    k = ks, k1s / h, r, c, c, kn or hyper.MAX_TERMS, kn > 0
    if not dk:
        return k, None
    dc = max(c, dmag / (abs(ds) or 1.0), d1mag / abs(d1s))
    return k, (ds, d1s / h, r + dr, dc, dc, dn or hyper.MAX_TERMS, dn > 0 and kn > 0)


def _k_estimate(v: complex, n: int, side: tuple) -> tuple:
    """(value, abs error estimate, nodes, converged, scale) of :func:`_k_sums`
    for v, n steps of the climb above one side of a start record (value at
    mu and at mu + 1, r, c, cn, nodes, converged): |v| (r + (``_K_FLOOR`` +
    n) eps c), c at n = 0 and cn above.  r is the start's relative
    truncation error: Temme's first neglected term, or the fifth power of
    the trapezoidal sum's largest relative gap |T_h - T_2h|/|T_h|: halving
    the step raises the relative error to a power, in 30-digit arithmetic
    at the steps of ``_K_STEPS`` 2.2 to 2.8 at |z| <= 5, where the gap is
    below 2e-6 and its fifth power far below the floor, and 3.7 to 6.5 at
    |z| = 10 to 30; against 40-digit mpmath on the Kelvin ray the fourth
    power overstated the error of dK/dnu by up to 9e3 at |z| = 30, the
    fifth by at most 18.  c is the largest ratio of a start value's sum of
    |terms| to its size (the cancellation); the scale is c |v|."""
    _, _, r, c, cn, nodes, conv = side
    size, c = abs(v), cn if n else c
    return v, size * (r + (_K_FLOOR + n) * _EPS * c) if conv else math.inf, nodes, conv, c * size


def _climb(n: int, mu: float, h: complex, k: complex, k1: complex, d: complex | None,
           d1: complex | None) -> tuple:
    """(K_(mu+n), D_(mu+n)), n >= 1, from K and D = dK/dnu at mu and mu + 1
    (d None: K alone), h = z/2, by DLMF 10.29.1 and its order derivative,
    K_(a+1) = K_(a-1) + a K_a / h, D_(a+1) = D_(a-1) + (K_a + a D_a) / h,
    stable upward, where K is dominant (Temme, J. Comput. Phys. 19, 1975).
    Each step divides by h: the rounding of a product by 1/h would repeat
    at every step and grow n-fold (5.6e-15 at n = 49, |z| = 0.7).  A climb
    past 65 steps checks K and D after every 64 and stops where either has
    left the double range."""
    a = mu + 1.0
    while True:
        steps = n - 1 if n <= 65 else 64
        if d is None:
            for _ in range(steps):
                k, k1 = k1, k + a * k1 / h
                a += 1.0
        else:
            for _ in range(steps):
                d, d1 = d1, d + (k1 + a * d1) / h
                k, k1 = k1, k + a * k1 / h
                a += 1.0
        if n <= 65 or not (cmath.isfinite(k1) and (d is None or cmath.isfinite(d1))):
            return k1, d1
        n -= 64


def _turn(t: float) -> complex:
    """e^(i pi t) as i^m e^(i pi e), m = round(2t), e = t - m/2 exactly, so
    that it is exact where 2t is an integer."""
    m = round(2.0 * t)
    e = PI * (t - 0.5 * m)
    return complex(math.cos(e), math.sin(e)) * (1, 1j, -1, -1j)[m & 3]


def _z_sums(o: _RayOrder, z: complex, sign: float, psi: bool) -> tuple:
    """The twin of :func:`_ray_sums` at a complex z != 0: F = J_mu(z)
    (sign = -1) or I_mu(z) (sign = +1) of the order ``o`` (mu),

        F = sum_k c_k r(mu+k+1),   c_k = (z/2)^mu (sign z^2/4)^k / k!,

    and, with ``psi``, P = sum_k c_k w(mu+k+1) from the same pass, so that
    dF/dmu = log(z/2) F - P at every real order, the negative integers
    included.

    The order is set up and the sum anchored as in :func:`_ray_sums`: the
    k0 terms below the anchor enter as correctly rounded sums of each
    component, after the same check that none is inf, and the powers
    (z/2)^(mu+2k0) and (z/2)^mu are taken before the order's Gamma and psi.
    From the anchor on each pass adds the terms k and k+1, Neumaier-
    compensated in complex arithmetic (TwoSum error terms), whose + and -
    act on each component alone, so that the run at conj(z) is the exact
    conjugate of the run at z.  At
    mu = -n the weights below the anchor are exact zeros and each term past
    it is sign^n times the term of the run at n, so F_(-n) = sign^n F_n bit
    for bit.  F stops once both terms of a pass are below ``hyper.REL_TOL``
    |F|, the same pass with or without ``psi``; P goes on until its terms
    are below ``hyper.REL_TOL`` |P|; the run ends after ``hyper.MAX_TERMS``
    terms.  Error estimates are 10x the first neglected term.

    Returns (F, err, terms, converged, max |term|, psi part), the psi part
    None or (P, err P, max P term, terms, converged).
    """
    mu, k0 = o.mu, o.k0
    tol = hyper.REL_TOL
    q = sign * z * z / 4.0
    t = _half_pow(mu + 2 * k0, z)
    c = _half_pow(mu, z) if k0 else t
    # the terms below the anchor need (z/2)^mu as a normal double
    if k0 and abs(c) < _TINY:
        raise PowerOverflowError(f"(z/2)^{mu:g} underflows double precision at |z| = {abs(z):g}")
    if o.tden is None or psi and o.wa is None:
        o.anchor(psi)
    f = cf = p = cp = 0j
    mx = mp = 0.0
    plain = None
    psi_conv = False
    wa = o.wa
    if k0:
        cs = []
        for k in range(k0):
            cs.append(c)
            c = c * q / (k + 1.0)
        sp = list(map(mul, cs, reversed(o.r)))
        mx = max(map(abs, sp))
        if psi:
            pp = list(map(mul, cs, reversed(o.w)))
            mp = max(map(abs, pp))
        # a term that overflows would reach fsum as -inf + inf
        if mx == math.inf or mp == math.inf:
            raise SeriesOverflowError(f"the order-{mu:g} series is not finite at |z| = {abs(z):g}")
        f = complex(math.fsum(v.real for v in sp), math.fsum(v.imag for v in sp))
        if psi:
            p = complex(math.fsum(v.real for v in pp), math.fsum(v.imag for v in pp))
    t /= o.tden
    if sign < 0.0 and k0 & 1:
        t = -t
    for k in range(k0, k0 + hyper.MAX_TERMS, 2):
        a = mu + k + 1.0
        u = t * q / ((k + 1.0) * a)
        nt = u * q / ((k + 2.0) * (a + 1.0))
        n = f + t
        cf += (f - (n - (n - f))) + (t - (n - f))
        f = n + u
        cf += (n - (f - (f - n))) + (u - (f - n))
        at, au = abs(t), abs(u)
        mx = max(mx, at, au)
        if plain is None:
            lim = tol * abs(f)
            if at <= lim and au <= lim:
                plain = (f + cf, 10.0 * abs(nt), k + 2, True)
                if not psi:
                    break
        if psi:
            v = wa * t
            wa += 1.0 / a
            w = wa * u
            wa += 1.0 / (a + 1.0)
            n = p + v
            cp += (p - (n - (n - p))) + (v - (n - p))
            p = n + w
            cp += (n - (p - (p - n))) + (w - (p - n))
            av, aw = abs(v), abs(w)
            mp = max(mp, av, aw)
            if plain is not None:
                lp = tol * abs(p)
                if av <= lp and aw <= lp:
                    psi_conv = True
                    break
        t = nt
    if not cmath.isfinite(f + p):
        raise SeriesOverflowError(f"the order-{mu:g} series is not finite at |z| = {abs(z):g}")
    plain = plain or (f + cf, 10.0 * abs(nt), k + 2, False)
    if not psi:
        return plain + (mx, None)
    return plain + (mx, (p + cp, 10.0 * abs(wa * nt), mp, k + 2, psi_conv))


def _finite(nu: float, z: complex) -> None:
    """DomainError unless the order nu and the argument z are finite: the
    first check of every public entry."""
    if not (math.isfinite(nu) and cmath.isfinite(z)):
        raise DomainError(f"order and argument must be finite, got nu={nu!r}, x={z!r}")


def _result(value: complex, est: float, terms: int, conv: bool, scale: float) -> EvalResult:
    """The EvalResult of a complex-API value, flagged ``no_convergence``
    unless ``conv`` and ``degraded`` where ``est`` is above ``DEGRADED_REL``
    of the value or either is not finite."""
    bad = not (math.isfinite(est) and cmath.isfinite(value)) or est > DEGRADED_REL * abs(value)
    flags = (() if conv else ("no_convergence",)) + (("degraded",) if bad else ())
    return EvalResult(value, est, terms, conv, flags, scale)


def _ji(mu: float, z: complex, sign: float,
        psi: bool = False) -> tuple[EvalResult, EvalResult | None]:
    """F = J_mu(z) (sign = -1) or I_mu(z) (sign = +1) at z != 0 from one run
    of :func:`_z_sums`, and with ``psi`` dF/dmu = log(z/2) F - P from the
    same run (else None).  Each estimate adds ``_JI_FLOOR`` times the largest
    term (cancellation) and eps times the terms times the value (rounding
    carried from term to term)."""
    f, err, terms, conv, max_term, ps = _z_sums(_RayOrder(mu), z, sign, psi)
    res = _result(f, err + _JI_FLOOR * max_term + terms * _EPS * abs(f), terms, conv, max_term)
    if ps is None:
        return res, None
    p, p_err, p_max, p_terms, p_conv = ps
    lg = _log_half(z)
    df = f * lg - p
    d_max = max(abs(lg) * max_term, p_max)
    return res, _result(df, err * abs(lg) + p_err + _JI_FLOOR * d_max + p_terms * _EPS * abs(df),
                        p_terms, conv and p_conv, d_max)


def _bessel_ji(nu: float, z: complex, sign: float) -> EvalResult:
    _finite(nu, z)
    z = complex(z)
    if z == 0:
        if nu < 0.0 and nu != round(nu):
            raise BranchError("z = 0 with negative non-integer order")
        # 1/Gamma(nu+1) vanishes at the negative integers, so F_(-n)(0) = 0
        return EvalResult(1.0 + 0.0j if nu == 0.0 else 0.0j, 0.0, 1, True)
    return _ji(nu, z, sign)[0]


def bessel_j(nu: float, z: complex) -> EvalResult:
    """J_nu(z) by the ascending series sum_k (-1)^k (z/2)^(nu+2k) / (k! Gamma(nu+k+1)),
    1/Gamma entire, at every real order (0 at z = 0 and a negative integer order)."""
    return _bessel_ji(nu, z, -1.0)


def bessel_i(nu: float, z: complex) -> EvalResult:
    """I_nu(z), the (+1)^k counterpart of :func:`bessel_j`."""
    return _bessel_ji(nu, z, 1.0)


def _k(nu: float, z: complex, dk: bool) -> EvalResult:
    """K_nu(z) or, with ``dk``, dK/dnu at |nu| (K is even in the order) from
    one run of :func:`_k_sums`, flagged ``no_convergence`` only, at every
    z != 0 of the closed right half-plane, the imaginary axis (Re z = +-0)
    included; ArgumentZeroError at z = 0, BranchError at Re z < 0.
    ``max_abs_term`` is the sum of |terms| carried to the order, the scale
    of its cancellation."""
    _finite(nu, z)
    z = complex(z)
    if z == 0:
        raise ArgumentZeroError("K_nu undefined at z = 0")
    if z.real < 0.0:
        raise BranchError(f"K_nu is computed at Re z >= 0 only, got z = {z!r}")
    run = _k_sums(abs(nu), z, dk)[dk]
    return EvalResult(*run[:4], () if run[3] else ("no_convergence",), run[4])


def bessel_k(nu: float, z: complex) -> EvalResult:
    """K_nu(z) on the closed right half-plane (:func:`_k`)."""
    return _k(nu, z, False)


def _floored(upper: tuple, lower: tuple, w: complex) -> EvalResult:
    """pFq at these parameters, its estimate raised by ``_JI_FLOOR`` times its largest term."""
    r = pfq(upper, lower, w)
    return r._replace(abs_err_estimate=r.abs_err_estimate + _JI_FLOOR * r.max_abs_term)


def _f23(nu: float, w: complex) -> EvalResult:
    """2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; w); at -nu, 2F3(-nu, 1/2-nu; 1-nu, 1-nu, 1-2nu; w)."""
    return _floored((nu, nu + 0.5), (nu + 1.0, nu + 1.0, 2.0 * nu + 1.0), w)


def _f34(nu: float, w: complex) -> EvalResult:
    """3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; w)."""
    return _floored((1.0, 1.0, 1.5), (2.0, 2.0, 2.0 - nu, 2.0 + nu), w)


def dj_dnu(nu: float, z: complex) -> EvalResult:
    """Closed form of the order derivative of J_nu at non-integer nu > 0.

    dJ/dnu = -pi J_{-nu}(z) csc(pi nu) / (2 Gamma(nu+1)^2) (z/2)^(2 nu)
               * 2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; -z^2)
             - J_nu(z) [ z^2/(4(1-nu^2)) 3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; -z^2)
                         + log(2/z) + 1/(2 nu) + psi(nu) ]

    with J_{+-nu} from one run of :func:`_ji` each.  The paper's form, kept
    as an oracle; :func:`dj_dnu_any` is the route.
    """
    _finite(nu, z)
    z = complex(z)
    if nu <= 0.0 or _is_near_int(nu, ORDER_EPS):
        raise OrderClassError(f"dJ/dnu closed form invalid at nu = {nu}")
    if z == 0:
        raise BranchError("z = 0")
    jm = _ji(-nu, z, -1.0)[0]
    jp = _ji(nu, z, -1.0)[0]
    f1 = _f23(nu, -z * z)
    f2 = _f34(nu, -z * z)
    g1 = gamma_real(nu + 1.0)
    coef_a = -PI / math.sin(PI * nu) / (2.0 * g1 * g1) * _half_pow(2.0 * nu, z)
    a = coef_a * jm.value * f1.value
    w = 2.0 / z  # inf where |z| < ~1e-308: take -log(z/2) there
    bracket = (z * z / (4.0 * (1.0 - nu * nu)) * f2.value
               + (cmath.log(w) if cmath.isfinite(w) else -_log_half(z))
               + 1.0 / (2.0 * nu) + digamma_real(nu))
    b = jp.value * bracket
    value = a - b
    est = (abs(coef_a) * (abs(jm.value) * f1.abs_err_estimate + abs(f1.value) * jm.abs_err_estimate)
           + abs(bracket) * jp.abs_err_estimate
           + abs(jp.value) * abs(z * z / (4.0 * (1.0 - nu * nu))) * f2.abs_err_estimate)
    conv = jm.converged and jp.converged and f1.converged and f2.converged
    terms = jm.terms_used + jp.terms_used + f1.terms_used + f2.terms_used
    return _result(value, est, terms, conv, max(jm.max_abs_term, jp.max_abs_term))


def dk_dnu(nu: float, z: complex) -> EvalResult:
    """Closed form of the order derivative of K_nu, excluded at 2 nu integer.

    dK/dnu = (pi/2) csc(pi nu) { pi cot(pi nu) I_nu(z)
               - [I_nu(z) + I_{-nu}(z)] [ z^2/(4(1-nu^2)) 3F4(1, 1, 3/2; 2, 2, 2-nu, 2+nu; z^2)
                                           + log(z/2) - psi(nu) - 1/(2 nu) ] }
             + (1/4) { I_{-nu}(z) Gamma(-nu)^2 (z/2)^(2 nu)
                         * 2F3(nu, nu+1/2; nu+1, nu+1, 2nu+1; z^2)
                     - I_nu(z) Gamma(nu)^2 (z/2)^(-2 nu)
                         * 2F3(-nu, 1/2-nu; 1-nu, 1-nu, 1-2nu; z^2) }

    with I_{+-nu} from one run of :func:`_ji` each.  This is the derivative
    of the connection formula combined with the closed form for dI/dnu; it
    reproduces finite differences of K over the order to full working
    precision.  The paper's form, kept as an oracle; :func:`dk_dnu_any` is
    the route.
    """
    _finite(nu, z)
    z = complex(z)
    if nu <= 0.0 or _is_near_int(2.0 * nu, ORDER_EPS):
        raise OrderClassError(f"dK/dnu closed form invalid at nu = {nu}")
    if z == 0:
        raise ArgumentZeroError("z = 0")
    ip, im = _ji(nu, z, 1.0)[0], _ji(-nu, z, 1.0)[0]
    z2 = z * z
    f34 = _f34(nu, z2)
    f23p, f23m = _f23(nu, z2), _f23(-nu, z2)
    s, c = math.sin(PI * nu), math.cos(PI * nu)
    q = z2 / (4.0 * (1.0 - nu * nu))
    bracket = q * f34.value + _log_half(z) - digamma_real(nu) - 1.0 / (2.0 * nu)
    p1 = (PI / (2.0 * s)) * (PI * (c / s) * ip.value - (ip.value + im.value) * bracket)
    gm, gp = gamma_real(-nu), gamma_real(nu)
    hm, hp = _half_pow(2.0 * nu, z), _half_pow(-2.0 * nu, z)
    t_m = im.value * gm * gm * hm * f23p.value
    t_p = ip.value * gp * gp * hp * f23m.value
    value = p1 + (t_m - t_p) / 4.0
    amp = PI / (2.0 * abs(s))
    est = (amp * (ip.abs_err_estimate * (PI * abs(c / s) + abs(bracket))
                  + im.abs_err_estimate * abs(bracket)
                  + abs(ip.value + im.value) * abs(q) * f34.abs_err_estimate)
           + 0.25 * (gm * gm * abs(hm) * (abs(im.value) * f23p.abs_err_estimate
                                          + im.abs_err_estimate * abs(f23p.value))
                     + gp * gp * abs(hp) * (abs(ip.value) * f23m.abs_err_estimate
                                            + ip.abs_err_estimate * abs(f23m.value))))
    conv = ip.converged and im.converged and f34.converged and f23p.converged and f23m.converged
    terms = ip.terms_used + im.terms_used + f34.terms_used + f23p.terms_used + f23m.terms_used
    return _result(value, est, terms, conv, max(ip.max_abs_term, im.max_abs_term))


def dj_dnu_any(nu: float, z: complex) -> EvalResult:
    """dJ/dnu at every real order, by the term-wise derivative of the
    series, log(z/2) J_nu - P with the psi sum P of the same run:

        P = (z/2)^nu sum_k (-1)^k psi(nu+k+1) (z^2/4)^k / (k! Gamma(nu+k+1))

    with psi/Gamma entire, so negative integer orders need no limit.
    Unlike the csc-form closed form it has no pole amplification near
    integer or half-integer orders.
    """
    _finite(nu, z)
    z = complex(z)
    if z == 0:
        raise BranchError("z = 0")
    return _ji(nu, z, -1.0, True)[1]


def dk_dnu_any(nu: float, z: complex) -> EvalResult:
    """dK/dnu at every real order on the closed right half-plane, from the
    run that gives K at |nu| (:func:`_k`), negated at nu < 0 (dK/dnu is odd
    in the order): exactly 0 at nu = 0, where the order weights vanish."""
    d = _k(nu, z, True)
    return d if nu >= 0.0 else d._replace(value=-d.value)
