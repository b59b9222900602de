"""Quadrature engine and the integral representations / identities.

The engine is the tanh-sinh rule (Takahasi & Mori 1974): the trapezoid in t
on x = c + h tanh(pi/2 sinh t), whose weights fall double exponentially at
both ends, so that log and power endpoint singularities need no special
treatment and no node lies on an end.  Each halving of the step reuses every
earlier node, and the run stops at the first level whose error estimate
meets max(TOL, TOL * |value|); MAX_DEPTH bounds the halvings.  Accuracy is
one module rule, not an option.  The integrands stay finite as close to
their ends as the nodes come (2.6e-275 of the half-width from an end at 0,
the last double before any other end):

* theorem 5 integrates over u and the Apelblat order derivatives over
  w = sqrt(u), up to their log(1-u) end, taken as log(1 - u) + log(1 + u);
* the Apelblat order derivatives take the first series term of their
  bracket, the u^((nu-1)/2) end, in closed form, and its second term where
  the series would be all rounding;
* the 1/sqrt(tau (t-tau)) convolution kernel uses tau = t sin^2(theta).

An integrand of ber + i bei reads phi T from the ray kernel at each node,
on one ``bessel._RayOrder`` per order and integral, with no checks or
estimate; no integrand runs a plan (``orderderiv._plan_rows``), whose K
sums it would not use.  The value representations are Bessel's integral
(DLMF 10.9.6) for ber + i bei = e^(i pi nu) J_nu(e^(-i pi/4) x), one
complex cos or exp per node, its Schlaefli tail cut where the integrand is
below e^(-_CUT) (``_tail_cut``): no integral of the package runs on
[0, inf).

Each level walks in from a, then from b, one loop over the ends with their
stop points and constants in locals: on a cheap node (one complex cos) the
walk's bookkeeping costs as much as the integrand, which binds its cmath and
math functions once.

Every identity check returns an :class:`IdentityReport` that serializes to
one CSV row: name,nu,x,lhs,rhs,abs_diff,tol,pass.  A value-returning
representation whose integral misses its error target raises
:class:`ConvergenceError`; an identity row whose integral misses it fails.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from . import bessel
from . import manifest as M
from .bessel import _RayOrder
from .errors import ConvergenceError, DomainError, KelvinError, PowerOverflowError
from .hyper import EvalResult
from .kelvin import _finite, _finite_positive, kelvin_ber_bei
from .orderderiv import _bb_series
from .scalars import EULER_GAMMA, PI, SQRT2, digamma_real, gamma_real

TOL = 1e-10  # read at call time, as is MAX_DEPTH
MAX_DEPTH = 8  # halvings of the unit step in t
_T_MAX = 6.0  # the last node in t, 2.6e-275 of the half-width from its end
_EPS = 2.0 ** -52
_CUT = 40.0  # the Schlaefli tail stops where its integrand is below e^(-_CUT)


class IdentityReport(NamedTuple):
    """Outcome of one identity check; ``passed`` iff abs_diff <= tol.

    abs_diff is inf when the integral behind a side missed its error
    target, so that such a row fails under any tolerance.
    """

    name: str
    nu: float
    x: float
    lhs: float
    rhs: float
    abs_diff: float
    tol: float
    passed: bool

    def csv_row(self) -> str:
        # the first eight fields, each number as in a table row (cli._TABLE_ROW)
        return "%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % self[:8]


def make_report(name: str, nu: float, x: float, lhs: float, rhs: float,
                tol: float) -> IdentityReport:
    d = abs(lhs - rhs)
    return IdentityReport(name, nu, x, lhs, rhs, d, tol, d <= tol)


def _report(name: str, nu: float, x: float, lhs: float, rhs: float,
            tol: float, converged: bool) -> IdentityReport:
    """make_report for a side that comes from an integral, which must
    have met its error target for the row to pass."""
    if converged:
        return make_report(name, nu, x, lhs, rhs, tol)
    return IdentityReport(name, nu, x, lhs, rhs, math.inf, tol, False)


def _value(res: EvalResult):
    """The value of an integral that met its error target."""
    if not res.converged:
        raise ConvergenceError("quadrature missed its error target: estimate "
                               f"{res.abs_err_estimate:.3g}")
    return res.value


@functools.cache
def _level(k: int) -> tuple[tuple[float, float, float], ...]:
    """The nodes that step 2^-k adds on 0 < t <= _T_MAX, in order of t:
    (t, delta, w), with delta = 1 - tanh(pi/2 sinh t) the distance of the
    node from the end of [-1, 1] and w = -d delta/dt its weight, both from
    q = e^(-pi sinh t), so that nothing overflows."""
    step = 2.0 ** -k
    out = []
    for j in range(1, int(_T_MAX / step) + 1, 1 if k == 0 else 2):
        t = j * step
        q = math.exp(-PI * math.sinh(t))
        out.append((t, 2.0 * q / (1.0 + q), 2.0 * PI * math.cosh(t) * q / (1.0 + q) ** 2))
    return tuple(out)


def integrate_finite(f, a: float, b: float) -> EvalResult:
    """Integral of f over [a, b] by the nested tanh-sinh trapezoid.

    The first level has step 1 in t; each level halves it.  Every level
    after the first estimates its error from the gap g to the level before
    at the rate of the last two gaps, g min(1, g / g_prev)^1.5 (the logs of
    the errors fall 1.8 to 2 fold per halving), or g itself for the first
    gap, which has no rate, plus a rounding floor

      eps step sum |w f| (4 + |x| / d),

    d the distance of the node x from the end it nears: 4 ulp of each value
    for its own rounding and that of the sum, and what the rounding of x
    moves f by, eps |x| |f'| <= eps |x| |f| / d at log and power ends.  The
    walk towards each end stops, at this level and all later ones, at its
    first node that rounds onto the end or adds less than eps of sum |w f|.

    Returns converged=False (with the best estimate) if the error target
    max(TOL, TOL * |result|) is still unmet after MAX_DEPTH halvings (flag
    ``max_depth_exceeded``), or as soon as a level's sum is not finite or
    the integrand overflows (flag ``non_finite``: it returned NaN or inf,
    or raised a bare OverflowError, which no halving mends; a
    ``KelvinError`` passes through).  ``terms_used`` counts the
    integrand's evaluations.

    The rate holds for integrands smooth to rounding, as all of the
    package's are; noise fools it: 1 + 1e-6 random() on [0, 1] stops after
    28 evaluations with an estimate of 1e-11, its value ~1e-7 off.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration interval [{a}, {b}] must be finite")
    if not a < b:
        raise DomainError("integration interval must satisfy a < b")
    h = 0.5 * (b - a)
    c = a + h
    if not a < c < b:  # the half-width rounds to 0, or the midpoint onto an end
        raise DomainError(f"integration interval [{a}, {b}] holds no double inside")
    evals = 1  # integrand calls, counted as they are made
    eps, tol, ends = _EPS, TOL, ((0, a, h), (1, b, -h))
    try:
        total = 0.5 * PI * f(c)
        mag = abs(total)  # sum |w f|
        rnd = mag * abs(c) / h  # sum |w f x / d|
        lims = [_T_MAX + 1.0] * 2  # where the walks from a and from b stop
        val = est = math.inf
        gap = 0.0
        for depth in range(MAX_DEPTH + 1):
            level = _level(depth)
            for i, end, s in ends:
                lim = lims[i]
                for t, delta, w in level:
                    if t >= lim:
                        break
                    d = s * delta
                    x = end + d
                    if x == end:
                        lims[i] = t
                        break
                    evals += 1
                    v = w * f(x)
                    total += v
                    av = abs(v)
                    mag += av
                    rnd += abs(v * x / d)
                    if av <= eps * mag:
                        lims[i] = t
                        break
            step = h * 2.0 ** -depth
            new = step * total
            if not math.isfinite(abs(new)):
                return EvalResult(new, math.inf, evals, False, ("non_finite",))
            if depth:
                last, gap = gap, abs(new - val)
                rate = min(1.0, gap / last) ** 1.5 if last else 1.0
                est = gap * rate + eps * step * (4.0 * mag + rnd)
            val = new
            if est <= max(tol, tol * abs(val)):
                return EvalResult(val, est, evals, True)
        return EvalResult(val, est, evals, False, ("max_depth_exceeded",))
    except OverflowError as exc:  # a bare one, from math or **; typed ones pass
        if isinstance(exc, KelvinError):
            raise
        return EvalResult(math.inf, math.inf, evals, False, ("non_finite",))


def integrate_semiinf(f) -> EvalResult:
    """Integral of f over [0, inf) for integrands decaying at least
    exponentially, mapped onto s in (0, 1) by t = -log(1-s); no node lies
    on s = 1 (t = inf): one that rounds onto it ends the walk there."""
    return integrate_finite(lambda s: f(-math.log1p(-s)) / (1.0 - s), 0.0, 1.0)


def apelblat_ber_bei(nu: float, x: float) -> tuple[float, float]:
    """(ber_nu(x), bei_nu(x)) from Bessel's integral (DLMF 10.9.6) for
    ber_nu(x) + i bei_nu(x) = e^(i pi nu) J_nu(z), z = e^(-i pi/4) x = X - i X:

      ber_nu + i bei_nu = (1/pi) int_0^pi e^(i pi nu) cos(z sin t - nu t) dt
                          - (sin(pi nu)/pi) int_0^T e^(i pi nu) e^(-nu t - z sinh t) dt

    with X = x/sqrt(2).  The Schlaefli tail, over (0, inf) in DLMF and
    absent at the integers, is cut at T = :func:`_tail_cut`.

    Each integral meets max(TOL, TOL |integral|), so a value far below TOL
    is good to the absolute bound TOL only: ber_9.6(0.1) ~ -1.8e-19 comes
    back as -4.7e-17, and orders +-10 at x = 0.1 6e3 to 8e3 times off.
    """
    _finite_positive(nu, x)
    big_x = x / SQRT2
    z = complex(big_x, -big_x)
    p = bessel._turn(nu)  # e^(i pi nu), exact at the integers
    cos, sin, exp, sinh = cmath.cos, math.sin, cmath.exp, math.sinh
    w = _value(integrate_finite(lambda t: p * cos(z * sin(t) - nu * t), 0.0, PI)) / PI
    if abs(p.imag) > 1e-15:
        tail = integrate_finite(lambda t: p * exp(-nu * t - z * sinh(t)),
                                0.0, _tail_cut(nu, big_x))
        w -= p.imag / PI * _value(tail)
    return w.real, w.imag


def _tail_cut(nu: float, big_x: float) -> float:
    """A cut T with phi(T) >= _CUT, phi(t) = nu t + X sinh t, the -log of
    the tail's |integrand|.  phi is convex with phi(0) = 0, so phi' >= _CUT/T
    past T: there the integrand stays below e^(-_CUT), and the part dropped
    is below e^(-_CUT) T/_CUT, 1.5e-16 (1.5e-6 TOL) at the T < 1421 of any
    tail that returns (its centre node's sinh overflows past T/2 = 710.5).
    A negative order's e^(|nu| t) grows first: T <- asinh((_CUT + 1 + |nu| T)/X)
    climbs to the root of X sinh T = _CUT + 1 + |nu| T, each step leaving
    phi(T) = _CUT + 1 - |nu| dT, and stops at |nu| dT <= 1 (in 27 steps or
    fewer at X < 710, past which the finite part has overflowed).  A
    positive order's e^(-nu t) alone is e^(-_CUT) at _CUT/nu."""
    n, t = max(-nu, 0.0), 0.0
    while True:
        t, last = math.asinh((_CUT + 1.0 + n * t) / big_x), t
        if not n * (t - last) > 1.0:  # ends at t = inf too, where X < 41/DBL_MAX
            break
    if nu > 0.0:
        return min(t, _CUT / nu)
    if t == math.inf:
        raise ConvergenceError(f"the tail of order {nu} has no finite cut at X = {big_x:.3g}")
    return t


def apelblat_dber_dbei(nu: float, x: float) -> tuple[float, float]:
    """(d ber_nu/d nu, d bei_nu/d nu) from the log-weighted integral form:

      d ber_nu/d nu = log(x/2) ber_nu - (3 pi/4) bei_nu
          - (x/(2 sqrt 2)) int_0^1 u^((nu-1)/2) [gamma + log(1-u)] B(u) du

    with B = ber_{nu-1}(x sqrt u) + bei_{nu-1}(x sqrt u), and ber_{nu-1} -
    bei_{nu-1} for the bei derivative: the index-consistent bracket, which
    the term-by-term differentiation of the defining series produces.  The
    two printed transcriptions, which miss the closed forms, are recorded in
    the ``apelblat_d_nodes`` fixture of tests/conftest.py.

    The first series term of ber_{nu-1} + i bei_{nu-1} at y = x sqrt u,
    (y/2)^(nu-1) e^(3 pi i (nu-1)/4) / Gamma(nu), carries the u^(nu-1)
    endpoint behaviour of the integrand, which concentrates at u = 0 as
    nu -> 0.  It is integrated in closed form,

      int_0^1 u^(nu-1) [gamma + log(1-u)] du / Gamma(nu) = -psi(nu+1)/Gamma(nu+1),

    which tends to gamma at nu = 0, where 1/Gamma(nu) vanishes.  The rest
    of the integrand goes like u^nu at 0 and is integrated over w = sqrt(u)
    in [0, 1].  At y < 1e-8 it is the second series term, exact to double
    precision there, where the series less its first term would be all
    rounding (and y^(nu-1) can overflow); above, ber_{nu-1} + i bei_{nu-1}
    is read from the ray kernel, on one set-up of order nu - 1.
    """
    if not 0.5 * x > 0.0 or nu < 0.0:
        raise DomainError("requires x > 0, x/2 not underflowing to 0, and nu >= 0")
    ber, bei = kelvin_ber_bei(nu, x)
    o = _RayOrder(nu - 1.0)  # the bracket's order, set up once for every node
    phase, ray = o.phase(), bessel._ray_sums
    g1 = gamma_real(nu + 1.0)
    # the first term of ber_{nu-1} + i bei_{nu-1} at y is lead * y^(nu-1) * turn
    lead = nu / g1 * 2.0 ** (1.0 - nu)
    th = 0.75 * PI * (nu - 1.0)
    turn = complex(math.cos(th), math.sin(th))

    def integrand(w: float) -> complex:
        # ber and bei of the bracket at y = x w, less their first terms, packed re/im
        y = x * w
        if y < 1e-8:
            r = 1j * turn * (0.5 * y) ** (nu + 1.0) / g1  # the second term, to eps
        else:
            r = phase * ray(o, y, False)[0] - lead * y ** (nu - 1.0) * turn
        # u^((nu-1)/2) [gamma + log(1-u)] du at u = w^2
        return 2.0 * w ** nu * (EULER_GAMMA + math.log(1.0 - w) + math.log1p(w)) * r

    try:
        first = -(x / 2.0) ** (nu - 1.0) * digamma_real(nu + 1.0) / g1
    except OverflowError:  # the power, at nu < 1 and x below about 1.1e-308
        raise PowerOverflowError(
            f"(x/2)^{nu - 1.0:g} overflows double precision at x = {x:g}") from None
    packed = _value(integrate_finite(integrand, 0.0, 1.0)) + first * turn
    pref = x / (2.0 * SQRT2)
    return (math.log(x / 2.0) * ber - 0.75 * PI * bei - pref * (packed.real + packed.imag),
            math.log(x / 2.0) * bei + 0.75 * PI * ber + pref * (packed.real - packed.imag))


def appendix_ber_bei(x: float, variant: str = "sin") -> tuple[float, float]:
    """Order-zero values from the quarter-period form of Bessel's integral
    (DLMF 10.9.6 at nu = 0, whose tail drops out), z = e^(-i pi/4) x:

      ber(x) + i bei(x) = (2/pi) int_0^{pi/2} cos(z sc(t)) dt

    with sc = sin or cos selected by ``variant`` (the two are equal by the
    t -> pi/2 - t substitution); its real and imaginary parts are
    cosh(s) cos(s) and sinh(s) sin(s) at s = x sc(t)/sqrt 2.  As in
    :func:`apelblat_ber_bei`, a value far below TOL is good to the absolute
    bound TOL only (bei(x) ~ x^2/4 at small x).
    """
    _finite(0.0, x)
    if variant not in ("sin", "cos"):
        raise ValueError("variant must be 'sin' or 'cos'")
    if x < 0.0:
        raise DomainError("x must be nonnegative")
    sc, cos = (math.sin if variant == "sin" else math.cos), cmath.cos
    z = complex(x / SQRT2, -x / SQRT2)
    w = 2.0 / PI * _value(integrate_finite(lambda t: cos(z * sc(t)), 0.0, PI / 2.0))
    return w.real, w.imag


def convolution_identity(a: float, b: float, t: float) -> IdentityReport:
    """Check ber(2 sqrt(a t)) + ber(2 sqrt(b t)) against its self-convolution:

      (2/pi) int_0^t cosh cos(sqrt((a+b)(t-tau))) cosh cos(sqrt((a-b) tau))
                     / sqrt(tau (t-tau)) dtau

    where 'cosh cos(s)' abbreviates cosh(s) cos(s).  The endpoint kernel is
    removed by tau = t sin^2(theta).  Tolerance: ``manifest.CONVOLUTION_TOL``.
    """
    if not (a >= b > 0.0 and t > 0.0):
        raise DomainError("requires a >= b > 0 and t > 0")
    lhs = (kelvin_ber_bei(0.0, 2.0 * math.sqrt(a * t))[0]
           + kelvin_ber_bei(0.0, 2.0 * math.sqrt(b * t))[0])

    def f(theta: float) -> float:
        s2 = math.sin(theta) ** 2
        u1 = math.sqrt((a + b) * t * (1.0 - s2))
        u2 = math.sqrt((a - b) * t * s2)
        return (math.cosh(u1) * math.cos(u1)) * (math.cosh(u2) * math.cos(u2))

    res = integrate_finite(f, 0.0, PI / 2.0)
    return _report(f"convolution_a{a:g}_b{b:g}", a, t, lhs, 4.0 / PI * res.value,
                   M.CONVOLUTION_TOL, res.converged)


def theorem5_identities(nu: float, x: float) -> tuple[IdentityReport, IdentityReport]:
    """Check the log-weighted moment integrals of ber and bei against their
    closed forms, both rows from one adaptive pass over ber + i bei:

      int_0^1 u^(nu+1) log(1-u^2) f_nu(x u) du
        = (1/(sqrt 2 x)) { [pi/4 + log(x/2) + gamma] f_{nu+1}(x)
                           +/- [pi/4 - log(x/2) - gamma] g_{nu+1}(x)
                           + sqrt 2 Re[e^(i pi (nu +/- 1/4))
                                       dJ/dmu|_{mu=nu+1}(e^(-i pi/4) x)] }

    with (f, g, upper signs) = (ber, bei, +) and (bei, ber, -).  The Bessel
    order derivative on the right sits at order nu + 1, one step above the
    order under the integral (the identity arises from the derivative of the
    order-(nu+1) function).  ber/bei and dJ/dmu at mu = nu + 1 come from one
    series run with its psi sums, read as in ``dkelvin``: with
    E = e^(i pi mu) dJ/dmu = d(ber + i bei)/dmu - i pi (ber + i bei),
    sqrt 2 Re[e^(i pi (nu + 1/4)) dJ/dmu] = Im E - Re E and
    sqrt 2 Re[e^(i pi (nu - 1/4)) dJ/dmu] = -Re E - Im E.  Tolerance: ``manifest.THEOREM5_TOL``.
    """
    _finite(nu, x)
    if not 0.5 * x > 0.0 or nu <= -1.0:
        raise DomainError("requires x > 0, x/2 not underflowing to 0, and nu > -1")
    o = _RayOrder(nu)  # set up once for every node
    phase, ray = o.phase(), bessel._ray_sums

    def g(u: float) -> complex:
        return (u ** (nu + 1.0) * (math.log(1.0 - u) + math.log1p(u))
                * (phase * ray(o, x * u, False)[0]))

    res = integrate_finite(g, 0.0, 1.0)
    lhs = res.value
    o = _RayOrder(nu + 1.0)
    bb, dbb, _ = _bb_series(o, bessel._ray_sums(o, x, True), x)
    e = dbb - 1j * PI * bb
    ber1, bei1 = bb.real, bb.imag
    alpha = EULER_GAMMA + math.log(x / 2.0)
    rhs_ber = ((PI / 4.0 + alpha) * ber1 + (PI / 4.0 - alpha) * bei1
               + e.imag - e.real) / (SQRT2 * x)
    rhs_bei = ((PI / 4.0 + alpha) * bei1 - (PI / 4.0 - alpha) * ber1
               - e.real - e.imag) / (SQRT2 * x)
    return (_report("theorem5_ber", nu, x, lhs.real, rhs_ber, M.THEOREM5_TOL, res.converged),
            _report("theorem5_bei", nu, x, lhs.imag, rhs_bei, M.THEOREM5_TOL, res.converged))


def theorem5_identity(nu: float, x: float, f: str) -> IdentityReport:
    """The row of :func:`theorem5_identities` for f = 'ber' or 'bei'."""
    if f not in ("ber", "bei"):
        raise ValueError("f must be 'ber' or 'bei'")
    return theorem5_identities(nu, x)[f == "bei"]


def indefinite_integral_check(nu: float, x: float,
                              tol: float = 1e-9) -> tuple[IdentityReport, IdentityReport]:
    """Check the antiderivatives of u^(nu+1) ber_nu / bei_nu as definite
    integrals from 0 (where the boundary term vanishes for nu > -1):

      int_0^x u^(nu+1) ber_nu(u) du =  (x^(nu+1)/sqrt 2) [bei_{nu+1}(x) - ber_{nu+1}(x)]
      int_0^x u^(nu+1) bei_nu(u) du = -(x^(nu+1)/sqrt 2) [bei_{nu+1}(x) + ber_{nu+1}(x)]
    """
    _finite(nu, x)
    if nu < 0.0 or x <= 0.0:
        raise DomainError("requires nu >= 0 and x > 0")
    o = _RayOrder(nu)  # set up once for every node
    phase, ray = o.phase(), bessel._ray_sums
    # both integrals in one adaptive pass, packed re/im, from the ray kernel
    res = integrate_finite(lambda u: u ** (nu + 1.0) * (phase * ray(o, u, False)[0]), 0.0, x)
    lhs = res.value
    ber1, bei1 = kelvin_ber_bei(nu + 1.0, x)
    pref = x ** (nu + 1.0) / SQRT2
    return (_report("indefinite_ber", nu, x, lhs.real, pref * (bei1 - ber1), tol,
                    res.converged),
            _report("indefinite_bei", nu, x, lhs.imag, -pref * (bei1 + ber1), tol,
                    res.converged))
