"""Adaptive quadrature engine and the integral representations / identities.

The engine is a globally adaptive Gauss-Kronrod 7-15 pair (open nodes, so
integrable endpoint singularities never get evaluated) with bisection of the
worst panel.  It starts from a list of panels under one global error target
(``_integrate_panels``, the breakpoints of QUADPACK's QAGP);
``integrate_finite`` is its one-panel start.  Each integral representation
substitutes its known endpoint singularity away before handing the
integrand to the engine:

* log(1-u) endpoints use u = 1 - e^(-v), under which log(1-u) = -v exactly;
  the two integrals over v in [0, 45] (theorem 5 and the Apelblat order
  derivatives) start on the dyadic panels ``_V_EDGES``, which the bisection
  of the one panel [0, 45] reaches on 19 of the 21 points of their manifest
  grids (at nu = 2.5, x = 0.5 it stops one level short), so the parents of
  those panels are never evaluated;
* u^((nu-1)/2) power endpoints use u = w^2;
* the 1/sqrt(tau (t-tau)) convolution kernel uses tau = t sin^2(theta).

Every identity check returns an :class:`IdentityReport` that serializes to
one CSV row: name,nu,x,lhs,rhs,abs_diff,tol,pass.  A value-returning
representation whose integral misses its error target raises
:class:`ConvergenceError`; an identity row whose integral misses it fails.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from . import bessel
from .bessel import _RayOrder
from .errors import ConvergenceError, DomainError
from .hyper import DEFAULT_SERIES, EvalResult, SeriesConfig
from .kelvin import _eval_ber_bei, _finite, kelvin_ber_bei
from .orderderiv import _bb_series
from .scalars import EULER_GAMMA, PI, SQRT2, digamma_real, gamma_real

_MAX_SPLITS = 4096
# the starting panels of the integrals over v in [0, 45]: 0, 45/64, ..., 45/2, 45
_V_EDGES = (0.0,) + tuple(45.0 * 2.0 ** -k for k in range(6, -1, -1))


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and limits for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 30

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")


DEFAULT_QUAD = QuadConfig()


@dataclass(frozen=True)
class IdentityReport:
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
        return (f"{self.name},{self.nu:.17g},{self.x:.17g},{self.lhs:.17g},"
                f"{self.rhs:.17g},{self.abs_diff:.17g},{self.tol:.17g},"
                f"{1 if self.passed else 0}")


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


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK values).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod value and |K15 - G7| error estimate on [a, b]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = h * _XGK[i]
        v = f(c - x) + f(c + x)
        kron += _WGK[i] * v
        if i % 2 == 1:  # odd Kronrod indices are the Gauss-7 nodes
            gauss += _WG[i // 2] * v
    return kron * h, abs(kron - gauss) * h


def integrate_finite(f, a: float, b: float,
                     cfg: QuadConfig = DEFAULT_QUAD) -> EvalResult:
    """Adaptive integral of f over [a, b] by worst-panel bisection.

    Returns converged=False (with the best estimate) if the error target
    max(abs_tol, rel_tol * |result|) is still unmet once every remaining
    panel has reached max_depth.  This is the one-panel start of
    :func:`_integrate_panels`.
    """
    return _integrate_panels(f, (a, b), cfg)


def _integrate_panels(f, edges: tuple[float, ...],
                      cfg: QuadConfig = DEFAULT_QUAD) -> EvalResult:
    """Adaptive integral of f over [edges[0], edges[-1]], started from the
    panels between consecutive edges (the breakpoints of QUADPACK's QAGP).

    Every starting panel is at depth 0 and joins one heap under one global
    error target, so a panel that needs more still bisects, up to max_depth
    below its own start; a start on the panels the bisection of
    [edges[0], edges[-1]] always reaches skips evaluating their parents.
    """
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise DomainError("integration interval must satisfy a < b")
    # heap entries: (-err, seq, depth, a, b, val, err); panels at max_depth
    # are dropped from the heap but their contribution stays in the totals
    heap = []
    for seq, (a, b) in enumerate(zip(edges, edges[1:])):
        val, err = _gk15(f, a, b)
        heap.append((-err, seq, 0, a, b, val, err))
    # summed onto the first panel, so that one panel returns its own value
    total_val = sum((e[5] for e in heap[1:]), heap[0][5])
    total_err = sum(e[6] for e in heap)
    heapq.heapify(heap)
    stuck_err = 0.0
    seq = len(heap)
    evals = 15 * seq
    splits = 0
    while heap:
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        if total_err <= target:
            break
        if stuck_err >= target or splits >= _MAX_SPLITS:
            break  # unreachable tolerance; stop refining, report honestly
        _, _, depth, pa, pb, pval, perr = heapq.heappop(heap)
        if depth >= cfg.max_depth:
            stuck_err += perr
            continue
        mid = 0.5 * (pa + pb)
        lv, le = _gk15(f, pa, mid)
        rv, re_ = _gk15(f, mid, pb)
        evals += 30
        splits += 1
        total_val += lv + rv - pval
        total_err += le + re_ - perr
        heapq.heappush(heap, (-le, seq, depth + 1, pa, mid, lv, le))
        heapq.heappush(heap, (-re_, seq + 1, depth + 1, mid, pb, rv, re_))
        seq += 2
    converged = total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
    flags = () if converged else ("max_depth_exceeded",)
    return EvalResult(total_val, total_err, evals, converged, flags)


def integrate_semiinf(f, cfg: QuadConfig = DEFAULT_QUAD) -> EvalResult:
    """Integral of f over [0, inf) for integrands decaying at least
    exponentially, mapped onto s in (0, 1) by t = -log(1-s)."""

    def g(s: float) -> float:
        t = -math.log1p(-s)
        return f(t) / (1.0 - s)

    return integrate_finite(g, 0.0, 1.0, cfg)


def _exp_decay(t: float, scale: float) -> float:
    """e^(-scale sinh t) guarded against sinh overflow (underflows to 0)."""
    if scale * math.sinh(min(t, 40.0)) > 745.0 or t > 40.0:
        return 0.0
    return math.exp(-scale * math.sinh(t))


def apelblat_ber_bei(nu: float, x: float,
                     cfg: QuadConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """(ber_nu(x), bei_nu(x)) from the two-part integral representation.

    With X = x/sqrt(2):

      ber_nu(x) = (1/pi) int_0^pi [cos(pi nu) cos(X sin t - nu t) cosh(X sin t)
                                   - sin(pi nu) sin(X sin t - nu t) sinh(X sin t)] dt
                  - (sin(pi nu)/pi) int_0^inf e^(-nu t - X sinh t)
                                             cos(X sinh t + pi nu) dt

    and the bei companion swaps sin/sinh pairings and signs.  The oscillatory
    factor in the tail carries X sinh t (the derivation from the contour
    representation of J at argument e^(-i pi/4) x makes both the decay and
    the oscillation come from the same X sinh t term).
    """
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    big_x = x / SQRT2
    cpn = math.cos(PI * nu)
    spn = math.sin(PI * nu)

    def fin(t: float) -> complex:
        # both finite parts in one adaptive pass, packed re/im
        s = big_x * math.sin(t)
        c, sn = math.cos(s - nu * t), math.sin(s - nu * t)
        ch, sh = math.cosh(s), math.sinh(s)
        return complex(cpn * c * ch - spn * sn * sh, cpn * sn * sh + spn * c * ch)

    w = _value(integrate_finite(fin, 0.0, PI, cfg)) / PI
    if abs(spn) > 1e-15:

        def tail(t: float) -> complex:
            # e^(-nu t - X sinh t) e^(i (X sinh t + pi nu)): both tails, packed re/im
            d = _exp_decay(t, big_x)
            if d == 0.0:
                return 0j
            a = big_x * math.sinh(t) + PI * nu
            return math.exp(-nu * t) * d * complex(math.cos(a), math.sin(a))

        w -= spn / PI * _value(integrate_semiinf(tail, cfg))
    return w.real, w.imag


_BRACKET_VARIANTS = ("consistent", "printed_s1", "printed_s3")


def apelblat_dber_dbei(nu: float, x: float,
                       cfg: QuadConfig = DEFAULT_QUAD,
                       series_cfg: SeriesConfig = DEFAULT_SERIES,
                       bracket: str = "consistent") -> tuple[float, float]:
    """(d ber_nu/d nu, d bei_nu/d nu) from the log-weighted integral form:

      d ber_nu/d nu = log(x/2) ber_nu - (3 pi/4) bei_nu
          - (x/(2 sqrt 2)) int_0^1 u^((nu-1)/2) [gamma + log(1-u)] B(u) du

    ``bracket`` selects B(u).  The transcriptions in circulation disagree:

    * 'consistent'  B = ber_{nu-1}(x sqrt u) + bei_{nu-1}(x sqrt u)   (and
      ber_{nu-1} - bei_{nu-1} for the bei derivative) -- this is the variant
      the term-by-term differentiation of the defining series produces, and
      the only one that reproduces the closed forms numerically;
    * 'printed_s1'  mixed indices ber_{nu-1} +/- bei_nu;
    * 'printed_s3'  ber_{nu-1} + bei_{nu-1} for *both* derivatives.

    The first series term of ber_{nu-1} + i bei_{nu-1} at y = x sqrt u,
    (y/2)^(nu-1) e^(3 pi i (nu-1)/4) / Gamma(nu), carries the u^(nu-1)
    endpoint behaviour of the integrand, which concentrates at u = 0 as
    nu -> 0.  It is integrated in closed form,

      int_0^1 u^(nu-1) [gamma + log(1-u)] du / Gamma(nu) = -psi(nu+1)/Gamma(nu+1),

    which tends to gamma at nu = 0, where 1/Gamma(nu) vanishes.  The rest
    of the integrand goes like u^nu at 0 and is integrated under u = w^2
    and then w = 1 - e^(-v), which makes the log(1-u) factor exact.
    """
    if bracket not in _BRACKET_VARIANTS:
        raise ValueError(f"bracket must be one of {_BRACKET_VARIANTS}")
    if x <= 0.0 or nu < 0.0:
        raise DomainError("requires x > 0 and nu >= 0")
    ber, bei = kelvin_ber_bei(nu, x, series_cfg)
    orders: dict = {}  # the set-ups of orders nu - 1 and nu, shared by every node
    g1 = gamma_real(nu + 1.0)
    # the first term of ber_{nu-1} + i bei_{nu-1} at y is lead * y^(nu-1) * turn;
    # the mixed bracket takes bei of order nu, whose first term needs no split
    lead = nu / g1 * 2.0 ** (1.0 - nu)
    th = 0.75 * PI * (nu - 1.0)
    turn = complex(math.cos(th), 0.0 if bracket == "printed_s1" else math.sin(th))

    def integrand(v: float) -> complex:
        # ber and bei of the bracket, less their first terms, packed re/im
        w = -math.expm1(-v)
        y = x * w
        if y == 0.0 or w >= 1.0:
            return 0j  # the rest vanishes at u = 0; past v ~ 37, e^(-v) < eps
        b, e, _, _ = _eval_ber_bei(nu - 1.0, y, series_cfg, orders)
        if bracket == "printed_s1":
            e = _eval_ber_bei(nu, y, series_cfg, orders)[1]
        # u^((nu-1)/2) [gamma + log(1-u)] du, with log(1-u) = -v + log(1+w)
        weight = 2.0 * w ** nu * (EULER_GAMMA - v + math.log1p(w)) * math.exp(-v)
        return weight * (complex(b, e) - lead * y ** (nu - 1.0) * turn)

    first = -(x / 2.0) ** (nu - 1.0) * digamma_real(nu + 1.0) / g1
    packed = _value(_integrate_panels(integrand, _V_EDGES, cfg)) + first * turn
    b_ber = packed.real + packed.imag
    b_bei = b_ber if bracket == "printed_s3" else packed.real - packed.imag
    pref = x / (2.0 * SQRT2)
    return (math.log(x / 2.0) * ber - 0.75 * PI * bei - pref * b_ber,
            math.log(x / 2.0) * bei + 0.75 * PI * ber + pref * b_bei)


def appendix_ber_bei(x: float, variant: str = "sin",
                     cfg: QuadConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """Order-zero values from the quarter-period representations

      ber(x) = (2/pi) int_0^{pi/2} cosh(x sc(t)/sqrt 2) cos(x sc(t)/sqrt 2) dt
      bei(x) = (2/pi) int_0^{pi/2} sinh(x sc(t)/sqrt 2) sin(x sc(t)/sqrt 2) dt

    with sc = sin or cos selected by ``variant`` (the two are equal by the
    t -> pi/2 - t substitution).
    """
    _finite(0.0, x)
    if variant not in ("sin", "cos"):
        raise ValueError("variant must be 'sin' or 'cos'")
    if x < 0.0:
        raise DomainError("x must be nonnegative")
    sc = math.sin if variant == "sin" else math.cos

    def f(t: float) -> complex:
        # both integrals in one adaptive pass, packed re/im
        s = x * sc(t) / SQRT2
        return complex(math.cosh(s) * math.cos(s), math.sinh(s) * math.sin(s))

    w = 2.0 / PI * _value(integrate_finite(f, 0.0, PI / 2.0, cfg))
    return w.real, w.imag


def convolution_identity(a: float, b: float, t: float,
                         cfg: QuadConfig = DEFAULT_QUAD,
                         series_cfg: SeriesConfig = DEFAULT_SERIES,
                         tol: float = 1e-7) -> IdentityReport:
    """Check ber(2 sqrt(a t)) + ber(2 sqrt(b t)) against its self-convolution:

      (2/pi) int_0^t cosh cos(sqrt((a+b)(t-tau))) cosh cos(sqrt((a-b) tau))
                     / sqrt(tau (t-tau)) dtau

    where 'cosh cos(s)' abbreviates cosh(s) cos(s).  The endpoint kernel is
    removed by tau = t sin^2(theta).
    """
    if not (a >= b > 0.0 and t > 0.0):
        raise DomainError("requires a >= b > 0 and t > 0")
    lhs = (kelvin_ber_bei(0.0, 2.0 * math.sqrt(a * t), series_cfg)[0]
           + kelvin_ber_bei(0.0, 2.0 * math.sqrt(b * t), series_cfg)[0])

    def f(theta: float) -> float:
        s2 = math.sin(theta) ** 2
        u1 = math.sqrt((a + b) * t * (1.0 - s2))
        u2 = math.sqrt((a - b) * t * s2)
        return (math.cosh(u1) * math.cos(u1)) * (math.cosh(u2) * math.cos(u2))

    res = integrate_finite(f, 0.0, PI / 2.0, cfg)
    return _report(f"convolution_a{a:g}_b{b:g}", a, t, lhs, 4.0 / PI * res.value, tol,
                   res.converged)


def theorem5_identities(nu: float, x: float,
                        cfg: QuadConfig = DEFAULT_QUAD,
                        series_cfg: SeriesConfig = DEFAULT_SERIES,
                        tol: float = 1e-7) -> tuple[IdentityReport, IdentityReport]:
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
    sqrt 2 Re[e^(i pi (nu - 1/4)) dJ/dmu] = -Re E - Im E.
    """
    _finite(nu, x)
    if x <= 0.0 or nu <= -1.0:
        raise DomainError("requires x > 0 and nu > -1")
    orders: dict = {}  # the set-up of order nu, shared by every node

    def g(v: float) -> complex:
        u = -math.expm1(-v)
        if u <= 0.0 or u >= 1.0:
            return 0j
        log1mu2 = -v + math.log1p(u)
        ber, bei, _, _ = _eval_ber_bei(nu, x * u, series_cfg, orders)
        return u ** (nu + 1.0) * log1mu2 * math.exp(-v) * complex(ber, bei)

    res = _integrate_panels(g, _V_EDGES, cfg)
    lhs = res.value
    o = _RayOrder(nu + 1.0)
    bb, dbb, _ = _bb_series(o, bessel._ray_sums(o, x, series_cfg, True), x)
    e = dbb - 1j * PI * bb
    ber1, bei1 = bb.real, bb.imag
    alpha = EULER_GAMMA + math.log(x / 2.0)
    rhs_ber = ((PI / 4.0 + alpha) * ber1 + (PI / 4.0 - alpha) * bei1
               + e.imag - e.real) / (SQRT2 * x)
    rhs_bei = ((PI / 4.0 + alpha) * bei1 - (PI / 4.0 - alpha) * ber1
               - e.real - e.imag) / (SQRT2 * x)
    return (_report("theorem5_ber", nu, x, lhs.real, rhs_ber, tol, res.converged),
            _report("theorem5_bei", nu, x, lhs.imag, rhs_bei, tol, res.converged))


def theorem5_identity(nu: float, x: float, f: str,
                      cfg: QuadConfig = DEFAULT_QUAD,
                      series_cfg: SeriesConfig = DEFAULT_SERIES,
                      tol: float = 1e-7) -> IdentityReport:
    """The row of :func:`theorem5_identities` for f = 'ber' or 'bei'."""
    if f not in ("ber", "bei"):
        raise ValueError("f must be 'ber' or 'bei'")
    return theorem5_identities(nu, x, cfg, series_cfg, tol)[f == "bei"]


def indefinite_integral_check(nu: float, x: float,
                              cfg: QuadConfig = DEFAULT_QUAD,
                              series_cfg: SeriesConfig = DEFAULT_SERIES,
                              tol: float = 1e-9) -> tuple[IdentityReport, IdentityReport]:
    """Check the antiderivatives of u^(nu+1) ber_nu / bei_nu as definite
    integrals from 0 (where the boundary term vanishes for nu > -1):

      int_0^x u^(nu+1) ber_nu(u) du =  (x^(nu+1)/sqrt 2) [bei_{nu+1}(x) - ber_{nu+1}(x)]
      int_0^x u^(nu+1) bei_nu(u) du = -(x^(nu+1)/sqrt 2) [bei_{nu+1}(x) + ber_{nu+1}(x)]
    """
    _finite(nu, x)
    if nu < 0.0 or x <= 0.0:
        raise DomainError("requires nu >= 0 and x > 0")
    orders: dict = {}  # the set-up of order nu, shared by every node
    # both integrals in one adaptive pass, packed re/im
    res = integrate_finite(lambda u: u ** (nu + 1.0) * complex(
        *_eval_ber_bei(nu, u, series_cfg, orders)[:2]), 0.0, x, cfg)
    lhs = res.value
    ber1, bei1 = kelvin_ber_bei(nu + 1.0, x, series_cfg)
    pref = x ** (nu + 1.0) / SQRT2
    return (_report("indefinite_ber", nu, x, lhs.real, pref * (bei1 - ber1), tol,
                    res.converged),
            _report("indefinite_bei", nu, x, lhs.imag, -pref * (bei1 + ber1), tol,
                    res.converged))
