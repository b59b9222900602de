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
the start of ``bessel._k_sums`` (Temme's series at x <= 0.5, the
trapezoidal sum on a contour bent towards steepest descent above) and the
order derivative of its recurrence.  The *_neg ops read the order
derivatives at -nu from ``dkelvin``.

The paper's closed forms stay as oracles for the verify suites and tests:
``dkelvin_bb_pos`` (csc/2F3/3F4 dJ/dnu), ``dkelvin_kk_pos`` (closed-form
dK/dnu), ``dkelvin_bb_brychkov`` (3F6/4F7) and ``dkelvin_integer`` (finite
sums over lower-order Kelvin values, tag 'integer_sum').  The first two
rotate ``bessel.dj_dnu`` and ``bessel.dk_dnu`` at the ray points (J and I
by ``bessel._z_sums``), with the Kelvin values from their own kernels; the
first three raise ConvergenceError where their estimate reaches |value|,
but not next to an integer order, where they can be wrong without raising.

``dkelvin`` is two kernel calls: the series at nu with its psi sums, T and
P (``bessel._ray_sums``), and the K start and climb at |nu| with dK/dnu
(``bessel._k_sums``).  Each side takes one phase: with ber + i bei = phi T,
d(ber + i bei)/dnu = phi ((log(x/2) + 3i pi/4) T - P), as
dT/dnu = log(x/2) T - P, and the K side turns by e^(-i pi nu/2).

``_plan_rows`` is the one way to run orders over an x grid: a *plan* of
(order, dK/dnu wanted) entries, each with rows of values, or of values,
order derivatives and estimates.  ``dkelvin`` is a plan of one entry at
one x; a table, ``eval``, each verify suite call and ``dkelvin_integer``
(the orders 0..n) run one plan.  A plan of more than one entry owns the
dict of K starts its orders share (``bessel._k_sums``).
``_bb_series`` also gives theorem 5 (``quad``) ber/bei and dJ/dnu at nu + 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import bessel
from .bessel import _EPS, ORDER_EPS, _is_near_int, _RayOrder, _turn, dj_dnu, dk_dnu
from .errors import DomainError, KelvinError, SeriesOverflowError
from .hyper import EvalResult, pfq
from .kelvin import (_VALUE_FLOOR, ROT_J, ROT_K, KelvinQuad, _eval_ber_bei, _eval_ker_kei,
                     _finite, _finite_positive, _k_bound, _ray_rounding, _some_digit)
from .scalars import PI, digamma_real, gamma_real

# dkelvin_kk_pos refuses 2 nu this close to an integer, where the csc of its
# closed form amplifies the cancellation of I_{-nu} against I_nu
NEAR_EXCLUDED = 1e-6


class OrderDerivQuad(NamedTuple):
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


def dkelvin_bb_pos(nu: float, x: float) -> tuple[float, float]:
    """(d ber_nu/d nu, d bei_nu/d nu) for non-integer nu >= 0, x > 0, by the
    paper's csc/2F3/3F4 closed form for dJ/dnu (``bessel.dj_dnu``).  Next to
    an integer order it can be wrong without raising."""
    _finite_positive(nu, x)
    if nu < 0.0 or _is_near_int(nu, ORDER_EPS):
        raise DomainError(f"integer or negative order {nu}: use dkelvin")
    ber, bei, est = _eval_ber_bei(nu, x)
    r = dj_dnu(nu, ROT_J * x)
    e = _turn(nu) * r.value
    return _some_digit(e.real - PI * bei, e.imag + PI * ber, r.abs_err_estimate + PI * est, nu, x)


def dkelvin_kk_pos(nu: float, x: float) -> tuple[float, float]:
    """(d ker_nu/d nu, d kei_nu/d nu) for nu >= 0 with 2 nu non-integer, x > 0,
    by the paper's closed form for dK/dnu.  Orders with 2 nu within 1e-6 of
    an integer are refused; just outside, it can be wrong without raising."""
    _finite_positive(nu, x)
    if nu < 0.0 or _is_near_int(2.0 * nu, NEAR_EXCLUDED):
        raise DomainError(f"order {nu} excluded for the K-side closed form")
    ker, kei, est = _eval_ker_kei(nu, x)
    r = dk_dnu(nu, ROT_K * x)
    e = _turn(-0.5 * nu) * r.value
    return _some_digit(e.real + PI / 2.0 * kei, e.imag - PI / 2.0 * ker,
                       r.abs_err_estimate + PI / 2.0 * est, nu, x)


def dkelvin_bb_neg(nu: float, x: float) -> tuple[float, float]:
    """Order derivatives of ber and bei evaluated at order -nu, for nu > 0;
    read from ``dkelvin(-nu, x)``."""
    if nu <= 0.0 or x <= 0.0:
        raise DomainError("requires nu > 0 and x > 0")
    d = dkelvin(-nu, x)
    return d.dber, d.dbei


def dkelvin_kk_neg(nu: float, x: float) -> tuple[float, float]:
    """Order derivatives of ker and kei evaluated at order -nu, for nu > 0;
    read from ``dkelvin(-nu, x)``."""
    if nu <= 0.0 or x <= 0.0:
        raise DomainError("requires nu > 0 and x > 0")
    d = dkelvin(-nu, x)
    return d.dker, d.dkei


def dkelvin_integer(n: int | float, x: float) -> OrderDerivQuad:
    """All four order derivatives at integer order n >= 0 via the finite sums.

    d ber/d nu |_n = -(pi/2) bei_n - ker_n
        + (n!/2) sum_{k=0}^{n-1} (x/2)^(k-n) / (k! (n-k))
            [cos(5(k-n)pi/4) ber_k + sin(5(k-n)pi/4) bei_k]

    with the analogous sums (3(k-n)pi/4 weights) on the K side.  Sums are
    empty at n = 0.  Kept as an oracle for ``dkelvin`` at integer order.
    A float order must be an integer (2.0), or DomainError is raised.
    The orders 0..n are one plan (:func:`_plan_rows`), read from a generator
    up to the first order that fails, so that n = 1e17 raises at once.
    """
    _finite(n, x)
    if n != int(n):
        raise DomainError(f"finite sums need an integer order, got nu = {n}")
    n = int(n)
    if n < 0:
        raise DomainError("finite sums defined for n >= 0 only")
    if x <= 0.0:
        raise DomainError("x must be positive")
    rows = _plan_rows(((float(k), False) for k in range(n + 1)), (x,))
    return _dkelvin_integer(n, x, [r[0] for r in rows])


def _dkelvin_integer(n: int, x: float, quads: list) -> OrderDerivQuad:
    """:func:`dkelvin_integer` at n >= 0 and x > 0 from ``quads``, the value
    rows (ber, bei, ker, kei) of :func:`_plan_rows` at the orders 0..n."""
    top = KelvinQuad(*quads[n], float(n), x)
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
        ber, bei, ker, kei = quads[k]
        dber += w * (c5 * ber + s5 * bei)
        dbei += w * (c5 * bei - s5 * ber)
        dker += w * (c3 * ker - s3 * kei)
        dkei += w * (s3 * ker + c3 * kei)
    est = 1e-12 * (1.0 + abs(dber) + abs(dbei) + abs(dker) + abs(dkei))
    return OrderDerivQuad(dber, dbei, dker, dkei, float(n), x, "integer_sum", est, top)


def _reference_pfq(nu: float, x: float, a: int, d: bool) -> EvalResult:
    """The series of d(nu, x, a) (4F7) if ``d``, else of c(nu, x, a) (3F6), at
    -x^4/16; DomainError at a non-finite nu or x, SeriesOverflowError where
    x^4 overflows."""
    _finite(nu, x)
    try:
        z = -x ** 4 / 16.0
    except OverflowError:
        raise SeriesOverflowError(f"x^4 overflows double precision at x = {x:g}") from None
    if d:
        return pfq(
            ((a + 1.0) / 2.0, (a + 1.0) / 2.0, (2.0 * a + 3.0) / 4.0, (2.0 * a + 5.0) / 4.0),
            (a + 0.5, (a + 3.0) / 2.0, (a + 3.0) / 2.0, (nu + a) / 2.0 + 1.0,
             (nu + a + 3.0) / 2.0, (a - nu) / 2.0 + 1.0, (a - nu + 3.0) / 2.0), z)
    return pfq(
        ((2.0 * nu + a + 1.0) / 4.0, (2.0 * nu + 3.0) / 4.0, (2.0 * nu + 5.0 * a) / 4.0),
        (a + 0.5, (nu + a + 1.0) / 2.0, (nu + a) / 2.0 + 1.0, (nu + a) / 2.0 + 1.0,
         nu + (a + 1.0) / 2.0, nu + 1.0 + a / 2.0), z)


def coef_c(nu: float, x: float, a: int) -> float:
    """c(nu, x, a): the 3F6 factor of the reference ber/bei order derivatives."""
    return _reference_pfq(nu, x, a, False).value.real


def coef_d(nu: float, x: float, a: int) -> float:
    """d(nu, x, a): the 4F7 factor of the reference ber/bei order derivatives."""
    return _reference_pfq(nu, x, a, True).value.real


def dkelvin_bb_brychkov(nu: float, x: float) -> tuple[float, float]:
    """Reference closed form for (d ber/d nu, d bei/d nu) built from c and d.

    Kept as an independent evaluation path for differential testing against
    :func:`dkelvin_bb_pos`; it routes through negative-order Kelvin values
    and the real 3F6/4F7 series instead of complex-argument 2F3/3F4.  Its
    estimate adds to eps |weight| (largest series term) over the c and d
    terms the error of ber/bei (estimate plus 4 ulp) times their weights,
    and over the p terms that of the values at -nu plus the rounding of the
    phases 3 pi nu/2 and pi nu (csc) and of the Gamma and power factors.
    Next to an integer order the form can be wrong without raising.
    """
    _finite_positive(nu, x)
    if nu <= 0.0 or _is_near_int(nu, ORDER_EPS):
        raise DomainError("reference form needs non-integer nu > 0")
    ber, bei, e = _eval_ber_bei(nu, x)
    ber_m, bei_m, e_m = _eval_ber_bei(-nu, x)
    series = [_reference_pfq(nu, x, a, d) for d in (False, True) for a in (0, 1)]
    c0, c1, d0, d1 = (r.value.real for r in series)
    psi = digamma_real(nu)
    lg = math.log(x / 2.0) - psi - 1.0 / (2.0 * nu)
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
    m = abs(c32 * bei_m + s32 * ber_m) + abs(c32 * ber_m - s32 * bei_m)
    b = abs(ber) + abs(bei)
    w = abs(math.log(x / 2.0)) + abs(psi) + 0.5 / nu + 3.0 + abs(q) * (abs(d0) + abs(r * d1))
    est = (_EPS * (m * (abs(p0) * series[0].max_abs_term + abs(p1) * series[1].max_abs_term)
                   + abs(q) * b * (series[2].max_abs_term + abs(r) * series[3].max_abs_term))
           + w * (e + 4.0 * _EPS * b) + (abs(p0 * c0) + abs(p1 * c1))
           * (e_m + _EPS * m * (8.0 + nu * (5.0 + 3.2 * abs(csc * math.cos(PI * nu))))))
    return _some_digit(dber, dbei, est, nu, x)


def dkelvin(nu: float, x: float) -> OrderDerivQuad:
    """The four order derivatives at any real order nu and x > 0.

    Every order rotates the term-wise dJ/dnu of the series at nu and the
    dK/dnu of the K pass at |nu|, odd in nu, onto the Kelvin rays (method
    'series').  The result also carries the four values at nu.
    """
    (ber, bei, ker, kei, dber, dbei, dker, dkei, est_j, est_k), = \
        _plan_rows(((nu, True),), (x,))[0]
    return OrderDerivQuad(dber, dbei, dker, dkei, nu, x, "series", est_j + est_k,
                          KelvinQuad(ber, bei, ker, kei, nu, x))


def _plan_rows(plan, xs) -> list[list[tuple]]:
    """The rows of each entry (nu, dK/dnu wanted) of the *plan* ``plan`` at
    each x of ``xs``: (ber, bei, ker, kei), ``kelvin_all`` bit for bit,
    where dK/dnu is not wanted, else (ber, bei, ker, kei, dber, dbei, dker,
    dkei, est_j, est_k), est_j the series' abs error estimate
    (:func:`_bb_series`), est_k that of dK/dnu plus pi/2 times K's, each
    with the ray point's rounding (``kelvin._ray_rounding``).

    Each entry's order is set up once (``bessel._RayOrder``).  Every series
    run of every entry (``bessel._ray_sums``, with the psi sums where dK/dnu
    is wanted) comes first, then every K sum at |nu| (``bessel._k_sums``),
    each checked by ``kelvin._k_bound``, all in entry-then-x order: each
    kernel runs 6-10% slower right after the other.  The entries share one
    dict of K starts; a plan of one entry, whose x have no start in common,
    keeps none.  The rows come in a pass after (built in the K pass, they
    won 14 and 15 of 40 runs over the 81 table orders).
    The ``KelvinError`` raised is a row-by-row pass's first: a series fault
    is raised after the K sums of the rows before it; ``plan``, read once up
    to that fault, may be a generator.  Any other exception is raised at
    once.  An empty grid gives one empty list per entry.
    """
    if not xs:
        return [[] for _ in plan]
    entries, fault = [], None  # (dK/dnu wanted, order, series runs, K sums) per entry
    try:
        for nu, dk in plan:
            o = None
            for x in xs:
                _finite_positive(nu, x)
                if o is None:  # nu is finite
                    o = _RayOrder(nu)
                    entries.append((dk, o, [], []))
                entries[-1][2].append(bessel._ray_sums(o, x, dk))
    except KelvinError as exc:  # raised below, after the K sums before it
        fault = exc
    starts = {} if len(entries) > 1 else None
    for dk, o, runs, ks in entries:
        for x, _ in zip(xs, runs):
            ks.append(bessel._k_sums(abs(o.mu), ROT_K * x, dk, starts))
            _k_bound(o.mu, x, ks[-1][0])
    if fault is not None:
        raise fault
    return [_derivs(xs, o, runs, ks) if dk else _values(o, runs, ks)
            for dk, o, runs, ks in entries]


def _values(o: _RayOrder, runs: list, ks: list) -> list[tuple]:
    """The value rows of :func:`_plan_rows` of the order ``o``."""
    turn = _turn(-0.5 * o.mu)
    rows = []
    for run, (k, _) in zip(runs, ks):
        bb, kk = o.phase() * run[0], turn * k[0]
        rows.append((bb.real, bb.imag, kk.real, kk.imag))
    return rows


def _derivs(xs, o: _RayOrder, runs: list, ks: list) -> list[tuple]:
    """The derivative rows of :func:`_plan_rows` of the order ``o``."""
    m, turn = abs(o.mu), _turn(-0.5 * o.mu)
    dturn = -turn if o.mu < 0.0 else turn  # turn * -dK/dnu, bit for bit
    rows = []
    # log(x/2) cannot fail here: where x/2 underflows to 0 the K start has raised
    for x, run, (k, dk) in zip(xs, runs, ks):
        bb, dbb, est_j = _bb_series(o, run, x)
        kk, e = turn * k[0], dturn * dk[0]
        est_k = (dk[1] + _ray_rounding(m, x, dk[0])
                 + PI / 2.0 * (k[1] + _ray_rounding(m, x, k[0])))
        rows.append((bb.real, bb.imag, kk.real, kk.imag, dbb.real, dbb.imag,
                     e.real + PI / 2.0 * kk.imag, e.imag - PI / 2.0 * kk.real, est_j, est_k))
    return rows


def _bb_series(o: _RayOrder, run: tuple, x: float) -> tuple[complex, complex, float]:
    """(ber + i bei, d(ber + i bei)/dnu, abs error estimate of the latter)
    from the run of ``bessel._ray_sums`` with psi sums, T and P, of the order
    ``o`` at x: ber + i bei = phi T and d(ber + i bei)/dnu =
    phi ((log(x/2) + 3i pi/4) T - P), phi = ``o.phase()``.  The estimate
    adds to the run's estimates the floor of each series, ``_VALUE_FLOOR``
    times its largest term, each scaled as in the derivative."""
    t, t_err, _, _, t_max, (p, p_err, p_max, _, _) = run
    lg = complex(math.log(0.5 * x), 0.75 * PI)
    phi = o.phase()
    return (phi * t, phi * (lg * t - p),
            abs(lg) * (t_err + _VALUE_FLOOR * t_max) + p_err + _VALUE_FLOOR * p_max)
