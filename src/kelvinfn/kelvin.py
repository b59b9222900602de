"""The four Kelvin functions of arbitrary real order.

Every order comes straight from the defining rotations

    ber_nu(x) + i bei_nu(x) = e^(i pi nu)    J_nu(e^(-i pi/4) x)
    ker_nu(x) + i kei_nu(x) = e^(-i pi nu/2) K_|nu|(e^(i pi/4)  x)

with J_nu the ascending series, entire in the order, and K_|nu| started
near |nu| - floor(|nu|), by Temme's series at x <= 1.2 and the trapezoidal
sum of DLMF 10.32.9 on a contour bent towards steepest descent above, and
climbed to |nu| (see ``bessel``); K is even in the order (DLMF 10.27.3).
Neither route has a special case at or next to an integer order, nor a
bound on the order.

J_mu and I_mu of one order are one real series on the two rays, turned by
one exact phase e^(3i pi mu/4) into ber + i bei, so ber_{-n} = (-1)^n ber_n
holds bit for bit; the K side's phase e^(-i pi nu/2) is exact likewise, so
ker_{-n} = (-1)^n ker_n.  Each value is one run of each kernel:
``bessel._ray_sums`` on an order set up once (``bessel._RayOrder``: Gamma
and psi at the anchor, the phase) and ``bessel._k_sums``, checked by
``_k_bound`` and turned by e^(-i pi nu/2).  ``kelvin_all`` composes the
two runs itself, as do the integrand nodes of ``quad`` and the ODE
stencils of ``verify``.  Orders at many x run as one *plan* (``_phases``),
a list of (order, dK/dnu wanted) entries over one x grid: each order set
up once, every series run of every entry, then every K sum.  A verify
suite call runs one plan (``orderderiv._plan_rows``); ``_kelvin_rows``
(values) and ``orderderiv._dkelvin_rows`` (the order derivatives too) are
plans of one entry, for a table order, ``eval`` and ``verify.fd_oracle``.
``_eval_ber_bei`` and ``_eval_ker_kei`` are the
one-sided entries, with error estimates (``eval``, the closed forms).
``_eval_ber_bei`` takes an optional dict of orders: a caller that evaluates
one order at many x (the value rows of apelblat and appendix) passes the
same dict each time, so that the order is set up once per top-level call;
the batches take one of K starts (``bessel._k_sums``) likewise, for all
the orders of a call.  ``_finite`` (``bessel._finite``, shared with the
complex API) is where every entry rejects a non-finite order or argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bessel
from .bessel import _EPS, _finite, _order, _RayOrder, _turn
from .errors import ConvergenceError, DomainError

_HALF_SQRT2 = math.sqrt(0.5)
# e^(-i pi/4) and e^(i pi/4); built componentwise so conjugation tests are exact
ROT_J = complex(_HALF_SQRT2, -_HALF_SQRT2)
ROT_K = complex(_HALF_SQRT2, _HALF_SQRT2)
# the rounding floor of ber/bei per unit of the series' largest term; against
# 40-digit mpmath on the grid of the tests 7.2e-16 is the least that covers
# the true error (at nu = -3.3, x = 0.1)
_VALUE_FLOOR = 1e-15


@dataclass(frozen=True)
class KelvinQuad:
    """All four Kelvin function values at one (nu, x)."""

    ber: float
    bei: float
    ker: float
    kei: float
    nu: float
    x: float


def _origin(nu: float, x: float) -> tuple[float, float, float]:
    """(ber, bei, 0) at x = 0; DomainError at x < 0, and at x = 0
    where the order is negative and not an integer."""
    if x < 0.0:
        raise DomainError("Kelvin functions defined for x >= 0")
    if nu < 0.0 and nu != round(nu):
        raise DomainError("ber/bei of negative non-integer order are singular at x = 0")
    return (1.0 if nu == 0.0 else 0.0), 0.0, 0.0


def _rotate(o: _RayOrder, run: tuple) -> tuple[float, float, float]:
    """(ber, bei, abs error estimate) from the kernel run of ``o``."""
    s, err, _, _, max_term, _ = run
    value = o.phase() * s
    return value.real, value.imag, err + _VALUE_FLOOR * max_term


def _k_bound(nu: float, x: float, k: tuple) -> None:
    """ConvergenceError where the K sum ``k`` at |nu| and x (a tuple of
    ``bessel._k_sums``) has no error bound."""
    if not k[3]:
        raise ConvergenceError(f"the K sum at order {nu:g} has no error bound at x = {x:g}")


def _eval_ber_bei(nu: float, x: float, orders: dict | None = None) -> tuple[float, float, float]:
    """(ber, bei, abs error estimate) from one kernel run at x.

    A caller that evaluates order nu at many x passes them all one dict
    ``orders``, in which nu is set up once (``bessel._RayOrder``).
    """
    _finite(nu, x)
    if x <= 0.0:
        return _origin(nu, x)
    o = _RayOrder(nu) if orders is None else _order(orders, nu)
    return _rotate(o, bessel._ray_sums(o, x, False))


def _eval_ker_kei(nu: float, x: float) -> tuple[float, float, float]:
    """(ker, kei, abs error estimate) from one K start and climb at x.  The
    sum is taken at the double z = ``ROT_K`` x, off the ray by its rounding,
    so the estimate adds what that moves K by (:func:`_ray_rounding`)."""
    _finite(nu, x)
    if x <= 0.0:
        raise DomainError("ker/kei defined for x > 0")
    k = bessel._k_sums(abs(nu), ROT_K * x, False)[0]  # K is even in the order
    _k_bound(nu, x, k)
    w = _turn(-0.5 * nu) * k[0]  # exact at integer nu (``bessel._turn``)
    return w.real, w.imag, k[1] + _ray_rounding(nu, x, k[0])


def _ray_rounding(nu: float, x: float, v: complex) -> float:
    """eps (x + |nu|) |v|: about what the rounding of z = ``ROT_K`` x to a
    double (|dz| < 0.81 eps x) moves v = K_nu or dK/dnu by at large x, where
    |dv/dz| is near (1 + |nu|/x) |v|.  With it the estimates are 2.4 to 15
    times the error against mpmath on the exact ray at x in [12, 30]."""
    return _EPS * (x + abs(nu)) * abs(v)


def kelvin_ber_bei(nu: float, x: float) -> tuple[float, float]:
    """(ber_nu(x), bei_nu(x)) for x >= 0.

    Raises
    ------
    DomainError
        If nu or x is not finite, x < 0, or x = 0 at negative non-integer
        order, where (x/2)^nu is singular.
    """
    return _eval_ber_bei(nu, x)[:2]


def kelvin_ker_kei(nu: float, x: float) -> tuple[float, float]:
    """(ker_nu(x), kei_nu(x)) for x > 0; DomainError at x = 0 (log singularity)
    and at non-finite nu or x."""
    return _eval_ker_kei(nu, x)[:2]


def _phases(plan, xs, starts: dict | None) -> list[tuple]:
    """The kernel runs of a *plan*, entries (order nu, dK/dnu wanted) over
    the grid ``xs``, as one (order, K turn, series runs, K sums) per entry:
    each entry's order set up once (``bessel._RayOrder``), every series run
    of every entry (``bessel._ray_sums``, with the psi sums where dK/dnu is
    wanted), then every K sum at |nu| (``bessel._k_sums``, on ``starts``),
    each checked by ``_k_bound``, all in entry-then-x order.  Each kernel
    runs 6-10% slower right after the other.  The error raised is a
    row-by-row pass's first, in that order: a series fault is raised after
    the K sums of the rows before it.  An empty grid gives no entries."""
    phases, fault = [], None
    try:
        for nu, dk in plan:
            o = None
            for x in xs:
                _finite(nu, x)
                if x <= 0.0:
                    raise DomainError("x must be positive")
                if o is None:  # nu is finite
                    o, runs = _RayOrder(nu), []
                    phases.append((o, _turn(-0.5 * nu), runs, []))
                runs.append(bessel._ray_sums(o, x, dk))
    except Exception as exc:  # noqa: BLE001 - raised below, after the K sums before it
        fault = exc
    for (nu, dk), (_, _, runs, ks) in zip(plan, phases):
        m = abs(nu)
        for x, _ in zip(xs, runs):
            ks.append(bessel._k_sums(m, ROT_K * x, dk, starts))
            _k_bound(nu, x, ks[-1][0])
    if fault is not None:
        raise fault
    return phases


def _values(o: _RayOrder, turn: complex, runs: list, ks: list) -> list[tuple]:
    """The rows (ber, bei, ker, kei) of one entry of :func:`_phases`."""
    rows = []
    for run, (k, _) in zip(runs, ks):
        bb, kk = o.phase() * run[0], turn * k[0]
        rows.append((bb.real, bb.imag, kk.real, kk.imag))
    return rows


def _kelvin_rows(nu: float, xs,
                 starts: dict | None = None) -> list[tuple[float, float, float, float]]:
    """``kelvin_all`` at order nu and each x of ``xs``, bit for bit, as the
    plain tuple (ber, bei, ker, kei): a plan of one entry (:func:`_phases`),
    for a caller that evaluates one order at many x.  As a batch of one it
    costs 10% more per point than ``kelvin_all`` (33.1 against 30.0 ms over
    1024 scattered points), which therefore composes its two runs itself."""
    phases = _phases(((nu, False),), xs, starts)
    return _values(*phases[0]) if phases else []


def kelvin_all(nu: float, x: float) -> KelvinQuad:
    """All four Kelvin functions at (nu, x), x > 0; DomainError otherwise and
    at non-finite nu or x.  The values of ``_eval_ber_bei`` and
    ``_eval_ker_kei`` bit for bit, from their two kernel runs, less the
    error estimates; a series error is raised before a K sum error."""
    if x <= 0.0:
        raise DomainError("kelvin_all requires x > 0 (ker/kei singular at 0)")
    _finite(nu, x)
    o = _RayOrder(nu)
    bb = o.phase() * bessel._ray_sums(o, x, False)[0]
    k = bessel._k_sums(abs(nu), ROT_K * x, False)[0]
    _k_bound(nu, x, k)
    kk = _turn(-0.5 * nu) * k[0]
    return KelvinQuad(bb.real, bb.imag, kk.real, kk.imag, nu, x)
