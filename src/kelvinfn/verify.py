"""Identity-verification suites over the frozen manifest grids.

Each suite takes no arguments and returns a list of :class:`IdentityReport`
rows; ``run_suites`` is what both the command-line ``verify`` command and
the acceptance tests drive.  Suite names: fd, reflection, ode, apelblat,
theorem5, appendix, brychkov, integer (plus 'all').  Series and integrals
run at the one accuracy of ``hyper`` and ``quad``; a row whose integral or
closed form misses its target fails (``quad.make_report``), its value NaN where
none came back, so every suite returns all its rows.

fd, reflection and integer run their orders over their x grid as one plan
per call (``orderderiv._plan_rows``, the one front of plans, as for
``fd_oracle``): every series run of the call, then every K sum.  fd's plan
holds each order with dK/dnu followed by its four stencil orders;
integer's each order 0..5 once, with dK/dnu at the orders of its finite
sums, which read the values from every row.  apelblat and appendix, which
read no K, and the ODE stencils run the kernels at each point on one
``bessel._RayOrder`` per order; apelblat's derivative rows read one series
run with its psi sums per (nu, x) (``orderderiv._bb_series``), as
``quad.theorem5_identities`` does.  A call of fd, reflection, integer or
ode sums each K start and each K request (|nu|, x, dk) once: the plan owns
the dict of K starts its orders share, and ode, which runs the K kernel
itself, keeps its own (``bessel._k_sums``).
"""

from __future__ import annotations

import math

from . import bessel
from . import manifest as M
from .bessel import _RayOrder, _turn
from .errors import ConvergenceError, DomainError
from .kelvin import ROT_K, _k_bound
from .orderderiv import (_bb_series, _dkelvin_integer, _plan_rows, dkelvin_bb_brychkov,
                         dkelvin_bb_pos)
from .quad import (IdentityReport, apelblat_ber_bei, apelblat_dber_dbei, appendix_ber_bei,
                   convolution_identity, indefinite_integral_check, make_report,
                   theorem5_identities)

_COMPONENTS = ("dber", "dbei", "dker", "dkei")


def _side(fn, *args) -> tuple[tuple[float, float], bool]:
    """(fn(*args), True), or ((nan, nan), False) where the integral or the
    closed form behind fn misses its error target (ConvergenceError)."""
    try:
        return fn(*args), True
    except ConvergenceError:
        return (math.nan, math.nan), False


def _stencil(nu: float) -> tuple[float, float, float, float]:
    """The orders of the finite differences at nu: nu +- h1, nu +- h2."""
    h1, h2 = M.FD_STEPS
    return nu + h1, nu - h1, nu + h2, nu - h2


def _richardson(hi1, lo1, hi2, lo2) -> list[tuple[float, ...]]:
    """Richardson-extrapolated central differences over the order, one
    4-tuple (dber, dbei, dker, dkei) per x, from the value rows at the
    orders of :func:`_stencil`."""
    h1, h2 = M.FD_STEPS
    return [tuple((4.0 * ((c - d) / (2.0 * h2)) - (a - b) / (2.0 * h1)) / 3.0
                  for a, b, c, d in zip(p1, m1, p2, m2, strict=True))
            for p1, m1, p2, m2 in zip(hi1, lo1, hi2, lo2, strict=True)]


def fd_oracle(nu: float, xs) -> list[tuple[float, ...]]:
    """Richardson-extrapolated finite-difference order derivatives, one
    4-tuple (dber, dbei, dker, dkei) per x of ``xs``."""
    return _richardson(*_plan_rows([(s, False) for s in _stencil(nu)], xs))


def suite_fd() -> list[IdentityReport]:
    """dkelvin vs finite differences, positive and reflected grids: one
    plan of each order with dK/dnu, followed by its four stencil orders."""
    orders = [sign * nu for sign in (1.0, -1.0) for nu in M.FD_NU]
    plan = [e for nu in orders for e in [(nu, True)] + [(s, False) for s in _stencil(nu)]]
    batches = _plan_rows(plan, M.FD_X)
    out = []
    for i, order in enumerate(orders):
        rows, *values = batches[5 * i:5 * i + 5]
        for x, row, ora in zip(M.FD_X, rows, _richardson(*values), strict=True):
            for name, g, o in zip(_COMPONENTS, row[4:8], ora, strict=True):
                tol = M.FD_SCALED_TOL * (1.0 + abs(o))
                out.append(make_report(f"fd_{name}", order, x, g, o, tol))
    return out


def suite_integer() -> list[IdentityReport]:
    """Integer-order finite sums vs ``dkelvin`` at the integer itself, where
    its term-wise dJ/dnu and its dK/dnu quadrature are regular.  One plan
    runs each order 0..5, with dK/dnu at the orders n of the sums; the sums
    read the values from the first four fields of every order's rows."""
    out, ns = [], M.INTEGER_N
    rows = _plan_rows([(float(k), k in ns) for k in range(max(ns) + 1)], M.INTEGER_X)
    for n in ns:
        for i, (x, row) in enumerate(zip(M.INTEGER_X, rows[n], strict=True)):
            sums = _dkelvin_integer(n, x, [r[i][:4] for r in rows[:n + 1]])
            vals = (sums.dber, sums.dbei, sums.dker, sums.dkei)
            for name, g, o in zip(_COMPONENTS, vals, row[4:8], strict=True):
                tol = M.INTEGER_SCALED_TOL * (1.0 + abs(o))
                out.append(make_report(f"integer_{name}", float(n), x, g, o, tol))
    return out


def suite_brychkov() -> list[IdentityReport]:
    """Rotation-form ber/bei derivatives vs the 3F6/4F7 reference forms."""
    out = []
    for nu in M.BRYCHKOV_NU:
        for x in M.BRYCHKOV_X:
            (a, a_ok), (b, b_ok) = _side(dkelvin_bb_pos, nu, x), _side(dkelvin_bb_brychkov, nu, x)
            ok = a_ok and b_ok
            out.append(make_report("brychkov_dber", nu, x, a[0], b[0], M.BRYCHKOV_TOL, ok))
            out.append(make_report("brychkov_dbei", nu, x, a[1], b[1], M.BRYCHKOV_TOL, ok))
    return out


def suite_apelblat() -> list[IdentityReport]:
    """Integral representations vs the series path, values and derivatives."""
    out = []
    for nu in M.APELBLAT_NU:
        o = _RayOrder(nu)  # the set-up of order nu, shared by its rows
        for arg in M.APELBLAT_ARG:
            q, ok = _side(apelblat_ber_bei, nu, arg)
            k = o.phase() * bessel._ray_sums(o, arg, False)[0]
            out.append(make_report("apelblat_ber", nu, arg, q[0], k.real, M.APELBLAT_TOL, ok))
            out.append(make_report("apelblat_bei", nu, arg, q[1], k.imag, M.APELBLAT_TOL, ok))
    for nu in M.APELBLAT_D_NU:
        o = _RayOrder(nu)
        for x in M.APELBLAT_D_X:
            q, ok = _side(apelblat_dber_dbei, nu, x)
            dbb = _bb_series(o, bessel._ray_sums(o, x, True), x)[1]
            out.append(make_report("apelblat_dber", nu, x, q[0], dbb.real, M.APELBLAT_D_TOL, ok))
            out.append(make_report("apelblat_dbei", nu, x, q[1], dbb.imag, M.APELBLAT_D_TOL, ok))
    return out


def suite_theorem5() -> list[IdentityReport]:
    """Log-weighted moment integrals plus the antiderivative checks."""
    out = []
    for nu in M.THEOREM5_NU:
        for x in M.THEOREM5_X:
            out.extend(theorem5_identities(nu, x))
    for nu, x, tol in M.INDEFINITE_POINTS:
        out.extend(indefinite_integral_check(nu, x, tol))
    return out


def suite_appendix() -> list[IdentityReport]:
    """Quarter-period representations and the self-convolution identity."""
    out = []
    o = _RayOrder(0.0)  # the set-up of order 0, shared by its rows
    for x in M.APPENDIX_X:
        (s, s_ok), (c, c_ok) = _side(appendix_ber_bei, x, "sin"), _side(appendix_ber_bei, x, "cos")
        k = o.phase() * bessel._ray_sums(o, x, False)[0]
        out.append(make_report("appendix_variants_ber", 0.0, x, s[0], c[0],
                               M.APPENDIX_VARIANT_TOL, s_ok and c_ok))
        out.append(make_report("appendix_variants_bei", 0.0, x, s[1], c[1],
                               M.APPENDIX_VARIANT_TOL, s_ok and c_ok))
        out.append(make_report("appendix_series_ber", 0.0, x, s[0], k.real,
                               M.APPENDIX_SERIES_TOL, s_ok))
        out.append(make_report("appendix_series_bei", 0.0, x, s[1], k.imag,
                               M.APPENDIX_SERIES_TOL, s_ok))
    for a, b, t in M.CONVOLUTION_POINTS:
        out.append(convolution_identity(a, b, t))
    return out


def suite_reflection() -> list[IdentityReport]:
    """Integer reflection: f_{-n} = (-1)^n f_n for all four functions."""
    out = []
    plan = [(nu, False) for n in M.REFLECTION_N for nu in (float(-n), float(n))]
    batches = iter(_plan_rows(plan, M.REFLECTION_X))
    for n in M.REFLECTION_N:
        sgn = -1.0 if n % 2 else 1.0
        for x, neg, pos in zip(M.REFLECTION_X, next(batches), next(batches), strict=True):
            for name, lhs, p in zip(("ber", "bei", "ker", "kei"), neg, pos, strict=True):
                rhs = sgn * p
                tol = M.REFLECTION_REL_TOL * max(abs(rhs), 1e-30)
                out.append(make_report(f"reflection_{name}", float(-n), x, lhs, rhs, tol))
    return out


def _ode_residual(w_of_x, nu: float, x: float, h: float) -> float:
    """Scaled residual of x^2 w'' + x w' - (nu^2 + i x^2) w via 5-point stencils."""
    w = [w_of_x(x + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (w[0] - 8.0 * w[1] + 8.0 * w[3] - w[4]) / (12.0 * h)
    d2 = (-w[0] + 16.0 * w[1] - 30.0 * w[2] + 16.0 * w[3] - w[4]) / (12.0 * h * h)
    residual = x * x * d2 + x * d1 - complex(nu * nu, x * x) * w[2]
    scale = abs(w[2]) + abs(x * d1) + abs(x * x * d2)
    return abs(residual) / scale


def suite_ode() -> list[IdentityReport]:
    """Both Kelvin pairs satisfy x^2 w'' + x w' - (nu^2 + i x^2) w = 0."""
    out, starts = [], {}  # the K starts, shared by the stencils of every order
    for nu in M.ODE_BB_NU:
        o = _RayOrder(nu)
        phase = o.phase()
        for x in M.ODE_X:
            res = _ode_residual(lambda t: phase * bessel._ray_sums(o, t, False)[0],
                                nu, x, M.ODE_STEP)
            out.append(make_report("ode_ber_bei", nu, x, res, 0.0, M.ODE_SCALED_TOL))
    for nu in M.ODE_KK_NU:
        turn = _turn(-0.5 * nu)

        def ker_kei(t: float) -> complex:
            k = bessel._k_sums(abs(nu), ROT_K * t, False, starts)[0]
            _k_bound(nu, t, k)
            return turn * k[0]

        for x in M.ODE_X:
            res = _ode_residual(ker_kei, nu, x, M.ODE_STEP)
            out.append(make_report("ode_ker_kei", nu, x, res, 0.0, M.ODE_SCALED_TOL))
    return out


SUITES = {
    "fd": suite_fd,
    "reflection": suite_reflection,
    "ode": suite_ode,
    "apelblat": suite_apelblat,
    "theorem5": suite_theorem5,
    "appendix": suite_appendix,
    "brychkov": suite_brychkov,
    "integer": suite_integer,
}


def run_suites(name: str) -> list[IdentityReport]:
    """Run one named suite (or 'all', every suite in order) at the manifest
    tolerances; DomainError at an unknown name."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise DomainError(f"unknown suite {name!r}; choose from "
                         f"{['all'] + sorted(SUITES)}")
    return [r for n in names for r in SUITES[n]()]
