"""One order, many arguments: the callers that set an order up once and run
it at many x (the batches of a table order and of the verify suites,
integrands, ODE stencils) return, bit for bit, what the single-point calls
return.  Each order is walked over x ascending and then descending with one
shared set-up, so that nothing an order keeps can depend on the argument it
was first run at.  Many orders, one argument: a K sum that reads its start
from a dict shared by every order of a call (``bessel._k_sums``) returns,
bit for bit, what a fresh sum returns."""

import math

import pytest

import kelvinfn.bessel
from kelvinfn import manifest as M
from kelvinfn.bessel import _k_sums, _RayOrder
from kelvinfn.cli import _fmt, _table_rows
from kelvinfn.errors import PowerOverflowError, SeriesOverflowError
from kelvinfn.kelvin import (ROT_K, _eval_ber_bei, _eval_ker_kei, _ray_rounding, kelvin_all,
                             kelvin_ber_bei, kelvin_ker_kei)
from kelvinfn.orderderiv import (_bb_series, _dkelvin_integer, _plan_rows, dkelvin,
                                 dkelvin_integer)
from kelvinfn.quad import (_report, apelblat_ber_bei, apelblat_dber_dbei,
                           indefinite_integral_check, integrate_finite, make_report,
                           theorem5_identities)
from kelvinfn.scalars import EULER_GAMMA, PI, SQRT2
from kelvinfn.verify import SUITES

ORDERS = [-10.0, -3.0, -3.0 - 1e-9, -3.0 + 1e-9, -2.5, -0.3, 0.0, 2e-6, 3.0, 3.0 + 5e-7,
          7.75, 10.0]
XS = [0.1, 2.0, 8.0, 20.0]
WALK = XS + XS[::-1]
_FIELDS = ("dber", "dbei", "dker", "dkei", "nu", "x", "err_estimate")
_VALUES = ("ber", "bei", "ker", "kei", "nu", "x")


def bits(*vals) -> tuple:
    return tuple(float(v).hex() for v in vals)


def value_rows(nu, xs) -> list:
    """The rows of a plan of one entry, order nu with its values alone."""
    return _plan_rows([(nu, False)], xs)[0]


def deriv_rows(nu, xs) -> list:
    """The rows of a plan of one entry, order nu with its order derivatives."""
    return _plan_rows([(nu, True)], xs)[0]


def deriv_bits(d) -> tuple:
    return (bits(*(getattr(d, f) for f in _FIELDS)) + (d.method,)
            + bits(*(getattr(d.values, f) for f in _VALUES)))


@pytest.mark.parametrize("nu", ORDERS)
def test_table_rows_equal_single_points(nu):
    """Every row of one batch, and every CSV row of one table order, is
    dkelvin at its x, estimates included."""
    points = [dkelvin(nu, x) for x in WALK]
    for x, d, line in zip(WALK, points, _table_rows([nu], WALK), strict=True):
        want = [_fmt(nu), _fmt(x)] + [_fmt(v) for v in (
            d.values.ber, d.values.bei, d.values.ker, d.values.kei,
            d.dber, d.dbei, d.dker, d.dkei)] + [d.method]
        assert line.split(",") == want, x
    for x, d, row in zip(WALK, points, deriv_rows(nu, WALK), strict=True):
        want = bits(d.values.ber, d.values.bei, d.values.ker, d.values.kei,
                    d.dber, d.dbei, d.dker, d.dkei, d.err_estimate)
        *vals, est_j, est_k = row
        assert bits(*vals, est_j + est_k) == want, x


# the table grid's orders and the fd suite's nu +- h; x across the K start
# border and on to the end of the envelope
BATCH_ORDERS = sorted({k / 4.0 for k in range(-40, 41)}
                      | {s * nu + d * h for s in (1.0, -1.0) for nu in M.FD_NU
                         for h in M.FD_STEPS for d in (1.0, -1.0)})
BATCH_XS = sorted({k / 10.0 for k in range(1, 21)} | {k / 2.0 for k in range(1, 41)})
BATCH_WALK = BATCH_XS + BATCH_XS[::-1]


@pytest.mark.parametrize("nu", BATCH_ORDERS)
def test_value_rows_equal_kelvin_all(nu):
    for x, row in zip(BATCH_WALK, value_rows(nu, BATCH_WALK), strict=True):
        q = kelvin_all(nu, x)
        assert bits(*row) == bits(q.ber, q.bei, q.ker, q.kei), x


def reference_rows(nu, xs, dk):
    """The one-order batches as they were before plans: the order set up
    once, every series run, then every K sum, and the value rows (``dk``
    false) or the derivative rows of ``_plan_rows`` built from them."""
    o, turn = _RayOrder(nu), kelvinfn.bessel._turn(-0.5 * nu)
    runs = [kelvinfn.bessel._ray_sums(o, x, dk) for x in xs]
    ks = [_k_sums(abs(nu), ROT_K * x, dk) for x in xs]
    rows = []
    for x, run, (k, dkn) in zip(xs, runs, ks):
        kk = turn * k[0]
        if not dk:
            bb = o.phase() * run[0]
            rows.append((bb.real, bb.imag, kk.real, kk.imag))
            continue
        bb, dbb, est_j = _bb_series(o, run, x)
        e = (-turn if nu < 0.0 else turn) * dkn[0]
        m = abs(nu)
        est_k = (dkn[1] + _ray_rounding(m, x, dkn[0])
                 + PI / 2.0 * (k[1] + _ray_rounding(m, x, k[0])))
        rows.append((bb.real, bb.imag, kk.real, kk.imag, dbb.real, dbb.imag,
                     e.real + PI / 2.0 * kk.imag, e.imag - PI / 2.0 * kk.real, est_j, est_k))
    return rows


@pytest.mark.parametrize("nu", BATCH_ORDERS[::3] + [-0.0])
def test_one_order_fronts_keep_their_bits(nu):
    """Plans of one entry (``_plan_rows``), of values and of order
    derivatives, return the one-order batches' rows bit for bit."""
    assert [bits(*r) for r in value_rows(nu, BATCH_WALK)] == [
        bits(*r) for r in reference_rows(nu, BATCH_WALK, False)]
    assert [bits(*r) for r in deriv_rows(nu, BATCH_WALK)] == [
        bits(*r) for r in reference_rows(nu, BATCH_WALK, True)]


def test_plan_rows_equal_one_order_batches():
    """A plan of many entries returns, entry by entry, the rows of the
    one-order batches, bit for bit: the fd suite's plan over its grid."""
    h1, h2 = M.FD_STEPS
    plan = [e for nu in ORDERS for e in ((nu, True), (nu + h1, False), (nu - h2, False))]
    for (nu, dk), rows in zip(plan, _plan_rows(plan, M.FD_X), strict=True):
        want = reference_rows(nu, M.FD_X, dk)
        assert [bits(*r) for r in rows] == [bits(*r) for r in want], (nu, dk)


# the batched suites as point-by-point loops over the public functions
_COMPONENTS = ("dber", "dbei", "dker", "dkei")


def _derivs(d) -> tuple:
    return d.dber, d.dbei, d.dker, d.dkei


def _fd_point(nu: float, x: float) -> tuple:
    def central(h):
        hi, lo = kelvin_all(nu + h, x), kelvin_all(nu - h, x)
        return tuple((a - b) / (2.0 * h) for a, b in
                     ((hi.ber, lo.ber), (hi.bei, lo.bei), (hi.ker, lo.ker), (hi.kei, lo.kei)))

    h1, h2 = M.FD_STEPS
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(central(h1), central(h2)))


def fd_points():
    out = []
    for sign in (1.0, -1.0):
        for nu in M.FD_NU:
            for x in M.FD_X:
                order = sign * nu
                got, ora = dkelvin(order, x), _fd_point(order, x)
                for name, g, o in zip(_COMPONENTS, _derivs(got), ora):
                    tol = M.FD_SCALED_TOL * (1.0 + abs(o))
                    out.append(make_report(f"fd_{name}", order, x, g, o, tol))
    return out


def reflection_points():
    out = []
    for n in M.REFLECTION_N:
        sgn = -1.0 if n % 2 else 1.0
        for x in M.REFLECTION_X:
            neg, pos = kelvin_all(float(-n), x), kelvin_all(float(n), x)
            pairs = (("ber", neg.ber, sgn * pos.ber), ("bei", neg.bei, sgn * pos.bei),
                     ("ker", neg.ker, sgn * pos.ker), ("kei", neg.kei, sgn * pos.kei))
            for name, lhs, rhs in pairs:
                tol = M.REFLECTION_REL_TOL * max(abs(rhs), 1e-30)
                out.append(make_report(f"reflection_{name}", float(-n), x, lhs, rhs, tol))
    return out


def integer_points():
    out = []
    for n in M.INTEGER_N:
        for x in M.INTEGER_X:
            sums, d = dkelvin_integer(n, x), dkelvin(float(n), x)
            for name, g, o in zip(_COMPONENTS, _derivs(sums), _derivs(d)):
                tol = M.INTEGER_SCALED_TOL * (1.0 + abs(o))
                out.append(make_report(f"integer_{name}", float(n), x, g, o, tol))
    return out


def apelblat_points():
    out = []
    for nu in M.APELBLAT_NU:
        for arg in M.APELBLAT_ARG:
            q, k = apelblat_ber_bei(nu, arg), kelvin_ber_bei(nu, arg)
            out.append(make_report("apelblat_ber", nu, arg, q[0], k[0], M.APELBLAT_TOL))
            out.append(make_report("apelblat_bei", nu, arg, q[1], k[1], M.APELBLAT_TOL))
    for nu in M.APELBLAT_D_NU:
        for x in M.APELBLAT_D_X:
            q, d = apelblat_dber_dbei(nu, x), dkelvin(nu, x)
            out.append(make_report("apelblat_dber", nu, x, q[0], d.dber, M.APELBLAT_D_TOL))
            out.append(make_report("apelblat_dbei", nu, x, q[1], d.dbei, M.APELBLAT_D_TOL))
    return out


def report_bits(r) -> tuple:
    return (r.name,) + bits(r.nu, r.x, r.lhs, r.rhs, r.abs_diff, r.tol) + (r.passed,)


@pytest.mark.parametrize("suite, points", [("fd", fd_points), ("reflection", reflection_points),
                                           ("integer", integer_points),
                                           ("apelblat", apelblat_points)])
def test_suite_batches_equal_point_loops(suite, points):
    """Each batched suite returns, row for row and bit for bit, what a loop
    over its points returns."""
    want = [report_bits(r) for r in points()]
    assert [report_bits(r) for r in SUITES[suite]()] == want


def integer_plan_points():
    """The integer suite on its earlier plan: the derivative entries, then a
    value entry at every order 0..5, whose rows feed the finite sums."""
    out, top = [], max(M.INTEGER_N) + 1
    plan = [(float(n), True) for n in M.INTEGER_N] + [(float(k), False) for k in range(top)]
    batches = _plan_rows(plan, M.INTEGER_X)
    rows, values = batches[:len(M.INTEGER_N)], batches[len(M.INTEGER_N):]
    for n, batch in zip(M.INTEGER_N, rows, strict=True):
        for i, (x, row) in enumerate(zip(M.INTEGER_X, batch, strict=True)):
            sums = _dkelvin_integer(n, x, [v[i] for v in values[:n + 1]])
            for name, g, o in zip(_COMPONENTS, _derivs(sums), row[4:8], strict=True):
                tol = M.INTEGER_SCALED_TOL * (1.0 + abs(o))
                out.append(make_report(f"integer_{name}", float(n), x, g, o, tol))
    return out


def test_integer_suite_equals_its_earlier_plan():
    """The integer suite's rows equal, field for field, those of the plan
    with a value entry at every order 0..5."""
    want = [report_bits(r) for r in integer_plan_points()]
    assert [report_bits(r) for r in SUITES["integer"]()] == want


def per_order_integer(n, x):
    """``dkelvin_integer`` on its earlier plans: one plan of one entry per
    order 0..n, each built when the sum reaches it."""
    return _dkelvin_integer(n, x, [_plan_rows([(float(k), False)], [x])[0][0]
                                   for k in range(n + 1)])


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of its error."""
    try:
        return deriv_bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


# x on Temme's series, between its borders, on the trapezoidal sum and up
# to K_MAX_ARG; (n, x) where a series or a K sum fails at some order <= n
INTEGER_SUM_XS = [0.05, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 3.0, 7.0, 12.0, 20.0, 29.0]
INTEGER_SUM_FAILS = [(10, 1e-300), (10, 5e-324), (3, 30.5), (30, 1e-10), (171, 0.05),
                     (200, 1e-3), (400, 20.0), (int(1e17), 1.0)]


@pytest.mark.parametrize("x", INTEGER_SUM_XS)
def test_integer_sums_run_one_plan(monkeypatch, x):
    """``dkelvin_integer(n, x)`` runs the orders 0..n as one plan: it sums
    one K start, and at n = 0..10 it equals, field for field, the sums on
    one plan per order."""
    summed = []
    for name in ("_k_temme", "_k_trapezoid"):
        def counted(*args, orig=getattr(kelvinfn.bessel, name)):
            summed.append(args)
            return orig(*args)

        monkeypatch.setattr(kelvinfn.bessel, name, counted)
    for n in range(11):
        summed.clear()
        got = outcome(dkelvin_integer, n, x)
        assert len(summed) == 1, (n, summed)
        assert got == outcome(per_order_integer, n, x), n


@pytest.mark.parametrize("n, x", INTEGER_SUM_FAILS)
def test_integer_sums_raise_as_per_order_plans(n, x):
    """Where an order <= n fails, ``dkelvin_integer`` raises the error of
    the first failing order, type and message, as one plan per order does."""
    got = outcome(dkelvin_integer, n, x)
    assert isinstance(got[0], type) and got == outcome(per_order_integer, n, x)


@pytest.mark.parametrize("nu", ORDERS)
def test_integrand_ber_bei_equal_single_points(nu):
    """ber + i bei as the integrands read it, phi T from the ray kernel on
    one set-up of the order walked over x, is ``kelvin_ber_bei`` bit for
    bit."""
    o = _RayOrder(nu)
    for x in WALK:
        bb = o.phase() * kelvinfn.bessel._ray_sums(o, x, False)[0]
        assert bits(bb.real, bb.imag) == bits(*kelvin_ber_bei(nu, x)), x


# the integrals as point-by-point node loops: ber + i bei from _eval_ber_bei
# at each node, the order set up afresh at each


def theorem5_nodes(nu: float, x: float, tol: float) -> tuple:
    def g(u):
        ber, bei, _ = _eval_ber_bei(nu, x * u)
        return u ** (nu + 1.0) * (math.log(1.0 - u) + math.log1p(u)) * complex(ber, bei)

    res = integrate_finite(g, 0.0, 1.0)
    o = _RayOrder(nu + 1.0)
    bb, dbb, _ = _bb_series(o, kelvinfn.bessel._ray_sums(o, x, True), x)
    e = dbb - 1j * PI * bb
    alpha = EULER_GAMMA + math.log(x / 2.0)
    rhs_ber = ((PI / 4.0 + alpha) * bb.real + (PI / 4.0 - alpha) * bb.imag
               + e.imag - e.real) / (SQRT2 * x)
    rhs_bei = ((PI / 4.0 + alpha) * bb.imag - (PI / 4.0 - alpha) * bb.real
               - e.real - e.imag) / (SQRT2 * x)
    return (_report("theorem5_ber", nu, x, res.value.real, rhs_ber, tol, res.converged),
            _report("theorem5_bei", nu, x, res.value.imag, rhs_bei, tol, res.converged))


def indefinite_nodes(nu: float, x: float, tol: float) -> tuple:
    res = integrate_finite(lambda u: u ** (nu + 1.0) * complex(
        *_eval_ber_bei(nu, u)[:2]), 0.0, x)
    ber1, bei1 = kelvin_ber_bei(nu + 1.0, x)
    pref = x ** (nu + 1.0) / SQRT2
    return (_report("indefinite_ber", nu, x, res.value.real, pref * (bei1 - ber1), tol,
                    res.converged),
            _report("indefinite_bei", nu, x, res.value.imag, -pref * (bei1 + ber1), tol,
                    res.converged))


@pytest.mark.parametrize("nu", M.THEOREM5_NU)
@pytest.mark.parametrize("x", M.THEOREM5_X)
def test_theorem5_nodes_equal_single_points(nu, x):
    """The theorem5 rows, their integrand on the ray kernel, are bit for bit
    those of a node loop over ``_eval_ber_bei``."""
    assert [report_bits(r) for r in theorem5_identities(nu, x)] == \
        [report_bits(r) for r in theorem5_nodes(nu, x, M.THEOREM5_TOL)]


@pytest.mark.parametrize("nu, x, tol", M.INDEFINITE_POINTS)
def test_indefinite_nodes_equal_single_points(nu, x, tol):
    assert [report_bits(r) for r in indefinite_integral_check(nu, x, tol)] == \
        [report_bits(r) for r in indefinite_nodes(nu, x, tol)]


@pytest.mark.parametrize("bracket", ["consistent"])
def test_apelblat_derivative_nodes_equal_single_points(bracket, apelblat_d_nodes):
    """The Apelblat derivative rows, on their suite grid, with the bracket
    the library computes."""
    def rows(nu, x, q, d):
        return [report_bits(make_report(name, nu, x, v, w, M.APELBLAT_D_TOL))
                for name, v, w in (("apelblat_dber", q[0], d.dber),
                                   ("apelblat_dbei", q[1], d.dbei))]

    for nu in M.APELBLAT_D_NU:
        for x in M.APELBLAT_D_X:
            d = dkelvin(nu, x)
            assert rows(nu, x, apelblat_dber_dbei(nu, x), d) == \
                rows(nu, x, apelblat_d_nodes(nu, x, bracket), d), (nu, x)


@pytest.mark.parametrize("nu", ORDERS)
def test_stencil_ker_kei_equal_single_points(nu):
    for x in WALK:
        assert bits(*_eval_ker_kei(nu, x)) == \
            bits(*kelvin_ker_kei(nu, x), _eval_ker_kei(nu, x)[2]), x


def test_node_table_grows_safely_across_threads(monkeypatch):
    """The K sum's node tables are module-level, one per step; threads that
    find one short extend it at once, and each run still reads whole nodes."""
    import sys
    import threading

    import kelvinfn.bessel

    points = [(nu, x) for nu in (0.3, 2.5, 7.75) for x in (1e-5, 0.01, 0.5, 2.0)]
    want = [deriv_bits(dkelvin(nu, x)) for nu, x in points]
    got, errors = [], []

    def work():
        try:
            got.append([deriv_bits(dkelvin(nu, x)) for nu, x in points])
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(kelvinfn.bessel, "_K_NODES", {})
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert got == [want] * 24


# orders whose starts coincide: the integers; quarter orders that share
# mu = nu - floor(nu) (at 0.75, 1.75 and 9.75 Temme's series starts at
# m = -0.25); 0.3, and 5.3, whose mu is 0.3 less an ulp
K_ORDERS = [0.0, 1.0, 3.0, 0.25, 2.25, 0.75, 1.75, 9.75, 0.5, 2.5, 0.3, 5.3]
# Temme's series alone at x <= 0.45; between TEMME_DK_MAX_ARG = 0.5 and
# TEMME_MAX_ARG = 1.2 K from Temme's series and dK/dnu from the sum; the
# sum alone above
K_XS = [0.1, 0.45, 0.55, 1.0, 1.15, 1.3, 5.0, 20.0]


def start_count(starts: dict) -> int:
    """The K starts a dict of ``_k_sums`` holds (keyed (start order, z,
    route)), less the request results it also keeps (keyed (nu, z, dk))."""
    return sum(isinstance(key[2], str) for key in starts)


def k_bits(res) -> tuple:
    """The bits of a ``_k_sums`` result: per side (value, estimate, scale,
    nodes, converged), or None."""
    return tuple(None if t is None else bits(t[0].real, t[0].imag, t[1], t[4]) + t[2:4]
                 for t in res)


@pytest.mark.parametrize("dk_first", [True, False], ids=["dK-then-K", "K-then-dK"])
def test_shared_k_starts_equal_fresh_sums(dk_first):
    """Every order of K_ORDERS at every x of K_XS, walked up and down, asks
    for K and for K + dK/dnu from one dict of starts: each result is that of
    a fresh sum, and the dict holds one start per fractional part and x on
    each route (6 of each: 2 x 6 on Temme's series, 3 x 12 on both, 3 x 6
    on the sum)."""
    starts: dict = {}
    for x in K_XS + K_XS[::-1]:
        z = ROT_K * x
        for nu in K_ORDERS:
            for dk in (dk_first, not dk_first):
                assert k_bits(_k_sums(nu, z, dk, starts)) == k_bits(_k_sums(nu, z, dk)), \
                    (nu, x, dk)
    assert start_count(starts) == 66


SIGNED_ORDERS = [0.25, -0.25, -2.25, 2.25, -0.75, 1.75, -9.75, 3.0, -3.0, 0.0, -0.3, 0.3]


def test_shared_k_starts_across_signed_orders(monkeypatch):
    """+-nu share their starts: one plan of values and of order derivatives
    of each order over K_XS equals ``kelvin_all`` and ``dkelvin``, and its
    dict holds one start per fractional part (4) and x on each route (2 x
    on Temme's series, 3 on both, 3 on the sum)."""
    dicts, orig = {}, kelvinfn.bessel._k_sums

    def recorded(nu, z, dk, starts=None):
        dicts[id(starts)] = starts
        return orig(nu, z, dk, starts)

    monkeypatch.setattr(kelvinfn.bessel, "_k_sums", recorded)
    batches = iter(_plan_rows([(nu, dk) for nu in SIGNED_ORDERS for dk in (False, True)], K_XS))
    monkeypatch.undo()
    (starts,) = dicts.values()
    for nu in SIGNED_ORDERS:
        for x, row in zip(K_XS, next(batches), strict=True):
            q = kelvin_all(nu, x)
            assert bits(*row) == bits(q.ber, q.bei, q.ker, q.kei), (nu, x)
        for x, row in zip(K_XS, next(batches), strict=True):
            d = dkelvin(nu, x)
            *vals, est_j, est_k = row
            assert bits(*vals, est_j + est_k) == bits(
                d.values.ber, d.values.bei, d.values.ker, d.values.kei,
                d.dber, d.dbei, d.dker, d.dkei, d.err_estimate), (nu, x)
    assert start_count(starts) == 4 * (2 + 3 * 2 + 3)


def test_shared_k_starts_raise_per_request():
    """The power check and the climb's overflow belong to each request: a
    start shared with an order that overflows still serves the others."""
    starts: dict = {}
    z, big = ROT_K * 1e-3, ROT_K * 5.0
    want = k_bits(_k_sums(0.3, z, True)), k_bits(_k_sums(0.0, big, True))
    assert k_bits(_k_sums(0.3, z, True, starts)) == want[0]
    with pytest.raises(PowerOverflowError):
        _k_sums(200.3, z, True, starts)
    assert k_bits(_k_sums(0.3, z, True, starts)) == want[0]
    with pytest.raises(SeriesOverflowError):
        _k_sums(1000.0, big, True, starts)
    assert k_bits(_k_sums(0.0, big, True, starts)) == want[1]
    assert start_count(starts) == 2


@pytest.mark.parametrize("x", [0.3, 1.0, 5.0])
def test_repeated_k_request_returns_its_result(x):
    """A K request repeated on one dict (the same |nu|, z and dk) returns
    the tuple of the first, on Temme's series (0.3), between its borders
    (1.0) and on the trapezoidal sum (5.0); a request of the other kind
    sums its own."""
    starts: dict = {}
    z = ROT_K * x
    k = _k_sums(2.3, z, False, starts)
    assert _k_sums(2.3, z, False, starts) is k
    d = _k_sums(2.3, z, True, starts)
    assert d[0] is not k[0] and k_bits(d) == k_bits(_k_sums(2.3, z, True))
    assert _k_sums(2.3, z, True, starts) is d
    assert _k_sums(2.3, z, False, starts) is k


def test_k_request_that_raised_raises_again():
    """A request that raised is not kept: its repeat raises again, whether
    it failed before its start (the power check) or after it (the climb)."""
    starts: dict = {}
    z, big = ROT_K * 1e-3, ROT_K * 5.0
    for _ in range(2):
        with pytest.raises(PowerOverflowError):
            _k_sums(200.3, z, True, starts)
        with pytest.raises(SeriesOverflowError):
            _k_sums(1000.0, big, True, starts)
    assert start_count(starts) == len(starts)


def test_start_that_raises_is_not_kept(monkeypatch):
    starts: dict = {}
    orig = kelvinfn.bessel._k_nodes

    def fails_once(*args):
        monkeypatch.setattr(kelvinfn.bessel, "_k_nodes", orig)
        raise SeriesOverflowError("injected")

    monkeypatch.setattr(kelvinfn.bessel, "_k_nodes", fails_once)
    with pytest.raises(SeriesOverflowError):
        _k_sums(2.3, ROT_K * 5.0, False, starts)
    assert not starts
    assert k_bits(_k_sums(2.3, ROT_K * 5.0, False, starts)) == \
        k_bits(_k_sums(2.3, ROT_K * 5.0, False))
    assert start_count(starts) == 1
