"""Kelvin function values: series oracles, reflection, the defining ODE."""

import cmath
import math
import time

import pytest

from kelvinfn import bessel
from kelvinfn.bessel import _k_sums, bessel_i, bessel_j, dj_dnu_any
from kelvinfn.errors import (ConvergenceError, DomainError, GammaOverflowError, KelvinError,
                             PowerOverflowError, SeriesOverflowError)
from kelvinfn import hyper
from kelvinfn.hyper import pfq
from kelvinfn.kelvin import KelvinQuad, kelvin_all, kelvin_ber_bei, kelvin_ker_kei
from kelvinfn.orderderiv import _plan_rows, dkelvin

EULER_GAMMA = 0.5772156649015328606
ROT_K = complex(math.sqrt(0.5), math.sqrt(0.5))


def ray_k(nu, x, dk):
    """The K sum at |nu| on the Kelvin ray: (K, dK/dnu or None), each
    (value, estimate, nodes, converged, scale)."""
    return _k_sums(nu, ROT_K * x, dk)


def ber_bei_series(x, n_terms=60):
    """Order-zero power series:

    ber x = sum (-1)^k (x/2)^(4k) / ((2k)!)^2
    bei x = sum (-1)^k (x/2)^(4k+2) / ((2k+1)!)^2
    """
    q = (x / 2.0) ** 2
    ber = 0.0
    bei = 0.0
    term = 1.0  # (x/2)^(2m) / (m!)^2 at m = 0
    for m in range(n_terms):
        if m % 4 == 0:
            ber += term
        elif m % 4 == 1:
            bei += term
        elif m % 4 == 2:
            ber -= term
        else:
            bei -= term
        term *= q / ((m + 1.0) ** 2)
    return ber, bei


def ker_kei_series(x, n_terms=60):
    """Order-zero log series via K_0(e^(i pi/4) x):

    K_0(z) = -(log(z/2) + gamma) I_0(z) + sum_m H_m (z^2/4)^m / (m!)^2
    """
    z = ROT_K * x
    q = z * z / 4.0
    i0 = 1.0 + 0.0j
    term = 1.0 + 0.0j
    tail = 0.0 + 0.0j
    h = 0.0
    for m in range(1, n_terms):
        term *= q / (m * m)
        i0 += term
        h += 1.0 / m
        tail += term * h
    w = -(cmath.log(z / 2.0) + EULER_GAMMA) * i0 + tail
    return w.real, w.imag


class TestBerBei:
    def test_origin(self):
        assert kelvin_ber_bei(0.0, 0.0) == (1.0, 0.0)
        assert kelvin_ber_bei(2.0, 0.0) == (0.0, 0.0)
        assert kelvin_ber_bei(0.3, 0.0) == (0.0, 0.0)

    def test_order_zero_series(self):
        """Rotation path matches the real power series for x <= 10."""
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            ber, bei = kelvin_ber_bei(0.0, x)
            rber, rbei = ber_bei_series(x)
            scale = 1.0 + abs(rber) + abs(rbei)
            assert abs(ber - rber) <= 1e-11 * scale
            assert abs(bei - rbei) <= 1e-11 * scale

    def test_integer_reflection_at_minus_one(self):
        ber, bei = kelvin_ber_bei(-1.0, 3.0)
        pber, pbei = kelvin_ber_bei(1.0, 3.0)
        assert ber == -pber
        assert bei == -pbei

    @pytest.mark.parametrize("x", [0.5, 3.0, 8.0, 20.0])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_integer_reflection_bit_for_bit(self, n, x):
        """The series at -n is the series at n: ber_{-n} = (-1)^n ber_n exactly."""
        sgn = -1.0 if n % 2 else 1.0
        ber, bei = kelvin_ber_bei(float(-n), x)
        pber, pbei = kelvin_ber_bei(float(n), x)
        assert (ber, bei) == (sgn * pber, sgn * pbei)

    def test_negative_order_reflection_formula(self):
        """ber_{-nu} = cos(pi nu) ber + sin(pi nu) bei + (2/pi) sin(pi nu) ker."""
        nu, x = 0.7, 2.0
        got = kelvin_ber_bei(-nu, x)
        ber, bei = kelvin_ber_bei(nu, x)
        ker, kei = kelvin_ker_kei(nu, x)
        c, s = math.cos(math.pi * nu), math.sin(math.pi * nu)
        want = (c * ber + s * bei + 2.0 / math.pi * s * ker,
                -s * ber + c * bei + 2.0 / math.pi * s * kei)
        assert got[0] == pytest.approx(want[0], rel=1e-14)
        assert got[1] == pytest.approx(want[1], rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kelvin_ber_bei(0.5, -1.0)
        with pytest.raises(DomainError):
            kelvin_ber_bei(-0.5, 0.0)  # (x/2)^nu is singular at the origin


@pytest.mark.parametrize("fn", [kelvin_all, kelvin_ber_bei, kelvin_ker_kei])
@pytest.mark.parametrize("nu, x", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                   (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)])
def test_non_finite_input_raises_domain_error(fn, nu, x):
    with pytest.raises(DomainError):
        fn(nu, x)


@pytest.mark.parametrize("call", [lambda: kelvin_all(0.0, 1000.0),
                                  lambda: dkelvin(40.0, 1000.0),
                                  lambda: pfq((), (1.0,), 1e6),
                                  lambda: kelvin_all(30.0, 1e-9),
                                  lambda: kelvin_all(100.0, 0.01),
                                  lambda: kelvin_all(-49.5, 3.4e-6),
                                  lambda: dkelvin(-56.0, 4.5e-5),
                                  lambda: bessel_j(-49.5, 3.4e-6j),
                                  lambda: bessel_i(-49.5, 3.4e-6),
                                  lambda: dj_dnu_any(-49.5, 3.4e-6j)])
def test_series_overflow_is_typed(call):
    """Far outside the envelope the terms leave the double range: a typed
    error, not NaN or a bare OverflowError, and at a negative order not the
    ValueError of fsum, where terms below the anchor overflow to -inf and
    +inf, on the Kelvin rays and at a general z alike."""
    with pytest.raises(SeriesOverflowError):
        call()
    assert issubclass(SeriesOverflowError, KelvinError)
    assert issubclass(SeriesOverflowError, OverflowError)


@pytest.mark.parametrize("call, error", [
    (lambda: kelvin_all(-180.5, 1.0), GammaOverflowError),
    (lambda: dkelvin(-180.5, 20.0), GammaOverflowError),
    (lambda: kelvin_ber_bei(-150.5, 1000.0), PowerOverflowError),
    (lambda: dkelvin(-200.5, 100.0), PowerOverflowError),
])
def test_negative_order_range_is_typed(call, error):
    """At a large negative order the series needs 1/Gamma(nu+1) and (x/2)^nu
    as normal doubles; past that a typed error, not zero or a bare
    ZeroDivisionError."""
    with pytest.raises(error):
        call()


def test_ber_bei_with_no_right_digit_raise():
    """Past x ~ 127 the series' error estimate exceeds |ber + i bei|: at
    order 0 and x = 150 the values were 268 times off 40-digit mpmath, so
    kelvin_ber_bei refuses them; at x = 120 the estimate is 0.13 of it."""
    with pytest.raises(ConvergenceError, match="exceeds"):
        kelvin_ber_bei(0.0, 150.0)
    ber, bei = kelvin_ber_bei(0.0, 120.0)
    assert math.isfinite(ber) and math.isfinite(bei)


@pytest.mark.parametrize("nu, x, error, prefix", [
    (0.0, 40.0, ConvergenceError, "the K sum at order 0 has no error bound"),
    (0.0, 5e-324, ConvergenceError, "K_0 has no start at |z| = "),
    (-2.5, 5e-324, PowerOverflowError, "(x/2)^-2.5 overflows"),
    (200.0, 1e-3, GammaOverflowError, "gamma(201.0) overflows"),
    (-200.5, 100.0, PowerOverflowError, "(x/2)^-200.5 overflows"),
])
def test_kelvin_all_error_precedence(nu, x, error, prefix):
    """kelvin_all raises the series' error before the K sum's: at x = 40 and
    at order 0 at the smallest double only K fails; at -2.5 and -200.5 the
    series' (x/2)^nu overflows first (K fails too at 5e-324); at 200 the
    series' Gamma(201) overflows before K's (x/2)^-200 does."""
    with pytest.raises(error) as info:
        kelvin_all(nu, x)
    assert type(info.value) is error
    assert str(info.value).startswith(prefix)


@pytest.mark.parametrize("xs, error, at", [
    ([40.0, 1040.0], ConvergenceError, "no error bound at x = 40"),
    ([-1.0, 1.0], DomainError, "x must be positive"),
    ([1.0, math.nan], DomainError, "x=nan"),
    ([1.0, math.inf], DomainError, "x=inf"),
])
def test_kelvin_rows_first_failing_row(xs, error, at):
    """A plan of values at one order raises the error of its first failing
    row, in row order: at x = 40 the K sum has no bound, though the series
    at 1040 overflows before the K sums run; x = -1 fails before x = 1; a
    non-finite x is refused."""
    with pytest.raises(error) as info:
        _plan_rows([(0.0, False)], xs)
    assert type(info.value) is error
    assert at in str(info.value)


@pytest.mark.parametrize("plan, error, at", [
    ([(0.0, False), (1000.0, False)], ConvergenceError, "no error bound at x = 40"),
    ([(0.0, True), (math.nan, False)], ConvergenceError, "no error bound at x = 40"),
    ([(1000.0, False), (0.0, False)], PowerOverflowError, "(x/2)^1000 overflows"),
])
def test_plan_first_failing_row(plan, error, at):
    """A plan raises the error of its first failing row in entry-then-x
    order: the K sum of an earlier entry at x = 40, which has no bound,
    before the series fault of a later one, though every series runs
    before any K sum; an earlier series fault before a later K fault."""
    with pytest.raises(error) as info:
        _plan_rows(plan, [40.0])
    assert type(info.value) is error
    assert at in str(info.value)


def test_plan_raises_other_errors_at_once(monkeypatch):
    """An exception that is not a KelvinError, here a TypeError from the
    series of the second row, leaves the plan at once: no K sum runs."""
    ray, ks = bessel._ray_sums, []

    def broken(o, x, dk):
        if x == 2.0:
            raise TypeError("a programming error")
        return ray(o, x, dk)

    monkeypatch.setattr(bessel, "_ray_sums", broken)
    monkeypatch.setattr(bessel, "_k_sums", lambda *args: ks.append(args))
    with pytest.raises(TypeError, match="a programming error"):
        _plan_rows([(0.5, False)], [1.0, 2.0])
    assert ks == []


def test_plan_of_an_empty_grid():
    """An empty grid gives one empty list per entry, whatever the entries
    (``cli._table_rows`` at x = 0 alone)."""
    plan = [(0.5, True), (-1.0, False), (math.nan, True), (1e300, False)]
    assert _plan_rows(plan, ()) == [[], [], [], []]
    assert _plan_rows(plan, []) == [[], [], [], []]


def test_dk_quadrature_below_the_envelope():
    """Far below the envelope dkelvin returns a result or raises a typed
    error: at x = 1e-300 Temme's start gives dK/dnu in 2 terms with a finite
    error estimate; K_60 at x = 1e-3, about 1e278, is a value; K past the
    double range is a SeriesOverflowError (K_30 at 1e-9, about 1e310) or,
    where (x/2)^(-nu) already leaves it, a PowerOverflowError, not a bare
    OverflowError or NaN."""
    d = dkelvin(10.0, 1e-8)
    assert all(map(math.isfinite, (d.dker, d.dkei, d.err_estimate)))
    d = dkelvin(0.3, 1e-300)
    assert all(map(math.isfinite, (d.dker, d.dkei, d.err_estimate)))
    dk = ray_k(0.3, 1e-300, True)[1]
    assert dk[2] == 2 and dk[3]
    d = dkelvin(60.0, 1e-3)
    assert all(map(math.isfinite, (d.values.ker, d.values.kei, d.dker, d.dkei, d.err_estimate)))
    with pytest.raises(PowerOverflowError):
        dkelvin(10.0, 1e-300)
    with pytest.raises(PowerOverflowError):
        kelvin_ker_kei(200.0, 1e-3)
    with pytest.raises(SeriesOverflowError):
        dkelvin(30.0, 1e-9)


def test_k_quadrature_edges_are_typed(monkeypatch):
    """At the smallest double x/2 is 0, so (x/2)^(-nu) is a typed
    PowerOverflowError, not a bare ZeroDivisionError, in the K sum and, at
    a negative order, in the series; at order 0 Temme's start has no
    log(z/2) there, a typed ConvergenceError, not a bare ValueError, and
    dkelvin raises it before it takes log(x/2).  A term cap past the nodes
    before e^(-|z| (cosh u - 1)) underflows still sums K, from the nodes
    there are."""
    for call in (kelvin_ker_kei, kelvin_all, dkelvin):
        with pytest.raises(PowerOverflowError):
            call(0.3, 5e-324)
        with pytest.raises(ConvergenceError):
            call(0.0, 5e-324)
    for call in (kelvin_ber_bei, kelvin_all, dkelvin):
        for nu in (-1.0, -2.0, -2.5):
            with pytest.raises(PowerOverflowError):
                call(nu, 5e-324)
    want = ray_k(0.3, 2.0, False)[0][0]
    monkeypatch.setattr(hyper, "MAX_TERMS", 20000)
    k = ray_k(0.3, 2.0, False)[0]
    assert k[3] and k[0] == want


class _Half(complex):
    """h = z/2 that counts the divisions by it (the steps of a climb)."""

    steps = 0

    def __rtruediv__(self, other):
        _Half.steps += 1
        return complex(other) / complex(self)


@pytest.mark.parametrize("dk", [False, True])
def test_climb_stops_after_overflow(dk):
    """K_(a+1) = K_(a-1) + a K_a / h at h = 1/2 overflows near a = 150; a
    climb of a million steps stops after the first block of 64 steps past
    that, where it took every step."""
    _Half.steps = 0
    d = 1.0 + 0j if dk else None
    k, dv = bessel._climb(10 ** 6, 0.0, _Half(0.5), 1.0 + 0j, 1.0 + 0j, d, d)
    assert not cmath.isfinite(k)
    assert 150 < _Half.steps // (2 if dk else 1) <= 256


@pytest.mark.parametrize("dk", [False, True])
def test_unbounded_k_start_is_not_climbed(dk, monkeypatch):
    """Past ``K_MAX_ARG`` the K start has no error bound, and a climb of
    more than ``hyper.MAX_TERMS`` steps from it is not taken: where e^(-z)
    underflows the start, and K and dK/dnu at the order, are exact zeros;
    on the imaginary axis, where e^(-z) keeps modulus 1 and a climb to 1e17
    did not end, ConvergenceError.  A climb of MAX_TERMS steps is taken."""
    def climb(*args):
        raise AssertionError("climbed")

    with monkeypatch.context() as m:
        m.setattr(bessel, "_climb", climb)
        k, d = _k_sums(1e6 + 0.5, complex(1e299, 1e299), dk)
        assert k[0] == 0 and not k[3]
        assert d[0] == 0 if dk else d is None
        for z in (1e300j, -1e300j, 40j):
            with pytest.raises(ConvergenceError):
                _k_sums(1e17, z, dk)
    k = _k_sums(hyper.MAX_TERMS + 0.5, 1e300j, dk)[0]
    assert cmath.isfinite(k[0]) and not k[3]


@pytest.mark.parametrize("nu", [1e7, 1e9])
def test_underflowed_k_start_raises_at_once(nu):
    """At x = 1e300 the K start underflows to 0: ker/kei raise their
    ConvergenceError, and bessel_k reports no_convergence, without the
    climb to the order (1.7 s to 1e7, years to 1e17)."""
    t = time.perf_counter()
    with pytest.raises(ConvergenceError):
        kelvin_ker_kei(nu, 1e300)
    k = bessel.bessel_k(nu, complex(1e300, 1e300))
    assert not k.converged and k.value == 0
    assert time.perf_counter() - t < 2.0


@pytest.mark.parametrize("call", [kelvin_ker_kei, lambda nu, x: bessel.bessel_k(nu, x),
                                  lambda nu, x: bessel.dk_dnu_any(nu, complex(x, -x))])
@pytest.mark.parametrize("nu", [1e8, 1e17])
def test_climb_overflow_is_raised_at_once(call, nu):
    """Where |z|/2 > 1 the (|z|/2)^(-nu) check cannot fire, so an order far
    past the double range reaches the climb of ker/kei, K and dK/dnu (the
    values and order derivatives of all four raise the series' error
    first); it raises SeriesOverflowError within a few hundred steps (a
    climb to 1e8 took 12 s, to 1e17 years)."""
    t = time.perf_counter()
    with pytest.raises(SeriesOverflowError):
        call(nu, 5.0)
    assert time.perf_counter() - t < 2.0


@pytest.mark.parametrize("x", [1e-300, 0.1, 0.49, 0.51, 1.0, 1.19, 1.21, 2.0, 20.0])
def test_k_start_bits(x):
    """On either K start (Temme's series up to |z| = 1.2, for dK/dnu up to
    0.5, the trapezoidal sum above), K has the same bits with or without
    dK/dnu, and dK/dnu is exactly 0 at order 0."""
    for k in range(0, 41):
        nu = k / 4.0
        if x < 1e-200 and nu > 0.3:
            break
        with_dk = ray_k(nu, x, True)
        assert with_dk[0] == ray_k(nu, x, False)[0], nu
        if nu == 0.0:
            assert with_dk[1][0] == 0.0


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 10.0, 15.0, 20.0])
def test_envelope_raises_nothing(x):
    for k in range(-40, 41):
        q = kelvin_all(k / 4.0, x)
        d = dkelvin(k / 4.0, x)
        assert all(map(math.isfinite, (q.ber, q.bei, q.ker, q.kei,
                                       d.dber, d.dbei, d.dker, d.dkei)))


class TestKerKei:
    def test_order_zero_series(self):
        for x in (0.5, 1.0, 2.0):
            ker, kei = kelvin_ker_kei(0.0, x)
            rker, rkei = ker_kei_series(x)
            assert ker == pytest.approx(rker, abs=5e-10)
            assert kei == pytest.approx(rkei, abs=5e-10)

    def test_half_order_closed_form(self):
        """ker_{1/2} + i kei_{1/2} = e^(-i pi/4) sqrt(pi/(2z)) e^(-z), z = e^(i pi/4) x."""
        x = 1.0
        z = ROT_K * x
        w = cmath.exp(-1j * math.pi / 4.0) * cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z)
        ker, kei = kelvin_ker_kei(0.5, x)
        assert ker == pytest.approx(w.real, rel=1e-12)
        assert kei == pytest.approx(w.imag, rel=1e-12)

    def test_half_order_reflection(self):
        """cos(pi/2) = 0 collapses the reflection to a swap with signs."""
        ker, kei = kelvin_ker_kei(-0.5, 2.0)
        pker, pkei = kelvin_ker_kei(0.5, 2.0)
        assert ker == pytest.approx(-pkei, rel=1e-14)
        assert kei == pytest.approx(pker, rel=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_integer_reflection_bit_for_bit(self, n, x):
        """K is even in the order and its phase e^(-i pi nu/2) is exact at the
        integers: ker_{-n} = (-1)^n ker_n exactly, kei likewise."""
        sgn = -1.0 if n % 2 else 1.0
        ker, kei = kelvin_ker_kei(float(-n), x)
        pker, pkei = kelvin_ker_kei(float(n), x)
        assert (ker, kei) == (sgn * pker, sgn * pkei)

    def test_domain_error_at_origin(self):
        with pytest.raises(DomainError):
            kelvin_ker_kei(0.0, 0.0)
        with pytest.raises(DomainError):
            kelvin_all(1.0, 0.0)


class TestKelvinAll:
    def test_bundles_components(self):
        q = kelvin_all(0.3, 1.5)
        assert isinstance(q, KelvinQuad)
        assert (q.ber, q.bei) == kelvin_ber_bei(0.3, 1.5)
        assert (q.ker, q.kei) == kelvin_ker_kei(0.3, 1.5)
        assert (q.nu, q.x) == (0.3, 1.5)

    def test_integer_reflection_all_four(self):
        """f_{-n} = (-1)^n f_n for every function, n = 0..5."""
        for n in range(6):
            sgn = (-1.0) ** n
            for x in (0.5, 1.0, 2.0, 5.0):
                neg = kelvin_all(float(-n), x)
                pos = kelvin_all(float(n), x)
                for a, b in ((neg.ber, pos.ber), (neg.bei, pos.bei),
                             (neg.ker, pos.ker), (neg.kei, pos.kei)):
                    assert abs(a - sgn * b) <= 1e-12 * max(abs(b), 1e-300)


class TestKelvinODE:
    @staticmethod
    def residual(w_of_x, nu, x, h=1e-3):
        w = [w_of_x(x + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (w[0] - 8 * w[1] + 8 * w[3] - w[4]) / (12 * h)
        d2 = (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12 * h * h)
        res = x * x * d2 + x * d1 - complex(nu * nu, x * x) * w[2]
        return abs(res) / (abs(w[2]) + abs(x * d1) + abs(x * x * d2))

    def test_ber_bei_side(self):
        """x^2 w'' + x w' - (nu^2 + i x^2) w = 0 for w = ber + i bei."""
        for nu in (0.0, 0.5, 1.0, 2.4):
            for x in (1.0, 2.0, 5.0):
                r = self.residual(lambda t: complex(*kelvin_ber_bei(nu, t)), nu, x)
                assert r <= 1e-5

    def test_ker_kei_side(self):
        for nu in (0.3, 0.5, 1.5, 2.4):
            for x in (1.0, 2.0, 5.0):
                r = self.residual(lambda t: complex(*kelvin_ker_kei(nu, t)), nu, x)
                assert r <= 1e-5


class TestAgainstScipy:
    """Spot cross-check against an unrelated implementation at order zero."""

    def test_order_zero_quad(self):
        # this test alone skips where scipy is missing or broken, not the module
        special = pytest.importorskip("scipy.special", exc_type=ImportError)
        for x in (0.5, 1.0, 3.0, 7.0):
            be, ke, _, _ = special.kelvin(x)
            q = kelvin_all(0.0, x)
            assert q.ber == pytest.approx(be.real, rel=1e-9, abs=1e-12)
            assert q.bei == pytest.approx(be.imag, rel=1e-9, abs=1e-12)
            # ker/kei are small against the I series that build them, so
            # their accuracy is stated in absolute terms
            assert q.ker == pytest.approx(ke.real, abs=1e-9)
            assert q.kei == pytest.approx(ke.imag, abs=1e-9)


def _side_bits(v, est, nodes, conv, scale) -> str:
    return " ".join((v.real.hex(), v.imag.hex(), est.hex(), scale.hex(), str(nodes),
                     str(int(conv))))


def _frozen(table: str) -> list:
    """The lines of a frozen table in pairs, K and then dK/dnu."""
    lines = table.strip().splitlines()
    return list(zip(lines[::2], lines[1::2]))


@pytest.mark.parametrize("dk", [False, True])
def test_k_sums_keep_their_bits(dk):
    """Each K sum keeps the bits frozen in K_BITS, estimates included (no
    table or CSV output prints them); K alone has the bits of K with dK/dnu."""
    for k_line, d_line in _frozen(K_BITS):
        nu, x = map(float, k_line.split()[:2])
        k, d = _k_sums(nu, ROT_K * x, dk)
        assert f"{nu!r} {x!r} K {_side_bits(*k)}" == k_line
        assert f"{nu!r} {x!r} D {_side_bits(*d)}" == d_line if dk else d is None


def test_k_off_the_ray_keeps_its_bits():
    """bessel_k and dk_dnu_any keep the bits frozen in PHASE_BITS."""
    for k_line, d_line in _frozen(PHASE_BITS):
        z, nu = complex(k_line.split()[0]), float(k_line.split()[1])
        for line, side, r in ((k_line, "K", bessel.bessel_k(nu, z)),
                              (d_line, "D", bessel.dk_dnu_any(nu, z))):
            bits = _side_bits(r.value, r.abs_err_estimate, r.terms_used, r.converged,
                              r.max_abs_term)
            assert f"{z!r} {nu!r} {side} {bits}" == line


# ``_k_sums`` at z = ROT_K x, one line per side (K, then dK/dnu): nu, x, the
# side, the value's real and imaginary parts, the estimate and the scale as
# float.hex, then the nodes and converged.  The orders and x are K_ORDERS x
# K_XS of tests/test_shared_orders.py (both starts, on each side of Temme's
# border), and the far-climb zero start at nu = 1e17, x = 1e300.
K_BITS = """
0.0 0.1 K 0x1.35d21766b05e0p+1 -0x1.8dbf5e3180b97p-1 0x1.6196cf5f41dc1p-48 0x1.d76b77a8e5002p+1 6 1
0.0 0.1 D 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 6 1
0.0 0.45 K 0x1.e7c1c4be712b0p-1 -0x1.603fbfccb8e85p-1 0x1.c6ed1ca559282p-49 0x1.2f4878d9d1be9p+1 9 1
0.0 0.45 D 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 8 1
0.0 0.55 K 0x1.8a3c191dfdbb6p-1 -0x1.4f351d915ab4ap-1 0x1.84cda1d60e40ap-50 0x1.0333c1395ed5bp+0 22 1
0.0 0.55 D 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 22 1
0.0 1.0 K 0x1.25964ff8316d1p-2 -0x1.fadfdfbe2c595p-2 0x1.b7aac13530417p-51 0x1.251c80ce202bap-1 20 1
0.0 1.0 D 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 20 1
0.0 1.15 K 0x1.8edbd02c0fe8ep-3 -0x1.c5a74229a6d52p-2 0x1.73e4fdd495d88p-51 0x1.efdbfd1b72760p-2 20 1
0.0 1.15 D 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 20 1
0.0 1.3 K 0x1.f9ac5d66eacd5p-4 -0x1.92bb17b2e8b3cp-2 0x1.3cbbbf0f699acp-51 0x1.a64fa969e223bp-2 20 1
0.0 1.3 D 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 20 1
0.0 5.0 K -0x1.79375debd0078p-7 0x1.6e9847172d00cp-7 0x1.8a8213f451e83p-56 0x1.070162a2e1457p-6 16 1
0.0 5.0 D -0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 16 1
0.0 20.0 K -0x1.4b5de2996227ap-24 -0x1.8f3463ed6cc19p-23 0x1.443a61035ae93p-72 0x1.b04dc841a2192p-23 12 1
0.0 20.0 D 0x0.0p+0 -0x0.0p+0 0x0.0p+0 0x0.0p+0 12 1
1.0 0.1 K 0x1.bc2ced6f8c1dfp+2 -0x1.c9633bb331907p+2 0x1.94259ec68477cp-46 0x1.cddae62c009d6p+3 6 1
1.0 0.1 D 0x1.73e8d55ed1157p+3 -0x1.69bc69b7d4e15p+4 0x1.01d2ceb6748afp-44 0x1.26a32ac98f201p+5 6 1
1.0 0.45 K 0x1.3a1e41a62f6a5p+0 -0x1.aee939e04c1d2p+0 0x1.d6679a2e14298p-48 0x1.0ccd4852548a6p+2 9 1
1.0 0.45 D 0x1.a9dc367eb5d57p-2 -0x1.49fc494e794acp+1 0x1.26eba828b36f4p-47 0x1.50fb30f2057e7p+2 8 1
1.0 0.55 K 0x1.cfccb38078668p-1 -0x1.639640c9b2660p+0 0x1.8a5ccbd8c0f5cp-49 0x1.c2b3321c4a3d7p+0 22 1
1.0 0.55 D 0x1.2f8da902beda2p-3 -0x1.d4e73a3144463p+0 0x1.b50386ade23c4p-49 0x1.f371be7d94d72p+0 22 1
1.0 1.0 K 0x1.ef9b94cca31a4p-3 -0x1.7b0b857f12b9ep-1 0x1.704b872a9e55ep-50 0x1.a4e89a79d986bp-1 20 1
1.0 1.0 D -0x1.2da244dab59ebp-3 -0x1.1b018503b1a35p-1 0x1.0e7d5a469315cp-50 0x1.35218bbe5ef45p-1 20 1
1.0 1.15 K 0x1.1f9d2cc7e0933p-3 -0x1.3de6ce66b270dp-1 0x1.2c537354ed54fp-50 0x1.573accf358612p-1 20 1
1.0 1.15 D -0x1.38a1da4252436p-3 -0x1.919083dbf9db8p-2 0x1.8d1008c704c7bp-51 0x1.c5c92e9a4e9b1p-2 20 1
1.0 1.3 K 0x1.11bf154f0f818p-4 -0x1.0be2f74903112p-1 0x1.f096cc538e2ffp-51 0x1.1bc3e278e3891p-1 20 1
1.0 1.3 D -0x1.2c969ffe9c6ecp-3 -0x1.1fd1b6e46c356p-2 0x1.2a8651fcf04cdp-51 0x1.552bcb6a37334p-2 20 1
1.0 5.0 K -0x1.7b613e3d75376p-7 0x1.a160f9c875f9ep-7 0x1.f8bcac95491c8p-56 0x1.206bd0554e597p-6 16 1
1.0 5.0 D -0x1.80898b2c4388ep-15 0x1.a4c35ad5725aep-9 0x1.7891144f5f13dp-58 0x1.ae5ca97f4816bp-9 16 1
1.0 20.0 K -0x1.5f1832623be9dp-24 -0x1.9360f67d5aa45p-23 0x1.83a4a32b9f895p-72 0x1.bb05402ddfd79p-23 12 1
1.0 20.0 D -0x1.3f8c85f7eba37p-27 -0x1.0832fcc4073e2p-28 0x1.30afa942dc86bp-76 0x1.5c366e67b8fa8p-27 12 1
3.0 0.1 K -0x1.61fea9bde5339p+12 -0x1.611c63f4f1972p+12 0x1.977e2baf69db5p-36 0x1.6a3305a4d4781p+13 6 1
3.0 0.1 D -0x1.a00fcdc51a46dp+14 -0x1.14776a380198bp+14 0x1.971ea64ad0b85p-34 0x1.69ddf2e33ea5dp+15 6 1
3.0 0.45 K -0x1.fcdd5740cb58bp+5 -0x1.e3c3383ece98bp+5 0x1.8e2adc8201779p-42 0x1.61ed002bd5044p+7 9 1
3.0 0.45 D -0x1.90b200e2fbe53p+7 -0x1.83816753e5b47p+6 0x1.f8e32bce44ff3p-41 0x1.c0b726f871b7bp+8 8 1
3.0 0.55 K -0x1.19e233c482577p+5 -0x1.0560b2cfd44a8p+5 0x1.cb23005297be8p-44 0x1.981f1cbb318cfp+5 22 1
3.0 0.55 D -0x1.9c635df63dadfp+6 -0x1.6acc2f3c11e6bp+5 0x1.0d0b732a7eef8p-42 0x1.de4d3e846fe2cp+6 22 1
3.0 1.0 K -0x1.9142f1740454ep+2 -0x1.38c91864e3ef7p+2 0x1.2e0fc5eeb35e2p-46 0x1.0c7fcc62668c9p+3 20 1
3.0 1.0 D -0x1.b7ed01db67608p+3 -0x1.b124b0eee4becp+1 0x1.0cfc224dfacd4p-45 0x1.de320418da507p+3 20 1
3.0 1.15 K -0x1.0e7869d6a77c2p+2 -0x1.84ff1386c4db5p+1 0x1.8aacfa30db141p-47 0x1.5ed2a580c2bc8p+2 20 1
3.0 1.15 D -0x1.0ed9658a1f967p+3 -0x1.86fea5a40e2d3p+0 0x1.460f1bc88c132p-46 0x1.21d48a796010fp+3 20 1
3.0 1.3 K -0x1.7f9e39781578cp+1 -0x1.f6c0a76b4d378p+0 0x1.0f135c0e19808p-47 0x1.e1e9873582ab9p+1 20 1
3.0 1.3 D -0x1.5f1a597e31e01p+2 -0x1.3ef91ced3815ap-1 0x1.a1b2e095c191bp-47 0x1.7349ab2fc8817p+2 20 1
3.0 5.0 K -0x1.f7a770a5ec8eep-8 0x1.dfc5906d445c3p-6 0x1.1d58c9646dd14p-54 0x1.fb488279a6c95p-6 16 1
3.0 5.0 D 0x1.cafe3ff179f89p-8 0x1.f227c3c647b6ep-7 0x1.3b864a4d766edp-55 0x1.18775e7dbe9b6p-6 16 1
3.0 20.0 K -0x1.0780874b34477p-23 -0x1.b0e488c81344ap-23 0x1.1f12db1536d9ap-71 0x1.fe5a5dc22818dp-23 12 1
3.0 20.0 D -0x1.20ba4686e9b43p-25 -0x1.31a524b277c5ap-27 0x1.525e28ace931ap-74 0x1.2cc572d7c3831p-25 12 1
0.25 0.1 K 0x1.5028612e58e49p+1 -0x1.ed6eac1d63458p-1 0x1.cb69ef628d2d6p-48 0x1.1b290e431e616p+2 6 1
0.25 0.1 D 0x1.af7003c1748bap+0 -0x1.92ce1bee6724dp+0 0x1.5fa9f498e7f51p-47 0x1.c1d34ded116fap+2 6 1
0.25 0.45 K 0x1.f1cb73005aea1p-1 -0x1.784c655b680a9p-1 0x1.0390bc4dd529ap-48 0x1.4f20d26ee1464p+1 9 1
0.25 0.45 D 0x1.3fe01e9eeda81p-3 -0x1.881815580ac8fp-2 0x1.e94109c246692p-49 0x1.42735a897553fp+1 9 1
0.25 0.55 K 0x1.8ff1af045e2b6p-1 -0x1.61c85910d5384p-1 0x1.90c388dddb9ebp-50 0x1.0b2d05e93d148p+0 22 1
0.25 0.55 D 0x1.697077206f78fp-4 -0x1.2debb9d37950dp-2 0x1.dc1fdb69c5b77p-52 0x1.3d6a924683cfbp-2 24 1
0.25 1.0 K 0x1.243fd215f3e65p-2 -0x1.0464794d39af8p-1 0x1.c003780d988c0p-51 0x1.2aacfab3bb080p-1 20 1
0.25 1.0 D -0x1.6d1ab146ee728p-7 -0x1.c0cba67d64800p-4 0x1.53c51ae61dcd0p-53 0x1.c506ce8827bc1p-4 20 1
0.25 1.15 K 0x1.8a4679bdbe2c8p-3 -0x1.cff891edebb13p-2 0x1.7a2a5a98e2118p-51 0x1.f83878cbd8176p-2 20 1
0.25 1.15 D -0x1.2e59520b1c5f8p-6 -0x1.4c6197453c70ap-4 0x1.0092e861b87ecp-53 0x1.561935d7a0a90p-4 20 1
0.25 1.3 K 0x1.eed8f0a3a8fbfp-4 -0x1.9a69b4a6751cfp-2 0x1.4189fc9f6698ap-51 0x1.acb7fb7f33763p-2 20 1
0.25 1.3 D -0x1.61898d25f2b23p-6 -0x1.ee546b619be58p-5 0x1.8af3ec5a55874p-54 0x1.074d483c3904dp-4 20 1
0.25 5.0 K -0x1.796e48ec12d3ep-7 0x1.71a9df5713088p-7 0x1.8c3e309601cfep-56 0x1.082975b9568a9p-6 16 1
0.25 5.0 D -0x1.acfb357e3cb28p-15 0x1.89b0222f77e66p-11 0x1.27f7fa43045d9p-60 0x1.8a9ff8595b276p-11 16 1
0.25 20.0 K -0x1.4c95e1e007a37p-24 -0x1.8f77da606cb25p-23 0x1.4498835d2b5b0p-72 0x1.b0cb4cef17147p-23 12 1
0.25 20.0 D -0x1.383d4c8553804p-29 -0x1.0dac795908702p-30 0x1.ff0579d536baep-77 0x1.543d0f1dde8b2p-29 12 1
2.25 0.1 K -0x1.79b4c26f10353p+6 -0x1.d5cdb6ad053acp+8 0x1.92245f7fc33acp-40 0x1.7af0f485690a1p+9 6 1
2.25 0.1 D -0x1.60968972bf967p+9 -0x1.9098dfdb16b25p+10 0x1.58264a9269353p-37 0x1.4d8cc110546f1p+12 6 1
2.25 0.45 K -0x1.e60b8cbc673dep+1 -0x1.f8ad49ee97656p+3 0x1.1d9e462ee83f4p-44 0x1.16c7ef13f54c2p+5 9 1
2.25 0.45 D -0x1.3c4c5c1ecd68dp+4 -0x1.dc02ca0283f07p+4 0x1.b6f498d2c2c9ap-42 0x1.b330f37b3fcfdp+7 9 1
2.25 0.55 K -0x1.4d964e316b232p+1 -0x1.3f408e7553785p+3 0x1.61fe3fbca1779p-46 0x1.61fe3fbca1779p+3 22 1
2.25 0.55 D -0x1.890805845ed7fp+3 -0x1.0bbbcbf09414ap+4 0x1.644c69487774ep-45 0x1.644c69487774ep+4 24 1
2.25 1.0 K -0x1.f6b1dc75b7a84p-1 -0x1.38fe39876942cp+1 0x1.69a73ee806efcp-48 0x1.69a73ee806efcp+1 20 1
2.25 1.0 D -0x1.75be9309de31fp+1 -0x1.44c629d619d04p+1 0x1.097596bd9f73ep-47 0x1.097596bd9f73ep+2 20 1
2.25 1.15 K -0x1.9b59c6a2a6cb2p-1 -0x1.b92f9c58c284bp+0 0x1.0485a202f73cdp-48 0x1.0485a202f73cdp+1 20 1
2.25 1.15 D -0x1.07abf732d1652p+1 -0x1.85c8e2d7b2b30p+0 0x1.5ef72984cbc99p-48 0x1.5ef72984cbc99p+1 20 1
2.25 1.3 K -0x1.5a485128f1156p-1 -0x1.40300713681a7p+0 0x1.84ddf01f13800p-49 0x1.84ddf01f13800p+0 20 1
2.25 1.3 D -0x1.80d3ac7616aedp+0 -0x1.dda344d6729acp-1 0x1.e3d88137f9d1cp-49 0x1.e3d88137f9d1cp+0 20 1
2.25 5.0 K -0x1.614fa00ffea47p-7 0x1.4b00b07df09e7p-6 0x1.83b534eabda75p-55 0x1.83b534eabda75p-6 16 1
2.25 5.0 D 0x1.0b303e9da3f76p-9 0x1.31ef6926ddfcfp-7 0x1.43965d7e3dc26p-56 0x1.43965d7e3dc26p-7 16 1
2.25 20.0 K -0x1.b45571fd12bb7p-24 -0x1.a34f50ba308dep-23 0x1.dd9c0a5a1cbfap-72 0x1.dd9bffcbbae94p-23 12 1
2.25 20.0 D -0x1.8c1fca4dadf68p-26 -0x1.0a4b18f311989p-27 0x1.55225b404dd80p-73 0x1.a644d55be0e1bp-26 12 1
0.75 0.1 K 0x1.28d388a7ec23fp+2 -0x1.a81dc4b09fad9p+1 0x1.0e192d71d71abp-46 0x1.2078c5feacb06p+3 6 1
0.75 0.1 D 0x1.c2345614d073ap+2 -0x1.3a66652532c1cp+3 0x1.0b3e6d3de4910p-44 0x1.26af6398b0f33p+5 6 1
0.75 0.45 K 0x1.1ecc06e5214c3p+0 -0x1.2df63317a1c23p+0 0x1.925e449837de7p-48 0x1.bf4f8bc687ed5p+1 9 1
0.75 0.45 D 0x1.a4ff5f7150118p-2 -0x1.88146b4ae03aep+0 0x1.1128e007ded4bp-46 0x1.3520357db4e57p+3 9 1
0.75 0.55 K 0x1.b81f2a68e8adap-1 -0x1.066ef3de28a5dp+0 0x1.01bb721da513dp-49 0x1.57a4982786c52p+0 24 1
0.75 0.55 D 0x1.9a14ad4925d24p-3 -0x1.2086a3849523fp+0 0x1.b90c5c7144f3fp-50 0x1.26083da0d8a2bp+0 24 1
0.75 1.0 K 0x1.12b1b06473330p-2 -0x1.403fdc213aff0p-1 0x1.0616d3cfe28b1p-50 0x1.5d73c5152e0ecp-1 20 1
0.75 1.0 D -0x1.21e1395159368p-4 -0x1.7e3175b51fea8p-2 0x1.24956fe447ab5p-51 0x1.861c95305f8f2p-2 20 1
0.75 1.15 K 0x1.5ad3d8924f15ep-3 -0x1.13c96e2790ebfp-1 0x1.b2cf00a9adefap-51 0x1.21df55c673f51p-1 20 1
0.75 1.15 D -0x1.5a24077849f5ap-4 -0x1.14840344127f7p-2 0x1.b3c6fa7e07825p-52 0x1.2284a6feafac3p-2 20 1
0.75 1.3 K 0x1.8766b015171f4p-4 -0x1.dae5d3e812fc1p-2 0x1.6c93dd875648cp-51 0x1.e61a7cb4730bap-2 20 1
0.75 1.3 D -0x1.65d71645ddb5cp-4 -0x1.93257ff60a654p-3 0x1.4ba380a4b02aap-52 0x1.ba2f5630eae37p-3 20 1
0.75 5.0 K -0x1.7ac627d759337p-7 0x1.8ab77ad20a7d2p-7 0x1.9abec2bebc83cp-56 0x1.11d481d47dad2p-6 16 1
0.75 5.0 D -0x1.8128fb33e7828p-14 0x1.3208b5c0e56d1p-9 0x1.cbe9a8751e5bep-59 0x1.329bc5a369929p-9 16 1
0.75 20.0 K -0x1.5667565dbfe1bp-24 -0x1.919055a9898a7p-23 0x1.47938582b90f1p-72 0x1.b4c4ac68fa1a9p-23 12 1
0.75 20.0 D -0x1.da312be751fb1p-28 -0x1.9030884d824dbp-29 0x1.3d3a453f15c9ep-75 0x1.017d7561df66ep-27 14 1
1.75 0.1 K 0x1.0acb959ca49ccp+4 -0x1.55336b311d520p+6 0x1.23c6d74c44b84p-42 0x1.12ec00b089944p+7 6 1
1.75 0.1 D -0x1.91ac8f2aa0ed7p+3 -0x1.21b25371619ccp+8 0x1.c80ef8f4e6baap-40 0x1.b9f802d2be5a2p+9 6 1
1.75 0.45 K 0x1.aa4eb63cf9c64p-1 -0x1.89f77923308cdp+2 0x1.b57c1b538a9b8p-46 0x1.ab02e6c790498p+3 9 1
1.75 0.45 D -0x1.7ddaa8ec31c2dp+1 -0x1.6d8f71814f517p+3 0x1.222fc222b9d75p-43 0x1.1fb2874fddcabp+6 9 1
1.75 0.55 K 0x1.d907ed39842cap-2 -0x1.14d795b973119p+2 0x1.05f57c6372f69p-47 0x1.2b61b2bacc878p+2 24 1
1.75 0.55 D -0x1.268d332131361p+1 -0x1.c71b274a96535p+2 0x1.c2114ab9e2cffp-47 0x1.012e73d7ef524p+3 24 1
1.75 1.0 K -0x1.7efb2d75c4670p-4 -0x1.74df991a9f51ap+0 0x1.6498cd5c53904p-49 0x1.978a0f44f1c97p+0 20 1
1.75 1.0 D -0x1.ee14712cba54bp-1 -0x1.79a5cc70792c2p+0 0x1.aeafd15387f7bp-49 0x1.ec36a616523fbp+0 20 1
1.75 1.15 K -0x1.2f49d8588de34p-3 -0x1.1b28bba728a8bp+0 0x1.10f1f71991046p-49 0x1.37eff5d41372bp+0 20 1
1.75 1.15 D -0x1.867f03700751ep-1 -0x1.ebd7101074622p-1 0x1.2c00217f57708p-49 0x1.56db93ff3f5c0p+0 20 1
1.75 1.3 K -0x1.6fd6301e7c446p-3 -0x1.b6db5af46c7ccp-1 0x1.ac6e76bdecae0p-50 0x1.e9a2d0d90e7dcp-1 20 1
1.75 1.3 D -0x1.38c3c2425d308p-1 -0x1.465fd96aa7450p-1 0x1.afec415e798d2p-50 0x1.eda04ab51d33ap-1 20 1
1.75 5.0 K -0x1.760c8158b7ed5p-7 0x1.0adf74307a4bbp-6 0x1.2c92515ed2f8cp-55 0x1.5782a6233a40ep-6 16 1
1.75 5.0 D 0x1.5c6ccd7c97c10p-11 0x1.a613f0fa07876p-8 0x1.875ce4fe6a633p-57 0x1.bf4597fe30715p-8 16 1
1.75 20.0 K -0x1.89562171bbf78p-24 -0x1.9baf59d6bbd17p-23 0x1.962c588c1c693p-72 0x1.d032a951c0293p-23 12 1
1.75 20.0 D -0x1.25ea447b67bf2p-26 -0x1.b74b861106290p-28 0x1.98b6e82118e00p-74 0x1.3f3ad84f10d9ap-26 14 1
9.75 0.1 K 0x1.5b76096124066p+56 -0x1.b55aaecef0807p+58 0x1.6b6a5e4d11260p+11 0x1.609b536c4795cp+59 6 1
9.75 0.1 D 0x1.b81b8d57cc319p+56 -0x1.25f280e9cfb41p+61 0x1.c7ac40660a220p+14 0x1.c086061910804p+62 6 1
9.75 0.45 K 0x1.2f0c1c4b60806p+35 -0x1.88be13c9c09cap+37 0x1.b2e38ddb2a727p-10 0x1.ad9ec2d62f30dp+38 9 1
9.75 0.45 D -0x1.a9c5194eb986ep+33 -0x1.7bcbd25f85353p+39 0x1.227f8680d2e53p-6 0x1.213f31cc2cd24p+42 9 1
9.75 0.55 K 0x1.5199a96e5fd74p+32 -0x1.bc58402b214ddp+34 0x1.c7f371bb7f050p-14 0x1.e65901d910056p+34 24 1
9.75 0.55 D -0x1.9e51d94875229p+31 -0x1.9724044b1103cp+36 0x1.9aa4f205097b1p-12 0x1.b605466bc5d89p+36 24 1
9.75 1.0 K 0x1.c6f1c49b67e6fp+23 -0x1.4fc2cf520263ap+26 0x1.5c3935b8ca102p-22 0x1.7370394da4558p+26 20 1
9.75 1.0 D -0x1.829cc93a074dbp+24 -0x1.00149243831bbp+28 0x1.0704e82fb7106p-20 0x1.188dc47729ab1p+28 20 1
9.75 1.15 K 0x1.b8703d2be3dbap+21 -0x1.584af4be8e6b8p+24 0x1.64e963557674ep-24 0x1.7cb4ae3906e32p+24 20 1
9.75 1.15 D -0x1.cfcbc582b2562p+22 -0x1.f3d08cb57cc92p+25 0x1.01882f0a8d581p-22 0x1.12b3656096c45p+26 20 1
9.75 1.3 K 0x1.f20808c98a825p+19 -0x1.a15f467efc896p+22 0x1.b002257578bd5p-26 0x1.cccf16e3b3fd2p+22 20 1
9.75 1.3 D -0x1.40509996ddd83p+21 -0x1.2144651166c7dp+24 0x1.2af55909ed88cp-24 0x1.3ee3922cb91a6p+24 20 1
9.75 5.0 K -0x1.a04e29f5c3942p+2 -0x1.71071b8dc43f7p+3 0x1.a2b0dcdf84a0bp-45 0x1.be9a8532af9a6p+3 16 1
9.75 5.0 D -0x1.0bafbe825d841p+4 -0x1.54036a0999237p+3 0x1.395f14f24e5d5p-44 0x1.4e43498afe417p+4 16 1
9.75 20.0 K -0x1.0fd44e74dcbfdp-20 0x1.db2ba9f27dfc9p-22 0x1.1af51fcadeaebp-68 0x1.2dd242859ee15p-20 12 1
9.75 20.0 D -0x1.d2999dc5bf1a8p-23 0x1.0170144d0a295p-21 0x1.fff140f303750p-69 0x1.1f8eaeb973bf8p-21 14 1
0.5 0.1 K 0x1.a6d25b85c4ef2p+1 -0x1.a692007415a07p+0 0x1.a4af45ff77f14p-47 0x1.f3e6912d42ccep+2 6 1
0.5 0.1 D 0x1.ed665e560f441p+1 -0x1.0de42e1f07b56p+2 0x1.4408114009eeap-45 0x1.986ec88f16fb6p+4 6 1
0.5 0.45 K 0x1.07a8cf8f558e4p+0 -0x1.c611a144fa1bfp-1 0x1.7223daf9c3c27p-48 0x1.d51439dd20df4p+1 9 1
0.5 0.45 D 0x1.353b1634b7878p-2 -0x1.b60ba835c915cp-1 0x1.893ddef27d0bep-47 0x1.0214e969ecc62p+3 9 1
0.5 0.55 K 0x1.a0447d878cc98p-1 -0x1.9d1fb3fb62decp-1 0x1.b7e916017db7fp-50 0x1.25460eaba9255p+0 24 1
0.5 0.55 D 0x1.4dfe37f96a0c2p-3 -0x1.4b5d0ce8863c1p-1 0x1.016e3c855fbc7p-50 0x1.573da6072a509p-1 24 1
0.5 1.0 K 0x1.1f254a7f83bb6p-2 -0x1.19f360afbe888p-1 0x1.daae8fbc50688p-51 0x1.3c745fd2e045bp-1 20 1
0.5 1.0 D -0x1.fbe05d9186e0cp-6 -0x1.d71e435912d27p-3 0x1.65741719fd78cp-52 0x1.dc9ac977fca11p-3 20 1
0.5 1.15 K 0x1.7acbb9e1d29bap-3 -0x1.efc28e8749962p-2 0x1.8e1a1f9831081p-51 0x1.0966bfbacb5abp-1 20 1
0.5 1.15 D -0x1.66bf1806c7f52p-5 -0x1.59d22bc61e3cap-3 0x1.0c87416a43c43p-52 0x1.6609ac8dafb04p-3 20 1
0.5 1.3 K 0x1.cba6e712a0678p-4 -0x1.b1f651050b568p-2 0x1.50c0d3c2f49efp-51 0x1.c1011a5946294p-2 20 1
0.5 1.3 D -0x1.8db831ed3ead1p-5 -0x1.fe74c995b48b7p-4 0x1.9b9edf14f9602p-53 0x1.1269ea0dfb957p-3 20 1
0.5 5.0 K -0x1.7a035b93b139cp-7 0x1.7af411e705018p-7 0x1.918dd73715d2fp-56 0x1.0bb3e4cf63e20p-6 16 1
0.5 5.0 D -0x1.6dcc4d23169c8p-14 0x1.8f0c942e58ea3p-10 0x1.2bdc6ac3d58eap-59 0x1.8fd08e5a72138p-10 16 1
0.5 20.0 K -0x1.5040c884b632ap-24 -0x1.9041b539cb7ecp-23 0x1.45b496443f0b1p-72 0x1.b246146e1a3bcp-23 12 1
0.5 20.0 D -0x1.39b1ee7760ebep-28 -0x1.0c9a97bf298e6p-29 0x1.db0ff5c104847p-76 0x1.5563a0226d256p-28 12 1
2.5 0.1 K -0x1.c8d6b7798bedfp+8 -0x1.126e9e3115dbap+10 0x1.5725df31f195dp-38 0x1.3a5f18380f4e2p+11 6 1
2.5 0.1 D -0x1.3ed7813acb38bp+11 -0x1.cec2e820f0eb5p+11 0x1.4776f3562a56fp-35 0x1.39db9b959767dp+14 6 1
2.5 0.45 K -0x1.6de52dd283558p+3 -0x1.92e40bbe98d30p+4 0x1.35ed232d89c8cp-43 0x1.2a453a4df1d9ep+6 9 1
2.5 0.45 D -0x1.62ccaa537f51cp+5 -0x1.74ad7772fbdb1p+5 0x1.2143c40cf0308p-40 0x1.1de02993a7fedp+9 9 1
2.5 0.55 K -0x1.ca9681867e432p+2 -0x1.e3c5096d24a2cp+3 0x1.1fb4c4100a742p-45 0x1.1fb4c4100a742p+4 24 1
2.5 0.55 D -0x1.9b620865bbd85p+4 -0x1.8ce57d7d38a2dp+4 0x1.33331561e50ebp-44 0x1.33331561e50ebp+5 24 1
2.5 1.0 K -0x1.f1e958a645564p+0 -0x1.93d5d18408acfp+1 0x1.00cd39dcf9d2cp-47 0x1.00cd39dcf9d2cp+2 20 1
2.5 1.0 D -0x1.3d1fd9392e1e2p+2 -0x1.91165f3283e53p+1 0x1.963712bfb958cp-47 0x1.963712bfb958cp+2 20 1
2.5 1.15 K -0x1.7714ac26e0405p+0 -0x1.11a8344a66690p+1 0x1.67045f6b37107p-48 0x1.67045f6b37107p+1 20 1
2.5 1.15 D -0x1.aa628cbb53d8ap+1 -0x1.c7ce177507f81p+0 0x1.059a207d62df1p-47 0x1.059a207d62df1p+2 20 1
2.5 1.3 K -0x1.26036fc029d80p+0 -0x1.7f6623a6708cbp+0 0x1.052993fcdfdbfp-48 0x1.052993fcdfdbfp+1 20 1
2.5 1.3 D -0x1.2a872f950fe44p+1 -0x1.0753fde2948fbp+0 0x1.60b993fd151adp-48 0x1.60b993fd151adp+1 20 1
2.5 5.0 K -0x1.4c23c8a66c8a0p-7 0x1.74bbfd39b2b82p-6 0x1.a9e09c7423167p-55 0x1.a9e09c7423167p-6 16 1
2.5 5.0 D 0x1.a2d5abe583070p-9 0x1.6aea5e359b65cp-7 0x1.8a370264678aep-56 0x1.8a370264678aep-7 16 1
2.5 20.0 K -0x1.ced44617ed4a2p-24 -0x1.a79de95e2466cp-23 0x1.e9699ba781b0dp-72 0x1.e96993eef3285p-23 12 1
2.5 20.0 D -0x1.c45d0955754eap-26 -0x1.1c502af322e1fp-27 0x1.694fd69995e1fp-73 0x1.e0c3639ac0c8dp-26 12 1
0.3 0.1 K 0x1.5c25113fa24abp+1 -0x1.0d5f694014f3bp+0 0x1.f83504e0d54aep-48 0x1.333947ea85236p+2 6 1
0.3 0.1 D 0x1.0837324b588c4p+1 -0x1.f96571b01801cp+0 0x1.cce6aa6e62495p-47 0x1.251a1b15b1f10p+3 6 1
0.3 0.45 K 0x1.f62f2c2558c31p-1 -0x1.832ba5305a5a6p-1 0x1.111fb58b1dba3p-48 0x1.5ecd5109aaf02p+1 9 1
0.3 0.45 D 0x1.7e4e6579dc2b7p-3 -0x1.de5642ee35447p-2 0x1.392b5838e8f82p-48 0x1.9c2176c33bd81p+1 9 1
0.3 0.55 K 0x1.926aa19906bbap-1 -0x1.6a24a35e42e3ap-1 0x1.963469de02a51p-50 0x1.0ecd9be95718bp+0 22 1
0.3 0.55 D 0x1.ad5b8a381e722p-4 -0x1.6f58ead508c4bp-2 0x1.20f5a264a8abfp-51 0x1.81478330e0e53p-2 24 1
0.3 1.0 K 0x1.239abcee49fb4p-2 -0x1.077d3387d53b8p-1 0x1.c3c65d87810f7p-51 0x1.2d2ee90500b4fp-1 20 1
0.3 1.0 D -0x1.ce6005b52c3acp-7 -0x1.0f384e091982ep-3 0x1.9ac1bc6960b7cp-53 0x1.11d67d9b95cfdp-3 20 1
0.3 1.15 K 0x1.882b489d05331p-3 -0x1.d48dfed0920a2p-2 0x1.7cfc63ab6c92ep-51 0x1.fbfb2f8f3b6e8p-2 20 1
0.3 1.15 D -0x1.74758975fe94cp-6 -0x1.9134cc0bbe886p-4 0x1.35f189ca2ccbbp-53 0x1.9d420d0d910fap-4 20 1
0.3 1.3 K 0x1.e9f1603e36a3bp-4 -0x1.9dd1cd17cd8d9p-2 0x1.43b2675ac373ep-51 0x1.af9889ce59efep-2 20 1
0.3 1.3 D -0x1.afd5116eac2c9p-6 -0x1.2a035035af0c8p-4 0x1.dcd0526030e5ep-54 0x1.3de036eacb43fp-4 20 1
0.3 5.0 K -0x1.7985a08273ec4p-7 0x1.7304a9bcc3026p-7 0x1.8d03102fc517ap-56 0x1.08acb5752e0fcp-6 16 1
0.3 5.0 D -0x1.f7c80aed6a948p-15 0x1.d95df8e929cf6p-11 0x1.63d4ba3dcac06p-60 0x1.da70f85263ab3p-11 16 1
0.3 20.0 K -0x1.4d1f5089d8bf9p-24 -0x1.8f958230ea39ap-23 0x1.44c205573e587p-72 0x1.b102a5861b2d2p-23 12 1
0.3 20.0 D -0x1.76f17b321400cp-29 -0x1.436bce044d783p-30 0x1.2f4deec80b445p-76 0x1.987d00282eea5p-29 12 1
5.3 0.1 K -0x1.2a0369bdaec68p+26 0x1.e6f2e59719fa1p+26 0x1.539d322742fe9p-21 0x1.d5dd0b3cf3926p+27 6 1
5.3 0.1 D -0x1.e931c0d80df29p+27 0x1.332fe667761cap+29 0x1.761405daf58d1p-18 0x1.0911bd0c73867p+31 6 1
5.3 0.45 K -0x1.9d8a28af142eap+14 0x1.5a8274ac3df12p+15 0x1.39529d90c66bdp-32 0x1.be7727d536f4dp+16 9 1
5.3 0.45 D -0x1.69f265637b6e9p+15 0x1.31b7c3e6d4284p+17 0x1.614314052af15p-29 0x1.fe2b9e4155d34p+19 9 1
5.3 0.55 K -0x1.1abc5aa03493dp+13 0x1.e022f5e9cda77p+13 0x1.9b46d3393103ep-35 0x1.2b1c3c86af48ap+14 22 1
5.3 0.55 D -0x1.b1e4dad8a5043p+13 0x1.8eb2062e03675p+15 0x1.30faf3b6f65cfp-33 0x1.bb9b910a20872p+15 24 1
5.3 1.0 K -0x1.61eb00864c904p+8 0x1.4a71e1f8ffc0ap+9 0x1.14f486fea9b59p-39 0x1.92d80a2c99c25p+9 20 1
5.3 1.0 D -0x1.231c46310024ap+8 0x1.ba5a40892974cp+10 0x1.4b3a4ce2ee8efp-38 0x1.e1c92a0443b8bp+10 20 1
5.3 1.15 K -0x1.457c17d12ce81p+7 0x1.3e12007cd8c85p+8 0x1.079642e6832c0p-40 0x1.7f6632c3a785cp+8 20 1
5.3 1.15 D -0x1.9666e65f8b237p+6 0x1.9053198a85a7ep+9 0x1.29b4d76de65f3p-39 0x1.b1070ace665bfp+9 20 1
5.3 1.3 K -0x1.457b2a5633957p+6 0x1.4f8608ce325f6p+7 0x1.129d501424429p-41 0x1.8f70747a63499p+7 20 1
5.3 1.3 D -0x1.17db912c05356p+5 0x1.8df77d75d0c62p+8 0x1.2632af30dc267p-40 0x1.abeca1bb6ec38p+8 20 1
5.3 5.0 K 0x1.5bc35096955c9p-4 0x1.57a62b0ebb909p-4 0x1.5c095d441a745p-52 0x1.fa3c2a919ad7cp-4 16 1
5.3 5.0 D 0x1.c570ab33d67b7p-4 0x1.24e550907d4b4p-6 0x1.46f7d08e3a8bfp-52 0x1.db9700cee0cb9p-4 16 1
5.3 20.0 K -0x1.0fe741bd8323cp-22 -0x1.ca9c60d688a94p-23 0x1.ee83690ce37ffp-71 0x1.67a55e2d46735p-22 12 1
5.3 20.0 D -0x1.716cc16dce25dp-24 0x1.5405a46609538p-28 0x1.4e113f75d19f4p-71 0x1.7627cd63277e4p-24 12 1
1e+17 1e+300 K 0x0.0p+0 -0x0.0p+0 inf 0x0.0p+0 2 0
1e+17 1e+300 D 0x0.0p+0 0x0.0p+0 inf 0x0.0p+0 2 0
"""

# bessel_k (K) and dk_dnu_any (D) off the Kelvin ray, in the fields of K_BITS:
# z, nu, the function, then value, estimate, scale, terms and converged
PHASE_BITS = """
2j 0.3 K -0x1.9fe5dcb916c4bp-1 -0x1.58aa788246df4p-2 0x1.5348a112a5627p-50 0x1.c460d6c3872dfp-1 24 1
2j 0.3 D -0x1.1e8f3607766afp-4 0x1.a03cef8f99a18p-4 0x1.7cd993e921684p-53 0x1.fbccc536d735bp-4 24 1
2j 1.75 K -0x1.ff4454046b71ap-1 0x1.3a432ac4bdd66p-2 0x1.54fb24cd963cbp-49 0x1.85b14ea1d0455p+0 24 1
2j 1.75 D 0x1.ee995f6a1ace0p-7 0x1.ca7670f45e8b4p-1 0x1.2450496d9a24ep-49 0x1.4e129d0f8b97dp+0 24 1
2j -2.5 K -0x1.57a813fe83c7fp-1 0x1.2b2bf4779374fp+0 0x1.d4e031346c54cp-49 0x1.d4e031346c54cp+0 24 1
2j -2.5 D -0x1.0fc61cf0feb26p+0 -0x1.53048c26065dep+0 0x1.27411812692ddp-48 0x1.27411812692ddp+1 24 1
0.8j 0.3 K 0x1.4e594a3c0bc70p-4 -0x1.5b4063935bedep+0 0x1.0528490d72208p-49 0x1.5c35b6bc982b6p+0 30 1
0.8j 0.3 D -0x1.7c36cf2516a1ap-2 -0x1.68a2491b26abdp-3 0x1.3cb39c0cc2b35p-51 0x1.a644d0110399bp-2 30 1
0.8j 1.75 K -0x1.550d77ddb4973p+1 -0x1.ce625ea6f5167p-1 0x1.ce6602901fcbdp-48 0x1.083a4a9b7fe23p+2 30 1
0.8j 1.75 D -0x1.f7ab57548fbb2p+1 0x1.6651566d3c026p+1 0x1.8cd9444f14ddep-47 0x1.c58a9735ceb46p+2 30 1
0.8j -2.5 K -0x1.4b6f5f36e68c5p+2 0x1.4f91d4291a36dp+2 0x1.4eac3e6731ab1p-46 0x1.4eac3e6731ab1p+3 30 1
0.8j -2.5 D -0x1.55edbd43cb50cp-3 -0x1.012fe62d72dabp+4 0x1.6d01b6d0e31b8p-45 0x1.6d01b6d0e31b8p+4 30 1
(3+4j) 0.3 K -0x1.d1d1c3ea591dep-8 0x1.b58195a28bdb2p-6 0x1.53a55368eb307p-55 0x1.c4dc6f368eeb4p-6 20 1
(3+4j) 0.3 D 0x1.cde5fed7bec98p-11 0x1.51416a910c855p-10 0x1.32a58a92000b1p-59 0x1.98dcb8c2aab97p-10 22 1
(3+4j) 1.75 K -0x1.af44205b6ea9cp-10 0x1.0fb4326a04822p-5 0x1.0049073ee6c47p-54 0x1.24e5bf2350e07p-5 22 1
(3+4j) 1.75 D 0x1.ffd78fc351efdp-8 0x1.f4a76dfb85946p-8 0x1.514364fb22411p-56 0x1.817197fa704a5p-7 22 1
(3+4j) -2.5 K 0x1.c9d51255bf350p-8 0x1.476228804774ep-5 0x1.60cb797131519p-54 0x1.60cb797131519p-5 22 1
(3+4j) -2.5 D -0x1.071e1bbaa00d1p-6 -0x1.4f323b2eb9bdbp-7 0x1.4b27817794d61p-55 0x1.4b27817794d61p-6 22 1
(1-7j) 0.3 K 0x1.a8b9455e645e0p-6 0x1.5e48b84af4a74p-3 0x1.0b5be544da261p-52 0x1.647a87067832cp-3 20 1
(1-7j) 0.3 D -0x1.bae36e7f652fbp-8 0x1.4c404a45da885p-9 0x1.66cac7819bd7ap-57 0x1.de63b4accfca3p-8 20 1
(1-7j) 1.75 K -0x1.365fe67936788p-7 0x1.71828b1fd06eep-3 0x1.7474ad2abf2b8p-52 0x1.a9a9ea79ff0d2p-3 20 1
(1-7j) 1.75 D -0x1.663495bb9478dp-5 0x1.d1e98ee05b0eap-8 0x1.6d4c92bd8e7dap-54 0x1.a17c156aebfd4p-5 20 1
(1-7j) -2.5 K -0x1.a061501a9bc6ap-5 0x1.76112ae46d13ap-3 0x1.b247ccea745bcp-52 0x1.b247ccea745bcp-3 20 1
(1-7j) -2.5 D 0x1.11d5a45b3cb08p-4 0x1.c6c2afba1b2a2p-9 0x1.32b01e219684ap-53 0x1.32b01e219684ap-4 20 1
"""
