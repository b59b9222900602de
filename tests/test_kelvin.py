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
from kelvinfn.hyper import HyperSpec, pfq
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
                                  lambda: pfq(HyperSpec((), (1.0,), 1e6)),
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
        _plan_rows([(0.0, False)], xs, None)
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
        _plan_rows(plan, [40.0], {})
    assert type(info.value) is error
    assert at in str(info.value)


def test_plan_of_an_empty_grid():
    """An empty grid gives one empty list per entry, whatever the entries
    (``cli._table_rows`` at x = 0 alone)."""
    plan = [(0.5, True), (-1.0, False), (math.nan, True), (1e300, False)]
    assert _plan_rows(plan, (), {}) == [[], [], [], []]
    assert _plan_rows(plan, [], None) == [[], [], [], []]


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

    scipy = pytest.importorskip("scipy.special")

    def test_order_zero_quad(self):
        for x in (0.5, 1.0, 3.0, 7.0):
            be, ke, _, _ = self.scipy.kelvin(x)
            q = kelvin_all(0.0, x)
            assert q.ber == pytest.approx(be.real, rel=1e-9, abs=1e-12)
            assert q.bei == pytest.approx(be.imag, rel=1e-9, abs=1e-12)
            # ker/kei are small against the I series that build them, so
            # their accuracy is stated in absolute terms
            assert q.ker == pytest.approx(ke.real, abs=1e-9)
            assert q.kei == pytest.approx(ke.imag, abs=1e-9)
