"""Kelvin function values: series oracles, reflection, the defining ODE."""

import cmath
import math

import pytest

from kelvinfn.bessel import _ray_k
from kelvinfn.errors import (ConvergenceError, DomainError, GammaOverflowError, KelvinError,
                             PowerOverflowError, SeriesOverflowError)
from kelvinfn.hyper import DEFAULT_SERIES, HyperSpec, SeriesConfig, pfq
from kelvinfn.kelvin import KelvinQuad, kelvin_all, kelvin_ber_bei, kelvin_ker_kei
from kelvinfn.orderderiv import dkelvin

EULER_GAMMA = 0.5772156649015328606
ROT_K = complex(math.sqrt(0.5), math.sqrt(0.5))


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
                                  lambda: kelvin_all(100.0, 0.01)])
def test_series_overflow_is_typed(call):
    """Far outside the envelope the terms leave the double range: a typed
    error, not NaN or a bare OverflowError."""
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


def test_dk_quadrature_below_the_envelope():
    """Far below the envelope dkelvin returns a result or raises a typed
    error: the dK/dnu quadrature stops at max_terms nodes with an infinite
    error estimate, and an integrand past the double range is a
    SeriesOverflowError, not a bare OverflowError from sinh or NaN."""
    d = dkelvin(10.0, 1e-8)
    assert all(map(math.isfinite, (d.dker, d.dkei, d.err_estimate)))
    d = dkelvin(0.3, 1e-300)
    assert d.err_estimate == math.inf
    dk = _ray_k(0.3, 1e-300, DEFAULT_SERIES, True)[1]  # (value, estimate, nodes, converged)
    assert dk[2] == DEFAULT_SERIES.max_terms and not dk[3]
    with pytest.raises(PowerOverflowError):
        dkelvin(10.0, 1e-300)
    for nu, x in ((60.0, 1e-3), (30.0, 1e-9)):
        with pytest.raises(SeriesOverflowError):
            dkelvin(nu, x)


def test_k_quadrature_edges_are_typed():
    """At the smallest double x/2 is 0, so (x/2)^(-nu) is a typed
    PowerOverflowError, not a bare ZeroDivisionError, in the K sum and, at
    a negative order, in the series; at order 0 the K sum runs out of nodes
    there, a typed ConvergenceError, not a value cut short, and dkelvin
    raises it before it takes log(x/2).  A term cap past the nodes whose
    cosh t stays finite still sums K, from the nodes there are."""
    for call in (kelvin_ker_kei, kelvin_all, dkelvin):
        with pytest.raises(PowerOverflowError):
            call(0.3, 5e-324)
        with pytest.raises(ConvergenceError):
            call(0.0, 5e-324)
    for call in (kelvin_ber_bei, kelvin_all, dkelvin):
        for nu in (-1.0, -2.0, -2.5):
            with pytest.raises(PowerOverflowError):
                call(nu, 5e-324)
    k = _ray_k(0.3, 2.0, SeriesConfig(max_terms=20000), False)[0]
    assert k[3] and k[0] == _ray_k(0.3, 2.0, DEFAULT_SERIES, False)[0][0]


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
