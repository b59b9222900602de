"""Bessel kernels at complex argument and their order derivatives.

Oracles: elementary closed forms at half-integer order, the I/J rotation
identity, quadrature of the cosh-kernel integral for K, the log-series for
K_0, and Richardson finite differences over the order for the derivatives.
"""

import cmath
import math
import random

import pytest

from kelvinfn.bessel import (bessel_i, bessel_j, bessel_k, dj_dnu, dj_dnu_any,
                             dk_dnu, dk_dnu_any)
from kelvinfn.errors import (ArgumentZeroError, BranchError, GammaOverflowError, KelvinError,
                             OrderClassError, PowerOverflowError)
from kelvinfn.hyper import SeriesConfig
from kelvinfn.quad import integrate_semiinf

ROT_J = complex(math.sqrt(0.5), -math.sqrt(0.5))
ROT_K = complex(math.sqrt(0.5), math.sqrt(0.5))
EULER_GAMMA = 0.5772156649015328606


def fd_order_derivative(fn, nu, z, h=1e-5):
    """Richardson central difference over the order, steps h and h/2."""
    def cd(step):
        return (fn(nu + step, z).value - fn(nu - step, z).value) / (2.0 * step)
    return (4.0 * cd(h / 2.0) - cd(h)) / 3.0


def k0_log_series(z, n_terms=60):
    """K_0(z) = -(log(z/2) + gamma) I_0(z) + sum_m H_m (z^2/4)^m / (m!)^2."""
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
    return -(cmath.log(z / 2.0) + EULER_GAMMA) * i0 + tail


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0.0, 0.0).value == 1.0
        assert bessel_j(1.0, 0.0).value == 0.0
        assert bessel_j(2.5, 0.0).value == 0.0

    def test_half_order_closed_form(self):
        """J_{1/2}(z) = sqrt(2/(pi z)) sin z, complex argument."""
        z = ROT_J * 2.0
        want = cmath.sqrt(2.0 / (math.pi * z)) * cmath.sin(z)
        got = bessel_j(0.5, z)
        assert abs(got.value - want) <= 1e-14 * abs(want)

    def test_negative_integer_reflection(self):
        """J_{-n} = (-1)^n J_n."""
        z = 1.3 - 0.4j
        for n in (1, 2, 5):
            got = bessel_j(float(-n), z)
            ref = bessel_j(float(n), z)
            assert got.value == (-1.0) ** n * ref.value

    def test_branch_error(self):
        with pytest.raises(BranchError):
            bessel_j(-0.5, 0.0)

    @pytest.mark.parametrize("fn", [bessel_j, bessel_i])
    def test_negative_integer_order_at_origin(self, fn):
        """1/Gamma(nu+1) vanishes at the negative integers: J_-n(0) = I_-n(0) = 0."""
        for n in (1, 2, 5):
            assert fn(float(-n), 0.0).value == 0.0

    def test_power_overflow_is_typed(self):
        """(z/2)^nu beyond the double range raises a KelvinError that is
        still an OverflowError."""
        for nu, z in ((1000.0, 20.0 + 0.0j), (-150.5, 1e-5 + 0.0j)):
            with pytest.raises(PowerOverflowError):
                bessel_j(nu, z)
        assert issubclass(PowerOverflowError, KelvinError)
        assert issubclass(PowerOverflowError, OverflowError)

    def test_degraded_flag(self):
        assert "degraded" in bessel_j(0.5, 25.0 + 0.0j).flags
        assert "degraded" in bessel_j(11.0, 1.0 + 0.0j).flags
        assert "degraded" not in bessel_j(0.5, 5.0 + 0.0j).flags


@pytest.mark.parametrize("fn, nu", [(bessel_j, -180.5), (bessel_i, -180.5),
                                    (bessel_k, 180.5), (bessel_k, -180.5)])
def test_gamma_overflow_is_typed(fn, nu):
    """Past the double range of 1/Gamma(nu+1) the series raise a typed
    error, not a bare ZeroDivisionError."""
    with pytest.raises(GammaOverflowError):
        fn(nu, 1.0 + 0.0j)


class TestBesselI:
    def test_at_origin(self):
        assert bessel_i(0.0, 0.0).value == 1.0

    def test_half_order_real(self):
        """I_{1/2}(1) = sqrt(2/pi) sinh 1."""
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert bessel_i(0.5, 1.0).value.real == pytest.approx(want, rel=1e-14)

    def test_rotation_identity(self):
        """I_nu(z) = e^(-i pi nu/2) J_nu(iz)."""
        nu = 2.0
        z = ROT_K * 3.0
        want = cmath.exp(-1j * math.pi * nu / 2.0) * bessel_j(nu, 1j * z).value
        got = bessel_i(nu, z).value
        assert abs(got - want) <= 1e-13 * abs(want)


class TestBesselK:
    def test_half_order_closed_form(self):
        """K_{1/2}(1) = sqrt(pi/2) e^(-1)."""
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert bessel_k(0.5, 1.0).value.real == pytest.approx(want, rel=1e-13)

    def test_third_order_against_quadrature(self):
        """K_nu(x) = int_0^inf e^(-x cosh t) cosh(nu t) dt at nu=1/3, x=2."""
        def f(t):
            t = min(t, 300.0)
            w = 2.0 * math.cosh(t)
            return math.exp(-w) * math.cosh(t / 3.0) if w < 700.0 else 0.0
        oracle = integrate_semiinf(f).value
        got = bessel_k(1.0 / 3.0, 2.0).value
        assert got.real == pytest.approx(oracle, rel=1e-11)
        assert abs(got.imag) <= 1e-16

    def test_integer_order_against_log_series(self):
        """K_0 at rotated argument reproduces ker(1) + i kei(1)."""
        z = ROT_K * 1.0
        want = k0_log_series(z)
        got = bessel_k(0.0, z)
        assert abs(got.value - want) <= 1e-10

    def test_even_in_order(self):
        z = 0.7 + 0.2j
        assert bessel_k(-0.3, z).value == bessel_k(0.3, z).value

    def test_argument_zero(self):
        with pytest.raises(ArgumentZeroError):
            bessel_k(0.5, 0.0)

    def test_connection_identity(self):
        """K sin(pi nu) (2/pi) + I_nu - I_{-nu} = 0 on random (nu, z)."""
        rng = random.Random(31)
        for _ in range(60):
            nu = rng.uniform(0.05, 4.0)
            if abs(nu - round(nu)) < 1e-3:
                continue
            z = complex(rng.uniform(0.1, 7.0), rng.uniform(-7.0, 7.0))
            kv = bessel_k(nu, z).value
            ip = bessel_i(nu, z).value
            im = bessel_i(-nu, z).value
            resid = kv * math.sin(math.pi * nu) * 2.0 / math.pi + ip - im
            scale = max(abs(ip), abs(im))
            assert abs(resid) <= 1e-12 * scale


class TestDJDnu:
    @pytest.mark.parametrize("nu,z", [
        (0.5, 1.0 + 0.0j),
        (1.25, ROT_J * 2.0),
        (2.4, ROT_J * 5.0),
        (5.3, 3.0 + 1.0j),
    ])
    def test_against_finite_difference(self, nu, z):
        want = fd_order_derivative(bessel_j, nu, z)
        got = dj_dnu(nu, z).value
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_conjugation(self):
        z = 1.1 - 0.8j
        a = dj_dnu(0.75, z).value
        b = dj_dnu(0.75, z.conjugate()).value
        assert abs(b - a.conjugate()) <= 1e-15 * (1.0 + abs(a))

    @pytest.mark.parametrize("nu", [0.0, 1.0, 3.0, -0.5])
    def test_order_class_error(self, nu):
        with pytest.raises(OrderClassError):
            dj_dnu(nu, 1.0 + 0.0j)


class TestDKDnu:
    @pytest.mark.parametrize("nu,z", [
        (0.25, 1.0 + 0.0j),
        (1.75, ROT_K * 3.0),
        (0.3, 2.0 + 0.0j),
        (2.4, ROT_K * 10.0),
    ])
    def test_against_finite_difference(self, nu, z):
        want = fd_order_derivative(bessel_k, nu, z)
        got = dk_dnu(nu, z).value
        assert abs(got - want) <= 1e-7 * (1.0 + abs(want))

    def test_conjugation(self):
        z = 0.9 + 0.6j
        a = dk_dnu(0.3, z).value
        b = dk_dnu(0.3, z.conjugate()).value
        assert abs(b - a.conjugate()) <= 1e-14 * (1.0 + abs(a))

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, -0.25])
    def test_order_class_error(self, nu):
        with pytest.raises(OrderClassError):
            dk_dnu(nu, 1.0 + 0.0j)

    def test_odd_symmetry_via_fd(self):
        """K even in order makes its order derivative odd: central
        differences across nu and -nu agree in magnitude, opposite sign."""
        z = ROT_K * 2.0
        h = 1e-5
        for nu in (0.4, 1.2):
            right = (bessel_k(nu + h, z).value - bessel_k(nu - h, z).value) / (2 * h)
            left = (bessel_k(-nu + h, z).value - bessel_k(-nu - h, z).value) / (2 * h)
            assert abs(left + right) <= 1e-8 * (1.0 + abs(right))


class TestDispatchers:
    def test_passthrough(self):
        z = ROT_J * 1.5
        want = dj_dnu(0.3, z).value
        assert abs(dj_dnu_any(0.3, z).value - want) <= 1e-12 * abs(want)

    def test_dj_at_integer_vs_fd(self):
        for n, z in ((1.0, ROT_J * 2.0), (0.0, 1.0 + 0.5j), (3.0, ROT_J * 5.0)):
            want = fd_order_derivative(bessel_j, n, z)
            got = dj_dnu_any(n, z)
            assert abs(got.value - want) <= 1e-7 * (1.0 + abs(want))

    def test_dk_at_excluded_orders_vs_fd(self):
        # wider FD steps here: just off integer orders K itself is evaluated
        # through a csc-amplified connection formula, so small steps would
        # measure the oracle's own noise rather than the derivative
        for nu, z in ((0.5, ROT_K * 1.0), (1.5, ROT_K * 4.0), (2.0, 2.0 + 1.0j)):
            want = fd_order_derivative(bessel_k, nu, z, h=1e-3)
            got = dk_dnu_any(nu, z)
            assert abs(got.value - want) <= 1e-6 * (1.0 + abs(want))

    def test_dk_vanishes_at_zero_order(self):
        assert dk_dnu_any(0.0, 1.0 + 1.0j).value == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(OrderClassError):
            dj_dnu_any(-0.1, 1.0 + 0.0j)
        with pytest.raises(OrderClassError):
            dk_dnu_any(-0.1, 1.0 + 0.0j)

    def test_integer_order_has_no_fallback_flags(self):
        assert dj_dnu_any(1.0, ROT_J * 1.0).flags == ()
        assert dk_dnu_any(1.0, ROT_K * 1.0).flags == ()


class TestSeriesBudget:
    def test_max_terms_env(self):
        """A starved term budget is reported, not hidden."""
        r = bessel_j(0.0, 18.0 + 0.0j, SeriesConfig(max_terms=4))
        assert not r.converged
