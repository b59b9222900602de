"""Bessel kernels at complex argument and their order derivatives.

Oracles: elementary closed forms at half-integer order, the I/J rotation
identity, quadrature of the cosh-kernel integral for K, the log-series for
K_0, and Richardson finite differences over the order for the derivatives.
"""

import cmath
import math
import random
import time

import pytest

from kelvinfn.bessel import (DEGRADED_REL, bessel_i, bessel_j, bessel_k, dj_dnu, dj_dnu_any,
                             dk_dnu, dk_dnu_any)
from kelvinfn.errors import (ArgumentZeroError, BranchError, ConvergenceError, GammaOverflowError,
                             KelvinError, OrderClassError, PowerOverflowError, SeriesOverflowError)
from kelvinfn import hyper
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
        """``degraded`` reads the run's own estimate, not |z| or the order:
        J at z = 20 and 25, where the series cancel, carries it; J_11(1),
        accurate however small, and J_0.5(5) do not."""
        for z in (20.0, 25.0):
            r = bessel_j(0.5, z + 0.0j)
            assert "degraded" in r.flags and r.abs_err_estimate > DEGRADED_REL * abs(r.value)
        assert "degraded" not in bessel_j(11.0, 1.0 + 0.0j).flags
        assert "degraded" not in bessel_j(0.5, 5.0 + 0.0j).flags


@pytest.mark.parametrize("fn, nu", [(bessel_j, -180.5), (bessel_i, -180.5),
                                    (bessel_k, 180.5), (bessel_k, -180.5)])
def test_gamma_overflow_is_typed(fn, nu):
    """Past the double range of 1/Gamma(nu+1) the series raise a typed
    error, not a bare ZeroDivisionError; K_(+-180.5)(1), about
    Gamma(180.5) 2^179.5, leaves it in the climb from order 0.5."""
    with pytest.raises(SeriesOverflowError if fn is bessel_k else GammaOverflowError):
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
        # FD step 1e-3, set when K came from a csc-amplified connection
        # formula whose noise swamped smaller steps; the one K sum has no
        # such noise, and the 1e-6 bound stays as set for this step
        for nu, z in ((0.5, ROT_K * 1.0), (1.5, ROT_K * 4.0), (2.0, 2.0 + 1.0j)):
            want = fd_order_derivative(bessel_k, nu, z, h=1e-3)
            got = dk_dnu_any(nu, z)
            assert abs(got.value - want) <= 1e-6 * (1.0 + abs(want))

    def test_dk_vanishes_at_zero_order(self):
        assert dk_dnu_any(0.0, 1.0 + 1.0j).value == 0.0

    def test_integer_order_has_no_fallback_flags(self):
        assert dj_dnu_any(1.0, ROT_J * 1.0).flags == ()
        assert dk_dnu_any(1.0, ROT_K * 1.0).flags == ()

    def test_k_underflow_is_flagged(self):
        """Where e^(-z) underflows, far past |z| = 30, K and dK/dnu above
        order 1 are 0 and flagged unconverged, not a ZeroDivisionError."""
        for fn in (bessel_k, dk_dnu_any):
            r = fn(2.5, 800.0)
            assert r.value == 0.0 and "no_convergence" in r.flags


# Re z < 0, where K is refused: |z| in {0.3, 2, 5, 10, 20} at phases pi,
# +-3 pi/4 and 2.4, and Re z = -5e-324
K_LEFT_ZS = ([cmath.rect(r, ph) for r in (0.3, 2.0, 5.0, 10.0, 20.0)
              for ph in (math.pi, 3.0 * math.pi / 4.0, -3.0 * math.pi / 4.0, 2.4)]
             + [complex(-5e-324, 2.0), complex(-5e-324, -2.0), complex(-5e-324, 0.0)])


@pytest.mark.parametrize("fn", [bessel_k, dk_dnu_any])
@pytest.mark.parametrize("nu", [0.0, 0.3, -0.3, 1.5, 2.7, 3.0, 8.0])
def test_k_refused_at_negative_real_part(fn, nu):
    """K and dK/dnu are computed on the closed right half-plane only: at
    Re z < 0, where the continuation DLMF 10.34.2 lost up to 2e-7 of dK/dnu
    to the cancellation of the I series, they raise BranchError; at
    Re z = -0.0 they are the values at +0.0."""
    for z in K_LEFT_ZS:
        with pytest.raises(BranchError):
            fn(nu, z)
    for y in (2.0, -0.5, 25.0):
        assert fn(nu, complex(-0.0, y)).value == fn(nu, complex(0.0, y)).value


# The typed-error sweep of the complex API: every call returns finite values
# or raises a KelvinError, each within CALL_SECONDS
EDGE_ORDERS = [0.0, 0.3, -0.3, 2.0, -2.0, 10.5, -10.5, 171.5, 1e17]
EDGE_ZS = [5e-324, -5e-324, 5e-324j, -5e-324j, complex(-0.0, 2.0), complex(-5e-324, 2.0), 30.5,
           1e300, 1e300j, -1e300j, cmath.rect(20.0, 0.51 * math.pi),
           cmath.rect(20.0, -0.51 * math.pi)]
CALL_SECONDS = 1.0


@pytest.mark.parametrize("fn", [bessel_j, bessel_i, bessel_k, dj_dnu_any, dk_dnu_any])
def test_complex_api_edges_are_typed(fn):
    """At z = +-5e-324 and +-5e-324i, where z/2 underflows to 0, J, I and
    dJ/dnu take log z - log 2 (J_0 = I_0 = 1) instead of a bare
    ValueError.  K at order 1e17 and z = +-1e300i, whose unbounded start
    keeps modulus 1 on the imaginary axis, raises ConvergenceError instead
    of a climb to the order that does not end."""
    for nu in EDGE_ORDERS:
        for z in EDGE_ZS:
            t = time.perf_counter()
            try:
                res = fn(nu, z)
            except KelvinError:
                pass
            else:
                assert cmath.isfinite(res.value), (nu, z, res)
            assert time.perf_counter() - t < CALL_SECONDS, (nu, z)
    if fn in (bessel_j, bessel_i):
        assert fn(0.0, 5e-324).value == fn(0.0, 5e-324j).value == 1.0
        assert fn(0.3, 5e-324).value.real == pytest.approx(9.221596625239e-98, rel=1e-12)
        with pytest.raises(PowerOverflowError):
            fn(-2.0, 5e-324)
    if fn in (bessel_k, dk_dnu_any):
        for z in (1e300j, -1e300j):
            with pytest.raises(ConvergenceError):
                fn(1e17, z)


def test_dj_dnu_closed_form_where_two_over_z_overflows():
    """Where 2/z overflows (|z| < ~1e-308) the closed form's log(2/z) is
    taken as -log(z/2): dJ/dnu is finite, unflagged and the value of
    :func:`dj_dnu_any` (-6.87e-95 at z = 5e-324, not -inf + nan i)."""
    for z in (5e-324, 5e-324j, 1e-300, 1e-308j):
        r = dj_dnu(0.3, z)
        assert cmath.isfinite(r.value) and "degraded" not in r.flags, (z, r)
        assert abs(r.value - dj_dnu_any(0.3, z).value) <= 1e-13 * abs(r.value), z


def test_degraded_where_not_finite():
    """A value or estimate that is not finite is ``degraded``: no estimate
    vouches for it."""
    from kelvinfn.bessel import _result
    assert _result(1.0 + 0.0j, 0.0, 1, True, 1.0).flags == ()
    assert "degraded" in _result(complex(-math.inf, math.nan), math.inf, 1, True, 1.0).flags
    assert "degraded" in _result(1.0 + 0.0j, math.inf, 1, True, 1.0).flags
    assert "degraded" in _result(complex(math.nan, 0.0), 0.0, 1, True, 1.0).flags


class TestSeriesBudget:
    def test_max_terms_env(self, monkeypatch):
        """A starved term cap is reported, not hidden."""
        monkeypatch.setattr(hyper, "MAX_TERMS", 4)
        r = bessel_j(0.0, 18.0 + 0.0j)
        assert not r.converged
        assert "no_convergence" in r.flags
