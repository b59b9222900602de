"""Gamma and digamma kernels: spot values, recurrences, reflection."""

import math
import time
from fractions import Fraction

import pytest

from kelvinfn.errors import DomainError, GammaOverflowError, KelvinError, PoleError
from kelvinfn.scalars import EULER_GAMMA, _two_sum, digamma_real, gamma_real

# Reference values computed with 25-digit arithmetic and rounded to double.
GAMMA_REFS = {
    7.25: 1155.3810139199896872,       # product recursion down to Gamma(1.25)
    101.3: 3.7226163127842246e158,
    -169.5: 5.64822088422332547e-306,
}
DIGAMMA_REFS = {
    13.7: 2.5804557238996525,
    0.002: -500.57393059635341,
    847.25: 6.7414055498115429,
}


class TestGammaValues:
    def test_factorial_one(self):
        assert gamma_real(1.0) == 1.0
        assert gamma_real(2.0) == 1.0

    def test_half(self):
        """Gamma(1/2) = sqrt(pi), forced analytically."""
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=5e-16)

    def test_small_integers(self):
        assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-15)
        assert gamma_real(11.0) == pytest.approx(3628800.0, rel=1e-15)

    @pytest.mark.parametrize("x,ref", sorted(GAMMA_REFS.items()))
    def test_reference_values(self, x, ref):
        assert gamma_real(x) == pytest.approx(ref, rel=2e-15)

    def test_negative_half_line(self):
        """Gamma(-1/2) = -2 sqrt(pi)."""
        assert gamma_real(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)


# gamma_real's bits, pinned so that a rewrite of the kernel or of either
# reduction chain cannot move them: the kernel interval [1, 2], the x >= 1
# chain, its uncompensated steps past |Gamma| = 1e250, and the x < 1 path
GAMMA_BITS = {
    1.0: "0x1.0000000000000p+0",
    1.3: "0x1.cb81477381f33p-1",
    1.5: "0x1.c5bf891b4ef6ap-1",
    2.0: "0x1.0000000000000p+0",
    3.7: "0x1.0aebf5759a454p+2",
    9.3: "0x1.2ceb8ed6b5745p+16",
    11.0: "0x1.baf8000000000p+21",
    50.25: "0x1.f658786903e33p+209",
    150.3: "0x1.bd343d178a853p+867",
    171.5: "0x1.0e1863dcad78ap+1023",
    0.3: "0x1.7eebbb8aec4abp+1",
    -2.5: "-0x1.e3ff812e32182p-1",
    -169.5: "0x1.fbb03aae1cf03p-1015",
}


@pytest.mark.parametrize("x, bits", sorted(GAMMA_BITS.items()))
def test_gamma_bits(x, bits):
    assert gamma_real(x).hex() == bits


# Below -184, |Gamma| is under half the least subnormal on every double; from
# -171.6 down it underflows.  The chain of -x divisions took 0.96 s at -1e6 - 0.5
# (years at -4e15 + 0.5) and returned +0.0 where Gamma < 0: (-1)^(n+1) on (-n-1, -n)
@pytest.mark.parametrize("x, sign", [(-180.5, -1.0), (-184.5, -1.0), (-185.5, 1.0),
                                     (-200.5, -1.0), (-400.5, -1.0), (-1e6 - 0.5, -1.0),
                                     (-4e15 + 0.5, 1.0), (-4e15 + 1.5, -1.0)])
def test_gamma_underflow_is_a_signed_zero(x, sign):
    times = []
    for _ in range(5):
        t = time.perf_counter()
        g = gamma_real(x)
        times.append(time.perf_counter() - t)
    assert g == 0.0 and math.copysign(1.0, g) == sign
    assert min(times) < 1e-3


class TestGammaErrors:
    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -37.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_real(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma_real(172.0)
        with pytest.raises(OverflowError):
            gamma_real(1.0e4)

    def test_overflow_is_typed(self):
        with pytest.raises(GammaOverflowError):
            gamma_real(172.0)
        assert issubclass(GammaOverflowError, KelvinError)


# Near 0, Gamma(x) = 1/x - gamma + O(x) and psi(x) = -1/x - gamma + O(x):
# below |x| = 7.5e-301 the double-double divide of gamma_real overflowed in its
# Veltkamp split (NaN), and the recurrence of digamma_real added -inf to 0
# (NaN) or its reflection returned inf
@pytest.mark.parametrize("x", [1e-305, -1e-305, 7e-301, -7e-301, 1e-307])
def test_gamma_and_digamma_near_zero(x):
    assert gamma_real(x) == 1.0 / x
    assert digamma_real(x) == pytest.approx(-1.0 / x, rel=1e-15)


@pytest.mark.parametrize("x", [5e-324, -5e-324, 5e-309, -1e-310])
def test_overflow_near_zero_is_typed(x):
    """Where 1/x leaves the double range, so do Gamma and psi."""
    with pytest.raises(GammaOverflowError):
        gamma_real(x)
    with pytest.raises(GammaOverflowError):
        digamma_real(x)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_argument_is_a_domain_error(x):
    """Not a bare OverflowError (-inf), ValueError (NaN), or a NaN or inf
    returned."""
    with pytest.raises(DomainError):
        gamma_real(x)
    with pytest.raises(DomainError):
        digamma_real(x)


class TestGammaRecurrence:
    def test_recurrence_tight(self):
        """|Gamma(x+1) - x Gamma(x)| stays within 4 ulp over (0, 50).

        Samples sit on a 2^-40 grid so that x + 1 is exactly representable;
        off that grid the comparison would measure the rounding of x + 1
        itself (propagated through psi(x+1) ~ 4), not the kernels.
        """
        import random
        rng = random.Random(20240817)
        worst = 0.0
        for _ in range(1000):
            x = rng.randrange(1, 50 * 2**40) / 2**40
            lhs = gamma_real(x + 1.0)
            rhs = x * gamma_real(x)
            worst = max(worst, abs(lhs - rhs) / math.ulp(abs(lhs)))
        assert worst <= 4.0


@pytest.mark.parametrize("a, b", [(0.1, 3.0), (3.0, 0.1), (-0.7, 2.0), (1e-20, 1.0),
                                  (1.0, -1.0 + 2.0**-52), (-2.5, 0.3)])
def test_two_sum_error_term_is_exact(a, b):
    """a + b = s + e exactly, with s the rounded sum: TwoSum's error term
    takes a - (s - (s - a)) and b - (s - a); with the two swapped it read 0
    at (0.1, 3), where the error is -8.3e-17."""
    s, e = _two_sum(a, b)
    assert s == a + b
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


class TestDigamma:
    def test_at_one(self):
        assert digamma_real(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)

    def test_at_two(self):
        """psi(2) = psi(1) + 1 by the recurrence."""
        assert digamma_real(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-15)

    def test_at_half(self):
        """Duplication: psi(1/2) = -gamma - 2 log 2."""
        assert digamma_real(0.5) == pytest.approx(
            -EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-15)

    @pytest.mark.parametrize("x,ref", sorted(DIGAMMA_REFS.items()))
    def test_reference_values(self, x, ref):
        # 1e-14 absolute, relaxed to 2 ulp where |psi| is large enough that
        # 1e-14 would be below the representable spacing (x near 0)
        tol = max(1e-14, 2.0 * math.ulp(abs(ref)))
        assert digamma_real(x) == pytest.approx(ref, abs=tol)

    def test_reflection_identity(self):
        """psi(1-x) - psi(x) = pi cot(pi x) on (0, 1) away from the poles."""
        import random
        rng = random.Random(7)
        for _ in range(500):
            x = rng.uniform(0.05, 0.95)
            lhs = digamma_real(1.0 - x) - digamma_real(x)
            rhs = math.pi / math.tan(math.pi * x)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_recurrence(self):
        import random
        rng = random.Random(11)
        for _ in range(300):
            x = rng.uniform(0.01, 40.0)
            assert digamma_real(x + 1.0) == pytest.approx(
                digamma_real(x) + 1.0 / x, abs=1e-13 * (1 + 1 / x))

    @pytest.mark.parametrize("x", [0.0, -1.0, -6.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            digamma_real(x)

    def test_negative_argument(self):
        """Reflection path: psi(-0.5) = psi(2.5) - ... check against
        2 - gamma - 2 log 2 = psi(3/2) + ... via the recurrence ladder."""
        # psi(-1/2) = 2 - gamma - 2 log 2 (recurrence down from psi(1/2))
        ref = 2.0 - EULER_GAMMA - 2.0 * math.log(2.0)
        assert digamma_real(-0.5) == pytest.approx(ref, abs=1e-14)
