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


def test_digamma_keeps_its_bits():
    """digamma_real keeps the bits frozen in DIGAMMA_BITS: its recurrence to
    x >= 10 with the rounding of every step carried, its asymptotic tail, and
    the reflection of negative non-integers."""
    for line in DIGAMMA_BITS.strip().splitlines():
        x, bits = line.split()
        assert digamma_real(float(x)).hex() == bits, x


# x and psi(x) as float.hex, x from random.Random(32): 20 log-uniform on
# [1e-300, 12], 20 uniform on [0, 12] and 20 uniform on [-20, 0]
DIGAMMA_BITS = """
2.04214837510424e-277 -0x1.1adeae5a48cb7p+919
2.068083513692307e-236 -0x1.e6a5fc5891466p+782
1.8434507838893868e-209 -0x1.51ed04e8dcdc7p+693
1.0854219602890025e-29 -0x1.29b034f347c0ep+96
2.578066160346807e-151 -0x1.2f5a542b79071p+500
7.070357673859669e-84 -0x1.2a35556e9d250p+276
1.5093239177728441e-270 -0x1.410e735b17139p+896
1.6878804580683872e-147 -0x1.7b91964b2082bp+487
6.787458198689954e-47 -0x1.4a5397bf19607p+153
2.535061154572702e-143 -0x1.9e0f6ec6ee565p+473
2.689861230076259e-16 -0x1.a6a6428b41fa6p+51
3.1021458845686226e-35 -0x1.8d5617af350f9p+114
4.881299587491901e-189 -0x1.78aaac00157dap+625
1.6773917171850026e-300 -0x1.c7c8e50e536d7p+995
2.484426087268136e-73 -0x1.2399279fd4dc8p+241
1.1459890347544299e-262 -0x1.1bc4957d87a03p+870
6.814089402009433e-298 -0x1.1f3a4ec15c530p+987
9.857941735420668e-81 -0x1.b607f0f42f449p+265
5.783165170070845e-47 -0x1.83b0bd33f7bb7p+153
7.517571915905273e-49 -0x1.d201f68ef7049p+159
11.441230946042051 0x1.324a15800f10ap+1
2.4200429719320473 0x1.538b991eb23c4p-1
0.9780091644099977 -0x1.3a5be0438c47bp-1
1.4490007491551449 -0x1.92db64bcaa8d0p-7
11.732948141586583 0x1.35a7b942b8061p+1
1.3431047851749716 -0x1.f12da9f03eaebp-4
1.9145091568401877 0x1.76e7aac9a8e62p-2
0.24119509143130324 -0x1.189496594472ap+2
0.591987036628276 -0x1.91f0c32ce45efp+0
0.4591990609961254 -0x1.170c444f940bfp+1
4.2363885843861135 0x1.5231838221cb7p+0
1.959219884992105 0x1.95a648e2d0790p-2
3.716096317329709 0x1.2c10d2889e8f0p+0
11.145722463046862 0x1.2ec9880fce638p+1
2.009786504624039 0x1.b75fe293f6307p-2
9.772275639701661 0x1.1d1f2117779d1p+1
8.86028912359074 0x1.0fe21aca3ea01p+1
6.82226457380972 0x1.d8597b4240378p+0
6.908339388583875 0x1.dbcde5f7bcc0ep+0
9.241732659918847 0x1.1596670f00871p+1
-11.741877688499166 -0x1.eb9a3704b3540p-2
-4.585909439386377 0x1.84988d96a8f07p-1
-6.589564096731211 0x1.0d2850e474272p+0
-4.88026450022276 -0x1.9145ed24917fdp+2
-8.012873655759114 0x1.3f1c79f27fceep+6
-19.74523474116958 -0x1.4ef7f818ef980p-5
-8.535038634633697 0x1.dab9dc6f5e683p+0
-1.3928194036048036 0x1.bfb8305f16608p+0
-9.534916283058653 0x1.f5e2574575310p+0
-16.253753629347678 0x1.78c6bc570a6e6p+2
-8.911012733415527 -0x1.166deee0097b5p+3
-14.046029596236142 0x1.840432540d946p+4
-1.8181036209096635 -0x1.02667023bdbc9p+2
-1.2480832833488908 0x1.e0252c7f551f2p+1
-13.23490817247263 0x1.84c8584e54108p+2
-0.9653138446804976 -0x1.c50c9910cf28fp+4
-6.040157995455355 0x1.aa5f82a2d57a7p+4
-7.692455955733566 -0x1.11aa991639ee0p-4
-3.870273320293909 -0x1.73323d78aba92p+2
-0.7272946074169684 -0x1.3f0dbdab9b755p+1
"""
