"""Order derivatives of the Kelvin functions: every order class, the
paper's closed forms and reference forms, and ``dkelvin``, which takes one
route at every order."""

import math
import time
from fractions import Fraction

import pytest

from kelvinfn.bessel import (bessel_i, bessel_j, bessel_k, dj_dnu, dj_dnu_any, dk_dnu,
                             dk_dnu_any)
from kelvinfn.errors import ConvergenceError, DomainError, SeriesOverflowError
from kelvinfn.kelvin import kelvin_all, kelvin_ber_bei, kelvin_ker_kei
from kelvinfn.orderderiv import (coef_c, coef_d, dkelvin, dkelvin_bb_brychkov,
                                 dkelvin_bb_neg, dkelvin_bb_pos,
                                 dkelvin_integer, dkelvin_kk_neg,
                                 dkelvin_kk_pos)

PI = math.pi


def fd_pair(fn, nu, x, h=1e-4):
    """Richardson central difference of a two-component function over nu."""
    def cd(step):
        a = fn(nu + step, x)
        b = fn(nu - step, x)
        return ((a[0] - b[0]) / (2 * step), (a[1] - b[1]) / (2 * step))
    c1 = cd(h)
    c2 = cd(h / 2.0)
    return ((4 * c2[0] - c1[0]) / 3.0, (4 * c2[1] - c1[1]) / 3.0)


class TestPositiveOrder:
    @pytest.mark.parametrize("nu,x", [(0.5, 1.0), (2.3, 5.0), (0.1, 0.5)])
    def test_bb_against_fd(self, nu, x):
        got = dkelvin_bb_pos(nu, x)
        want = fd_pair(kelvin_ber_bei, nu, x)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * (1.0 + abs(w))

    @pytest.mark.parametrize("nu,x", [(0.25, 1.0), (1.75, 2.0), (0.25, 10.0)])
    def test_kk_against_fd(self, nu, x):
        got = dkelvin_kk_pos(nu, x)
        want = fd_pair(kelvin_ker_kei, nu, x)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-7 * (1.0 + abs(w))

    def test_bb_rejects_integers(self):
        for nu in (0.0, 1.0, 4.0):
            with pytest.raises(DomainError):
                dkelvin_bb_pos(nu, 1.0)

    def test_kk_rejects_half_integers(self):
        for nu in (0.0, 0.5, 1.0, 2.5):
            with pytest.raises(DomainError):
                dkelvin_kk_pos(nu, 1.0)


class TestNegativeOrder:
    """The *_neg ops return the order derivative evaluated at order -nu."""

    @pytest.mark.parametrize("nu,x", [(0.5, 1.0), (0.3, 5.0), (1.0, 2.0)])
    def test_bb_against_fd_at_reflected_order(self, nu, x):
        got = dkelvin_bb_neg(nu, x)
        want = fd_pair(kelvin_ber_bei, -nu, x, h=1e-4)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-7 * (1.0 + abs(w))

    @pytest.mark.parametrize("nu,x", [(0.25, 1.0), (0.75, 3.0)])
    def test_kk_against_fd_at_reflected_order(self, nu, x):
        got = dkelvin_kk_neg(nu, x)
        want = fd_pair(kelvin_ker_kei, -nu, x, h=1e-4)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-7 * (1.0 + abs(w))

    def test_kk_against_product_rule(self):
        """Differentiating ker_{-nu} = cos(pi nu) ker - sin(pi nu) kei directly
        with the positive-order derivatives must reproduce the closed form."""
        nu, x = 0.3, 2.0
        ker, kei = kelvin_ker_kei(nu, x)
        dker, dkei = dkelvin_kk_pos(nu, x)
        c, s = math.cos(PI * nu), math.sin(PI * nu)
        # d/dnu of the reflected map, then negate for d/dmu at mu = -nu
        ddnu_ker = -PI * s * ker + c * dker - PI * c * kei - s * dkei
        ddnu_kei = PI * c * ker + s * dker - PI * s * kei + c * dkei
        got = dkelvin_kk_neg(nu, x)
        assert got[0] == pytest.approx(-ddnu_ker, abs=1e-8)
        assert got[1] == pytest.approx(-ddnu_kei, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            dkelvin_bb_neg(-0.5, 1.0)
        with pytest.raises(DomainError):
            dkelvin_kk_neg(0.5, 0.0)


class TestIntegerOrder:
    def test_n0_relations(self):
        """Empty sums at n = 0 leave the two-term combinations."""
        x = 1.0
        q = dkelvin_integer(0, x)
        quad = kelvin_all(0.0, x)
        assert q.dber == pytest.approx(-PI / 2.0 * quad.bei - quad.ker, rel=1e-14)
        assert q.dbei == pytest.approx(PI / 2.0 * quad.ber - quad.kei, rel=1e-14)
        assert q.dker == pytest.approx(PI / 2.0 * quad.kei, rel=1e-14)
        assert q.dkei == pytest.approx(-PI / 2.0 * quad.ker, rel=1e-14)

    @pytest.mark.parametrize("n,x", [(1, 1.0), (2, 3.0), (5, 2.0)])
    def test_against_fd(self, n, x):
        """Finite sums agree with differences of the order map across n."""
        q = dkelvin_integer(n, x)
        want_bb = fd_pair(kelvin_ber_bei, float(n), x, h=1e-3)
        want_kk = fd_pair(kelvin_ker_kei, float(n), x, h=1e-3)
        assert q.dber == pytest.approx(want_bb[0], abs=2e-6 * (1 + abs(want_bb[0])))
        assert q.dbei == pytest.approx(want_bb[1], abs=2e-6 * (1 + abs(want_bb[1])))
        assert q.dker == pytest.approx(want_kk[0], abs=2e-6 * (1 + abs(want_kk[0])))
        assert q.dkei == pytest.approx(want_kk[1], abs=2e-6 * (1 + abs(want_kk[1])))

    def test_method_tag(self):
        assert dkelvin_integer(3, 2.0).method == "integer_sum"

    def test_negative_integer_rejected(self):
        with pytest.raises(DomainError, match="n >= 0"):
            dkelvin_integer(-1, 1.0)

    def test_order_class_is_typed(self):
        """A float order that is an integer is that integer; any other order
        raises DomainError (both used to raise a bare TypeError)."""
        assert dkelvin_integer(2.0, 1.0) == dkelvin_integer(2, 1.0)
        assert dkelvin_integer(-0.0, 1.0) == dkelvin_integer(0, 1.0)
        for n in (2.5, -2.5, 0.1):
            with pytest.raises(DomainError, match="integer order"):
                dkelvin_integer(n, 1.0)
        with pytest.raises(DomainError, match="n >= 0"):
            dkelvin_integer(-1.0, 1.0)

    def test_overflow_raises_at_the_first_order_that_overflows(self):
        """The values at 0..n are built one order at a time, so n = 1e17
        raises where K_152 overflows, at once, and builds nothing for the
        orders above."""
        t = time.perf_counter()
        with pytest.raises(SeriesOverflowError, match="K_152 overflows"):
            dkelvin_integer(1e17, 1.0)
        assert time.perf_counter() - t < 0.1


@pytest.mark.parametrize("fn", [dkelvin, dkelvin_bb_pos, dkelvin_kk_pos, dkelvin_bb_neg,
                                dkelvin_kk_neg, dkelvin_bb_brychkov, dkelvin_integer,
                                bessel_j, bessel_i, bessel_k, dj_dnu, dk_dnu, dj_dnu_any,
                                dk_dnu_any,
                                # at nu = inf d raised a bare OverflowError from its pFq
                                pytest.param(lambda nu, x: coef_c(nu, x, 0), id="coef_c"),
                                pytest.param(lambda nu, x: coef_d(nu, x, 0), id="coef_d")])
@pytest.mark.parametrize("nu, x", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                   (3, math.nan), (3, math.inf)])
def test_non_finite_input_raises_domain_error(fn, nu, x):
    with pytest.raises(DomainError):
        fn(nu, x)


class TestReferenceCoefficients:
    @pytest.mark.parametrize("fn", [coef_c, coef_d])
    @pytest.mark.parametrize("nu", [-9.5, -1.0, 0.0, 0.5, 3.0, 7.25, 1e300])
    def test_overflowing_argument_is_typed(self, fn, nu):
        """x^4 past the double range raises SeriesOverflowError (it was a
        bare OverflowError)."""
        for a in (0, 1):
            with pytest.raises(SeriesOverflowError, match="x\\^4 overflows"):
                fn(nu, 1e300, a)

    def test_unit_at_zero_argument(self):
        assert coef_c(0.5, 0.0, 0) == 1.0
        assert coef_c(0.5, 0.0, 1) == 1.0
        assert coef_d(0.5, 0.0, 0) == 1.0
        assert coef_d(0.5, 0.0, 1) == 1.0

    @staticmethod
    def _pfq_fraction(upper, lower, z, n_terms=30):
        total = Fraction(0)
        term = Fraction(1)
        for k in range(n_terms):
            total += term
            num = Fraction(1)
            for a in upper:
                num *= a + k
            den = Fraction(k + 1)
            for b in lower:
                den *= b + k
            term *= num / den * z
        return total

    def test_c_against_exact_rational_sum(self):
        """c(1/2, 1, a) vs exact-rational summation of its series."""
        h = Fraction(1, 2)
        z = Fraction(-1, 16)
        for a in (0, 1):
            upper = ((2 * h + a + 1) / 4, (2 * h + 3) / 4, (2 * h + 5 * a) / 4)
            lower = (Fraction(a) + h, (h + a + 1) / 2, (h + a) / 2 + 1,
                     (h + a) / 2 + 1, h + Fraction(a + 1, 2), h + 1 + Fraction(a, 2))
            oracle = float(self._pfq_fraction(upper, lower, z))
            assert coef_c(0.5, 1.0, a) == pytest.approx(oracle, rel=1e-13)

    def test_d_against_exact_rational_sum(self):
        h = Fraction(1, 2)
        z = Fraction(-1, 16)
        for a in (0, 1):
            upper = (Fraction(a + 1, 2), Fraction(a + 1, 2),
                     Fraction(2 * a + 3, 4), Fraction(2 * a + 5, 4))
            lower = (Fraction(a) + Fraction(1, 2), Fraction(a + 3, 2),
                     Fraction(a + 3, 2), (h + a) / 2 + 1, (h + a + 3) / 2,
                     (a - h) / 2 + 1, (a - h + 3) / 2)
            oracle = float(self._pfq_fraction(upper, lower, z))
            assert coef_d(0.5, 1.0, a) == pytest.approx(oracle, rel=1e-13)


class TestBrychkovReference:
    @pytest.mark.parametrize("nu,x,tol", [
        (0.5, 1.0, 1e-7), (2.3, 2.0, 1e-7), (0.5, 5.0, 1e-6)])
    def test_matches_rotation_form(self, nu, x, tol):
        a = dkelvin_bb_pos(nu, x)
        b = dkelvin_bb_brychkov(nu, x)
        assert abs(a[0] - b[0]) <= tol
        assert abs(a[1] - b[1]) <= tol

    def test_rejects_integer_order(self):
        with pytest.raises(DomainError):
            dkelvin_bb_brychkov(2.0, 1.0)


class TestNoRightDigit:
    """The paper's closed forms raise ConvergenceError where their error
    estimate is not below |value|.  At order 0.3 they returned, with no flag,
    dK/dnu 1.1e4 and 1.9e11 times its value off at x = 15 and 20, dJ/dnu
    3e5 times off at x = 30, and Brychkov's form 23 and 4.3e5 times off at
    x = 25 and 30."""

    @pytest.mark.parametrize("fn, x", [(dkelvin_kk_pos, 15.0), (dkelvin_kk_pos, 20.0),
                                       (dkelvin_bb_pos, 30.0), (dkelvin_bb_brychkov, 25.0),
                                       (dkelvin_bb_brychkov, 30.0)])
    def test_raises_where_no_digit_is_right(self, fn, x):
        with pytest.raises(ConvergenceError, match="error estimate"):
            fn(0.3, x)

    @pytest.mark.parametrize("fn, x, rel", [(dkelvin_kk_pos, 10.0, 1e-4),
                                            (dkelvin_bb_pos, 20.0, 1e-2),
                                            (dkelvin_bb_brychkov, 20.0, 1e-2)])
    def test_returns_where_digits_remain(self, fn, x, rel):
        """Where a few digits are left the form still returns them (dkelvin
        holds the envelope to ~2e-14)."""
        d = dkelvin(0.3, x)
        want = (d.dker, d.dkei) if fn is dkelvin_kk_pos else (d.dber, d.dbei)
        got = fn(0.3, x)
        assert math.hypot(got[0] - want[0], got[1] - want[1]) <= rel * math.hypot(*want)


class TestDispatcher:
    """dkelvin, one route at every order."""

    def test_method_tags(self):
        assert dkelvin(0.5, 1.0).method == "series"
        assert dkelvin(3.0, 2.0).method == "series"
        assert dkelvin(-0.5, 1.0).method == "series"
        assert dkelvin(0.3, 1.0).method == "series"
        assert dkelvin(-0.3, 1.0).method == "series"
        assert dkelvin(-3.0, 1.0).method == "series"

    def test_method_deterministic(self):
        a = dkelvin(1.5, 2.0)
        b = dkelvin(1.5, 2.0)
        assert a == b

    def test_domain_error(self):
        with pytest.raises(DomainError):
            dkelvin(0.5, 0.0)
        with pytest.raises(DomainError):
            dkelvin(0.5, -2.0)

    def test_near_integer_extrapolates_to_integer_value(self):
        """Orders within 1e-6 of an excluded order share its value."""
        at_int = dkelvin_integer(2, 1.0)
        near = dkelvin(2.0 + 3e-7, 1.0)
        assert near.method == "series"
        assert near.dber == pytest.approx(at_int.dber, abs=1e-5 * (1 + abs(at_int.dber)))
        assert near.dker == pytest.approx(at_int.dker, abs=1e-5 * (1 + abs(at_int.dker)))

    @pytest.mark.parametrize("nu", [0.5, -0.5, 1.5, 2.4, -2.4, 3.0, -3.0])
    def test_all_components_against_fd(self, nu):
        x = 2.0
        q = dkelvin(nu, x)
        bb = fd_pair(kelvin_ber_bei, nu, x, h=1e-3)
        kk = fd_pair(kelvin_ker_kei, nu, x, h=1e-3)
        for got, want in zip((q.dber, q.dbei, q.dker, q.dkei), bb + kk):
            assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    def test_err_estimate_nonnegative(self):
        assert dkelvin(0.7, 1.0).err_estimate >= 0.0
