"""Hypergeometric series engine: spot values, stopping, structural symmetry."""

import importlib
import inspect
from fractions import Fraction

import pytest

import kelvinfn
from kelvinfn import hyper
from kelvinfn.errors import DenominatorPoleError
from kelvinfn.hyper import pfq

J0_AT_2 = 0.22389077914123567  # 0F1(;1;-1), exact-rational partial sums


def pfq_fraction(upper, lower, z, n_terms):
    """Exact-rational partial sum of pFq, the independent oracle.

    All parameters and z must be Fractions; returns the partial sum as a
    Fraction, immune to rounding by construction.
    """
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


class TestSpotValues:
    def test_empty_sum_at_zero(self):
        nu = 0.3
        r = pfq((nu, nu + 0.5), (nu + 1, nu + 1, 2 * nu + 1), 0.0)
        assert r.value == 1.0 + 0.0j
        assert r.converged

    def test_3f4_against_exact_rational_sum(self):
        """3F4(1,1,3/2; 2,2,2-nu,2+nu; z) vs 30 exact-rational terms."""
        nu = Fraction(1, 4)
        z = Fraction(-7, 10)
        oracle = pfq_fraction(
            (Fraction(1), Fraction(1), Fraction(3, 2)),
            (Fraction(2), Fraction(2), 2 - nu, 2 + nu),
            z, 40)
        r = pfq((1.0, 1.0, 1.5), (2.0, 2.0, 2 - 0.25, 2 + 0.25), float(z))
        assert r.converged
        assert r.value.real == pytest.approx(float(oracle), rel=1e-14)
        assert r.value.imag == 0.0

    def test_3f4_leading_coefficient(self):
        """(pfq(z) - 1)/z -> 3/(8(4-nu^2)) as z -> 0."""
        nu = 0.25
        z = 1e-6
        r = pfq((1.0, 1.0, 1.5), (2.0, 2.0, 2 - nu, 2 + nu), z)
        slope = (r.value.real - 1.0) / z
        assert slope == pytest.approx(3.0 / (8.0 * (4.0 - nu * nu)), rel=1e-4)

    def test_0f1_is_bessel_j0(self):
        """0F1(;1;-x^2/4) = J_0(x) at x = 2."""
        r = pfq((), (1.0,), -1.0)
        assert r.value.real == pytest.approx(J0_AT_2, rel=1e-14)


class TestStructuralProperties:
    def test_contiguous_cancellation(self):
        """A matched upper/lower parameter pair is a no-op, 100 random specs."""
        import random
        rng = random.Random(99)
        for _ in range(100):
            a = rng.uniform(0.2, 5.0)
            b1 = rng.uniform(0.5, 4.0)
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            padded = pfq((a, 1.0), (a, b1, 1.5), z)
            plain = pfq((1.0,), (b1, 1.5), z)
            assert abs(padded.value - plain.value) <= 1e-13 * (1 + abs(plain.value))

    def test_conjugation_exact(self):
        """pfq at conjugated argument is the exact conjugate (real params)."""
        import random
        rng = random.Random(5)
        for _ in range(50):
            up = (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
            lo = (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            r = pfq(up, lo, z)
            rc = pfq(up, lo, z.conjugate())
            assert rc.value == r.value.conjugate()

    def test_term_count_for_kelvin_arguments(self):
        """Arguments up to |z| = 400 converge within 400 terms."""
        nu = 0.75
        for z in (400j, -400j, -400.0, 400.0):
            r = pfq((nu, nu + 0.5), (nu + 1, nu + 1, 2 * nu + 1), z)
            assert r.converged
            assert r.terms_used <= 400

    def test_terminating_series(self):
        """A nonpositive-integer upper parameter truncates the sum exactly."""
        r = pfq((-3.0, 1.0), (2.0, 2.5), 1.7)
        oracle = pfq_fraction(
            (Fraction(-3), Fraction(1)), (Fraction(2), Fraction(5, 2)),
            Fraction(17, 10), 10)
        assert r.value.real == pytest.approx(float(oracle), rel=1e-15)
        assert r.abs_err_estimate == 0.0


class TestErrorHandling:
    def test_denominator_pole(self):
        with pytest.raises(DenominatorPoleError):
            pfq((1.0,), (-2.0, 1.0), 0.5)
        with pytest.raises(DenominatorPoleError):
            pfq((1.0,), (0.0,), 0.5)

    def test_not_entire_rejected(self):
        with pytest.raises(ValueError):
            pfq((1.0, 2.0), (3.0,), 0.5)

    def test_max_terms_reports_no_convergence(self, monkeypatch):
        monkeypatch.setattr(hyper, "MAX_TERMS", 5)
        r = pfq((0.5,), (1.0, 1.0), 900.0)
        assert not r.converged
        assert "no_convergence" in r.flags

    def test_converged_estimate_invariant(self):
        """converged implies abs_err_estimate <= REL_TOL (1 + |value|)."""
        for z in (0.5 + 0.5j, -3.0, 10j, -40.0):
            r = pfq((0.7, 1.2), (1.1, 2.2, 0.9), z)
            assert r.converged
            assert r.abs_err_estimate <= hyper.REL_TOL * (1.0 + abs(r.value)) * 10.0


def test_pfq_converts_and_checks_its_parameters():
    """pfq reads any sequences of numbers as float parameters and any number
    as a complex argument, bit for bit as the converted call, and checks
    that the series is entire before it checks the lower parameters."""
    assert pfq([1, 2], (3, 4.5), 2) == pfq((1.0, 2.0), (3.0, 4.5), 2 + 0j)
    assert pfq(iter([0.5]), [1], -3) == pfq((0.5,), (1.0,), -3 + 0j)
    with pytest.raises(ValueError, match="not entire"):
        pfq((1.0, 2.0), (3.0,), 0.5)
    with pytest.raises(ValueError, match="not entire"):
        pfq((1, 2, 3), (0,), 0.5)
    with pytest.raises(DenominatorPoleError):
        pfq([1], [-2], 0.5)


def test_precision_is_not_a_setting():
    """Every series stops on the one full-precision rule (``REL_TOL``,
    ``MAX_TERMS``) and every integral on the one error target of ``quad``
    (``TOL``, ``MAX_DEPTH``): no public callable takes a series or a
    quadrature configuration."""
    assert not hasattr(hyper, "SeriesConfig")
    assert not hasattr(kelvinfn, "QuadConfig")
    assert not hasattr(kelvinfn.quad, "QuadConfig")
    assert not hasattr(kelvinfn.quad, "DEFAULT_QUAD")
    assert "SeriesConfig" not in kelvinfn.__all__
    assert "QuadConfig" not in kelvinfn.__all__
    for name in kelvinfn.__all__:
        obj = getattr(kelvinfn, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        assert not {"cfg", "quad_cfg", "series_cfg"} & set(params), name


# the oracles of the verify suites, by home module
ORACLES = {"bessel": ("dj_dnu", "dk_dnu"),
           "orderderiv": ("dkelvin_bb_pos", "dkelvin_kk_pos", "dkelvin_bb_brychkov",
                          "dkelvin_integer", "coef_c", "coef_d"),
           "hyper": ("pfq",),
           "errors": ("OrderClassError", "DenominatorPoleError", "NegativeIntegerOrderError")}


@pytest.mark.parametrize("module, names", ORACLES.items(), ids=ORACLES)
def test_oracles_leave_the_top_level(module, names):
    """The paper's closed forms, the pFq engine and the errors that only
    they raise are imported from their modules, not from the package."""
    home = importlib.import_module(f"kelvinfn.{module}")
    for name in names:
        assert hasattr(home, name)
        assert name not in kelvinfn.__all__ and not hasattr(kelvinfn, name), name
