"""Quadrature engine and the integral representations / identity checks."""

import math

import pytest

import kelvinfn.quad
from kelvinfn.errors import ConvergenceError, DomainError
from kelvinfn.kelvin import kelvin_ber_bei
from kelvinfn.orderderiv import dkelvin
from kelvinfn.quad import (QuadConfig, apelblat_ber_bei, apelblat_dber_dbei,
                           appendix_ber_bei, convolution_identity,
                           indefinite_integral_check, integrate_finite,
                           integrate_semiinf, make_report, theorem5_identities,
                           theorem5_identity)
from kelvinfn.verify import run_suites

# high-depth reference run of the engine itself at rel_tol 1e-14
EXP_SINH_INTEGRAL = 0.754610025770972169


def ber_series(x, n_terms=50):
    q = (x / 2.0) ** 2
    val = 0.0
    term = 1.0
    for m in range(n_terms):
        if m % 4 == 0:
            val += term
        elif m % 4 == 2:
            val -= term
        term *= q / ((m + 1.0) ** 2)
    return val


class TestEngineFinite:
    def test_constant(self):
        r = integrate_finite(lambda u: 1.0, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, rel=1e-15)
        assert r.converged

    def test_log_endpoint(self):
        """int_0^1 log(1-u) du = -1, the open rule rides out the endpoint."""
        r = integrate_finite(lambda u: math.log1p(-u) if u < 1.0 else 0.0, 0.0, 1.0)
        assert r.value == pytest.approx(-1.0, abs=1e-10)
        assert abs(r.value + 1.0) <= max(r.abs_err_estimate, 1e-12)

    def test_oscillatory_kelvin_kernel(self):
        """(1/pi) int_0^pi cos(X sin t) cosh(X sin t) dt = ber(X sqrt 2)."""
        x = 1.0
        big_x = x / math.sqrt(2.0)
        r = integrate_finite(
            lambda t: math.cos(big_x * math.sin(t)) * math.cosh(big_x * math.sin(t)),
            0.0, math.pi)
        assert r.value / math.pi == pytest.approx(ber_series(x), abs=1e-12)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda u: u, 1.0, 0.0)

    def test_unreachable_tolerance_reported(self):
        """A noisy integrand cannot reach 1e-10; the flag says so."""
        import random
        rng = random.Random(3)
        r = integrate_finite(lambda u: 1.0 + 1e-6 * rng.random(), 0.0, 1.0,
                             QuadConfig(max_depth=3))
        assert r.value == pytest.approx(1.0, abs=1e-5)
        assert not r.converged
        assert "max_depth_exceeded" in r.flags

    def test_monotone_refinement(self):
        """Halving tolerances never moves the result away from a
        high-precision reference, on the test corpus."""
        cases = [
            (lambda u: math.log1p(-u) if u < 1.0 else 0.0, 0.0, 1.0, -1.0),
            (lambda t: math.exp(-t * t), 0.0, 5.0,
             math.sqrt(math.pi) / 2.0 * math.erf(5.0)),
            (lambda t: math.cos(3.0 * t), 0.0, 2.0, math.sin(6.0) / 3.0),
        ]
        for f, a, b, ref in cases:
            prev = None
            for tol in (1e-4, 1e-6, 1e-8, 1e-10):
                r = integrate_finite(f, a, b, QuadConfig(abs_tol=tol, rel_tol=tol))
                err = abs(r.value - ref)
                if prev is not None:
                    assert err <= prev * 1.0000001 + 1e-15
                prev = err


class TestEngineSemiInfinite:
    def test_exponential(self):
        r = integrate_semiinf(lambda t: math.exp(-t))
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_zero(self):
        r = integrate_semiinf(lambda t: 0.0)
        assert r.value == 0.0

    def test_sinh_decay_reference(self):
        r = integrate_semiinf(lambda t: math.exp(-math.sinh(min(t, 45.0))))
        assert r.value == pytest.approx(EXP_SINH_INTEGRAL, rel=1e-11)


class TestApelblatValues:
    def test_integer_order_tail_vanishes(self):
        """At nu = 0 and nu = 1 the sin(pi nu) weight kills the tail."""
        for nu, arg in ((0.0, 1.0), (1.0, 3.0)):
            got = apelblat_ber_bei(nu, arg)
            want = kelvin_ber_bei(nu, arg)
            assert got[0] == pytest.approx(want[0], abs=1e-8)
            assert got[1] == pytest.approx(want[1], abs=1e-8)

    def test_fractional_order(self):
        got = apelblat_ber_bei(0.5, 2.0)
        want = kelvin_ber_bei(0.5, 2.0)
        assert got[0] == pytest.approx(want[0], abs=1e-8)
        assert got[1] == pytest.approx(want[1], abs=1e-8)


class TestApelblatDerivatives:
    @pytest.mark.parametrize("nu,x", [(0.5, 1.0), (1.5, 2.0), (2.5, 0.5)])
    def test_consistent_bracket_matches(self, nu, x):
        got = apelblat_dber_dbei(nu, x)
        want = dkelvin(nu, x)
        assert got[0] == pytest.approx(want.dber, abs=1e-6)
        assert got[1] == pytest.approx(want.dbei, abs=1e-6)

    @pytest.mark.parametrize("variant", ["printed_s1", "printed_s3"])
    def test_printed_brackets_fail(self, variant):
        """The two printed transcriptions disagree with the closed forms by
        a wide margin; recording that is the point of the toggle."""
        nu, x = 1.5, 2.0
        got = apelblat_dber_dbei(nu, x, bracket=variant)
        want = dkelvin(nu, x)
        assert abs(got[0] - want.dber) + abs(got[1] - want.dbei) > 1e-2

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            apelblat_dber_dbei(0.5, 1.0, bracket="whatever")

    @pytest.mark.parametrize("nu", [0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.03, 0.05])
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_near_order_zero(self, nu, x):
        """As nu -> 0 the weight of the first series term concentrates at
        u = 0 and carries gamma into dber; its closed form keeps it, and the
        nodes where u = w^2 would be tiny need no negative-order value at 0."""
        got = apelblat_dber_dbei(nu, x)
        want = dkelvin(nu, x)
        assert got[0] == pytest.approx(want.dber, abs=1e-9)
        assert got[1] == pytest.approx(want.dbei, abs=1e-9)


class TestAppendix:
    def test_zero_argument(self):
        assert appendix_ber_bei(0.0) == (pytest.approx(1.0), pytest.approx(0.0))

    def test_variants_agree(self):
        for x in (1.0, 5.0):
            s = appendix_ber_bei(x, "sin")
            c = appendix_ber_bei(x, "cos")
            assert s[0] == pytest.approx(c[0], abs=1e-10)
            assert s[1] == pytest.approx(c[1], abs=1e-10)

    def test_matches_series(self):
        x = 2.0
        got = appendix_ber_bei(x)
        want = kelvin_ber_bei(0.0, x)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


class TestConvolution:
    @pytest.mark.parametrize("a,b,t", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5),
                                       (3.0, 0.5, 1.0)])
    def test_passes(self, a, b, t):
        rep = convolution_identity(a, b, t)
        assert rep.passed, rep

    def test_small_time_limit(self):
        """As t -> 0 both sides approach ber(0) + ber(0) = 2."""
        rep = convolution_identity(1.0, 1.0, 1e-6)
        assert rep.lhs == pytest.approx(2.0, abs=1e-5)
        assert rep.rhs == pytest.approx(2.0, abs=1e-5)
        assert rep.passed

    def test_domain(self):
        with pytest.raises(DomainError):
            convolution_identity(1.0, 2.0, 1.0)   # needs a >= b
        with pytest.raises(DomainError):
            convolution_identity(1.0, 1.0, 0.0)


class TestTheorem5:
    @pytest.mark.parametrize("nu,x,f", [
        (0.5, 1.0, "ber"), (0.5, 1.0, "bei"), (1.5, 4.0, "ber")])
    def test_passes(self, nu, x, f):
        rep = theorem5_identity(nu, x, f)
        assert rep.passed, rep

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            theorem5_identity(0.5, 1.0, "foo")

    def test_rows_of_the_pair(self):
        """theorem5_identity returns one row of the pair, which shares one pass."""
        pair = theorem5_identities(2.5, 2.0)
        assert [theorem5_identity(2.5, 2.0, f) for f in ("ber", "bei")] == list(pair)
        assert all(r.passed for r in pair), pair


class TestIndefinite:
    @pytest.mark.parametrize("nu,x,tol", [(0.0, 1.0, 1e-9), (1.0, 2.0, 1e-9),
                                          (0.5, 0.1, 1e-10)])
    def test_passes(self, nu, x, tol):
        r_ber, r_bei = indefinite_integral_check(nu, x, tol=tol)
        assert r_ber.passed, r_ber
        assert r_bei.passed, r_bei


# too few panels for the tolerance: the integrals below miss their target
STARVED = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_depth=1)


class TestUnconverged:
    def test_identity_rows_fail(self):
        """A row whose integral missed its target fails, even where its
        sides agree (theorem 5, the convolution); abs_diff reads inf."""
        pair = theorem5_identities(0.5, 2.0, STARVED)
        conv = convolution_identity(2.0, 1.0, 0.5, STARVED)
        for r in (*pair, conv):
            assert abs(r.lhs - r.rhs) < r.tol, r
        for r in (*pair, conv, *indefinite_integral_check(0.3, 8.0, STARVED)):
            assert r.abs_diff == math.inf and not r.passed, r

    def test_tolerance_override_cannot_pass(self):
        """Of the theorem5 suite, the 18 theorem 5 rows whose integral misses
        1e-14 fail under a tolerance of 1; the rest pass."""
        rows = run_suites("theorem5", quad_cfg=STARVED, tol_override=1.0)
        missed = [r for r in rows if r.abs_diff == math.inf]
        assert len(missed) == 18
        assert not any(r.passed for r in missed)
        assert all(r.passed for r in rows if r.abs_diff != math.inf)

    @pytest.mark.parametrize("call", [
        lambda: apelblat_ber_bei(0.5, 2.0, STARVED),
        lambda: apelblat_ber_bei(1.0, 2.0, STARVED),
        lambda: apelblat_dber_dbei(0.5, 1.0, STARVED),
        lambda: appendix_ber_bei(5.0, "sin", STARVED)])
    def test_values_raise(self, call):
        with pytest.raises(ConvergenceError):
            call()

    def test_manifest_integrals_converge(self, monkeypatch):
        """Every integral behind verify --suite all meets its target, so no
        manifest row changes with the checks above."""
        results = []
        orig = kelvinfn.quad._integrate_panels

        def recorded(f, edges, cfg):
            res = orig(f, edges, cfg)
            results.append(res)
            return res

        monkeypatch.setattr(kelvinfn.quad, "_integrate_panels", recorded)
        rows = run_suites("all")
        assert all(r.passed for r in rows)
        assert len(results) == 82
        assert all(res.converged for res in results)


class TestNonFinite:
    """A non-finite order or argument is refused on entry, before any
    integral runs, with the caller's values in the message."""

    def test_apelblat_values(self):
        with pytest.raises(DomainError, match="nu=nan, x=1.0"):
            apelblat_ber_bei(math.nan, 1.0)

    def test_appendix(self):
        with pytest.raises(DomainError, match="x=nan"):
            appendix_ber_bei(math.nan)

    def test_theorem5(self):
        with pytest.raises(DomainError, match="nu=nan, x=1.0"):
            theorem5_identities(math.nan, 1.0)

    def test_indefinite(self):
        with pytest.raises(DomainError, match="nu=0.5, x=nan"):
            indefinite_integral_check(0.5, math.nan)


class TestIdentityReport:
    def test_csv_row_format(self):
        rep = make_report("demo", 0.5, 2.0, 1.0, 1.0 + 3e-9, 1e-7)
        row = rep.csv_row()
        fields = row.split(",")
        assert fields[0] == "demo"
        assert fields[-1] == "1"
        assert len(fields) == 8
        assert rep.passed

    def test_pass_iff_within_tol(self):
        assert not make_report("demo", 0.0, 1.0, 1.0, 1.1, 1e-3).passed
        assert make_report("demo", 0.0, 1.0, 1.0, 1.0 + 1e-4, 1e-3).passed
