"""Quadrature engine and the integral representations / identity checks."""

import cmath
import math
import random

import pytest

import kelvinfn.quad
from kelvinfn.bessel import _turn
from kelvinfn.errors import (ConvergenceError, DomainError, KelvinError, PowerOverflowError,
                             SeriesOverflowError)
from kelvinfn.kelvin import kelvin_ber_bei
from kelvinfn.hyper import EvalResult
from kelvinfn.orderderiv import dkelvin
from kelvinfn.quad import (TOL, apelblat_ber_bei, apelblat_dber_dbei,
                           appendix_ber_bei, convolution_identity,
                           indefinite_integral_check, integrate_finite,
                           integrate_semiinf, make_report, theorem5_identities,
                           theorem5_identity)
from kelvinfn.verify import run_suites

# high-depth reference run of the engine itself at TOL = 1e-14
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

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_non_finite_interval(self, a, b):
        """An infinite or NaN edge is refused before any evaluation; [0, inf)
        used to bisect 4096 times (122,895 evaluations) and return NaN."""
        calls = []
        with pytest.raises(DomainError, match="must be finite"):
            integrate_finite(lambda u: calls.append(u) or 1.0, a, b)
        assert calls == []

    @pytest.mark.parametrize("f", [lambda u: math.nan, lambda u: math.inf,
                                   lambda u: math.nan if u > 0.9 else 1.0],
                             ids=["nan", "inf", "nan_near_b"])
    def test_non_finite_integrand(self, monkeypatch, f):
        """An integrand that returns NaN or inf stops after the first level
        of nodes (step 1 in t, at most 13), unconverged and flagged
        ``non_finite``: no halving mends it."""
        calls = []

        def counted(u):
            calls.append(u)
            return f(u)

        for a, b in ((0.0, 1.0), (-2.0, 45.0)):
            calls.clear()
            r = integrate_finite(counted, a, b)
            assert not r.converged and r.flags == ("non_finite",)
            assert len(calls) == r.terms_used <= 13
            with monkeypatch.context() as m:
                m.setattr(kelvinfn.quad, "MAX_DEPTH", 0)
                calls.clear()
                assert integrate_finite(counted, a, b).terms_used == len(calls) == r.terms_used

    def test_unreachable_tolerance_reported(self, monkeypatch):
        """A noisy integrand cannot reach 1e-10 in one halving, whose gap,
        with no rate to extrapolate it, is its own estimate; the flag says so."""
        import random
        rng = random.Random(3)
        monkeypatch.setattr(kelvinfn.quad, "MAX_DEPTH", 1)
        r = integrate_finite(lambda u: 1.0 + 1e-6 * rng.random(), 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-5)
        assert not r.converged
        assert "max_depth_exceeded" in r.flags

    def test_monotone_refinement(self, monkeypatch):
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
                monkeypatch.setattr(kelvinfn.quad, "TOL", tol)
                r = integrate_finite(f, a, b)
                err = abs(r.value - ref)
                if prev is not None:
                    assert err <= prev * 1.0000001 + 1e-15
                prev = err


def reference_walk(f, a, b):
    """The walk of ``integrate_finite`` as it was written before its loop
    was tuned (one list of walk bounds, a loop over both ends, the module
    constants read per node and per level), on the same nodes: the tuned
    walk must return the same result, bit for bit."""
    q = kelvinfn.quad
    h = 0.5 * (b - a)
    c = a + h
    evals = 1
    try:
        total = 0.5 * math.pi * f(c)
        mag = abs(total)
        rnd = mag * abs(c) / h
        lim = [q._T_MAX + 1.0, q._T_MAX + 1.0]
        val = est = math.inf
        gap = 0.0
        for depth in range(q.MAX_DEPTH + 1):
            for side, end, sgn in ((0, a, h), (1, b, -h)):
                for t, delta, w in q._level(depth):
                    if t >= lim[side]:
                        break
                    d = sgn * delta
                    x = end + d
                    if x == end:
                        lim[side] = t
                        break
                    evals += 1
                    v = w * f(x)
                    total += v
                    mag += abs(v)
                    rnd += abs(v * x / d)
                    if abs(v) <= q._EPS * mag:
                        lim[side] = t
                        break
            step = h * 2.0 ** -depth
            new = step * total
            if not math.isfinite(abs(new)):
                return EvalResult(new, math.inf, evals, False, ("non_finite",))
            if depth:
                last, gap = gap, abs(new - val)
                rate = min(1.0, gap / last) ** 1.5 if last else 1.0
                est = gap * rate + q._EPS * step * (4.0 * mag + rnd)
            val = new
            if est <= max(q.TOL, q.TOL * abs(val)):
                return EvalResult(val, est, evals, True)
        return EvalResult(val, est, evals, False, ("max_depth_exceeded",))
    except OverflowError:
        return EvalResult(math.inf, math.inf, evals, False, ("non_finite",))


def _bessel_integrand(nu, x):
    """The finite part of Bessel's integral in ``apelblat_ber_bei``."""
    z, p = complex(x / math.sqrt(2.0), -x / math.sqrt(2.0)), _turn(nu)
    return lambda t: p * cmath.cos(z * math.sin(t) - nu * t)


def _apelblat_tail(nu, x):
    """The Schlaefli tail of ``apelblat_ber_bei`` and its interval."""
    big_x = x / math.sqrt(2.0)
    z, p = complex(big_x, -big_x), _turn(nu)
    return (lambda t: p * cmath.exp(-nu * t - z * math.sinh(t)), 0.0,
            kelvinfn.quad._tail_cut(nu, big_x))


def _noisy():
    """1 + 1e-6 random() on [0, 1], seeded afresh for each walk."""
    rng = random.Random(3)
    return lambda u: 1.0 + 1e-6 * rng.random(), 0.0, 1.0


WALK_CASES = {
    "log_end": lambda: (lambda u: math.log1p(-u) if u < 1.0 else 0.0, 0.0, 1.0),
    "power_end": lambda: (lambda u: u ** -0.5, 0.0, 1.0),
    "bessel_x8": lambda: (_bessel_integrand(0.3, 8.0), 0.0, math.pi),
    "apelblat_tail": lambda: _apelblat_tail(-2.3, 8.0),
    "noisy": _noisy,
    "overflow": lambda: (lambda u: math.exp(1000.0 * u), 0.0, 1.0),
}


def _fields(res):
    return repr((res.value, res.abs_err_estimate, res.terms_used, res.converged, res.flags))


@pytest.mark.parametrize("max_depth", [None, 3])
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_walk_matches_the_reference(monkeypatch, case, max_depth):
    """The tuned walk returns the reference walk's value, estimate,
    evaluations, convergence and flags, also with MAX_DEPTH at 3 (where
    the Bessel integral at x = 8 and the tail miss 1e-14) and where the
    integrand overflows (``non_finite``)."""
    if max_depth is not None:
        monkeypatch.setattr(kelvinfn.quad, "MAX_DEPTH", max_depth)
        monkeypatch.setattr(kelvinfn.quad, "TOL", 1e-14)
    got = integrate_finite(*WALK_CASES[case]())
    want = reference_walk(*WALK_CASES[case]())
    assert _fields(got) == _fields(want)
    if case == "overflow":
        assert got.flags == ("non_finite",)
    if max_depth is not None and case in ("bessel_x8", "apelblat_tail"):
        assert got.flags == ("max_depth_exceeded",)


class TestEngineSemiInfinite:
    def test_exponential(self):
        r = integrate_semiinf(lambda t: math.exp(-t))
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_zero(self):
        r = integrate_semiinf(lambda t: 0.0)
        assert r.value == 0.0

    def test_nan_integrand(self, monkeypatch):
        """A NaN integrand stops after the first level, as on a finite
        interval: its 6 nodes towards s = 0, the centre and the 3 towards
        s = 1 that do not round onto 1."""
        calls = []
        r = integrate_semiinf(lambda t: calls.append(t) or math.nan)
        assert len(calls) == r.terms_used == 10
        assert not r.converged and r.flags == ("non_finite",)
        monkeypatch.setattr(kelvinfn.quad, "MAX_DEPTH", 0)
        assert integrate_semiinf(lambda t: math.nan).terms_used == 10

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

    @pytest.mark.parametrize("nu, x", [(-9.3, 1.0), (-5.5, 0.5), (-9.9, 0.1)])
    def test_negative_order_tail_cut(self, nu, x):
        """e^(-nu t - X sinh t) grows like e^(|nu| t) before it decays: a cut
        that ignores nu, at asinh(41/X), is 0.12 off at (-9.3, 1); the tail
        on (0, inf), mapped onto (0, 1), missed its target at (-9.9, 0.1)."""
        got = complex(*apelblat_ber_bei(nu, x))
        want = complex(*kelvin_ber_bei(nu, x))
        assert abs(got - want) <= 1e-12 * abs(want)


# values far below TOL, where the representations meet only the absolute
# bound TOL: ber_9.6(0.1) + i bei is ~2e-19 and comes back ~8e-17 off
FLOOR_POINTS = [(9.6, 0.1), (10.0, 0.1), (-10.0, 0.1)]


@pytest.mark.parametrize("nu, x", FLOOR_POINTS)
def test_apelblat_absolute_floor(nu, x):
    """apelblat_ber_bei is good to max(TOL, TOL |value|), as documented."""
    for got, want in zip(apelblat_ber_bei(nu, x), kelvin_ber_bei(nu, x), strict=True):
        assert abs(got - want) <= max(TOL, TOL * abs(want))


@pytest.mark.parametrize("variant", ["sin", "cos"])
@pytest.mark.parametrize("x", [1e-5, 0.1])
def test_appendix_absolute_floor(x, variant):
    """appendix_ber_bei likewise; bei_0(1e-5) = 2.5e-11 is below TOL."""
    for got, want in zip(appendix_ber_bei(x, variant), kelvin_ber_bei(0.0, x), strict=True):
        assert abs(got - want) <= max(TOL, TOL * abs(want))


class TestApelblatDerivatives:
    @pytest.mark.parametrize("nu,x", [(0.5, 1.0), (1.5, 2.0), (2.5, 0.5)])
    def test_consistent_bracket_matches(self, nu, x):
        got = apelblat_dber_dbei(nu, x)
        want = dkelvin(nu, x)
        assert got[0] == pytest.approx(want.dber, abs=1e-6)
        assert got[1] == pytest.approx(want.dbei, abs=1e-6)

    @pytest.mark.parametrize("variant", ["printed_s1", "printed_s3"])
    def test_printed_brackets_fail(self, variant, apelblat_d_nodes):
        """The two printed transcriptions, rebuilt by the fixture, disagree
        with the closed forms by a wide margin: the reason the library
        computes the consistent bracket alone."""
        nu, x = 1.5, 2.0
        got = apelblat_d_nodes(nu, x, variant)
        want = dkelvin(nu, x)
        assert abs(got[0] - want.dber) + abs(got[1] - want.dbei) > 1e-2

    @pytest.mark.parametrize("nu", [0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.03, 0.05])
    @pytest.mark.parametrize("x", [0.5, 2.0, 1e-30])
    def test_near_order_zero(self, nu, x):
        """As nu -> 0 the weight of the first series term concentrates at
        u = 0 and carries gamma into dber; its closed form keeps it, and the
        nodes where u = w^2 would be tiny need no negative-order value at 0.
        Below y = 1e-8 the second series term stands in for the bracket
        less its first term, which there is all rounding: without it 6 of
        these 7 orders missed their target at x = 1e-30."""
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


@pytest.fixture
def starved(monkeypatch):
    """Too few halvings for the tolerance: the integrals miss their target."""
    monkeypatch.setattr(kelvinfn.quad, "TOL", 1e-14)
    monkeypatch.setattr(kelvinfn.quad, "MAX_DEPTH", 3)


class TestUnconverged:
    def test_identity_rows_fail(self, starved):
        """A row whose integral missed its target fails, even where its
        sides agree (theorem 5, the convolution); abs_diff reads inf."""
        pair = theorem5_identities(0.5, 2.0)
        conv = convolution_identity(2.0, 1.0, 0.5)
        for r in (*pair, conv):
            assert abs(r.lhs - r.rhs) < r.tol, r
        for r in (*pair, conv, *indefinite_integral_check(0.3, 8.0)):
            assert r.abs_diff == math.inf and not r.passed, r

    @pytest.mark.parametrize("call", [
        lambda: apelblat_ber_bei(0.5, 2.0),
        lambda: apelblat_ber_bei(1.0, 2.0),
        lambda: apelblat_dber_dbei(0.5, 1.0),
        lambda: appendix_ber_bei(5.0, "sin")])
    def test_values_raise(self, starved, call):
        with pytest.raises(ConvergenceError):
            call()

    def test_manifest_integrals_converge(self, integrals):
        """Every integral behind verify --suite all meets its target, so no
        manifest row changes with the checks above."""
        rows = run_suites("all")
        assert all(r.passed for r in rows)
        assert len(integrals) == 82
        assert all(res.converged for res in integrals)


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


class TestOverflow:
    """Far outside the envelope an integrand overflows in math or **: the
    integral ends flagged ``non_finite``, so the representation raises a
    typed error, not a bare OverflowError."""

    @pytest.mark.parametrize("call, error", [
        (lambda: apelblat_ber_bei(0.5, 2000.0), ConvergenceError),  # cosh of the finite part
        (lambda: appendix_ber_bei(2000.0, "cos"), ConvergenceError),  # cosh
        (lambda: apelblat_ber_bei(-200.5, 1.0), ConvergenceError),  # e^(-nu t) of the tail
        # u^(nu+1) fails the row's integral; the closed form's (x/2)^1.5 raises
        (lambda: indefinite_integral_check(0.5, 1e300, 1e-9), PowerOverflowError),
    ], ids=["apelblat_fin", "appendix", "apelblat_tail", "indefinite"])
    def test_representations_raise_typed(self, call, error):
        with pytest.raises(KelvinError) as info:
            call()
        assert type(info.value) is error

    def test_engine_flags_overflow(self):
        """e^(1000 u) overflows at the first node above u = 0.71; the
        evaluations made, the failing one included, are counted."""
        calls = []
        r = integrate_finite(lambda u: calls.append(u) or math.exp(1000.0 * u), 0.0, 1.0)
        assert not r.converged and r.flags == ("non_finite",)
        assert r.terms_used == len(calls) and max(calls) > 0.7

    def test_typed_overflow_passes(self):
        def f(u):
            raise SeriesOverflowError("series past the double range")

        with pytest.raises(SeriesOverflowError):
            integrate_finite(f, 0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: theorem5_identities(0.0, 5e-324),
    lambda: indefinite_integral_check(0.0, 5e-324),
    lambda: apelblat_dber_dbei(0.0, 5e-324),
    lambda: apelblat_dber_dbei(3.0, 5e-324),
    lambda: integrate_finite(math.cos, 0.0, 5e-324),
    lambda: integrate_finite(math.cos, 1.0, math.nextafter(1.0, 2.0)),
], ids=["theorem5", "indefinite", "apelblat_d0", "apelblat_d3", "engine", "engine_no_interior"])
def test_half_x_underflow_is_typed(call):
    """Where x/2 underflows to 0 the identities raise DomainError, not a
    bare ValueError (log(x/2)) or ZeroDivisionError ((x/2)^(nu-1), or the
    engine's half-width): so does the engine on an interval with no double
    inside."""
    with pytest.raises(KelvinError) as info:
        call()
    assert type(info.value) is DomainError


def test_integrands_finite_at_the_ends(monkeypatch):
    """Every integrand stays finite at points as close to its ends as the
    nodes come: ~1e-275 of the width from an end at 0 (1e-300 here), and
    the last double before an end elsewhere, where the nodes stop."""
    probed = []
    orig = kelvinfn.quad.integrate_finite

    def probe(f, a, b):
        for x in (a + 1e-300 * (b - a), math.nextafter(b, a)):
            if a < x < b:
                v = f(x)
                assert math.isfinite(abs(v)), (f, x, v)
                probed.append(x)
        return orig(f, a, b)

    monkeypatch.setattr(kelvinfn.quad, "integrate_finite", probe)
    for nu in (0.0, 1e-9, 1e-3, 0.01, 0.5, 2.5):
        for x in (0.5, 2.0):
            apelblat_dber_dbei(nu, x)
    for nu in (-0.9, -0.5, 0.5, 2.5):
        theorem5_identities(nu, 2.0)
    apelblat_ber_bei(0.3, 2.0)
    appendix_ber_bei(10.0, "cos")
    convolution_identity(2.0, 1.0, 0.5)
    indefinite_integral_check(0.5, 0.1)
    assert len(probed) == 2 * (12 + 4 + 2 + 1 + 1 + 1)


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
