"""Fixtures shared by the test modules."""

import math

import pytest

import kelvinfn.quad
from kelvinfn.kelvin import _eval_ber_bei, kelvin_ber_bei
from kelvinfn.quad import integrate_finite
from kelvinfn.scalars import EULER_GAMMA, PI, SQRT2, digamma_real, gamma_real


@pytest.fixture
def integrals(monkeypatch):
    """The results of every integral the engine runs, in order."""
    runs = []
    orig = kelvinfn.quad.integrate_finite

    def recorded(f, a, b):
        res = orig(f, a, b)
        runs.append(res)
        return res

    monkeypatch.setattr(kelvinfn.quad, "integrate_finite", recorded)
    return runs


@pytest.fixture
def apelblat_d_nodes():
    """(nu, x, bracket) -> (d ber_nu/d nu, d bei_nu/d nu) from the
    log-weighted integral form of ``quad.apelblat_dber_dbei``, its bracket
    B(u) read node by node from ``_eval_ber_bei``.  ``bracket`` names one of
    three transcriptions:

    * 'consistent'  B = ber_{nu-1}(x sqrt u) + bei_{nu-1}(x sqrt u), and
      ber_{nu-1} - bei_{nu-1} for the bei derivative: what the term-by-term
      differentiation of the defining series produces, and what the library
      computes;
    * 'printed_s1'  mixed indices, ber_{nu-1} +/- bei_nu;
    * 'printed_s3'  ber_{nu-1} + bei_{nu-1} for *both* derivatives.

    The two printed ones miss the closed forms: the tests that reject them
    read them from here."""

    def nodes(nu: float, x: float, bracket: str) -> tuple:
        ber, bei = kelvin_ber_bei(nu, x)
        g1 = gamma_real(nu + 1.0)
        lead = nu / g1 * 2.0 ** (1.0 - nu)
        th = 0.75 * PI * (nu - 1.0)
        # the mixed bracket takes bei of order nu, whose first term needs no split
        turn = complex(math.cos(th), 0.0 if bracket == "printed_s1" else math.sin(th))

        def integrand(w):
            y = x * w
            if y < 1e-8 and bracket != "printed_s1":
                r = 1j * turn * (0.5 * y) ** (nu + 1.0) / g1
            else:
                b, e, _ = _eval_ber_bei(nu - 1.0, y)
                if bracket == "printed_s1":
                    e = _eval_ber_bei(nu, y)[1]
                r = complex(b, e) - lead * y ** (nu - 1.0) * turn
            return 2.0 * w ** nu * (EULER_GAMMA + math.log(1.0 - w) + math.log1p(w)) * r

        res = integrate_finite(integrand, 0.0, 1.0)
        assert res.converged
        first = -(x / 2.0) ** (nu - 1.0) * digamma_real(nu + 1.0) / g1
        packed = res.value + first * turn
        b_ber = packed.real + packed.imag
        b_bei = b_ber if bracket == "printed_s3" else packed.real - packed.imag
        pref = x / (2.0 * SQRT2)
        return (math.log(x / 2.0) * ber - 0.75 * PI * bei - pref * b_ber,
                math.log(x / 2.0) * bei + 0.75 * PI * ber + pref * b_bei)

    return nodes
