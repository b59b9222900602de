"""Generalized hypergeometric series pFq at complex argument.

Entire series only (p <= q+1 excluded; we require p <= q):
``pfq(upper, lower, z)`` takes its parameters directly and sums by
term-ratio recursion with compensated accumulation.  The Kelvin-type
arguments make partial sums cancel by factors up to ~e^(x/sqrt(2)), so the
summation carries Neumaier compensation on both components and reports the
largest intermediate term for cancellation-aware error budgeting downstream.

Every series of the package stops on one rule, full double precision: terms
below ``REL_TOL`` of the sum, at most ``MAX_TERMS`` of them (the series
kernels of ``bessel`` and its K sum read the same two constants).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError, SeriesOverflowError


# A series stops once its terms fall below REL_TOL of the sum; one that has
# not by MAX_TERMS terms is reported unconverged ('no_convergence')
REL_TOL = 1e-15
MAX_TERMS = 500


class EvalResult(NamedTuple):
    """Value plus error estimate and diagnostics of one evaluation.

    ``abs_err_estimate`` follows the series rule (10x the first neglected
    term) unless an operation documents an amplified estimate.
    ``max_abs_term`` is the largest intermediate term magnitude, the input
    to cancellation budgets.  ``flags`` records 'no_convergence' (the term
    cap was reached) and, on J, I, dJ/dnu and the closed forms of
    ``bessel``, 'degraded' (the estimate is above ``bessel.DEGRADED_REL``
    of the value, or either is not finite).
    """

    value: complex
    abs_err_estimate: float
    terms_used: int
    converged: bool
    flags: tuple[str, ...] = ()
    max_abs_term: float = 0.0


def sum_series(first_term: complex, ratio) -> EvalResult:
    """Sum t_0 + t_1 + ... with t_{k+1} = t_k * ratio(k).

    Stops once two consecutive terms fall below REL_TOL * (1 + |sum|); a
    single small term is not safe because Kelvin-type series alternate in
    blocks of four.  The error estimate is 10x the first neglected term.

    The sum carries Neumaier compensation on each component separately,
    with the branch-free TwoSum error terms of the ray kernels, which keeps
    conjugation symmetry exact: summing the conjugated terms produces the
    exact conjugate of the sum.  Terms or a sum beyond the double range
    raise SeriesOverflowError.
    """
    rel_tol = REL_TOL
    max_terms = MAX_TERMS
    hypot = math.hypot
    t = complex(first_term)
    re = im = cre = cim = 0.0
    small_run = 0
    k = 0
    converged = False
    try:
        max_term = abs(t)
        while True:
            tr = t.real
            s = re + tr
            cre += (re - (s - (s - re))) + (tr - (s - re))
            re = s
            ti = t.imag
            s = im + ti
            cim += (im - (s - (s - im))) + (ti - (s - im))
            im = s
            if k:
                mag = abs(t)
                if mag > max_term:
                    max_term = mag
                if mag <= rel_tol * (1.0 + hypot(re + cre, im + cim)):
                    small_run += 1
                    if small_run >= 2:
                        converged = True
                        err = 10.0 * abs(t * ratio(k))
                        break
                else:
                    small_run = 0
            if k >= max_terms:
                err = 10.0 * abs(t)
                break
            t = t * ratio(k)
            k += 1
    except OverflowError:
        raise SeriesOverflowError("series terms exceed the double range") from None
    total = complex(re + cre, im + cim)
    if not cmath.isfinite(total):
        raise SeriesOverflowError(f"series sum is not finite after {k + 1} terms")
    return EvalResult(total, err, k + 1, converged,
                      () if converged else ("no_convergence",), max_term)


def pfq(upper, lower, z) -> EvalResult:
    """Evaluate pFq(a; b; z) = sum_k [prod (a_i)_k / prod (b_j)_k] z^k / k!,
    the a_i (``upper``) and b_j (``lower``) read as floats, z as a complex.

    Raises
    ------
    DomainError
        If len(upper) > len(lower), where the series is not entire, or if
        a lower parameter is a nonpositive integer, a pole of the terms.
    """
    upper, lower, z = tuple(map(float, upper)), tuple(map(float, lower)), complex(z)
    if len(upper) > len(lower):
        raise DomainError("series is not entire: need len(upper) <= len(lower)")
    for b in lower:
        if b <= 0.0 and b == math.floor(b):
            raise DomainError(f"lower parameter {b} is a nonpositive integer")

    def ratio(k: int) -> complex:
        num = 1.0
        for a in upper:
            num *= a + k
        den = float(k + 1)
        for b in lower:
            den *= b + k
        return (num / den) * z

    return sum_series(1.0 + 0.0j, ratio)
