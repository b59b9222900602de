"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here (or in the frozen manifest the verify suites
read); nothing is calibrated at runtime.  The whole module is expected to
run in well under a minute.
"""

from kelvinfn import manifest as M
from kelvinfn.bessel import bessel_i, bessel_j, bessel_k, dj_dnu, dk_dnu
from kelvinfn.hyper import pfq
from kelvinfn.quad import apelblat_dber_dbei
from kelvinfn.orderderiv import dkelvin
from kelvinfn.verify import run_suites


def _report(criterion: str, reports) -> None:
    n_fail = sum(not r.passed for r in reports)
    status = "PASS" if n_fail == 0 else "FAIL"
    worst = max((r.abs_diff / r.tol for r in reports if r.tol > 0), default=0.0)
    print(f"[{status}] {criterion}: {len(reports) - n_fail}/{len(reports)} checks, "
          f"worst |diff|/tol = {worst:.3g}")
    failed = [r for r in reports if not r.passed]
    assert not failed, failed[:5]


def test_criterion_1_fd_concordance_positive_orders():
    """|dkelvin - Richardson FD| <= 1e-6 (1 + |value|), positive grid."""
    reports = [r for r in run_suites("fd") if r.nu > 0]
    assert len(reports) == len(M.FD_NU) * len(M.FD_X) * 4
    _report("criterion 1 (finite-difference concordance, nu > 0)", reports)


def test_criterion_2_fd_concordance_negative_orders():
    """Same grid reflected to nu < 0, same scaled tolerance."""
    reports = [r for r in run_suites("fd") if r.nu < 0]
    assert len(reports) == len(M.FD_NU) * len(M.FD_X) * 4
    _report("criterion 2 (finite-difference concordance, nu < 0)", reports)


def test_criterion_3_integer_sums():
    """Integer-order finite sums vs dkelvin at the integer, 1e-5 scaled."""
    reports = run_suites("integer")
    assert len(reports) == len(M.INTEGER_N) * len(M.INTEGER_X) * 4
    _report("criterion 3 (integer-order sums vs dkelvin)", reports)


def test_criterion_4_reference_form_agreement():
    """Rotation forms vs 3F6/4F7 reference forms, 1e-7 absolute."""
    reports = run_suites("brychkov")
    assert len(reports) == len(M.BRYCHKOV_NU) * len(M.BRYCHKOV_X) * 2
    _report("criterion 4 (rotation vs reference forms)", reports)


def test_criterion_5_integral_representation_oracle(apelblat_d_nodes):
    """Integral representations: values to 1e-8, derivatives to 1e-6, and
    the bracket-variant resolution stays recorded."""
    reports = run_suites("apelblat")
    _report("criterion 5 (integral-representation oracle)", reports)
    # bracket resolution: only the index-consistent variant, the one the
    # library computes, reproduces the closed forms; both printed
    # transcriptions, rebuilt by the fixture, are off by >> tolerance
    nu, x = 1.5, 2.0
    want = dkelvin(nu, x)
    ok = apelblat_dber_dbei(nu, x)
    assert abs(ok[0] - want.dber) <= 1e-6
    assert abs(ok[1] - want.dbei) <= 1e-6
    # mixed-index transcription: both components wrong
    s1 = apelblat_d_nodes(nu, x, "printed_s1")
    assert abs(s1[0] - want.dber) > 1e-2
    # same-sign transcription: the bei bracket is the broken one
    s3 = apelblat_d_nodes(nu, x, "printed_s3")
    assert abs(s3[1] - want.dbei) > 1e-2
    print("[PASS] criterion 5 brackets: the consistent one validates; "
          "'printed_s1' and 'printed_s3' are rejected")


def test_criterion_6_moment_integrals():
    """Log-weighted moment integrals at 1e-7; antiderivative checks at 1e-9."""
    reports = run_suites("theorem5")
    t5 = [r for r in reports if r.name.startswith("theorem5")]
    ind = [r for r in reports if r.name.startswith("indefinite")]
    assert len(t5) == len(M.THEOREM5_NU) * len(M.THEOREM5_X) * 2
    assert len(ind) == 2 * len(M.INDEFINITE_POINTS)
    _report("criterion 6 (moment integrals + antiderivatives)", reports)


def test_criterion_7_quarter_period_and_convolution():
    """sin/cos variants within 1e-10, series match 1e-9, convolution 1e-7."""
    reports = run_suites("appendix")
    _report("criterion 7 (quarter-period forms + convolution)", reports)


def test_criterion_8_structural_invariants():
    """Integer reflection, ODE residuals, conjugation symmetry."""
    reports = run_suites("reflection") + run_suites("ode")
    _report("criterion 8 (reflection + ODE residuals)", reports)

    # conjugation symmetry of every complex kernel, arithmetic-noise level
    z = 1.3 - 0.7j
    checks = [
        pfq((0.7, 1.2), (1.4, 0.9, 2.0), z).value,
        bessel_j(0.75, z).value,
        bessel_i(0.75, z).value,
        bessel_k(0.75, z).value,
        dj_dnu(0.75, z).value,
        dk_dnu(0.75, z).value,
    ]
    conj_checks = [
        pfq((0.7, 1.2), (1.4, 0.9, 2.0), z.conjugate()).value,
        bessel_j(0.75, z.conjugate()).value,
        bessel_i(0.75, z.conjugate()).value,
        bessel_k(0.75, z.conjugate()).value,
        dj_dnu(0.75, z.conjugate()).value,
        dk_dnu(0.75, z.conjugate()).value,
    ]
    worst = max(abs(c - v.conjugate()) / (1.0 + abs(v))
                for v, c in zip(checks, conj_checks))
    print(f"[{'PASS' if worst <= 1e-15 else 'FAIL'}] criterion 8 conjugation: "
          f"worst scaled asymmetry {worst:.3g}")
    assert worst <= 1e-15

