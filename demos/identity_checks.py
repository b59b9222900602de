"""
Quadrature-backed identity verification
=======================================

Every closed form in the library is paired with an independent integral
representation; the verify suites sweep those identities over frozen grids.
This walks through a few of them directly, then runs the full battery.
"""

import time

from kelvinfn import (apelblat_ber_bei, apelblat_dber_dbei,
                      convolution_identity, dkelvin, kelvin_ber_bei,
                      run_suites, theorem5_identities)

# Function values from the two-part integral representation
nu, x = 0.5, 2.0
by_quad = apelblat_ber_bei(nu, x)
by_series = kelvin_ber_bei(nu, x)
print(f"ber_{nu}({x}):  quadrature {by_quad[0]:.15f}")
print(f"             series     {by_series[0]:.15f}")

# Order derivatives from the log-weighted integral form
dq = apelblat_dber_dbei(nu, x)
dc = dkelvin(nu, x)
print(f"\nd ber/d nu:  quadrature {dq[0]:.15f}")
print(f"             closed     {dc.dber:.15f}")

# A moment integral with a logarithmic weight, both sides independent
rep = theorem5_identities(0.5, 1.0)[0]  # the ber row
print(f"\nmoment integral check: lhs={rep.lhs:.12e} rhs={rep.rhs:.12e} "
      f"|diff|={rep.abs_diff:.2e} -> {'pass' if rep.passed else 'FAIL'}")

# The self-convolution identity behind the quarter-period representation
rep = convolution_identity(2.0, 1.0, 0.5)
print(f"convolution check:     |diff|={rep.abs_diff:.2e} "
      f"-> {'pass' if rep.passed else 'FAIL'}")

# The full battery (the same thing `kelvinfn verify --suite all` runs)
t0 = time.time()
reports = run_suites("all")
n_pass = sum(r.passed for r in reports)
print(f"\nfull verification: {n_pass}/{len(reports)} identities pass "
      f"in {time.time() - t0:.1f}s")
