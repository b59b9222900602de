"""Frozen verification grids.

The verify suites iterate over these constants so that repeated runs (and CI)
always check the identical point set; nothing here is derived from runtime
configuration.
"""

# finite-difference concordance of the dispatcher, positive orders
FD_NU = (0.1, 0.3, 0.75, 1.5, 2.4, 5.3)
FD_X = (0.5, 1.0, 2.0, 5.0, 10.0)
FD_SCALED_TOL = 1e-6          # |closed - fd| <= tol * (1 + |value|)
FD_STEPS = (1e-3, 5e-4)       # Richardson pair for the oracle

# integer-order finite sums vs dkelvin at the integer
INTEGER_N = (0, 1, 2, 3, 5)
INTEGER_X = (0.5, 1.0, 2.0, 5.0)
INTEGER_SCALED_TOL = 1e-5

# differential test of the rotation forms against the 3F6/4F7 reference forms
BRYCHKOV_NU = (0.3, 0.5, 1.3, 2.6)
BRYCHKOV_X = (0.5, 1.0, 2.0, 5.0)
BRYCHKOV_TOL = 1e-7

# integral representation of the function values
APELBLAT_NU = (0.0, 0.3, 0.5, 1.0, 1.7, 3.0)
APELBLAT_ARG = (0.5, 1.0, 2.0, 5.0, 8.0)
APELBLAT_TOL = 1e-8

# integral representation of the order derivatives
APELBLAT_D_NU = (0.5, 1.5, 2.5)
APELBLAT_D_X = (0.5, 1.0, 2.0)
APELBLAT_D_TOL = 1e-6

# log-weighted moment integrals and the antiderivative checks
THEOREM5_NU = (0.5, 1.5, 2.5)
THEOREM5_X = (0.5, 1.0, 2.0, 4.0)
THEOREM5_TOL = 1e-7
INDEFINITE_POINTS = ((0.0, 1.0, 1e-9), (1.0, 2.0, 1e-9), (0.5, 0.1, 1e-10))

# order-zero quarter-period representations and the self-convolution
APPENDIX_X = (0.1, 1.0, 2.0, 5.0, 10.0)
APPENDIX_VARIANT_TOL = 1e-10  # sin form vs cos form
APPENDIX_SERIES_TOL = 1e-9    # either form vs the power series
CONVOLUTION_POINTS = ((1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (3.0, 0.5, 1.0))
CONVOLUTION_TOL = 1e-7

# integer reflection ber_{-n} = (-1)^n ber_n (all four functions)
REFLECTION_N = (0, 1, 2, 3, 4, 5)
REFLECTION_X = (0.5, 1.0, 2.0, 5.0)
REFLECTION_REL_TOL = 1e-12

# Kelvin ODE residual, 5-point stencils in x
ODE_BB_NU = (0.0, 0.5, 1.0, 2.4)      # J side tolerates integer orders
ODE_KK_NU = (0.3, 0.5, 1.5, 2.4)      # K side grid avoids integers: the
                                      # removed near-integer averaging had a
                                      # bias there; exact K_n has none
ODE_X = (1.0, 2.0, 5.0)
ODE_STEP = 1e-3
ODE_SCALED_TOL = 1e-5
