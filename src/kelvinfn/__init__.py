"""Kelvin functions ber/bei/ker/kei of real order, their closed-form order
derivatives, and quadrature-backed identity verification."""

from .errors import (ArgumentZeroError, BranchError, ConvergenceError,
                     DenominatorPoleError, DomainError, GammaOverflowError,
                     KelvinError, NegativeIntegerOrderError, OrderClassError,
                     PoleError, PowerOverflowError, SeriesOverflowError)
from .hyper import EvalResult, HyperSpec, pfq
from .scalars import EULER_GAMMA, digamma_real, gamma_real
from .bessel import (bessel_i, bessel_j, bessel_k, dj_dnu, dj_dnu_any,
                     dk_dnu, dk_dnu_any)
from .kelvin import KelvinQuad, kelvin_all, kelvin_ber_bei, kelvin_ker_kei
from .orderderiv import (OrderDerivQuad, coef_c, coef_d, dkelvin,
                         dkelvin_bb_brychkov, dkelvin_bb_neg, dkelvin_bb_pos,
                         dkelvin_integer, dkelvin_kk_neg, dkelvin_kk_pos)
from .quad import (IdentityReport, apelblat_ber_bei,
                   apelblat_dber_dbei, appendix_ber_bei, convolution_identity,
                   indefinite_integral_check, integrate_finite,
                   integrate_semiinf, theorem5_identities,
                   theorem5_identity)
from .verify import run_suites

__version__ = "0.1.0"

__all__ = [
    "ArgumentZeroError", "BranchError", "ConvergenceError", "DenominatorPoleError",
    "DomainError", "EULER_GAMMA", "EvalResult", "GammaOverflowError", "HyperSpec",
    "IdentityReport", "KelvinError", "KelvinQuad", "NegativeIntegerOrderError",
    "OrderClassError", "OrderDerivQuad", "PoleError", "PowerOverflowError",
    "SeriesOverflowError",
    "apelblat_ber_bei", "apelblat_dber_dbei", "appendix_ber_bei",
    "bessel_i", "bessel_j", "bessel_k", "coef_c", "coef_d",
    "convolution_identity", "digamma_real", "dj_dnu", "dj_dnu_any",
    "dk_dnu", "dk_dnu_any", "dkelvin", "dkelvin_bb_brychkov",
    "dkelvin_bb_neg", "dkelvin_bb_pos", "dkelvin_integer", "dkelvin_kk_neg",
    "dkelvin_kk_pos", "gamma_real", "indefinite_integral_check",
    "integrate_finite", "integrate_semiinf", "kelvin_all", "kelvin_ber_bei",
    "kelvin_ker_kei", "pfq", "run_suites", "theorem5_identities",
    "theorem5_identity",
]
