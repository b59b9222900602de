"""Kelvin functions ber/bei/ker/kei of real order, their order derivatives,
and quadrature-backed identity verification.

The paper's closed forms (``bessel.dj_dnu``/``dk_dnu``, the
``orderderiv.dkelvin_*`` oracles, ``coef_c``/``coef_d``), the series engine
``hyper.pfq`` and the errors only they raise are oracles of the verify
suites: they are imported from their modules, not from here."""

from .errors import (ArgumentZeroError, BranchError, ConvergenceError, DomainError,
                     GammaOverflowError, KelvinError, PoleError, PowerOverflowError,
                     SeriesOverflowError)
from .hyper import EvalResult
from .scalars import EULER_GAMMA, digamma_real, gamma_real
from .bessel import bessel_i, bessel_j, bessel_k, dj_dnu_any, dk_dnu_any
from .kelvin import KelvinQuad, kelvin_all, kelvin_ber_bei, kelvin_ker_kei
from .orderderiv import OrderDerivQuad, dkelvin, dkelvin_bb_neg, dkelvin_kk_neg
from .quad import (IdentityReport, apelblat_ber_bei,
                   apelblat_dber_dbei, appendix_ber_bei, convolution_identity,
                   indefinite_integral_check, integrate_finite,
                   integrate_semiinf, theorem5_identities,
                   theorem5_identity)
from .verify import run_suites

__version__ = "0.1.0"

__all__ = [
    "ArgumentZeroError", "BranchError", "ConvergenceError", "DomainError", "EULER_GAMMA",
    "EvalResult", "GammaOverflowError", "IdentityReport", "KelvinError", "KelvinQuad",
    "OrderDerivQuad", "PoleError", "PowerOverflowError", "SeriesOverflowError",
    "apelblat_ber_bei", "apelblat_dber_dbei", "appendix_ber_bei",
    "bessel_i", "bessel_j", "bessel_k",
    "convolution_identity", "digamma_real", "dj_dnu_any", "dk_dnu_any", "dkelvin",
    "dkelvin_bb_neg", "dkelvin_kk_neg", "gamma_real", "indefinite_integral_check",
    "integrate_finite", "integrate_semiinf", "kelvin_all", "kelvin_ber_bei",
    "kelvin_ker_kei", "run_suites", "theorem5_identities",
    "theorem5_identity",
]
