"""Fractional Poisson processes via exact power-series decomposition.

State probabilities, generating functions and waiting-time survival for the
classical, time-fractional, space-fractional, space-time-fractional and
Saigo space-time-fractional Poisson processes, cross-validated three ways:
closed-form series, the Adomian decomposition engine (one power series per
state, term k being the k-th iterate), and Monte-Carlo subordination.
"""

from .adm import PowerSeries, PowerTerm, adm_solve_linear
from .errors import (
    ConvergenceError,
    FracpoisError,
    ParameterError,
    UnsupportedVariantError,
)
from .processes import (
    FractionalParams,
    PmfTable,
    adm_closed_form_diff,
    kolmogorov_residual,
    pmf,
    pmf_table,
    pmf_tail_mass,
    poisson_pmf,
    sstfpp_pgf,
    waiting_survival,
)
from .saigo import (
    SaigoParams,
    composition_check,
    saigo_caputo_derivative_power,
    saigo_integral_power,
    semigroup_counterexample,
)
from .simulate import (
    EmpiricalPmf,
    chi_square_gof,
    empirical_pmf,
    sample_inverse_stable,
    sample_process,
    sample_stable,
)
from .specfun import falling_factorial, log_gamma

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "EmpiricalPmf",
    "FracpoisError",
    "FractionalParams",
    "ParameterError",
    "PmfTable",
    "PowerSeries",
    "PowerTerm",
    "SaigoParams",
    "UnsupportedVariantError",
    "adm_closed_form_diff",
    "adm_solve_linear",
    "chi_square_gof",
    "composition_check",
    "empirical_pmf",
    "falling_factorial",
    "kolmogorov_residual",
    "log_gamma",
    "pmf",
    "pmf_table",
    "pmf_tail_mass",
    "poisson_pmf",
    "saigo_caputo_derivative_power",
    "saigo_integral_power",
    "sample_inverse_stable",
    "sample_process",
    "sample_stable",
    "semigroup_counterexample",
    "sstfpp_pgf",
    "waiting_survival",
]
