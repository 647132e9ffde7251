"""thzdiv: BER of MRC diversity receivers over THz small-scale fading.

Exact, asymptotic, and Monte Carlo bit-error-rate analysis for L-branch
maximal ratio combining under alpha-mu and mixture-of-gamma fading, with
THz link-budget plumbing, a Fox H-function evaluator, and diversity-law
(kappa1, kappa2) extraction.
"""

from .ber_analytic import (
    AsymptoteLaw,
    AsymptoteSource,
    ber_alpha_mu_gen_asymptote,
    ber_alpha_mu_gen_foxh,
    ber_alpha_mu_iid_asymptote,
    ber_exact_quadrature,
    ber_mg_asymptote,
    ber_mg_mgf,
)
from .channel_models import (
    AlphaMuA,
    AlphaMuB,
    BranchModel,
    LinkBudget,
    MixtureGamma,
    Scenario,
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    branch_scale_nu,
    envelope_moment,
    envelope_pdf,
    list_presets,
    mg_preset,
    path_loss_amplitude,
    power_pdf,
)
from .diversity_fit import FitReport, compare_to_theory, fit_power_law
from .errors import AccuracyError, DomainError, EvaluationError
from .mg_laplace import (
    SquaredMgSnr,
    laplace_exact_series,
    laplace_high_snr,
    laplace_numeric_oracle,
    snr_pdf_mg,
)
from .monte_carlo import BerCurve, BerPoint, sample_branch_envelope, simulate_mrc_ber
from .specfun import FoxHParams, fox_h, q_function
from .sum_dist import (
    IidAlphaMuSum,
    MixtureNodes,
    convolution_oracle,
    iid_sum_power_pdf,
    inid_sum_power_pdf,
    solve_mixture_nodes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AccuracyError",
    "DomainError",
    "EvaluationError",
    "AlphaMuA",
    "AlphaMuB",
    "MixtureGamma",
    "BranchModel",
    "LinkBudget",
    "Scenario",
    "path_loss_amplitude",
    "branch_scale_nu",
    "envelope_pdf",
    "power_pdf",
    "envelope_moment",
    "alpha_mu_a_preset",
    "alpha_mu_b_preset",
    "mg_preset",
    "list_presets",
    "FoxHParams",
    "fox_h",
    "q_function",
    "IidAlphaMuSum",
    "iid_sum_power_pdf",
    "MixtureNodes",
    "solve_mixture_nodes",
    "inid_sum_power_pdf",
    "convolution_oracle",
    "SquaredMgSnr",
    "snr_pdf_mg",
    "laplace_exact_series",
    "laplace_high_snr",
    "laplace_numeric_oracle",
    "AsymptoteLaw",
    "AsymptoteSource",
    "ber_exact_quadrature",
    "ber_alpha_mu_iid_asymptote",
    "ber_alpha_mu_gen_foxh",
    "ber_alpha_mu_gen_asymptote",
    "ber_mg_mgf",
    "ber_mg_asymptote",
    "BerPoint",
    "BerCurve",
    "sample_branch_envelope",
    "simulate_mrc_ber",
    "FitReport",
    "fit_power_law",
    "compare_to_theory",
]
