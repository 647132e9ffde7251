"""thzdiv: BER of MRC diversity receivers over THz small-scale fading.

Exact, asymptotic, and Monte Carlo bit-error-rate analysis for L-branch
maximal ratio combining under alpha-mu and mixture-of-gamma fading, with
THz link-budget plumbing, a Fox H-function evaluator, and diversity-law
(kappa1, kappa2) extraction.
"""

from . import (ber_analytic, channel_models, diversity_fit, errors,
               mg_laplace, monte_carlo, specfun, sum_dist)
from .ber_analytic import *
from .channel_models import *
from .diversity_fit import *
from .errors import *
from .mg_laplace import *
from .monte_carlo import *
from .specfun import *
from .sum_dist import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = ["__version__"] + [
    name for module in (ber_analytic, channel_models, diversity_fit, errors,
                        mg_laplace, monte_carlo, specfun, sum_dist)
    for name in module.__all__]
