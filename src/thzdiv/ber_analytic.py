"""Closed-form and quadrature bit-error-probability expressions.

Every operation evaluates the average BER of an L-branch MRC receiver
under the error law E[Q(sqrt(2 g Upsilon ||h||^2))].  g = 1/2 reproduces
the Q(sqrt(Upsilon x)) convention used by the alpha-mu analyses; g = 1 is
BPSK in the MGF/Craig form used by the mixture-of-gamma analyses.

High-SNR asymptotes return an AsymptoteLaw (kappa1, kappa2) alongside the
value, with kappa2 the diversity exponent of BER ~ kappa1 * Upsilon^-kappa2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .channel_models import AlphaMuA, MixtureGamma
from .errors import DomainError, EvaluationError
# laplace_numeric_oracle, snr_pdf_mg: unused; the traced benchmark wraps them.
from .mg_laplace import (
    SquaredMgSnr,
    laplace_exact_series,
    laplace_numeric_oracle,
    snr_pdf_mg,
)
from .specfun import FoxHParams, _nested_trapezoid, fox_h, q_function
from .sum_dist import MixtureNodes, _leading_terms

__all__ = [
    "AsymptoteSource",
    "AsymptoteLaw",
    "ber_exact_quadrature",
    "ber_alpha_mu_iid_asymptote",
    "ber_alpha_mu_gen_foxh",
    "ber_alpha_mu_gen_asymptote",
    "ber_mg_mgf",
    "ber_mg_asymptote",
]

_SQRT_PI = math.sqrt(math.pi)

# Most component index tuples the full ber_mg_asymptote sum enumerates.
_TERM_CAP = 10**6

# Node rows per block of ber_exact_quadrature's Q table.
_Q_ROWS = 32

# The tanh-sinh theta rule of ber_mg_mgf.
_T_HALF = 3.0     # t in [-3, 3]: theta within 3.3e-14 of 0 and of pi/2
_T_STEP = 0.5     # first step: 12 intervals, 13 nodes
_T_RTOL = 1e-9    # relative agreement of two successive levels
_T_LEVELS = 8     # most step halvings


class AsymptoteSource(enum.Enum):
    ALPHA_MU_IID = "alpha_mu_iid"
    ALPHA_MU_GEN = "alpha_mu_gen"
    MG_IID = "mg_iid"
    MG_INID = "mg_inid"
    FITTED = "fitted"


@dataclass(frozen=True)
class AsymptoteLaw:
    """High-SNR law BER ~ kappa1 * Upsilon^-kappa2."""

    kappa1: float
    kappa2: float
    source: AsymptoteSource

    def __post_init__(self):
        if not (self.kappa1 > 0 and self.kappa2 > 0):
            raise DomainError("AsymptoteLaw requires kappa1, kappa2 > 0")

    def __call__(self, upsilon):
        return self.kappa1 * np.asarray(upsilon, dtype=float) ** (-self.kappa2)


def ber_exact_quadrature(sum_pdf, upsilon, g: float = 0.5):
    """Exact BER int Q(sqrt(2 g Upsilon x)) f(x) dx, at one Upsilon or a grid.

    One nested double-exponential rule serves the whole grid: x = x_c
    exp((pi/2) sinh t), trapezoid in t, the step halved until every grid
    point agrees to 1e-10 relative, each density value shared by every
    point.  A scalar upsilon gives a float, an array an array.
    """
    u = np.asarray(upsilon, dtype=float)
    if u.size == 0 or not np.all(u > 0) or g <= 0:
        raise DomainError("ber_exact_quadrature requires upsilon > 0, g > 0")
    # x_c centres the nodes on the grid's geometric middle.  Q(sqrt(2 g U x))
    # is numerically zero beyond x_q = 1500/(2 g U) at every grid point, so
    # nodes beyond the largest x_q carry weight 0 and skip the density.
    x_c = 1.0 / (2.0 * g * math.sqrt(u.min() * u.max()))
    x_q = 1500.0 / (2.0 * g * u.min())

    def integrand(t: np.ndarray) -> np.ndarray:
        x = x_c * np.exp(0.5 * math.pi * np.sinh(t))
        w = np.zeros_like(x)
        keep = x < x_q
        w[keep] = sum_pdf(x[keep]) * x[keep] * 0.5 * math.pi * np.cosh(t[keep])
        out = np.zeros((x.size, u.size))
        # A few dozen rows at a time bound q_function's temporaries.
        rows = np.flatnonzero(w)
        for i in range(0, rows.size, _Q_ROWS):
            r = rows[i:i + _Q_ROWS]
            out[r] = w[r, None] * q_function(
                np.sqrt(np.outer(x[r], 2.0 * g * u)))
        return out

    # t in [-4.5, 4.5] spans x_c e^(+-70.7); at most 8 halvings of 18 steps.
    ber = _nested_trapezoid(integrand, -4.5, 4.5, 18, 1e-10, 8)
    ber = np.clip(ber, 0.0, 0.5).reshape(u.shape)
    return float(ber) if u.ndim == 0 else ber


def _ln_kappa1(ln_c0, phi, g):
    """ln kappa1 of the law kappa1 Upsilon^-phi; elementwise on arrays.

    Every asymptote integrates the leading small-y term c0 y^(phi-1) of its
    sum density against the error law: int Q(sqrt(2 g Upsilon y)) c0
    y^(phi-1) dy = c0 Gamma(phi + 1/2) / (2 sqrt(pi) phi) g^-phi Upsilon^-phi.
    """
    return (ln_c0 + sp.gammaln(phi + 0.5) - np.log(2.0 * _SQRT_PI * phi)
            - phi * np.log(g))


def _law(branches, nu: float, upsilon, g: float, source: AsymptoteSource,
         dominant_only: bool = True):
    """(value, AsymptoteLaw) from the sum density's small-y terms.

    kappa2 is the smallest phi of sum_dist._leading_terms and kappa1 sums the
    coefficients of the tuples attaining it.  ``dominant_only`` returns
    kappa1 Upsilon^-kappa2, otherwise the value sums every tuple's term.
    """
    ln_c0, phi = _leading_terms(branches, nu, dominant_only)
    ln_coefs = _ln_kappa1(ln_c0, phi, g)
    kappa2 = float(phi.min())
    lead = np.isclose(phi, kappa2, rtol=0.0, atol=1e-9)
    law = AsymptoteLaw(kappa1=float(np.exp(ln_coefs[lead]).sum()),
                       kappa2=kappa2, source=source)
    u = np.asarray(upsilon, dtype=float)
    if dominant_only:
        return law(u), law
    ln_u = np.log(np.atleast_1d(u))[:, None]
    value = np.exp(ln_coefs - phi * ln_u).sum(axis=1)
    return (float(value[0]) if u.ndim == 0 else value), law


def ber_alpha_mu_iid_asymptote(model: AlphaMuA, nu: float, l_branches: int,
                               upsilon, g: float = 0.5):
    """High-SNR BER of L i.i.d. form-A branches; kappa2 = (alpha/2) mu L."""
    return _law([model] * l_branches, nu, upsilon, g,
                AsymptoteSource.ALPHA_MU_IID)


def _eq23_foxh_params(nodes: MixtureNodes) -> FoxHParams:
    # Derived by Mellin-Parseval pairing of Q(sqrt(Upsilon y)) with one
    # mixture node's stretched-gamma density; the contour variable is
    # rescaled by alpha_bar, so every stretched gamma carries A = B =
    # alpha_bar (the fourth pair's coefficient is alpha_bar, not
    # alpha_bar*mu_bar).
    am = nodes.alpha_bar * nodes.mu_bar
    return FoxHParams(
        m=1, n=2,
        upper=((1.0 - am, nodes.alpha_bar), (0.5 - am, nodes.alpha_bar)),
        lower=((0.0, 1.0), (-am, nodes.alpha_bar)),
    )


def ber_alpha_mu_gen_foxh(nodes: MixtureNodes, upsilon: float,
                          g: float = 0.5) -> float:
    """Exact BER of the i.n.i.d. alpha-mu (form B) sum via Fox-H.

    Eq. 23 is written for Q(sqrt(Upsilon y)); it is taken at 2 g Upsilon.
    """
    if upsilon <= 0 or g <= 0:
        raise DomainError("upsilon and g must be positive")
    upsilon = 2.0 * g * upsilon
    am = nodes.alpha_bar * nodes.mu_bar
    params = _eq23_foxh_params(nodes)
    total = 0.0
    for lam, om in zip(nodes.lambdas, nodes.omegas):
        z = (2.0 * nodes.beta_bar / (upsilon * om * nodes.z_bar)) ** nodes.alpha_bar
        h = fox_h(params, z)
        total += lam / (2.0 * _SQRT_PI) * (upsilon / 2.0) ** (-am) * h
    return total


def ber_alpha_mu_gen_asymptote(branches, nu: float, upsilon, g: float = 0.5):
    """High-SNR BER of the form-B sum; kappa2 = (alpha/2) sum_j mu_j."""
    return _law(branches, nu, upsilon, g, AsymptoteSource.ALPHA_MU_GEN)


def ber_mg_mgf(branches, nu: float, l_branches: int, upsilon: float,
               g: float = 1.0) -> float:
    """Craig-form MGF BER for MG branches: (1/pi) int prod_l L_l(g/sin^2).

    The theta integral is a nested tanh-sinh rule (Takahasi & Mori 1974):
    theta = (pi/2) expit(pi sinh t), trapezoid in t, the step halved until
    two levels agree.  A level evaluates only its new nodes, one closed-form
    ``laplace_exact_series`` call per distinct branch.  The nodes cluster
    doubly exponentially at theta = 0, which resolves the layer about
    sqrt(Upsilon) wide there at low SNR.  Raises AccuracyError (an
    EvaluationError) if the levels run out.
    """
    if upsilon <= 0 or g <= 0:
        raise DomainError("ber_mg_mgf requires upsilon > 0 and g > 0")
    branches = list(branches)
    if len(branches) != l_branches:
        raise DomainError("branches must have length l_branches")

    snrs = [SquaredMgSnr.from_model(b, upsilon, nu) for b in branches]

    def integrand(t: np.ndarray) -> np.ndarray:
        # expit, not 1 + tanh, which cancels to 0 near t = -3.
        x = math.pi * np.sinh(t)
        p, q = sp.expit(x), sp.expit(-x)
        prod = 0.5 * math.pi**2 * p * q * np.cosh(t)  # d theta / dt
        s_vals = g / np.sin(0.5 * math.pi * p) ** 2
        # Keyed by value: equal models (frozen, hashable) share one call.
        cache: dict[MixtureGamma, np.ndarray] = {}
        for snr in snrs:
            if snr.source not in cache:
                cache[snr.source] = laplace_exact_series(snr, s_vals)
            prod = prod * cache[snr.source]
        return prod

    est = _nested_trapezoid(integrand, -_T_HALF, _T_HALF,
                            round(2.0 * _T_HALF / _T_STEP), _T_RTOL, _T_LEVELS)
    return float(est) / math.pi


def ber_mg_asymptote(branches, nu: float, upsilon, g: float = 1.0,
                     dominant_only: bool = False):
    """High-SNR BER for L MG branches (identical branches allowed).

    A component index tuple's sum density starts as c0 y^(phi-1) with
    phi = sum beta / 2.  The full sum enumerates every tuple (at most
    _TERM_CAP); ``dominant_only`` enumerates only those of each branch's
    smallest-beta components and returns kappa1 Upsilon^-kappa2.
    """
    branches = list(branches)
    if not all(isinstance(b, MixtureGamma) for b in branches):
        raise DomainError("ber_mg_asymptote expects MixtureGamma branches")
    n_terms = math.prod(b.n_components for b in branches)
    if n_terms > _TERM_CAP and not dominant_only:
        raise EvaluationError(
            f"{n_terms} index tuples exceed the cap {_TERM_CAP}; "
            "use dominant_only=True")
    iid = all(b is branches[0] or b == branches[0] for b in branches)
    return _law(branches, nu, upsilon, g, AsymptoteSource.MG_IID if iid
                else AsymptoteSource.MG_INID, dominant_only)
