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

from .channel_models import (AlphaMuA, MixtureGamma, _power_leading_terms,
                             envelope_moment, power_pdf)
from .errors import DomainError, EvaluationError
# laplace_exact_series, laplace_numeric_oracle, snr_pdf_mg: unused; the
# traced benchmark wraps them.
from .mg_laplace import (
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
_T_CHUNK = 512    # most grid points per theta rule

# ber_mg_mgf's per-branch tables of ln L against ln s: pieces _PIECE wide,
# each the degree-24 Chebyshev interpolant on the 25 first-kind nodes
# cos(a_k), whose values _CHEB_FIT maps to coefficients: c_j = (2/25)
# sum_k f_k cos(j a_k), c_0 halved.  L is analytic only for Re s > 0, the
# strip |Im ln s| < pi/2, so the coefficients fall only about 3.4-fold a
# degree: against mpmath, degree 16 is up to 5e-11 off on MG branches at
# small s, degree 24 within 2e-14.
_PIECE = 2.0
_CHEB_ANGLES = math.pi * (np.arange(25) + 0.5) / 25
_CHEB_NODES = np.cos(_CHEB_ANGLES)
_CHEB_FIT = np.cos(np.outer(np.arange(25), _CHEB_ANGLES)) * (2 / 25)
_CHEB_FIT[0] /= 2.0
_FILL_PIECES = 8  # pieces per DE fill: bounds its (t, piece, s) temporaries


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


def ber_exact_quadrature(sum_pdf, upsilon, g: float = 0.5,
                         mean: float = math.inf):
    """Exact BER int Q(sqrt(2 g Upsilon x)) f(x) dx, at one Upsilon or a grid.

    One nested double-exponential rule serves the whole grid: x = x_c
    exp((pi/2) sinh t), trapezoid in t, the step halved until every grid
    point agrees to 1e-10 relative, each density value shared by every
    point.  ``mean``, the density's mean, caps x_c.  A scalar upsilon gives
    a float, an array an array.
    """
    u = np.asarray(upsilon, dtype=float)
    if u.size == 0 or not (np.all(u > 0) and 0 < g < math.inf and mean > 0):
        raise DomainError("ber_exact_quadrature requires upsilon, g, mean > 0, "
                          "g finite")
    # x_c centres the nodes on the grid's geometric middle, or on the mean
    # if that is smaller: at very low SNR the middle's lowest node lies
    # beyond the density's support.  Q(sqrt(2 g U x)) is numerically zero
    # beyond x_q = 1500/(2 g U) at every grid point, so nodes beyond the
    # largest x_q carry weight 0 and skip the density.
    x_c = min(1.0 / (2.0 * g * math.sqrt(u.min() * u.max())), mean)
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


def ber_alpha_mu_gen_foxh(nodes: MixtureNodes, upsilon, g: float = 0.5):
    """Exact BER of the i.n.i.d. alpha-mu (form B) sum via Fox-H.

    Eq. 23 is written for Q(sqrt(Upsilon y)); it is taken at 2 g Upsilon,
    in one fox_h call over every (node, Upsilon).  A scalar gives a float.
    """
    u = np.asarray(upsilon, dtype=float)
    if not (np.all(u > 0) and 0 < g < math.inf):
        raise DomainError("upsilon and g must be positive, g finite")
    u = 2.0 * g * u
    am = nodes.alpha_bar * nodes.mu_bar
    z = (2.0 * nodes.beta_bar / (np.multiply.outer(nodes.omegas, u)
                                 * nodes.z_bar)) ** nodes.alpha_bar
    ber = np.sum(np.multiply.outer(nodes.lambdas / (2.0 * _SQRT_PI),
                                   (u / 2.0) ** (-am))
                 * fox_h(_eq23_foxh_params(nodes), z), axis=0)
    return float(ber) if u.ndim == 0 else ber


def ber_alpha_mu_gen_asymptote(branches, nu: float, upsilon, g: float = 0.5):
    """High-SNR BER of any alpha-mu sum; kappa2 = sum_j alpha_j mu_j / 2."""
    return _law(branches, nu, upsilon, g, AsymptoteSource.ALPHA_MU_GEN)


def _laplace_table(model, nu: float, ln_lo: float, ln_hi: float,
                   reach: float):
    """ln L(s), L(s) = E[exp(-s X)] of one branch's power X, against ln s.

    Pieces _PIECE wide run from ln_lo to 70/min phi past the larger of
    ln_hi and ln(1/E[X]), or to ``reach`` past ln_hi if that is nearer;
    beyond the last piece ln L falls with slope -min phi, its large-s law.
    Each node value is the DE rule of ber_exact_quadrature over power_pdf,
    x = x_c exp((pi/2) sinh t), to 1e-12 relative.  A piece's columns share
    one x_c, the geometric middle of their 1/max(s, 1/E[X]), so power_pdf
    runs once per (t, piece) and a column adds one exp(-s x); _FILL_PIECES
    pieces fill at a time.  Below the first node x_0, f is its small-x
    terms c x^(phi-1) and exp(-s x) is 1: they add sum c x_0^phi / phi.
    Returns the evaluator of ln L at an array of ln s, Clenshaw's
    recurrence on each piece.
    """
    lnk, phi = _power_leading_terms(model, nu)
    phi_min, inv_mean = phi.min(), 1.0 / envelope_moment(model, nu, 2.0)
    # The large-s law holds only from about s = 1/E[X] on: on a grid below
    # it, 70/phi_min past ln_hi would stop the table where L is still ~1.
    span = ln_hi - ln_lo + min(
        max(0.0, math.log(inv_mean) - ln_hi) + 70.0 / phi_min, reach)
    n_pieces = max(1, math.ceil(span / _PIECE))
    ln_s = (ln_lo + _PIECE * (np.arange(n_pieces)[:, None] + 0.5)
            + 0.5 * _PIECE * _CHEB_NODES)
    ln_xc = -np.mean(np.maximum(ln_s, math.log(inv_mean)), axis=1)
    # The DE rule runs over t in [-t_lo, 4.5], first in steps of 0.5:
    # t_lo = 4.5, or more where phi < 0.57 leaves x f(x) ~ x^phi above
    # e^-40 of its scale at t = -4.5 (the trapezoid rule then converges).
    t_lo = max(4.5, math.asinh(80.0 / (math.pi * phi_min)))
    if phi_min < 1.0:
        # But the first node x_0 = x_c e^(-(pi/2) sinh t_lo), at the
        # smallest x_c, stays where k x^(phi-1) < e^700 is finite.
        ln_floor = -(700.0 - lnk.max()) / (1.0 - phi_min)
        t_lo = min(t_lo, math.asinh(2.0 / math.pi
                                    * (ln_xc.min() - ln_floor)))

    def fill(i: int) -> np.ndarray:
        ln_c = ln_xc[i:i + _FILL_PIECES]
        sigma = np.exp(ln_s[i:i + _FILL_PIECES])  # (pieces, columns)
        x_c, s_lo = np.exp(ln_c), sigma.min(axis=1)

        def integrand(t: np.ndarray) -> np.ndarray:
            x = np.multiply.outer(np.exp(0.5 * math.pi * np.sinh(t)), x_c)
            # An underflowed node never reaches power_pdf, whose y = 0
            # limit raises for phi < 1; beyond s x = 745, exp(-s x) is 0.
            keep = (x > 0.0) & (x * s_lo < 745.0)
            w, xk = np.zeros_like(x), x[keep]
            w[keep] = power_pdf(model, nu, xk) * xk
            w *= (0.5 * math.pi * np.cosh(t))[:, None]
            return w[:, :, None] * np.exp(-x[:, :, None] * sigma)

        ln_x0 = ln_c[:, None] - 0.5 * math.pi * math.sinh(t_lo)
        head = np.sum(np.exp(lnk + phi * ln_x0) / phi, axis=1)
        return head[:, None] + _nested_trapezoid(
            integrand, -t_lo, 4.5, math.ceil(2.0 * (t_lo + 4.5)), 1e-12, 8)

    vals = np.concatenate([fill(i) for i in range(0, n_pieces, _FILL_PIECES)])
    # The pieces hold ln(L s^phi_min), which stays constant beyond the last
    # piece; an underflowed L is floored, so that its logarithm is finite.
    # A piece's mean is its c_0: fitting the rest to the values less their
    # mean keeps the rounding at the size of their spread, not of ln L.
    vals = np.log(np.maximum(vals, np.finfo(float).tiny)) + phi_min * ln_s
    mean = vals.mean(axis=1)
    coef = _CHEB_FIT @ (vals - mean[:, None]).T
    coef[0] += mean

    def ln_laplace(ln_sig: np.ndarray) -> np.ndarray:
        u = np.clip((ln_sig - ln_lo) / _PIECE, 0.0, n_pieces)
        piece = np.minimum(u.astype(int), n_pieces - 1)
        y2 = 4.0 * (u - piece) - 2.0  # twice the local variable in [-1, 1]
        b1 = b2 = 0.0
        for c in coef[:0:-1]:
            b1, b2 = c[piece] + y2 * b1 - b2, b1
        return coef[0][piece] + 0.5 * y2 * b1 - b2 - phi_min * ln_sig

    return ln_laplace


def ber_mg_mgf(branches, nu: float, l_branches: int, upsilon,
               g: float = 1.0):
    """Craig-form MGF BER (1/pi) int prod_l L_l(g Upsilon / sin^2) dtheta.

    L_l is branch l's power Laplace transform, read from one _laplace_table
    per distinct branch over the whole grid, so any family and any mix of
    families applies.  The theta integral is a nested tanh-sinh rule
    (Takahasi & Mori 1974): theta = (pi/2) expit(pi sinh t), trapezoid in
    t, the step halved until two levels agree at every point of a chunk of
    _T_CHUNK points.  The nodes cluster doubly exponentially at theta = 0,
    which resolves the layer about sqrt(Upsilon) wide there at low SNR.  A
    scalar upsilon gives a float, an array an array.  Raises AccuracyError
    (an EvaluationError) if the levels run out.
    """
    u = np.asarray(upsilon, dtype=float)
    if u.size == 0 or not (np.all((u > 0) & (u < math.inf))
                           and 0 < g < math.inf):
        raise DomainError("ber_mg_mgf requires finite upsilon, g > 0")
    branches = list(branches)
    if len(branches) != l_branches:
        raise DomainError("branches must have length l_branches")

    ln_gu = math.log(g) + np.log(u).ravel()
    # The rule's smallest theta, (pi/2) expit(-pi sinh _T_HALF), sets the
    # largest s any node reads: g Upsilon e^reach.
    reach = -2.0 * math.log(math.sin(
        0.5 * math.pi * sp.expit(-math.pi * math.sinh(_T_HALF))))
    # Keyed by value: equal models (frozen, hashable) share one table.
    tables = [(_laplace_table(b, nu, ln_gu.min(), ln_gu.max(), reach),
               branches.count(b)) for b in dict.fromkeys(branches)]

    def rule(ln_c: np.ndarray) -> np.ndarray:
        def integrand(t: np.ndarray) -> np.ndarray:
            # expit, not 1 + tanh, which cancels to 0 near t = -3.
            x = math.pi * np.sinh(t)
            p, q = sp.expit(x), sp.expit(-x)
            jac = 0.5 * math.pi**2 * p * q * np.cosh(t)  # d theta / dt
            ln_s = ln_c - 2.0 * np.log(np.sin(0.5 * math.pi * p))[:, None]
            ln_prod = sum(n * table(ln_s) for table, n in tables)
            return jac[:, None] * np.exp(ln_prod)

        return _nested_trapezoid(integrand, -_T_HALF, _T_HALF,
                                 round(2.0 * _T_HALF / _T_STEP), _T_RTOL,
                                 _T_LEVELS)

    ber = np.concatenate([rule(ln_gu[i:i + _T_CHUNK])
                          for i in range(0, ln_gu.size, _T_CHUNK)])
    ber = (ber / math.pi).reshape(u.shape)
    return float(ber) if u.ndim == 0 else ber


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
