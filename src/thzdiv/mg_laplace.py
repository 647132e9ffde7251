"""Laplace transform of the squared mixture-of-gamma SNR density.

For gamma' = Upsilon |h|^2 under mixture-of-gamma fading the density is a
sum of stretched-exponential terms a_i y^{b_i-1} exp(-c_i sqrt(y)); its
Laplace transform has a closed form in Tricomi's U at every SNR, whose
large-Upsilon*s limit a_i Gamma(b_i) s^{-b_i} is the high-SNR
approximation.  The BER route reads its own DE tables of the transform
(ber_analytic._laplace_table); the closed form and a QUADPACK quadrature
are the oracles that check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .channel_models import MixtureGamma, _check_finite, power_pdf
from .errors import DomainError, EvaluationError

__all__ = [
    "SquaredMgSnr",
    "snr_pdf_mg",
    "laplace_exact_series",
    "laplace_high_snr",
    "laplace_numeric_oracle",
]


@dataclass(frozen=True)
class SquaredMgSnr:
    """Parameters of the density of gamma' = Upsilon |h|^2 under MG fading."""

    a: np.ndarray  # alpha_i Upsilon^{-b_i} / (2 nu^{beta_i})
    b: np.ndarray  # beta_i / 2
    c: np.ndarray  # zeta_i / (sqrt(Upsilon) nu)
    source: MixtureGamma
    upsilon: float
    nu: float

    @classmethod
    def from_model(cls, model: MixtureGamma, upsilon: float,
                   nu: float = 1.0) -> "SquaredMgSnr":
        _check_finite("SquaredMgSnr", upsilon=upsilon, nu=nu)
        beta = model.shapes
        b = beta / 2.0
        ln_a = (np.log(model.alphas) - b * math.log(upsilon)
                - beta * math.log(nu) - math.log(2.0))
        c = model.rates / (math.sqrt(upsilon) * nu)
        return cls(a=np.exp(ln_a), b=b, c=c, source=model,
                   upsilon=upsilon, nu=nu)


def snr_pdf_mg(s: SquaredMgSnr, y):
    """Density sum_i a_i y^{b_i-1} exp(-c_i sqrt(y)) at y >= 0: the power
    pdf of gamma' = Upsilon |h|^2 = (nu sqrt(Upsilon) |h_f|)^2."""
    return power_pdf(s.source, s.nu * math.sqrt(s.upsilon), y)


def laplace_exact_series(s: SquaredMgSnr, s_arg):
    """Closed-form L{f_gamma'}(s), vectorised over ``s_arg``.

    Each component transforms as (Gradshteyn & Ryzhik 3.462.1)
    a 2 Gamma(2b) (4s)^{-b} U(b, 1/2, c^2/(4s)), with U Tricomi's confluent
    hypergeometric function.  The terms are summed from the log domain so
    that a huge prefactor times an underflowed U gives 0, never inf * 0.
    Accurate to about 1e-8 relative, the accuracy of ``scipy.special.hyperu``.
    """
    s_arr = np.asarray(s_arg, dtype=float)
    if not np.all(s_arr > 0):
        raise DomainError("laplace_exact_series requires s_arg > 0")
    scalar = s_arr.ndim == 0
    x = np.atleast_1d(s_arr)[:, None]
    # a_i may underflow to 0 and U to 0: log(0) = -inf drops the term.
    with np.errstate(divide="ignore"):
        ln_terms = (np.log(s.a) + math.log(2.0) + sp.gammaln(2.0 * s.b)
                    - s.b * np.log(4.0 * x)
                    + np.log(sp.hyperu(s.b, 0.5, s.c ** 2 / (4.0 * x))))
    vals = np.sum(np.exp(ln_terms), axis=1)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("closed-form Laplace transform is not finite")
    return float(vals[0]) if scalar else vals


def laplace_high_snr(s: SquaredMgSnr, s_arg) -> float:
    """First-term (high-Upsilon) approximation of the Laplace transform."""
    s_arr = np.asarray(s_arg, dtype=float)
    if not np.all(s_arr > 0):
        raise DomainError("laplace_high_snr requires s_arg > 0")
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr).astype(float)
    vals = np.sum(
        s.a * sp.gamma(s.b) * s_arr[:, None] ** (-s.b), axis=1)
    return float(vals[0]) if scalar else vals


def laplace_numeric_oracle(pdf, s_arg: float) -> float:
    """Adaptive quadrature of int_0^inf e^{-s y} f(y) dy, to 1e-10 relative."""
    if not 0 <= s_arg < math.inf:
        raise DomainError("laplace_numeric_oracle requires a finite s_arg >= 0")
    from scipy import integrate  # here, so that importing thzdiv skips it

    def integrand(y):
        return math.exp(-s_arg * y) * float(pdf(y))

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0,
                              epsrel=1e-11, limit=400)
    # Relative, so that a transform far below 1 keeps its digits; written so
    # that a NaN value or estimate fails.
    if not err <= 1e-10 * abs(val):
        raise EvaluationError(
            f"Laplace quadrature error estimate {err:.2e} exceeds 1e-10 "
            f"of |{val:.3e}|")
    return val
