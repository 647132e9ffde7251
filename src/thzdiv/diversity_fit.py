"""Empirical diversity-law extraction from BER curves.

Fits log10(BER) against log10(Upsilon) by weighted least squares and
reports the power law BER ~ kappa1 * Upsilon^-kappa2 together with the
goodness of fit and, optionally, the gap to a theoretical asymptote.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .ber_analytic import AsymptoteLaw, AsymptoteSource
from .errors import DomainError, EvaluationError
from .monte_carlo import BerCurve

__all__ = ["FitReport", "fit_power_law", "compare_to_theory"]

_LN10 = math.log(10.0)
# Relative slack on the window edges: 10**(dB/10) rounding can put a grid
# point just outside an edge computed from another grid point (on a -5..25 dB
# grid, 10**1.5 < 10**2.5 / 10), which would silently drop it from the fit.
_EDGE_RTOL = 1e-9


@dataclass(frozen=True)
class FitReport:
    law: AsymptoteLaw
    r_squared: float
    window: tuple[float, float]
    residuals: tuple[float, ...]
    excluded_zero_points: int = 0
    theory: AsymptoteLaw | None = None
    relative_gap: float | None = None
    passed: bool | None = None
    tolerance: float | None = None


def _default_window(upsilons: np.ndarray) -> tuple[float, float]:
    """Highest decade of Upsilon among usable (positive-BER) points."""
    hi = float(upsilons.max())
    return hi / 10.0, hi


def fit_power_law(curve: BerCurve, window: tuple[float, float] | None = None
                  ) -> FitReport:
    """WLS of log10(ber) on log10(upsilon); kappa2 = -slope, kappa1 = 10^b."""
    ups = curve.upsilons
    bers = curve.bers
    ses = curve.ses
    usable = bers > 0.0
    n_zero = int((~usable).sum())
    if window is None:
        if not np.any(usable):
            raise DomainError("no positive-BER points to fit")
        window = _default_window(ups[usable])
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi):
        raise DomainError("window must satisfy lo < hi")
    sel = (usable & (ups >= lo * (1.0 - _EDGE_RTOL))
           & (ups <= hi * (1.0 + _EDGE_RTOL)))
    if int(sel.sum()) < 3:
        raise DomainError(
            f"need >= 3 positive-BER points in window [{lo:g}, {hi:g}], "
            f"found {int(sel.sum())}")

    x = np.log10(ups[sel])
    y = np.log10(bers[sel])
    se = ses[sel]
    if np.all(se > 0.0):
        sigma_log = se / (bers[sel] * _LN10)
        w = 1.0 / sigma_log**2
    else:
        w = np.ones_like(x)

    wsum = w.sum()
    xb = np.sum(w * x) / wsum
    yb = np.sum(w * y) / wsum
    sxx = np.sum(w * (x - xb) ** 2)
    if sxx <= 0.0:
        raise EvaluationError("degenerate abscissas: all points share one upsilon")
    slope = np.sum(w * (x - xb) * (y - yb)) / sxx
    intercept = yb - slope * xb
    resid = y - (intercept + slope * x)
    sst = np.sum(w * (y - yb) ** 2)
    r2 = 1.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - np.sum(w * resid**2) / sst))

    kappa2 = -float(slope)
    kappa1 = 10.0 ** float(intercept)
    if kappa2 <= 0.0:
        raise EvaluationError(
            f"fitted slope {slope:.3g} is not a decaying power law")
    law = AsymptoteLaw(kappa1=kappa1, kappa2=kappa2,
                       source=AsymptoteSource.FITTED)
    return FitReport(law=law, r_squared=float(r2), window=(lo, hi),
                     residuals=tuple(float(r) for r in resid),
                     excluded_zero_points=n_zero)


def compare_to_theory(fit: FitReport, theory: AsymptoteLaw,
                      tolerance: float = 0.05) -> FitReport:
    """Augment a fit with the relative kappa2 gap and a pass flag."""
    if theory.kappa2 <= 0 or fit.law.kappa2 <= 0:
        raise DomainError("compare_to_theory requires positive kappa2 values")
    gap = abs(fit.law.kappa2 - theory.kappa2) / theory.kappa2
    return dataclasses.replace(fit, theory=theory, relative_gap=float(gap),
                               passed=bool(gap <= tolerance),
                               tolerance=float(tolerance))
