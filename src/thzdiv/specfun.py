"""Special functions used throughout the library.

The Gaussian Q-function is a thin wrapper around scipy.special.erfcx.  The
Fox-H evaluator is implemented here from scratch: a Mellin-Barnes integral
taken along a vertical contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, DomainError, EvaluationError

__all__ = [
    "q_function",
    "FoxHParams",
    "fox_h",
]

_SQRT2 = math.sqrt(2.0)

# Relative agreement of successive step halvings that ends fox_h.
_FOX_H_RTOL = 1e-10
_FOX_H_BLOCK = 256  # most z per fox_h trapezoid rule: bounds its (t, z) table
_MID_SLICE = 2 ** 14  # most midpoints a halving evaluates at once


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5*erfc(x/sqrt(2)).

    Evaluated as 0.5*erfcx(x/sqrt(2))*exp(-x^2/2) so the tail does not
    underflow prematurely (finite down to x ~ 38).
    """
    x = np.asarray(x, dtype=float)
    # In place, in the order of 0.5 * erfcx(|x|/sqrt2) * exp(-0.5 * x * x):
    # two buffers of x's size rather than ten.
    pos = np.abs(x, out=np.empty_like(x))
    pos /= _SQRT2
    sp.erfcx(pos, out=pos)
    pos *= 0.5
    tail = np.multiply(x, -0.5, out=np.empty_like(x))
    tail *= x
    pos *= np.exp(tail, out=tail)
    neg = x < 0.0
    pos[neg] = 1.0 - pos[neg]
    return float(pos) if pos.ndim == 0 else pos


@dataclass(frozen=True)
class FoxHParams:
    """Parameter tuple of H^{m,n}_{p,q}[z | (a_j,A_j); (b_j,B_j)].

    The integrand convention is

        H(z) = (1/2pi i) Int  Prod_{j<=m} Gamma(b_j + B_j s)
                              Prod_{j<=n} Gamma(1 - a_j - A_j s)
                            / Prod_{j>m}  Gamma(1 - b_j - B_j s)
                            / Prod_{j>n}  Gamma(a_j + A_j s)   z^{-s} ds,

    which reduces to exp(-z) for H^{1,0}_{0,1}[z | -; (0,1)] and whose
    small-z behaviour is carried by the z^{b_j/B_j} residue terms.
    """

    m: int
    n: int
    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(A)) for a, A in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(B)) for b, B in self.lower))
        p, q = self.p, self.q
        if not (0 <= self.m <= q and 0 <= self.n <= p):
            raise DomainError("FoxHParams requires 0 <= m <= q and 0 <= n <= p")
        if p > 4 or q > 4:
            raise DomainError("FoxHParams supports p, q <= 4")
        if any(A <= 0 for _, A in self.upper) or any(B <= 0 for _, B in self.lower):
            raise DomainError("all A_j, B_j must be positive")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


def _contour_window(params: FoxHParams) -> tuple[float, float]:
    """Open interval of admissible contour abscissas between pole families."""
    left = [-b / B for b, B in params.lower[: params.m]]
    right = [(1.0 - a) / A for a, A in params.upper[: params.n]]
    lo = max(left) if left else None
    hi = min(right) if right else None
    if lo is None and hi is None:
        raise EvaluationError("contour undetermined: m = n = 0")
    if lo is None:
        lo = hi - 2.0
    if hi is None:
        hi = lo + 2.0
    if lo >= hi:
        raise EvaluationError(
            f"pole collision: gamma pole families overlap ({lo:.6g} >= {hi:.6g})"
        )
    return lo, hi


def _log_mellin_kernel(params: FoxHParams, s):
    """Complex log of the gamma-product kernel at s (vectorized)."""
    total = np.zeros_like(np.asarray(s, dtype=complex))
    for j, (b, B) in enumerate(params.lower):
        if j < params.m:
            total = total + sp.loggamma(b + B * s)
        else:
            total = total - sp.loggamma(1.0 - b - B * s)
    for j, (a, A) in enumerate(params.upper):
        if j < params.n:
            total = total + sp.loggamma(1.0 - a - A * s)
        else:
            total = total - sp.loggamma(a + A * s)
    return total


def _decay_rate(params: FoxHParams) -> float:
    """Coefficient of -pi/2*|t| in the kernel's large-|t| decay."""
    rho = sum(B for _, B in params.lower[: params.m])
    rho += sum(A for _, A in params.upper[: params.n])
    rho -= sum(B for _, B in params.lower[params.m :])
    rho -= sum(A for _, A in params.upper[params.n :])
    return rho


def fox_h(params: FoxHParams, z):
    """Evaluate the Fox H-function at real z > 0: a float, or an array of z.

    Vertical-line Mellin-Barnes quadrature: each z takes the abscissa inside
    the gap between the two gamma pole families that minimizes the
    integrand's peak magnitude, the line is truncated where the integrand
    falls below 1e-16 of its peak, and the trapezoid step, from t_max/64,
    is halved until successive estimates agree to _FOX_H_RTOL; the finest
    step is t_max/2^22.  Only z^-s depends on z, so the z sharing an
    abscissa share one rule, _FOX_H_BLOCK at a time.
    """
    z = np.asarray(z, dtype=float)
    if not np.all((z > 0.0) & (z < math.inf)):
        raise DomainError("fox_h requires finite z > 0")
    rho = _decay_rate(params)
    if rho <= 0.0:
        raise EvaluationError("Mellin-Barnes line integral does not converge (rho <= 0)")
    lo, hi = _contour_window(params)
    lnz = np.log(z).ravel()
    # Candidate abscissas; each z takes the smallest |kernel(c) z^-c|.
    cands = lo + np.array([0.1, 0.25, 0.5, 0.75, 0.9]) * (hi - lo)
    k_real = _log_mellin_kernel(params, cands + 0j).real
    mags = k_real[:, None] - cands[:, None] * lnz
    pick, peak_log = np.argmin(mags, axis=0), np.min(mags, axis=0)
    est = np.empty_like(lnz)
    for j in np.unique(pick):
        # |z^-s| = z^-c along the line, so the point 1e-16 below the peak
        # where the line is truncated is the same for every z of the group.
        c, t_max = cands[j], 4.0 + 4.0 / rho
        while (_log_mellin_kernel(params, complex(c, t_max)).real
               > k_real[j] + math.log(1e-16)):
            t_max *= 1.6
            if t_max > 1e7:
                raise EvaluationError("integrand truncation point not found")
        group = np.flatnonzero(pick == j)
        # The integrand is Hermitian in t, so the integral reduces to twice
        # the real part over t >= 0: e^(Re w) cos(Im w) of its log w.
        for cols in np.array_split(group, 1 + group.size // _FOX_H_BLOCK):
            def integrand(t, c=c, cols=cols):
                k = _log_mellin_kernel(params, c + 1j * t)
                return (np.exp(k.real[:, None] - c * lnz[cols] - peak_log[cols])
                        * np.cos(k.imag[:, None] - t[:, None] * lnz[cols]))
            est[cols] = _nested_trapezoid(integrand, 0.0, t_max, 64,
                                          _FOX_H_RTOL, 16)
    h = (est * np.exp(peak_log) / math.pi).reshape(z.shape)
    return float(h) if z.ndim == 0 else h


def _nested_trapezoid(f, a: float, b: float, n: int, rtol: float,
                      levels: int, normwise: bool = False):
    """Trapezoid rule for int_a^b f dt, halving the step until two levels agree.

    Starts from n intervals; a halving evaluates f only at the previous
    level's midpoints, _MID_SLICE at a time, summed in order.  f maps an
    array of t to values with t on the first axis; trailing axes are
    integrated componentwise, and every component must agree to rtol of
    itself, or of the largest one with ``normwise``.
    Raises AccuracyError when ``levels`` halvings do not suffice.
    """
    h = (b - a) / n
    vals = f(np.linspace(a, b, n + 1))
    total = np.sum(vals, axis=0) - 0.5 * (vals[0] + vals[-1])
    est = h * total
    for _ in range(levels):
        mid = a + h * (np.arange(n) + 0.5)
        part = np.sum(f(mid[:_MID_SLICE]), axis=0)
        for lo in range(_MID_SLICE, n, _MID_SLICE):
            part = np.sum(np.concatenate(
                [part[None], f(mid[lo:lo + _MID_SLICE])]), axis=0)
        total = total + part
        h, n = 0.5 * h, 2 * n
        prev, est = est, h * total
        gap = np.abs(est - prev)
        ref = np.max(np.abs(est)) if normwise else np.abs(est)
        if np.all(gap <= rtol * ref):
            return est
    achieved = float(np.max(gap / np.maximum(ref, 1e-300)))
    raise AccuracyError(
        f"trapezoid rule did not reach rtol={rtol:g} in {levels} halvings "
        f"(achieved {achieved:g})", achieved=achieved)
