"""Distributions of the MRC combiner power ||h||^2 = sum_j |h_j|^2.

Three representations are provided:

* the true density of any independent sum by Laplace inversion, which
  `thzdiv pdf` tabulates for every list of two or more branches;
* the exact series for the sum of i.i.d. alpha-mu powers (delta-coefficient
  recursion) with a high-precision fallback where it cancels in float64, an
  oracle that `verify` and the tests check the inversion against;
* a Psi-node mixture approximation for the form-B sum, the paper's Eq. 23
  behind `foxh` and form-B `exact`: the Gauss-Radau rule (Golub 1973) on the
  normalized sum moments whose prescribed node, a Brent root, meets the
  exact small-argument leading coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import special as sp

from .channel_models import (AlphaMuA, AlphaMuB, _check_finite,
                             _eval_pointwise, _power_leading_terms,
                             envelope_moment, power_pdf)
from .errors import AccuracyError, DomainError, EvaluationError
from .specfun import _nested_trapezoid

__all__ = [
    "IidAlphaMuSum",
    "iid_sum_power_pdf",
    "MixtureNodes",
    "solve_mixture_nodes",
    "inid_sum_power_pdf",
    "sum_power_pdf",
]


# --- exact i.i.d. series -----------------------------------------------------

# Points whose decay exponent exceeds this bound evaluate to density ~1e-13
# or below and are returned as 0 (see _tail_exponent / _series_mp).
_TAIL_CUTOFF = 30.0

# Accuracy iid_sum_power_pdf promises (see there).
_RTOL, _ATOL = 1e-9, 1e-14

# Series terms (fewer in float, where they underflow); mpmath extends to 4x.
_TRUNCATION = 400


def _series_dps(alpha_bar: float, l_branches: int) -> int:
    """Working precision covering the series' worst cancellation.

    The largest term magnitude in the evaluated region (tail exponent
    <= _TAIL_CUTOFF) is exp(_TAIL_CUTOFF * L^alpha_bar); the working
    precision must absorb that many digits of cancellation.
    """
    x_max = _TAIL_CUTOFF * l_branches ** max(alpha_bar, 1.0)
    return 40 + int(x_max / math.log(10.0))


def _delta_mp(alpha_bar: float, mu: float, l_branches: int, count: int,
              dps: int) -> list:
    """delta_0..delta_{count-1} of the series in w = y/z_bar, in mpmath.

    The deltas alternate in sign and grow like Gamma(alpha_bar*i), so the
    recursion is run at elevated precision and rounded on output.
    """
    import mpmath as mp  # here, so that only the form-A series loads it
    with mp.workdps(dps):
        ab, m = mp.mpf(alpha_bar), mp.mpf(mu)
        L = l_branches
        g0 = mp.gamma(ab * m)
        # Gamma(ab*(ell+mu)) (-mu)^ell / ell! depends on ell alone.
        terms = [mp.gamma(ab * (ell + m)) * (-m)**ell / mp.factorial(ell)
                 for ell in range(count)]
        deltas = [g0**L]
        for i in range(1, count):
            acc = mp.mpf(0)
            for ell in range(1, i + 1):
                acc += deltas[i - ell] * (ell * L + ell - i) * terms[ell]
            deltas.append(acc / (i * g0))
        return deltas


@dataclass(frozen=True)
class IidAlphaMuSum:
    """Cached series representation of the i.i.d. alpha-mu power sum.

    f(y) = g(y/z_bar)/z_bar; ``coeffs[i]`` holds g's gamma-scaled coefficient
    delta_i / Gamma(i*alpha_bar + phi0), one table per (alpha_bar, mu, L):
    the raw deltas grow like Gamma(alpha_bar*i) and overflow float64 near
    i ~ 200, while the scaled coefficients decay factorially.
    """

    alpha_bar: float
    mu: float
    z_bar: float  # (z_hat * nu)^2
    l_branches: int
    coeffs: np.ndarray

    @classmethod
    def build(cls, model: AlphaMuA, nu: float,
              l_branches: int) -> "IidAlphaMuSum":
        zb = (model.z_hat * nu) ** 2
        _check_finite("IidAlphaMuSum.build", nu=nu, z_bar=zb)
        if l_branches < 1:
            raise DomainError("l_branches must be a positive integer")
        ab = model.alpha / 2.0
        coeffs = np.array([float(c) for c in _mp_coeffs(
            ab, model.mu, l_branches, _TRUNCATION)])
        if not np.all(np.isfinite(coeffs)):
            bad = int(np.argmax(~np.isfinite(coeffs)))
            raise EvaluationError(f"series coefficient overflow at index {bad}")
        coeffs = coeffs[:np.flatnonzero(coeffs)[-1] + 1]  # rest underflowed
        return cls(alpha_bar=ab, mu=model.mu, z_bar=zb, l_branches=l_branches,
                   coeffs=coeffs)

    @property
    def phi0(self) -> float:
        """Leading small-argument exponent alpha_bar * mu * L."""
        return self.alpha_bar * self.mu * self.l_branches

    @property
    def ln_prefactor(self) -> float:
        """ln of f(y)'s prefactor, that of g(w) less phi0 ln z_bar."""
        return self._ln_w_prefactor - self.phi0 * math.log(self.z_bar)

    @property
    def _ln_w_prefactor(self) -> float:
        ab, m = self.alpha_bar, self.mu
        return self.l_branches * (math.log(ab) + m * math.log(m) - sp.gammaln(m))


@lru_cache(maxsize=16)
def _mp_coeffs(alpha_bar, mu, l_branches, count) -> list:
    """Gamma-scaled mpf coefficients delta_i / Gamma(i*alpha_bar + phi0) of g.

    One table per (alpha_bar, mu, L) serves the float coefficients of every
    ``IidAlphaMuSum.build`` and the high-precision fallback ``_series_mp``.
    """
    import mpmath as mp
    dps = _series_dps(alpha_bar, l_branches)
    deltas = _delta_mp(alpha_bar, mu, l_branches, count, dps)
    phi0 = alpha_bar * mu * l_branches
    with mp.workdps(dps):
        ab = mp.mpf(alpha_bar)
        return [d / mp.gamma(i * ab + phi0) for i, d in enumerate(deltas)]


def _tail_exponent(s: IidAlphaMuSum, w: float) -> float:
    """Lower bound on the decay exponent of g at w = y/z_bar.

    The per-branch density of x/z_bar decays like exp(-mu (x/z_bar)^alpha_bar);
    for alpha_bar > 1 the slowest joint decay splits w equally, giving
    mu L^(1-alpha_bar) w^alpha_bar.
    """
    ab = s.alpha_bar
    return (s.mu * s.l_branches ** (1.0 - ab) if ab > 1.0 else s.mu) * w ** ab


def _series_mp(s: IidAlphaMuSum, w: float) -> float:
    """High-precision evaluation of g at one point w = y/z_bar.

    Horner's rule over the cached coefficient table, extended (up to 4x
    _TRUNCATION) while its last term is not negligible; points beyond the
    tail cutoff return 0 without evaluation.
    """
    import mpmath as mp
    if _tail_exponent(s, w) > _TAIL_CUTOFF:
        return 0.0
    with mp.workdps(_series_dps(s.alpha_bar, s.l_branches)):
        x = mp.mpf(w) ** mp.mpf(s.alpha_bar)
        for count in (_TRUNCATION, 2 * _TRUNCATION, 4 * _TRUNCATION):
            coeffs = _mp_coeffs(s.alpha_bar, s.mu, s.l_branches, count)
            p = mp.polyval(coeffs[::-1], x)
            achieved = float(abs(coeffs[-1] * x ** (count - 1))
                             / max(abs(p), mp.mpf("1e-300")))
            if achieved < 1e-30:
                return float(p * mp.e**(mp.mpf(s._ln_w_prefactor)
                                        + (s.phi0 - 1.0) * mp.log(mp.mpf(w))))
    raise AccuracyError(f"series truncation {count} insufficient at w={w:g}",
                        achieved=achieved)


def iid_sum_power_pdf(s: IidAlphaMuSum, y):
    """PDF of the i.i.d. alpha-mu power sum at y >= 0 (series evaluation).

    f(y) = g(y/z_bar)/z_bar, g evaluated in float64 with a running rounding
    error bound; points where it exceeds _RTOL*|g| + _ATOL are recomputed
    in mpmath, so the choice is the same at every scale.
    """
    return _eval_pointwise(y, lambda x: _series_float(s, x / s.z_bar)
                           / s.z_bar, math.exp(s.ln_prefactor) * s.coeffs[0],
                           s.phi0 - 1.0)


def _series_float(s: IidAlphaMuSum, w: np.ndarray) -> np.ndarray:
    """g(w) = pref w^(phi0-1) P(x), x = w^alpha_bar, by Horner's rule.

    bound is Higham's running bound on P's rounding (Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Alg. 5.1); u*d, d = sum i|c_i|x^i,
    bounds the effect of rounding x.  A point goes to mpmath when the bound
    fails the promised tolerance, the value is not finite or the last term
    is not negligible.
    """
    c, u = s.coeffs, np.finfo(float).eps / 2
    # Overflow at large w only marks the point for the high-precision path.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = w ** s.alpha_bar
        p = np.full_like(w, c[-1])
        bound = np.abs(p) / 2
        for ci in c[-2::-1]:
            p = p * x + ci
            bound = x * bound + np.abs(p)
        d = np.polynomial.polynomial.polyval(x, np.arange(c.size) * np.abs(c))
        ln_w = np.log(w)
        scale = np.exp(s._ln_w_prefactor + (s.phi0 - 1.0) * ln_w)
        g = scale * p
        err = scale * u * (2 * bound - np.abs(p) + d)
        ln_last = math.log(abs(c[-1])) + (c.size - 1) * s.alpha_bar * ln_w
        ok = ((err <= _RTOL * np.abs(g) + _ATOL) & np.isfinite(g)
              & (ln_last < np.log(1e-16 * np.abs(p))))
    g[~ok] = [_series_mp(s, float(v)) for v in w[~ok]]
    return g


# --- moments of the sum ------------------------------------------------------

def moments_of_sum(branches, nu: float, n: int) -> np.ndarray:
    """E[Z^0..Z^n] for Z = sum |h_i|^2, via binomial convolution of moments."""
    if n < 0:
        raise DomainError("moments_of_sum requires n >= 0")
    acc = None
    for b in branches:
        m = np.array([envelope_moment(b, nu, 2.0 * k) for k in range(n + 1)])
        if acc is None:
            acc = m
        else:
            new = np.empty(n + 1)
            for j in range(n + 1):
                cj = sp.comb(j, np.arange(j + 1))
                new[j] = float(np.sum(cj * acc[: j + 1] * m[j::-1]))
            acc = new
    return acc


# --- i.n.i.d. mixture approximation ------------------------------------------

@dataclass(frozen=True)
class MixtureNodes:
    """Scale-mixture approximation of the i.n.i.d. alpha-mu power sum."""

    psi: int
    nodes: tuple[tuple[float, float], ...]  # (c_m, omega_m)
    alpha_bar: float
    mu_bar: float
    beta_bar: float
    z_bar: float
    residual: float

    @property
    def weights(self) -> np.ndarray:
        return np.array([c for c, _ in self.nodes])

    @property
    def omegas(self) -> np.ndarray:
        return np.array([w for _, w in self.nodes])

    @property
    def lambdas(self) -> np.ndarray:
        """Per-node density prefactors Lambda_m."""
        c, w = self.weights, self.omegas
        ln = (np.log(c) + math.log(self.alpha_bar)
              + self.alpha_bar * self.mu_bar * math.log(self.beta_bar)
              - self.alpha_bar * self.mu_bar * (np.log(w) + math.log(self.z_bar))
              - sp.gammaln(self.mu_bar))
        return np.exp(ln)


def _normalized_sum_moments(branches, nu: float, count: int,
                            mu_bar: float, alpha_bar: float, beta_bar: float,
                            z_bar: float) -> np.ndarray:
    """Moment targets M_n with Sum_m c_m omega_m^n = M_n.

    Matching the mixture's own n-th moment to E[Z^n] gives
    M_n = E[Z^n] (beta_bar/z_bar)^n Gamma(mu_bar)/Gamma(mu_bar + n/alpha_bar);
    this normalization reproduces the single-branch case exactly.
    """
    M = moments_of_sum(branches, nu, count - 1)
    for n in range(count):
        ln = (n * (math.log(beta_bar) - math.log(z_bar))
              + sp.gammaln(mu_bar) - sp.gammaln(mu_bar + n / alpha_bar))
        M[n] *= math.exp(ln)
    return M


def _jacobi_from_moments(M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix (diagonal a, off-diagonal b) of M_0..M_{2k}, read off the
    Hankel Cholesky factor; the k-point Gauss rule is _quadrature(a, b, M_0)."""
    H = np.array([[M[i + j] for j in range(k + 1)] for i in range(k + 1)])
    R = np.linalg.cholesky(H).T  # raises LinAlgError if not PD
    d = np.diag(R)
    a = R[:k, 1:k + 1].diagonal() / d[:k]
    a[1:] -= R[:k - 1, 1:k].diagonal() / d[:k - 1]
    return a, d[1:k] / d[:k - 1]


def _quadrature(a: np.ndarray, b: np.ndarray, m0: float):
    """(weights, nodes) of the Jacobi matrix tridiag(b, a, b) of mass m0."""
    nodes, vecs = np.linalg.eigh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    return m0 * vecs[0] ** 2, nodes


def _radau_member(a: np.ndarray, b: np.ndarray, tau: float, m0: float):
    """The k-node rule with a node at tau matching M_0..M_{2k-2} (Golub 1973):
    (J_{k-1} - tau I) delta = b_{k-1}^2 e_{k-1}; last diagonal tau + delta."""
    d = a.copy()
    d[-1] = tau
    if b.size:
        J = np.diag(a[:-1] - tau) + np.diag(b[:-1], 1) + np.diag(b[:-1], -1)
        d[-1] += np.linalg.solve(J, np.eye(b.size)[-1] * b[-1] ** 2)[-1]
    return _quadrature(d, b, m0)


def _leading_terms(branches, nu: float, dominant: bool = False):
    """(ln c0, phi) of the sum density's small-y terms c0 y^(phi-1).

    One term per index tuple of the branches' terms k y^(phi-1): their
    Laplace transforms k Gamma(phi) s^-phi multiply, so c0 = prod k
    Gamma(phi) / Gamma(sum phi).  ``dominant`` keeps each branch's terms
    within 1e-9 of its smallest phi, and so every tuple near the smallest sum.
    """
    terms = [_power_leading_terms(b, nu) for b in branches]
    if not terms:
        raise DomainError("need at least one branch")
    if dominant:
        terms = [(lnk[phi <= phi.min() + 1e-9], phi[phi <= phi.min() + 1e-9])
                 for lnk, phi in terms]
    ln_c = reduce(np.add.outer,
                  [lnk + sp.gammaln(phi) for lnk, phi in terms]).ravel()
    phi = reduce(np.add.outer, [phi for _, phi in terms]).ravel()
    return ln_c - sp.gammaln(phi), phi


def _leading_coefficient_target(branches, nu: float, alpha_bar: float,
                                mu_bar: float, beta_bar: float,
                                z_bar: float) -> float:
    """Target for Sum_m c_m omega_m^{-a*mu_bar} from small-y matching.

    The exact sum density behaves like C0 * y^{a*mu_bar - 1} (_leading_terms).
    """
    (ln_c0,), _ = _leading_terms(branches, nu)
    am = alpha_bar * mu_bar
    return math.exp(ln_c0 + am * math.log(z_bar) + sp.gammaln(mu_bar)
                    - math.log(alpha_bar) - am * math.log(beta_bar))


def solve_mixture_nodes(branches, nu: float, psi: int = 4) -> MixtureNodes:
    """Fit the Psi-node mixture to the i.n.i.d. alpha-mu (form B) sum.

    The Gauss rule of the normalized sum moments matches M_0..M_{2k-1}; every
    k-node measure matching M_0..M_{2k-2} is the Gauss-Radau rule with one
    prescribed node tau (Golub 1973), with positive weights.  The exact
    leading coefficient picks tau: a Brent root of its log gap, bracketed by
    moving the smallest Gauss node toward 0 or the largest outward.
    """
    if psi < 2:
        raise DomainError("psi must be >= 2")
    if psi > 6:
        raise DomainError("psi > 6 is numerically unsupported")
    _check_finite("solve_mixture_nodes", nu=nu)
    branches = list(branches)
    if not all(isinstance(b, AlphaMuB) for b in branches):
        raise DomainError("solve_mixture_nodes expects AlphaMuB branches")
    alphas = {b.alpha for b in branches}
    if max(alphas) - min(alphas) > 1e-12 * max(alphas):
        raise DomainError("branches must share a common alpha")

    alpha = branches[0].alpha
    ab = alpha / 2.0
    mu_bar = sum(b.mu for b in branches)
    beta_bar = math.exp(sp.gammaln(mu_bar + 1.0 / ab) - sp.gammaln(mu_bar))
    z_bar = nu**2 * sum(b.x_mean**2 for b in branches)

    M = _normalized_sum_moments(branches, nu, 2 * psi + 1, mu_bar, ab,
                                beta_bar, z_bar)
    target = _leading_coefficient_target(branches, nu, ab, mu_bar, beta_bar,
                                         z_bar)
    if len(branches) == 1:
        # A one-point measure (M_n = M_1^n): every Hankel matrix is singular.
        return MixtureNodes(psi=1, nodes=((1.0, float(M[1])),), alpha_bar=ab,
                            mu_bar=mu_bar, beta_bar=beta_bar, z_bar=z_bar,
                            residual=abs(M[1] ** (-ab * mu_bar) - target)
                            / max(1.0, target))

    from scipy import optimize  # here, so that importing thzdiv skips it
    # From psi down, a failed Cholesky, a bad Gauss start, no bracket or a
    # missed gate each tries one node fewer.
    am = ab * mu_bar
    for k in range(psi, 0, -1):
        try:
            a, b = _jacobi_from_moments(M, k)
        except np.linalg.LinAlgError:
            continue
        weights, nodes = _quadrature(a, b, M[0])
        recon = np.array([np.sum(weights * nodes**n) for n in range(2 * k)])
        if not (np.all(nodes > 0) and np.all(weights > 0)
                and np.max(np.abs(recon - M[: 2 * k])) < 1e-6):
            continue

        def gap(tau):
            c, w = _radau_member(a, b, tau, M[0])
            return math.log(np.sum(c * w ** -am) / target)

        # gap -> +inf as the smallest node falls to 0; moving the largest
        # node outward lowers it toward the (k-1)-node Gauss rule's value.
        t, f, step = nodes[0], gap(nodes[0]), 0.5
        if f >= 0:
            t, f, step = nodes[-1], gap(nodes[-1]), 2.0
        for _ in range(60):
            t1, f1 = t * step, gap(t * step)
            if (f1 >= 0) != (f >= 0):
                break
            t, f = t1, f1
        else:
            continue
        tau = optimize.brentq(gap, min(t, t1), max(t, t1), xtol=1e-300)
        c, w = _radau_member(a, b, tau, M[0])
        r = np.append([np.sum(c * w**n) for n in range(2 * k - 1)],
                      np.sum(c * w ** -am)) - np.append(M[: 2 * k - 1], target)
        res = float(np.max(np.abs(r)) / max(1.0, abs(target)))
        if res <= 1e-7 and np.all(w > 0):
            return MixtureNodes(psi=k, nodes=tuple(zip(c.tolist(), w.tolist())),
                                alpha_bar=ab, mu_bar=mu_bar, beta_bar=beta_bar,
                                z_bar=z_bar, residual=res)
    raise EvaluationError(
        f"no mixture of at most {psi} nodes meets the moment system "
        "within 1e-7")


def inid_sum_power_pdf(nodes: MixtureNodes, y):
    """Mixture-approximation PDF of the i.n.i.d. alpha-mu power sum."""
    am = nodes.alpha_bar * nodes.mu_bar
    lam, om = nodes.lambdas, nodes.omegas

    def f(x):
        x = x[:, None]
        return np.sum(
            lam * x ** (am - 1.0)
            * np.exp(-(nodes.beta_bar * x / (om * nodes.z_bar))
                     ** nodes.alpha_bar),
            axis=1)

    return _eval_pointwise(y, f, lam, am - 1.0)


# --- sum density by Laplace inversion ----------------------------------------

# Euler triples (A, n, m), n + m = 49; the second, with the smaller
# discretization error e^-A, checks the first to _EULER_TOL (|f(y)| + 1/E[Y]).
_EULER, _EULER_TOL = ((18.4, 38, 11), (24.0, 34, 15)), 1e-6
# Agreement of two DE levels, of the largest |L|.  It bounds the coarser
# level; the finer one returned has about twice its digits.
_LAPLACE_RTOL = 1e-7


def _branch_laplace(model, nu: float, sigma: np.ndarray, step: float, k):
    """Table of E[exp(-s X)] of one branch's power X, s = sigma_j + i step k.

    The DE rule of ber_exact_quadrature over power_pdf, x_c = 10/max(min
    sigma, 1/E[X]), to one tolerance at the scale of the largest |L|, L(min
    sigma).  Below the first node x_0, f is its small-x terms c x^(phi-1)
    and exp(-s x) is 1: they add sum c x_0^phi / phi.
    """
    lo = sigma.min()
    x_c = 10.0 / max(lo, 1.0 / envelope_moment(model, nu, 2.0))
    lnk, phi = _power_leading_terms(model, nu)
    ln_x0 = math.log(x_c) - 0.5 * math.pi * math.sinh(4.5)

    def integrand(t: np.ndarray) -> np.ndarray:
        x = x_c * np.exp(0.5 * math.pi * np.sinh(t))
        keep = (x > 0.0) & (x * lo < 40.0)  # beyond, exp(-x sigma) < e^-40
        out = np.zeros((t.size, sigma.size, k.size), dtype=complex)
        x, dx = x[keep], x[keep] * 0.5 * math.pi * np.cosh(t[keep])
        w = power_pdf(model, nu, x) * dx
        out[keep] = ((w[:, None] * np.exp(-np.outer(x, sigma)))[:, :, None]
                     * (np.exp(-1j * step * x)[:, None] ** k)[:, None, :])
        return out

    return np.sum(np.exp(lnk + phi * ln_x0) / phi) + _nested_trapezoid(
        integrand, -4.5, 4.5, 18, _LAPLACE_RTOL, 8, normwise=True)


def sum_power_pdf(branches, nu: float, y):
    """PDF of the power sum of independent branches at y >= 0.

    Inverts prod_l L_l(s) by the Euler algorithm (Abate & Whitt, ORSA J.
    Comput. 7(1), 1995): f(y) ~ e^(A/2)/y [Re F(s_0)/2 + sum_k>=1 (-1)^k
    Re F(s_k)], s_k = (A + 2 pi i k)/(2y), partial sums n..n+m averaged with
    binomial weights.  Each y is computed alone, so an array call equals one
    call per point.  A failed check raises AccuracyError; below 0 gives 0.
    """
    _check_finite("sum_power_pdf", nu=nu)
    branches = list(branches)
    ln_c0, phi = _leading_terms(branches, nu)
    floor = 1.0 / sum(envelope_moment(b, nu, 2.0) for b in branches)
    big_a, k = np.array(_EULER)[:, 0], np.arange(50)
    sign = (-1.0) ** k * np.where(k == 0, 0.5, 1.0)

    def at(v: float) -> float:
        lap = math.prod(_branch_laplace(b, nu, big_a / (2 * v), math.pi / v, k)
                        ** branches.count(b) for b in dict.fromkeys(branches))
        f, check = (math.exp(a / 2) / v * np.dot(sp.comb(m, np.arange(m + 1)),
                                                 np.cumsum(sign * row.real)[n:])
                    / 2.0**m for row, (a, n, m) in zip(lap, _EULER))
        gap = abs(f - check) / (abs(f) + floor)
        if not gap <= _EULER_TOL:
            raise AccuracyError(f"Euler inversion at y={v:g}: error estimate "
                                f"{gap:.2e} of |f| + 1/E[Y]", achieved=gap)
        return max(f, 0.0)

    return _eval_pointwise(y, lambda ys: np.array([at(float(v)) for v in ys]),
                           np.exp(ln_c0), phi - 1.0)
