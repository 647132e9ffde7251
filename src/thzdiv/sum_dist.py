"""Distributions of the MRC combiner power ||h||^2 = sum_j |h_j|^2.

Three representations are provided:

* the exact series for the sum of i.i.d. alpha-mu powers (delta-coefficient
  recursion), evaluated adaptively with a high-precision fallback where the
  alternating series cancels catastrophically in float64;
* a Psi-node mixture approximation for the i.n.i.d. alpha-mu (form B) sum:
  the Gauss-Radau rule (Golub 1973) on the normalized sum moments whose
  prescribed node, a Brent root, meets the exact small-argument leading
  coefficient;
* a numerical-convolution oracle used to validate both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import special as sp

from .channel_models import (AlphaMuA, AlphaMuB, _check_finite,
                             _eval_pointwise, _power_leading_terms,
                             envelope_moment)
from .errors import AccuracyError, DomainError, EvaluationError

__all__ = [
    "IidAlphaMuSum",
    "iid_sum_power_pdf",
    "MixtureNodes",
    "solve_mixture_nodes",
    "inid_sum_power_pdf",
    "convolution_oracle",
]


# --- exact i.i.d. series -----------------------------------------------------

# Points whose decay exponent exceeds this bound evaluate to density ~1e-13
# or below and are returned as 0 (see _tail_exponent / _series_mp).
_TAIL_CUTOFF = 30.0

# Accuracy iid_sum_power_pdf promises (see there).
_RTOL, _ATOL = 1e-9, 1e-14

# Float series terms; the high-precision path extends the table up to 4x.
_TRUNCATION = 400
_SERIES_BLOCK = 128  # points per (terms x points) table of the float series


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

    Extends the cached coefficient table (up to 4x _TRUNCATION) when the
    point needs more terms; points beyond the tail cutoff return 0 without
    evaluation.
    """
    import mpmath as mp
    if _tail_exponent(s, w) > _TAIL_CUTOFF:
        return 0.0
    count = _TRUNCATION
    dps = _series_dps(s.alpha_bar, s.l_branches)
    while True:
        coeffs = _mp_coeffs(s.alpha_bar, s.mu, s.l_branches, count)
        with mp.workdps(dps):
            base = mp.mpf(w) ** mp.mpf(s.alpha_bar)
            acc, power, small_streak = mp.mpf(0), mp.mpf(1), 0
            for i, e in enumerate(coeffs):
                term = e * power
                acc += term
                power *= base
                if i > 4 and abs(term) < mp.mpf("1e-30") * abs(acc):
                    small_streak += 1
                    if small_streak >= 3:
                        pref = mp.e**(mp.mpf(s._ln_w_prefactor)
                                      + (s.phi0 - 1.0) * mp.log(mp.mpf(w)))
                        return float(pref * acc)
                else:
                    small_streak = 0
            achieved = float(abs(term) / max(abs(acc), mp.mpf("1e-300")))
        if count >= 4 * _TRUNCATION:
            raise AccuracyError(f"series truncation {count} insufficient "
                                f"at w={w:g}", achieved=achieved)
        count *= 2


def iid_sum_power_pdf(s: IidAlphaMuSum, y):
    """PDF of the i.i.d. alpha-mu power sum at y >= 0 (series evaluation).

    f(y) = g(y/z_bar)/z_bar, g evaluated in float64 with a per-point rounding
    error estimate; points where it exceeds _RTOL*|g| + _ATOL are recomputed
    in mpmath, so the choice is the same at every scale.
    """
    return _eval_pointwise(y, lambda x: _series_float_block(s, x / s.z_bar)
                           / s.z_bar, math.exp(s.ln_prefactor) * s.coeffs[0],
                           s.phi0 - 1.0)


def _series_float_block(s: IidAlphaMuSum, w: np.ndarray) -> np.ndarray:
    pref = math.exp(s._ln_w_prefactor)
    k = np.arange(s.coeffs.size)[:, None] * s.alpha_bar + s.phi0 - 1.0
    vals = np.empty_like(w)
    for i in range(0, w.size, _SERIES_BLOCK):
        blk = w[i:i + _SERIES_BLOCK]
        # Overflow at large w only marks the point for the high-precision path.
        with np.errstate(over="ignore", invalid="ignore"):
            ln_power = k * np.log(blk)
            term = s.coeffs[:, None] * np.exp(ln_power)
            mag = np.abs(term)
            acc = np.add.accumulate(term)
            # exp(k ln w) carries a relative rounding error of about
            # eps*(1 + |k ln w|), so eps * errsum estimates the sum's.
            errsum = np.add.accumulate(mag * (1.0 + np.abs(ln_power)))
            small = mag <= 1e-16 * np.maximum(np.abs(acc), 1e-300)
        # A point's sum stops at its first run of three small terms.
        run = small[2:] & small[1:-1] & small[:-2]
        stop, cols = np.argmax(run, axis=0) + 2, np.arange(blk.size)
        v = pref * acc[stop, cols]
        err = pref * errsum[stop, cols] * 2.2e-16
        need_mp = (~run.any(axis=0) | (err > _RTOL * np.abs(v) + _ATOL)
                   | ~np.isfinite(v))
        v[need_mp] = [_series_mp(s, float(x)) for x in blk[need_mp]]
        vals[i:i + _SERIES_BLOCK] = v
    return vals


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


# --- numerical convolution oracle --------------------------------------------

@dataclass(frozen=True)
class SumDensityTable:
    """Tabulated density on midpoint grid; callable via linear interpolation."""

    y: np.ndarray
    f: np.ndarray
    step: float

    def __call__(self, x):
        return np.interp(x, self.y, self.f, left=0.0, right=0.0)

    @property
    def mass(self) -> float:
        return float(self.f.sum() * self.step)


def _support_bound(pdf, tail: float = 1e-7) -> float:
    """Upper integration bound with tail mass below ``tail``.

    Judged by the mass on [y_max, 4 y_max] rather than by driving the total
    toward 1, which an integrable y = 0 singularity would frustrate.
    """
    y_max = 1.0
    for _ in range(40):
        y = np.linspace(y_max, 4.0 * y_max, 2049)
        tail_mass = np.trapezoid(pdf(y), y)
        if tail_mass < 0.1 * tail:
            return y_max
        y_max *= 2.0
    raise EvaluationError("could not bracket the density support")


def convolution_oracle(power_pdfs, y_max: float | None = None,
                       n: int = 2**14) -> SumDensityTable:
    """Tabulated density of the sum of independent positive variables.

    Midpoint sampling handles integrable endpoint singularities; iterated
    discrete convolution with linear re-interpolation keeps all factors on
    the common midpoint grid.
    """
    pdfs = list(power_pdfs)
    if not pdfs:
        raise DomainError("convolution_oracle needs at least one density")
    if y_max is None:
        y_max = sum(_support_bound(p) for p in pdfs)
    h = y_max / n
    centers = (np.arange(n) + 0.5) * h
    tabs = []
    for p in pdfs:
        vals = np.asarray(p(centers), dtype=float)
        mass = vals.sum() * h
        # The midpoint rule slightly undercounts an integrable y = 0
        # singularity; tolerate a deficit well inside the oracle's 1%
        # accuracy target.
        if mass < 0.9995:
            raise EvaluationError(
                f"grid covers only {mass:.6f} of an input density "
                f"(deficit {1.0 - mass:.2e}); increase y_max")
        tabs.append(vals)
    acc = tabs[0]
    for cur in tabs[1:]:
        conv = h * np.convolve(acc, cur)[: n]
        # conv values live on the node grid (k+1)h; the sum of positives
        # vanishes at 0, so anchor the interpolation there.
        node_y = np.concatenate(([0.0], (np.arange(n) + 1.0) * h))
        acc = np.interp(centers, node_y, np.concatenate(([0.0], conv)))
    return SumDensityTable(y=centers, f=acc, step=h)
