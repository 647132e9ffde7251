"""Fading models, THz link budget, and single-branch densities/moments.

Three small-scale fading families describe one diversity branch:

* ``AlphaMuA``   -- alpha-mu distribution parameterized by the alpha-root
  mean value Z-hat (indoor THz links).
* ``AlphaMuB``   -- alpha-mu distribution parameterized by the envelope
  mean x-bar (indoor THz links, i.n.i.d. analysis).
* ``MixtureGamma`` -- weighted mixture of gamma densities (outdoor THz).

The deterministic amplitude scale nu combines transmit power, antenna
gains, and the spreading/molecular-absorption path loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy import special as sp

from .errors import DomainError

__all__ = [
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
]

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class AlphaMuA:
    """alpha-mu envelope model, Z-hat (alpha-root-mean) parameterization."""

    alpha: float
    mu: float
    z_hat: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.mu <= 0 or self.z_hat <= 0:
            raise DomainError("AlphaMuA requires alpha, mu, z_hat > 0")


@dataclass(frozen=True)
class AlphaMuB:
    """alpha-mu envelope model parameterized by the mean x_mean = E|h_f|.

    ``beta_param`` is the derived constant Gamma(mu + 1/alpha)/Gamma(mu).
    """

    alpha: float
    mu: float
    x_mean: float = 1.0
    beta_param: float = field(init=False)

    def __post_init__(self):
        if self.alpha <= 0 or self.mu <= 0 or self.x_mean <= 0:
            raise DomainError("AlphaMuB requires alpha, mu, x_mean > 0")
        beta = math.exp(sp.gammaln(self.mu + 1.0 / self.alpha) - sp.gammaln(self.mu))
        object.__setattr__(self, "beta_param", beta)


@dataclass(frozen=True)
class MixtureGamma:
    """Mixture-of-gamma envelope model: components of (weight, shape, rate)."""

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        comps = tuple((float(w), float(b), float(z)) for w, b, z in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise DomainError("MixtureGamma needs at least one component")
        # Written so that NaN fails every comparison and is rejected.
        if not all(0 < w <= 1 and 0 < b < math.inf and 0 < z < math.inf
                   for w, b, z in comps):
            raise DomainError("MixtureGamma requires w in (0,1] and finite "
                              "beta > 0, zeta > 0")
        if abs(sum(w for w, _, _ in comps) - 1.0) > 1e-9:
            raise DomainError("MixtureGamma weights must sum to 1 (within 1e-9)")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _, _ in self.components])

    @property
    def shapes(self) -> np.ndarray:
        return np.array([b for _, b, _ in self.components])

    @property
    def rates(self) -> np.ndarray:
        return np.array([z for _, _, z in self.components])

    @property
    def alphas(self) -> np.ndarray:
        """Per-component shorthand w_i * zeta_i^beta_i / Gamma(beta_i)."""
        w, b, z = self.weights, self.shapes, self.rates
        return w * np.exp(b * np.log(z) - sp.gammaln(b))


BranchModel = Union[AlphaMuA, AlphaMuB, MixtureGamma]


@dataclass(frozen=True)
class LinkBudget:
    """Deterministic THz link parameters yielding the amplitude scale nu.

    With ``normalized=True`` the scale is nu = 1, which is how SNR-swept
    scenarios are normally run.
    """

    f: float = 0.142e12  # Hz
    d: float = 20.0  # m
    kabs: float = 0.0  # 1/m
    rho: float = 2.0  # path-loss exponent, measurement best fit
    pt: float = 1.0  # W
    gt: float = 1.0  # linear
    gr: float = 1.0  # linear
    normalized: bool = True

    def __post_init__(self):
        pos = (self.f, self.d, self.rho, self.pt, self.gt, self.gr)
        if any(v <= 0 for v in pos) or self.kabs < 0:
            raise DomainError("LinkBudget physical fields must be positive (kabs >= 0)")


@dataclass(frozen=True)
class Scenario:
    """Unit of work for a BER computation: branches, link, g, SNR grid."""

    branches: tuple[BranchModel, ...]
    link: LinkBudget = LinkBudget()
    g: float = 0.5
    snr_grid: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        grid = tuple(float(u) for u in self.snr_grid)
        object.__setattr__(self, "snr_grid", grid)
        if len(self.branches) < 1:
            raise DomainError("Scenario needs at least one branch")
        if self.g <= 0:
            raise DomainError("Scenario requires g > 0")
        if grid and (any(u <= 0 for u in grid) or any(
                b <= a for a, b in zip(grid[:-1], grid[1:]))):
            raise DomainError("snr_grid must be strictly ascending and positive")

    @property
    def l_branches(self) -> int:
        return len(self.branches)

    @property
    def nu(self) -> float:
        return branch_scale_nu(self.link)


def path_loss_amplitude(f: float, d: float, kabs: float = 0.0, rho: float = 2.0) -> float:
    """Free-space THz path-loss amplitude (c/(4 pi f d))^(rho/2) e^(-kabs d/2)."""
    if f <= 0 or d <= 0:
        raise DomainError("path_loss_amplitude requires f > 0 and d > 0")
    if kabs < 0 or rho <= 0:
        raise DomainError("path_loss_amplitude requires kabs >= 0 and rho > 0")
    try:
        spread = (SPEED_OF_LIGHT / (4.0 * math.pi * f * d)) ** (rho / 2.0)
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"path_loss_amplitude: (c/(4 pi f d))^(rho/2) leaves "
                          f"the float range at f = {f:g}, d = {d:g}, "
                          f"rho = {rho:g}") from exc
    return spread * math.exp(-0.5 * kabs * d)


def branch_scale_nu(link: LinkBudget) -> float:
    """Amplitude scale nu = sqrt(Pt Gt Gr) * h_p (1 in normalized mode)."""
    if link.normalized:
        return 1.0
    hp = path_loss_amplitude(link.f, link.d, link.kabs, link.rho)
    return math.sqrt(link.pt * link.gt * link.gr) * hp


def _boundary_value(coef, exponent) -> float:
    """y = 0 value of sum_i coef_i y^exponent_i (arrays or scalars).

    Positive exponents contribute 0 and zero exponents their coefficient;
    a negative exponent makes the density diverge at y = 0.
    """
    coef, exponent = np.broadcast_arrays(coef, exponent)
    if np.any(exponent < 0.0):
        raise DomainError("density diverges at y = 0")
    return float(np.sum(coef[exponent == 0.0]))


def _eval_pointwise(y, positive_fn, coef, exponent):
    """Evaluate a density on y >= 0: a float for a scalar y, else an array.

    ``positive_fn`` maps an array of y > 0 to density values; at y = 0 the
    density is the limit of its local form sum_i coef_i y^exponent_i.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("density argument must be nonnegative")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        out[pos] = positive_fn(arr[pos])
    if not np.all(pos):
        out[~pos] = _boundary_value(coef, exponent)
    return float(out[0]) if scalar else out


def _alpha_mu_scale(model) -> float:
    """Scale s of the alpha-mu envelope density shared by forms A and B,
    alpha x^(alpha mu - 1) exp(-(x/s)^alpha) / (s^(alpha mu) Gamma(mu)):
    s = z_hat / mu^(1/alpha) for form A and x_mean / beta for form B."""
    if isinstance(model, AlphaMuA):
        return model.z_hat / model.mu ** (1.0 / model.alpha)
    if isinstance(model, AlphaMuB):
        return model.x_mean / model.beta_param
    raise TypeError(f"unknown branch model {type(model)!r}")


def envelope_pdf(model: BranchModel, y):
    """PDF of the small-scale fading envelope |h_f| at y >= 0."""
    if isinstance(model, MixtureGamma):
        al, b, z = model.alphas, model.shapes, model.rates

        def f(x):
            x = x[:, None]
            return np.sum(al * np.exp((b - 1.0) * np.log(x) - z * x), axis=1)

        return _eval_pointwise(y, f, al, b - 1.0)

    sc, a, m = _alpha_mu_scale(model), model.alpha, model.mu
    lncoef = math.log(a) - a * m * math.log(sc) - sp.gammaln(m)
    e = a * m - 1.0
    return _eval_pointwise(
        y, lambda x: np.exp(lncoef + e * np.log(x) - (x / sc) ** a),
        math.exp(lncoef), e)


def _power_leading_terms(model: BranchModel, nu: float):
    """(ln k, phi) arrays of power_pdf's small-y terms k y^(phi-1): one per
    MG component (phi = beta/2), one per alpha-mu branch (phi = alpha mu/2).
    """
    if isinstance(model, MixtureGamma):
        b = model.shapes
        return np.log(model.alphas) - math.log(2.0) - b * math.log(nu), 0.5 * b
    # |h| = nu |h_f| is alpha-mu with scale nu * s, and y = |h|^2.
    sc, a, m = nu * _alpha_mu_scale(model), model.alpha, model.mu
    lnk = math.log(a) - a * m * math.log(sc) - sp.gammaln(m) - math.log(2.0)
    return np.array([lnk]), np.array([0.5 * a * m])


def power_pdf(model: BranchModel, nu: float, y):
    """PDF of the scaled channel power |h|^2 = (nu |h_f|)^2 at y >= 0."""
    if nu <= 0:
        raise DomainError("power_pdf requires nu > 0")
    lnk, phi = _power_leading_terms(model, nu)
    if isinstance(model, MixtureGamma):
        tail = lambda x: (model.rates / nu) * np.sqrt(x)
    else:
        sc, a = nu * _alpha_mu_scale(model), model.alpha
        tail = lambda x: (np.sqrt(x) / sc) ** a

    def f(x):
        x = x[:, None]
        return np.sum(np.exp(lnk + (phi - 1.0) * np.log(x) - tail(x)), axis=1)

    return _eval_pointwise(y, f, np.exp(lnk), phi - 1.0)


def envelope_moment(model: BranchModel, nu: float, k: float) -> float:
    """k-th moment E[|h|^k] of the scaled envelope |h| = nu |h_f|, k >= 0."""
    if k < 0:
        raise DomainError("envelope_moment requires k >= 0")
    if k == 0:
        return 1.0
    if isinstance(model, MixtureGamma):
        w, b, z = model.weights, model.shapes, model.rates
        terms = w * np.exp(sp.gammaln(b + k) - sp.gammaln(b) - k * np.log(z))
        return float(nu**k * terms.sum())
    sc, a, m = _alpha_mu_scale(model), model.alpha, model.mu
    return math.exp(k * math.log(nu * sc) + sp.gammaln(m + k / a) - sp.gammaln(m))


# --- presets from published THz measurements ---------------------------------

ALPHA_MU_PRESETS: dict[str, tuple[float, float]] = {
    "indoor_1": (3.45388, 0.51571),
    "indoor_2": (2.92801, 0.61844),
}

MG_PRESETS: dict[str, tuple[tuple[float, float, float], ...]] = {
    "mg_config1": (
        (0.67540627, 15.2709327, 0.069986341),
        (0.32459373, 4.417045104, 0.153163953),
    ),
    "mg_config2": (
        (0.512500204, 3.75341946, 0.159416427),
        (0.487499796, 22.59894871, 0.054461913),
    ),
    "mg_config3": (
        (0.536820771, 11.86214023, 0.073313171),
        (0.319060454, 34.27672813, 0.036198297),
        (0.144118775, 3.511663936, 0.155541075),
    ),
    "mg_config4": (
        (0.382437165, 3.363382854, 0.158117222),
        (0.366850269, 20.56338721, 0.046248736),
        (0.250712566, 65.00282197, 0.021761466),
    ),
}


def alpha_mu_a_preset(name: str, z_hat: float = 1.0) -> AlphaMuA:
    alpha, mu = ALPHA_MU_PRESETS[name]
    return AlphaMuA(alpha=alpha, mu=mu, z_hat=z_hat)


def alpha_mu_b_preset(name: str, x_mean: float = 1.0) -> AlphaMuB:
    alpha, mu = ALPHA_MU_PRESETS[name]
    return AlphaMuB(alpha=alpha, mu=mu, x_mean=x_mean)


def mg_preset(name: str) -> MixtureGamma:
    return MixtureGamma(components=MG_PRESETS[name])


def list_presets() -> dict[str, dict]:
    """All named presets with their raw parameters (for the CLI)."""
    out: dict[str, dict] = {}
    for name, (alpha, mu) in ALPHA_MU_PRESETS.items():
        out[name] = {"family": "alpha_mu", "alpha": alpha, "mu": mu}
    for name, comps in MG_PRESETS.items():
        out[name] = {
            "family": "mixture_gamma",
            "w": [c[0] for c in comps],
            "beta": [c[1] for c in comps],
            "zeta": [c[2] for c in comps],
        }
    return out
