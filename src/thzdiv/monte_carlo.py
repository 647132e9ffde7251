"""Reproducible Monte Carlo estimation of MRC-BPSK bit error rate.

Branch envelopes are drawn through exact gamma-variate transforms of each
fading family; the receiver statistic depends on ||h|| only, so phases are
never sampled (MRC combining collapses the vector channel to ||h|| x + w).

Two estimators are provided:

* ``bit_level``     -- transmit equiprobable bits, add Gaussian noise,
  decide by sign, count errors (convention-independent ground truth).
* ``conditional_q`` -- average Q(sqrt(2 g Upsilon ||h||^2)) over channel
  draws (variance-reduced; the default).

Trials are split into fixed-size chunks; chunk k draws from a stream
derived from ``SeedSequence(seed, spawn_key=(k,))``, so results do not
depend on the worker count and identical (seed, trials, chunk partition)
yield bit-identical curves.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel_models import (AlphaMuA, AlphaMuB, MixtureGamma, Scenario,
                             _check_finite)
from .errors import DomainError
from .specfun import q_function

__all__ = [
    "BerPoint",
    "BerCurve",
    "sample_branch_envelope",
    "simulate_mrc_ber",
]

DEFAULT_CHUNK_SIZE = 1_000_000
_MIN_TRIALS = 10_000
_WORKER_ENV = "THZDIV_MAX_WORKERS"


@dataclass(frozen=True)
class BerPoint:
    upsilon: float
    ber: float
    se: float
    trials: int

    def __post_init__(self):
        if not (0.0 <= self.ber <= 1.0) or self.se < 0.0 or self.trials < 1:
            raise DomainError("BerPoint requires ber in [0,1], se >= 0, trials >= 1")


@dataclass(frozen=True)
class BerCurve:
    points: tuple[BerPoint, ...]
    seed: int
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        ups = [p.upsilon for p in pts]
        if any(b <= a for a, b in zip(ups, ups[1:])):
            raise DomainError("BerCurve points must ascend in upsilon")

    @property
    def upsilons(self) -> np.ndarray:
        return np.array([p.upsilon for p in self.points])

    @property
    def bers(self) -> np.ndarray:
        return np.array([p.ber for p in self.points])

    @property
    def ses(self) -> np.ndarray:
        return np.array([p.se for p in self.points])


def sample_branch_envelope(model, nu: float, stream: np.random.Generator,
                           size=None):
    """Draw scaled envelope amplitudes |h| = nu |h_f| from a branch model."""
    _check_finite("sample_branch_envelope", nu=nu)
    if isinstance(model, AlphaMuA):
        g = stream.standard_gamma(model.mu, size)
        return nu * model.z_hat * (g / model.mu) ** (1.0 / model.alpha)
    if isinstance(model, AlphaMuB):
        g = stream.standard_gamma(model.mu, size)
        return nu * (model.x_mean / model.beta_param) * g ** (1.0 / model.alpha)
    if isinstance(model, MixtureGamma):
        n = 1 if size is None else int(size)
        comp = stream.choice(model.n_components, size=n, p=model.weights)
        out = np.empty(n)
        for i, (_, b, z) in enumerate(model.components):
            sel = comp == i
            k = int(sel.sum())
            if k:
                out[sel] = stream.standard_gamma(b, k) / z
        out *= nu
        return float(out[0]) if size is None else out
    raise TypeError(f"unknown branch model {type(model)!r}")


def _chunk_sizes(trials: int, chunk_size: int) -> list[int]:
    full, rem = divmod(trials, chunk_size)
    sizes = [chunk_size] * full
    if rem:
        sizes.append(rem)
    return sizes


def _run_chunk(scenario: Scenario, seed: int, chunk_index: int, n: int,
               method: str, grid: np.ndarray):
    """Per-point statistics of one chunk: (sum, sum of squares) or counts."""
    ss = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    stream = np.random.Generator(np.random.PCG64(ss))
    nu = scenario.nu
    s2 = np.zeros(n)
    for model in scenario.branches:
        h = sample_branch_envelope(model, nu, stream, size=n)
        s2 += h * h
    if method == "conditional_q":
        sums = np.empty(len(grid))
        sqs = np.empty(len(grid))
        for j, u in enumerate(grid):
            q = q_function(np.sqrt(2.0 * scenario.g * u * s2))
            sums[j] = q.sum()
            sqs[j] = (q * q).sum()
        return sums, sqs
    noise = stream.standard_normal(n)
    counts = np.empty(len(grid), dtype=np.int64)
    for j, u in enumerate(grid):
        counts[j] = int(np.count_nonzero(
            noise < -np.sqrt(2.0 * scenario.g * u * s2)))
    return counts


def simulate_mrc_ber(scenario: Scenario, trials: int, seed: int,
                     method: str = "conditional_q",
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     max_workers: int | None = None) -> BerCurve:
    """Estimate BER over the scenario's SNR grid; deterministic in (seed, trials)."""
    if trials < _MIN_TRIALS:
        raise DomainError(f"simulate_mrc_ber requires trials >= {_MIN_TRIALS}")
    if method not in ("bit_level", "conditional_q"):
        raise DomainError("method must be 'bit_level' or 'conditional_q'")
    if not scenario.snr_grid:
        raise DomainError("scenario has an empty snr_grid")
    grid = np.array(scenario.snr_grid)

    sizes = _chunk_sizes(trials, chunk_size)
    if max_workers is None:
        max_workers = int(os.environ.get(_WORKER_ENV, "0")) or (os.cpu_count() or 1)
    max_workers = max(1, min(max_workers, len(sizes)))

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(_run_chunk, scenario, seed, k, n, method, grid)
                   for k, n in enumerate(sizes)]
        results = [f.result() for f in futures]

    points = []
    zero_bounds = {}
    if method == "conditional_q":
        # Reduce in chunk order so the float sums are partition-deterministic.
        sums = np.zeros(len(grid))
        sqs = np.zeros(len(grid))
        for s, q in results:
            sums += s
            sqs += q
        mean = sums / trials
        var = np.maximum(sqs / trials - mean * mean, 0.0)
        se = np.sqrt(var / trials)
        for u, p, e in zip(grid, mean, se):
            points.append(BerPoint(float(u), float(p), float(e), trials))
    else:
        counts = np.zeros(len(grid), dtype=np.int64)
        for c in results:
            counts += c
        for u, k in zip(grid, counts):
            p = k / trials
            se = math.sqrt(p * (1.0 - p) / trials)
            if k == 0:
                zero_bounds[float(u)] = 3.0 / trials  # one-sided 95% bound
            points.append(BerPoint(float(u), float(p), float(se), trials))

    meta = {"chunk_size": chunk_size, "n_chunks": len(sizes), "g": scenario.g}
    if zero_bounds:
        meta["zero_event_bounds"] = zero_bounds
    return BerCurve(points=tuple(points), seed=seed, method=method,
                    metadata=meta)
