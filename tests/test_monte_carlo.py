"""Monte Carlo estimator: samplers, statistics, determinism."""

import math

import numpy as np
import pytest

from thzdiv.channel_models import (
    AlphaMuA,
    Scenario,
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    envelope_moment,
    mg_preset,
)
from thzdiv.errors import DomainError
from thzdiv.monte_carlo import (
    BerCurve,
    BerPoint,
    sample_branch_envelope,
    simulate_mrc_ber,
)

RAYLEIGH = AlphaMuA(alpha=2.0, mu=1.0, z_hat=1.0)


def rayleigh_ber(upsilon, g=0.5):
    x = g * upsilon
    return 0.5 * (1.0 - math.sqrt(x / (1.0 + x)))


class TestSamplers:
    @pytest.mark.parametrize("model", [
        alpha_mu_a_preset("indoor_1"),
        alpha_mu_b_preset("indoor_2", x_mean=0.7),
        mg_preset("mg_config1"),
    ], ids=["alpha_mu_a", "alpha_mu_b", "mixture_gamma"])
    def test_sample_moments_match_analytic(self, model):
        stream = np.random.Generator(np.random.PCG64(1))
        n = 400_000
        draws = sample_branch_envelope(model, 1.3, stream, size=n)
        for k in (1.0, 2.0):
            mean = float(np.mean(draws**k))
            ref = envelope_moment(model, 1.3, k)
            sd = float(np.std(draws**k)) / math.sqrt(n)
            assert abs(mean - ref) < 5.0 * sd

    def test_scalar_draw(self):
        stream = np.random.Generator(np.random.PCG64(2))
        val = sample_branch_envelope(RAYLEIGH, 1.0, stream)
        assert isinstance(val, float) and val > 0.0

    def test_rejects_bad_shape(self):
        stream = np.random.Generator(np.random.PCG64(4))
        with pytest.raises(DomainError):
            sample_branch_envelope(RAYLEIGH, 0.0, stream)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_nu_before_drawing(self, nu):
        # No stream: a draw before the check would fail otherwise.
        with pytest.raises(DomainError, match="nu"):
            sample_branch_envelope(RAYLEIGH, nu, None, 10)


@pytest.fixture(scope="module")
def rayleigh_scenario():
    return Scenario(branches=(RAYLEIGH,), g=0.5,
                    snr_grid=(0.5, 2.0, 10.0, 50.0))


class TestSimulation:
    @pytest.mark.parametrize("method", ["conditional_q", "bit_level"])
    def test_rayleigh_within_three_se(self, rayleigh_scenario, method):
        curve = simulate_mrc_ber(rayleigh_scenario, trials=500_000, seed=42,
                                 method=method)
        for pt in curve.points:
            ref = rayleigh_ber(pt.upsilon)
            assert abs(pt.ber - ref) <= 3.0 * pt.se

    def test_conditional_q_variance_reduction(self, rayleigh_scenario):
        cq = simulate_mrc_ber(rayleigh_scenario, trials=100_000, seed=5)
        bl = simulate_mrc_ber(rayleigh_scenario, trials=100_000, seed=5,
                              method="bit_level")
        assert all(a.se < b.se for a, b in zip(cq.points, bl.points))

    def test_vanishing_snr_limit(self):
        sc = Scenario(branches=(RAYLEIGH,) * 2, g=0.5, snr_grid=(1e-9,))
        curve = simulate_mrc_ber(sc, trials=50_000, seed=1)
        assert curve.points[0].ber == pytest.approx(0.5, abs=1e-4)

    def test_deterministic_across_worker_counts(self, rayleigh_scenario):
        a = simulate_mrc_ber(rayleigh_scenario, trials=2_000_000, seed=7,
                             max_workers=1)
        b = simulate_mrc_ber(rayleigh_scenario, trials=2_000_000, seed=7,
                             max_workers=4)
        assert [p.ber for p in a.points] == [p.ber for p in b.points]
        assert [p.se for p in a.points] == [p.se for p in b.points]

    def test_seed_changes_result(self, rayleigh_scenario):
        a = simulate_mrc_ber(rayleigh_scenario, trials=50_000, seed=1)
        b = simulate_mrc_ber(rayleigh_scenario, trials=50_000, seed=2)
        assert any(x.ber != y.ber for x, y in zip(a.points, b.points))

    def test_zero_event_bound_reported(self):
        sc = Scenario(branches=(RAYLEIGH,) * 4, g=0.5, snr_grid=(1e6,))
        curve = simulate_mrc_ber(sc, trials=20_000, seed=3,
                                 method="bit_level")
        assert curve.points[0].ber == 0.0
        assert curve.metadata["zero_event_bounds"][1e6] == pytest.approx(
            3.0 / 20_000)

    def test_metadata(self, rayleigh_scenario):
        curve = simulate_mrc_ber(rayleigh_scenario, trials=25_000, seed=9,
                                 chunk_size=10_000)
        assert curve.metadata["n_chunks"] == 3
        assert curve.metadata["g"] == 0.5
        assert curve.method == "conditional_q"

    def test_validation(self, rayleigh_scenario):
        with pytest.raises(DomainError):
            simulate_mrc_ber(rayleigh_scenario, trials=100, seed=0)
        with pytest.raises(DomainError):
            simulate_mrc_ber(rayleigh_scenario, trials=50_000, seed=0,
                             method="importance")
        empty = Scenario(branches=(RAYLEIGH,), g=0.5)
        with pytest.raises(DomainError):
            simulate_mrc_ber(empty, trials=50_000, seed=0)


class TestCurveContainers:
    def test_point_validation(self):
        with pytest.raises(DomainError):
            BerPoint(1.0, 1.5, 0.0, 10)
        with pytest.raises(DomainError):
            BerPoint(1.0, 0.1, -1.0, 10)
        for upsilon in (math.nan, math.inf, -1.0, 0.0):
            with pytest.raises(DomainError):
                BerPoint(upsilon, 0.1, 0.0, 10)
        for se in (math.nan, math.inf):
            with pytest.raises(DomainError):
                BerPoint(1.0, 0.1, se, 10)
        with pytest.raises(DomainError):
            BerPoint(1.0, math.nan, 0.0, 10)

    def test_curve_requires_ascending_upsilon(self):
        p1 = BerPoint(1.0, 0.1, 0.0, 10)
        p2 = BerPoint(0.5, 0.2, 0.0, 10)
        with pytest.raises(DomainError):
            BerCurve(points=(p1, p2), seed=0, method="exact")

    def test_curve_arrays(self):
        pts = (BerPoint(1.0, 0.1, 0.01, 10), BerPoint(2.0, 0.05, 0.01, 10))
        curve = BerCurve(points=pts, seed=0, method="exact")
        assert curve.upsilons.tolist() == [1.0, 2.0]
        assert curve.bers.tolist() == [0.1, 0.05]
