"""Distribution of the MRC statistic ||h||^2: series, mixture, oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from thzdiv import sum_dist
from thzdiv.ber_analytic import ber_alpha_mu_gen_foxh
from thzdiv.channel_models import (
    AlphaMuA,
    AlphaMuB,
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    envelope_moment,
    power_pdf,
)
from thzdiv.errors import DomainError
from thzdiv.sum_dist import (
    IidAlphaMuSum,
    _jacobi_from_moments,
    _normalized_sum_moments,
    _quadrature,
    _radau_member,
    _series_mp,
    convolution_oracle,
    iid_sum_power_pdf,
    inid_sum_power_pdf,
    moments_of_sum,
    solve_mixture_nodes,
)

INDOOR_1 = alpha_mu_a_preset("indoor_1")


class TestIidSeries:
    def test_single_branch_equals_power_pdf(self):
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=1)
        for y in (0.02, 0.3, 1.0, 3.0):
            assert iid_sum_power_pdf(s, y) == pytest.approx(
                power_pdf(INDOOR_1, 1.0, y), rel=1e-8)

    def test_normalizes(self):
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        mass, _ = integrate.quad(lambda y: iid_sum_power_pdf(s, y), 0.0, 60.0,
                                 limit=300)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_mean_equals_sum_of_branch_means(self):
        L = 3
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=L)
        mean, _ = integrate.quad(lambda y: y * iid_sum_power_pdf(s, y),
                                 0.0, 80.0, limit=300)
        assert mean == pytest.approx(
            L * envelope_moment(INDOOR_1, 1.0, 2.0), rel=1e-6)

    def test_matches_convolution_oracle(self):
        L = 2
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=L)
        conv = convolution_oracle([lambda y: power_pdf(INDOOR_1, 1.0, y)] * L)
        for y in np.linspace(0.25, 4.0, 8):
            assert iid_sum_power_pdf(s, y) == pytest.approx(
                conv(y), rel=5e-3)

    def test_frozen_value(self):
        # Route-independent spot value (agrees with the convolution oracle).
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        assert iid_sum_power_pdf(s, 1.0) == pytest.approx(
            0.434856362085365, rel=1e-9)

    def test_far_tail_is_zero_not_garbage(self):
        # Regression: the alternating series once returned +/-inf and large
        # negative values around y ~ 14 for L = 3.
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=3)
        y = np.linspace(10.0, 40.0, 61)
        vals = np.atleast_1d(iid_sum_power_pdf(s, y))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("nu", [2.0, 0.04, 8.4e-6])
    def test_nu_scaling(self, nu):
        s1 = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        s2 = IidAlphaMuSum.build(INDOOR_1, nu=nu, l_branches=2)
        # |h| scales by nu, so the power density scales by nu^-2 in value
        # and nu^2 in argument.
        assert iid_sum_power_pdf(s2, nu**2 * 0.9) == pytest.approx(
            iid_sum_power_pdf(s1, 0.9) / nu**2, rel=1e-8)

    def test_one_coefficient_table_for_every_scale(self):
        # The series is written in y/z_bar, so z_hat and nu leave it alone.
        ref = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        s = IidAlphaMuSum.build(alpha_mu_a_preset("indoor_1", z_hat=3.0),
                                nu=0.04, l_branches=2)
        assert s.z_bar == pytest.approx(0.12**2, rel=1e-15)
        assert np.array_equal(s.coeffs, ref.coeffs)

    def test_delta_recursion_base(self):
        # delta_0 = Gamma(alpha_bar * mu)^L by construction, and coeffs[0]
        # scales it by 1/Gamma(phi0) with phi0 = alpha_bar * mu * L.
        s = IidAlphaMuSum.build(AlphaMuA(alpha=2 * 1.726, mu=0.51571),
                                nu=1.0, l_branches=2)
        am = 1.726 * 0.51571
        assert s.coeffs[0] == pytest.approx(
            math.gamma(am) ** 2 / math.gamma(2 * am), rel=1e-12)

    @pytest.mark.parametrize("preset", ["indoor_1", "indoor_2"])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_float_values_keep_the_promised_tolerance(self, preset, L):
        # Near y ~ 4-7 the alternating series cancels; a float value the
        # error estimate accepts must still be within rtol = 1e-9 (plus the
        # 1e-14 floor) of the high-precision evaluation.
        s = IidAlphaMuSum.build(alpha_mu_a_preset(preset), 1.0, L)
        ys = np.linspace(0.05, 12.0, 30) * L / 2
        vals = iid_sum_power_pdf(s, ys)
        ref = np.array([_series_mp(s, float(y)) for y in ys])
        assert np.all(np.abs(vals - ref) <= 1e-9 * np.abs(ref) + 1e-14)

    def test_term_table_equals_the_term_loop_bit_for_bit(self):
        # Reference: the per-term loop with done/streak masks that the
        # (terms x points) table replaced; its sums are the table's.
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        w = np.linspace(1e-3, 4.5, 2 * sum_dist._SERIES_BLOCK + 7) / s.z_bar
        acc, errsum = np.zeros_like(w), np.zeros_like(w)
        done, streak = np.zeros_like(w, dtype=bool), np.zeros_like(w, int)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, e in enumerate(s.coeffs):
                ln_power = (i * s.alpha_bar + s.phi0 - 1.0) * np.log(w)
                term = e * np.exp(ln_power)
                acc = np.where(done, acc, acc + term)
                errsum = np.where(done, errsum, errsum + np.abs(term)
                                  * (1.0 + np.abs(ln_power)))
                small = np.abs(term) <= 1e-16 * np.maximum(np.abs(acc),
                                                           1e-300)
                streak = np.where(small, streak + 1, 0)
                done |= streak >= 3
        pref = math.exp(s._ln_w_prefactor)
        ref, err = pref * acc, pref * errsum * 2.2e-16
        float_ok = done & (err <= 1e-9 * np.abs(ref) + 1e-14) & np.isfinite(ref)
        out = sum_dist._series_float_block(s, w)
        assert float_ok.sum() > 0.9 * w.size
        assert np.array_equal(out[float_ok].view(np.uint64),
                              ref[float_ok].view(np.uint64))

    def test_grid_equals_points_bit_for_bit(self):
        # Each point's sum is its own column of the term table, so a grid of
        # several blocks gives the bits of one point at a time.
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        ys = np.linspace(1e-3, 4.5, 3 * sum_dist._SERIES_BLOCK + 7)
        grid = iid_sum_power_pdf(s, ys)
        each = np.array([iid_sum_power_pdf(s, float(y)) for y in ys])
        assert np.array_equal(grid.view(np.uint64), each.view(np.uint64))

    def test_grid_memory_is_bounded(self):
        # One (terms x points) table over all 10 000 points would take
        # about 214 MB; blocks of _SERIES_BLOCK points bound it.
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        ys = np.linspace(1e-3, 3.0, 10_000)
        tracemalloc.start()
        try:
            iid_sum_power_pdf(s, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_rejects_bad_build(self):
        with pytest.raises(DomainError):
            IidAlphaMuSum.build(INDOOR_1, nu=0.0, l_branches=2)
        with pytest.raises(DomainError):
            IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=0)
        with pytest.raises(DomainError):  # (z_hat nu)^2 underflows to 0
            IidAlphaMuSum.build(INDOOR_1, nu=1e-200, l_branches=2)


@pytest.fixture(scope="module")
def nodes():
    branches = [alpha_mu_b_preset("indoor_1"),
                alpha_mu_b_preset("indoor_1", x_mean=0.8)]
    return solve_mixture_nodes(branches, nu=1.0)


class TestMixtureNodes:
    def test_weights_positive_and_normalized_density(self, nodes):
        assert np.all(nodes.weights > 0.0)
        mass, _ = integrate.quad(lambda y: inid_sum_power_pdf(nodes, y),
                                 0.0, np.inf, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_moment_matching(self, nodes):
        # The mixture must reproduce the analytic moments of the sum.
        branches = [alpha_mu_b_preset("indoor_1"),
                    alpha_mu_b_preset("indoor_1", x_mean=0.8)]
        moments = moments_of_sum(branches, 1.0, 3)
        for n in (1, 2, 3):
            num, _ = integrate.quad(
                lambda y: y**n * inid_sum_power_pdf(nodes, y),
                0.0, np.inf, limit=300)
            assert num == pytest.approx(moments[n], rel=1e-4)

    def test_matches_convolution_oracle(self, nodes):
        branches = [alpha_mu_b_preset("indoor_1"),
                    alpha_mu_b_preset("indoor_1", x_mean=0.8)]
        conv = convolution_oracle(
            [lambda y, b=b: power_pdf(b, 1.0, y) for b in branches])
        for y in np.linspace(0.2, 2.5, 6):
            assert inid_sum_power_pdf(nodes, y) == pytest.approx(
                conv(y), rel=0.01)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, 0.0])
    def test_rejects_bad_nu_at_once(self, monkeypatch, nu):
        monkeypatch.setattr(sum_dist, "_normalized_sum_moments", None)
        branches = [alpha_mu_b_preset("indoor_1", x_mean=x) for x in (1, 2)]
        with pytest.raises(DomainError, match="nu"):
            solve_mixture_nodes(branches, nu=nu)

    def test_requires_common_alpha(self):
        mixed = [alpha_mu_b_preset("indoor_1"), alpha_mu_b_preset("indoor_2")]
        with pytest.raises(DomainError):
            solve_mixture_nodes(mixed, nu=1.0)

    def test_distinct_mu_supported(self):
        branches = [AlphaMuB(alpha=3.0, mu=0.6), AlphaMuB(alpha=3.0, mu=1.1)]
        nodes = solve_mixture_nodes(branches, nu=1.0)
        mass, _ = integrate.quad(lambda y: inid_sum_power_pdf(nodes, y),
                                 0.0, np.inf, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-4)

    STEP_DOWN = [AlphaMuB(alpha=2.0, mu=m, x_mean=x) for m, x in zip(
        (1.3, 0.95, 0.62, 0.87, 1.57), (0.8, 1.05, 0.51, 1.75, 0.73))]

    def test_missed_gate_tries_a_smaller_psi(self, monkeypatch):
        # The Radau root meets this system with six nodes to 5.0e-13.
        nodes = solve_mixture_nodes(self.STEP_DOWN, nu=1.0, psi=6)
        assert nodes.psi == 6
        assert nodes.residual <= 1e-12
        # Six-node members whose mass is 1e-6 off still hold a root but miss
        # the 1e-7 gate on M_0, so the solve must step down to five nodes.
        member = sum_dist._radau_member

        def heavy_at_six(a, b, tau, m0):
            c, w = member(a, b, tau, m0)
            return (c * (1.0 + 1e-6) if a.size == 6 else c), w

        monkeypatch.setattr(sum_dist, "_radau_member", heavy_at_six)
        nodes = solve_mixture_nodes(self.STEP_DOWN, nu=1.0, psi=6)
        assert nodes.psi == 5
        assert nodes.residual <= 1e-12

    def test_missed_bracket_tries_a_smaller_psi(self, monkeypatch):
        # A six-node family whose members all equal the Gauss rule holds no
        # root, so the solve must step down to five nodes.
        member = sum_dist._radau_member

        def no_root_at_six(a, b, tau, m0):
            return _quadrature(a, b, m0) if a.size == 6 else member(
                a, b, tau, m0)

        monkeypatch.setattr(sum_dist, "_radau_member", no_root_at_six)
        nodes = solve_mixture_nodes(self.STEP_DOWN, nu=1.0, psi=6)
        assert nodes.psi == 5
        assert nodes.residual <= 1e-12


class TestMixtureSolveProperty:
    @settings(max_examples=20, deadline=None)
    @given(preset=st.sampled_from(["indoor_1", "indoor_2"]),
           x_means=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=4))
    def test_valid_mixture_and_ber(self, preset, x_means):
        nodes = solve_mixture_nodes(
            [alpha_mu_b_preset(preset, x_mean=x) for x in x_means], nu=1.0)
        assert np.all(nodes.weights > 0.0) and np.all(nodes.omegas > 0.0)
        assert nodes.weights.sum() == pytest.approx(1.0, rel=0.0, abs=1e-9)
        bers = [ber_alpha_mu_gen_foxh(nodes, u) for u in (1, 10, 100, 1000)]
        assert all(0.0 < p <= 0.5 for p in bers)
        assert np.all(np.diff(bers) < 0.0)


class TestRadauMember:
    """The Gauss-Radau family on the normalised moments of a form-B sum."""

    BRANCHES = [alpha_mu_b_preset("indoor_1", x_mean=x)
                for x in (0.8, 1.0, 1.25)]

    @pytest.fixture(scope="class")
    def moments(self):
        # The solve's normalisation, rebuilt here so that the moments do
        # not depend on the solve.
        ab = self.BRANCHES[0].alpha / 2.0
        mb = sum(b.mu for b in self.BRANCHES)
        bb = math.exp(math.lgamma(mb + 1.0 / ab) - math.lgamma(mb))
        zb = sum(b.x_mean**2 for b in self.BRANCHES)
        return _normalized_sum_moments(self.BRANCHES, 1.0, 13, mb, ab, bb, zb)

    @staticmethod
    def gauss(M, k):
        # The Hankel Cholesky succeeds here for every k up to 6.
        a, b = _jacobi_from_moments(M, k)
        return a, b, _quadrature(a, b, M[0])

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_member_matches_moments_and_holds_tau(self, moments, k, side):
        a, b, (_, nodes) = self.gauss(moments, k)
        tau = 0.5 * nodes[0] if side == "below" else 2.0 * nodes[-1]
        c, w = _radau_member(a, b, tau, moments[0])
        recon = np.array([np.sum(c * w**n) for n in range(2 * k - 1)])
        np.testing.assert_allclose(recon, moments[: 2 * k - 1], rtol=1e-12,
                                   atol=0.0)
        assert np.min(np.abs(w - tau)) <= 1e-12 * tau
        assert np.all(c > 0.0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_member_at_a_gauss_node_is_the_gauss_rule(self, moments, k):
        a, b, (weights, nodes) = self.gauss(moments, k)
        for tau in (nodes[0], nodes[-1]):
            c, w = _radau_member(a, b, tau, moments[0])
            np.testing.assert_allclose(c, weights, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(w, nodes, rtol=1e-12, atol=0.0)


# The form-B systems of the benchmark: indoor_1 at L = 2, 3, 4 and indoor_2
# at L = 3, at unit scale.
BENCH_PROFILES = [("indoor_1", (0.8, 1.25)), ("indoor_1", (0.8, 1.0, 1.25)),
                  ("indoor_1", (0.8, 0.9, 1.1, 1.25)),
                  ("indoor_2", (0.8, 1.0, 1.25))]


@pytest.mark.parametrize("preset,x_means", BENCH_PROFILES)
def test_quadrature_matches_the_tridiagonal_eigensolver(monkeypatch, preset,
                                                        x_means):
    # numpy's dense eigh serves the solve; scipy's tridiagonal solver is
    # only the reference.  Every Jacobi matrix and Radau member the solve
    # forms passes through _quadrature and is checked against it.
    from scipy.linalg import eigh_tridiagonal
    quadrature, sizes = sum_dist._quadrature, []

    def checked(a, b, m0):
        weights, nodes = quadrature(a, b, m0)
        ref_nodes, vecs = eigh_tridiagonal(a, b)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(weights, m0 * vecs[0] ** 2, rtol=1e-14,
                                   atol=0.0)
        sizes.append(a.size)
        return weights, nodes

    monkeypatch.setattr(sum_dist, "_quadrature", checked)
    nodes = solve_mixture_nodes(
        [alpha_mu_b_preset(preset, x_mean=x) for x in x_means], nu=1.0)
    # One Gauss rule, then the Radau members of the bracket and the root.
    assert sizes.count(nodes.psi) > 2


def _sweep_systems():
    """Twelve bench profiles and 48 random common-alpha form-B systems."""
    profiles = ((0.8, 1.25), (0.8, 1.0, 1.25), (0.8, 0.9, 1.1, 1.25))
    systems = [[alpha_mu_b_preset(preset, x_mean=scale * x) for x in xs]
               for preset in ("indoor_1", "indoor_2") for xs in profiles
               for scale in (0.9, 1.1)]
    rng = np.random.default_rng(5)
    for _ in range(48):
        n = int(rng.integers(2, 6))
        alpha = float(rng.uniform(1.5, 4.0))
        mus, xs = rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 2.0, n)
        systems.append([AlphaMuB(alpha=alpha, mu=float(m), x_mean=float(x))
                        for m, x in zip(mus, xs)])
    return systems


class TestMixtureSweep:
    def test_every_system_solves_with_four_nodes(self):
        # A log-space Levenberg-Marquardt solve of the same systems stopped
        # above 1e-12 on 14 of them (worst 2.4e-8).
        for i, branches in enumerate(_sweep_systems()):
            nodes = solve_mixture_nodes(branches, nu=1.0)
            assert nodes.psi == 4, i
            assert nodes.residual <= 1e-12, i

    @pytest.mark.parametrize("snr_db, ber", [(0, 0.04422636269901485),
                                             (10, 0.00032249159106123256),
                                             (20, 7.268925591204722e-07)])
    def test_frozen_foxh_values(self, snr_db, ber):
        # Values of a Levenberg-Marquardt solve whose residual was 2.2e-16.
        nodes = solve_mixture_nodes([alpha_mu_b_preset("indoor_1", x_mean=x)
                                     for x in (0.8, 1.0, 1.25)], nu=1.0)
        assert ber_alpha_mu_gen_foxh(nodes, 10 ** (snr_db / 10)) == \
            pytest.approx(ber, rel=1e-12, abs=0.0)


class TestConvolutionOracle:
    def test_gamma_sum_closed_form(self):
        # Sum of two Gamma(k, 1) variables is Gamma(2k, 1): an exact oracle
        # check with no shared code path.
        from scipy import stats

        k = 1.7
        conv = convolution_oracle([lambda y: stats.gamma.pdf(y, k)] * 2,
                                  y_max=60.0)
        for y in (0.5, 2.0, 5.0):
            assert conv(y) == pytest.approx(stats.gamma.pdf(y, 2 * k),
                                            rel=2e-3)

    def test_mass_property(self):
        conv = convolution_oracle([lambda y: power_pdf(INDOOR_1, 1.0, y)] * 2)
        assert conv.mass == pytest.approx(1.0, abs=2e-3)

    def test_needs_input(self):
        with pytest.raises(DomainError):
            convolution_oracle([])
