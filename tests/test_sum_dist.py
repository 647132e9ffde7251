"""Distribution of the MRC statistic ||h||^2: series, mixture, inversion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from thzdiv import cli, specfun, sum_dist
from thzdiv.ber_analytic import ber_alpha_mu_gen_foxh
from thzdiv.channel_models import (
    AlphaMuA,
    AlphaMuB,
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    envelope_moment,
    mg_preset,
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
    iid_sum_power_pdf,
    inid_sum_power_pdf,
    moments_of_sum,
    solve_mixture_nodes,
    sum_power_pdf,
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
        # The true sum density, by Laplace inversion (2.0e-8 apart here).
        L = 2
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=L)
        ys = np.linspace(0.25, 4.0, 8)
        np.testing.assert_allclose(iid_sum_power_pdf(s, ys),
                                   sum_power_pdf([INDOOR_1] * L, 1.0, ys),
                                   rtol=1e-6, atol=0.0)

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

    @staticmethod
    def assert_float_values_within_tolerance(s, ys):
        # A float value the error bound accepts must be within rtol = 1e-9
        # (plus the 1e-14 floor) of the high-precision evaluation.
        vals = iid_sum_power_pdf(s, ys)
        ref = np.array([_series_mp(s, float(y)) for y in ys])
        assert np.all(np.abs(vals - ref) <= 1e-9 * np.abs(ref) + 1e-14)

    @pytest.mark.parametrize("preset", ["indoor_1", "indoor_2"])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_float_values_keep_the_promised_tolerance(self, preset, L):
        # Near y ~ 4-7 the alternating series cancels, and further out the
        # points go to mpmath.
        s = IidAlphaMuSum.build(alpha_mu_a_preset(preset), 1.0, L)
        self.assert_float_values_within_tolerance(
            s, np.linspace(0.005, 7.0, 300) * L)

    @settings(max_examples=4, deadline=None)
    @given(alpha=st.floats(1.0, 6.0), mu=st.floats(0.3, 3.0),
           L=st.integers(1, 3))
    def test_float_values_keep_the_tolerance_on_any_model(self, alpha, mu, L):
        # Up to the tail cutoff, beyond which every point is 0.
        s = IidAlphaMuSum.build(AlphaMuA(alpha=alpha, mu=mu), 1.0, L)
        w_max = (sum_dist._TAIL_CUTOFF / sum_dist._tail_exponent(s, 1.0)) ** (
            1.0 / s.alpha_bar)
        self.assert_float_values_within_tolerance(
            s, np.linspace(0.005, 1.0, 60) * w_max)

    def test_grid_equals_points_bit_for_bit(self):
        # Horner's rule runs point by point, so a grid gives the bits of
        # one point at a time.
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        ys = np.linspace(1e-3, 4.5, 391)
        grid = iid_sum_power_pdf(s, ys)
        each = np.array([iid_sum_power_pdf(s, float(y)) for y in ys])
        assert np.array_equal(grid.view(np.uint64), each.view(np.uint64))

    def test_grid_memory_is_bounded(self):
        # Horner's rule holds a few arrays of the grid's size: 10 000
        # points peak near 1.1 MB; a (terms x points) table would not fit.
        s = IidAlphaMuSum.build(INDOOR_1, nu=1.0, l_branches=2)
        ys = np.linspace(1e-3, 3.0, 10_000)
        tracemalloc.start()
        try:
            iid_sum_power_pdf(s, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

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
        # Against the true sum density the mixture is 1.2e-6 off here.
        branches = [alpha_mu_b_preset("indoor_1"),
                    alpha_mu_b_preset("indoor_1", x_mean=0.8)]
        ys = np.linspace(0.2, 2.5, 6)
        np.testing.assert_allclose(inid_sum_power_pdf(nodes, ys),
                                   sum_power_pdf(branches, 1.0, ys),
                                   rtol=1e-5, atol=0.0)

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


def _iid_form_b_nodes(preset, copies):
    return solve_mixture_nodes([alpha_mu_b_preset(preset)] * copies, nu=1.0)


class TestFoxHLadder:
    def test_bench_profile_stops_on_a_coarse_level(self, monkeypatch):
        # A ladder that starts at 512 intervals evaluated 4 117 kernel
        # points on this curve; every abscissa group converged on its first
        # halving.
        nodes = solve_mixture_nodes([alpha_mu_b_preset("indoor_1", x_mean=x)
                                     for x in (0.8, 1.0, 1.25)], nu=1.0)
        kernel, points = specfun._log_mellin_kernel, []

        def counted(params, s):
            points.append(np.size(s))
            return kernel(params, s)

        monkeypatch.setattr(specfun, "_log_mellin_kernel", counted)
        ber_alpha_mu_gen_foxh(nodes, 10 ** (np.arange(-5.0, 31.0, 5.0) / 10))
        assert sum(points) <= 0.6 * 4117

    def test_finest_step_is_t_max_over_2_to_the_22(self, monkeypatch):
        # One abscissa group here needs 131 073 nodes, 2^17 intervals.  A
        # coarser start takes more halvings, never a coarser finest step.
        rule, ladders = specfun._nested_trapezoid, []

        def spy(f, a, b, n, rtol, levels, *args):
            ladders.append(n * 2 ** levels)
            return rule(f, a, b, n, rtol, levels, *args)

        monkeypatch.setattr(specfun, "_nested_trapezoid", spy)
        u = 10 ** (np.arange(-100.0, 61.0, 2.5) / 10)
        ber = ber_alpha_mu_gen_foxh(_iid_form_b_nodes("indoor_2", 8), u, 0.5)
        assert np.all((ber > 0.0) & (ber < 0.5))
        assert np.all(np.diff(ber) < 0.0)
        assert set(ladders) == {2 ** 22}

    def test_a_fine_level_is_evaluated_in_slices(self):
        # At 2^16 intervals a group of 72 z evaluated whole holds a
        # (32 768 x 72) table per temporary, and the call peaked at 55 MB.
        u = 10 ** (np.arange(-100.0, 61.0, 5.0) / 10)
        nodes = _iid_form_b_nodes("indoor_1", 8)
        tracemalloc.start()
        try:
            ber = ber_alpha_mu_gen_foxh(nodes, u, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all((ber > 0.0) & (ber < 0.5))
        assert peak < 40e6


def _alpha2(mu, theta):
    """alpha = 2 branch whose power is Gamma(mu, scale theta)."""
    ln_x = 0.5 * (math.log(theta * mu) + 2.0 * math.lgamma(mu + 0.5)
                  - math.lgamma(mu + 1.0) - math.lgamma(mu))
    return AlphaMuB(2.0, mu, x_mean=math.exp(ln_x))


class TestSumPowerPdf:
    @pytest.mark.parametrize("mus", [(1.3, 0.7), (0.15, 0.15)],
                             ids=["smooth", "singular"])
    def test_gamma_sum_closed_form(self, mus):
        # alpha = 2 powers of equal Omega/mu are Gamma(mu_l, theta), and
        # their sum is Gamma(mu_1 + mu_2, theta): no shared code path.  At
        # mu = 0.15 the transform needs the small-x piece below its rule.
        from scipy import stats

        branches = [_alpha2(mu, 0.7) for mu in mus]
        assert envelope_moment(branches[1], 1.0, 2.0) == pytest.approx(
            mus[1] * 0.7, rel=1e-12)
        ys = 0.7 * np.array([0.01, 0.5, 2.0, 5.0])
        np.testing.assert_allclose(sum_power_pdf(branches, 1.0, ys),
                                   stats.gamma.pdf(ys, sum(mus), scale=0.7),
                                   rtol=1e-7, atol=0.0)

    def test_mass_property(self):
        # A trapezoid in ln y converges geometrically on this density.
        u = np.linspace(-14.0, 3.0, 61)
        y = np.exp(u)
        mass = np.trapezoid(sum_power_pdf([INDOOR_1] * 2, 1.0, y) * y, u)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_needs_input(self):
        with pytest.raises(DomainError):
            sum_power_pdf([], 1.0, 1.0)
        with pytest.raises(DomainError, match="nu"):
            sum_power_pdf([INDOOR_1], math.nan, 1.0)

    @pytest.mark.parametrize("config", [1, 2, 3, 4])
    def test_mg_pair_matches_the_convolution_integral(self, config):
        # f(y) = int_0^y f1(x) f1(y - x) dx by adaptive quadrature.  From the
        # mean up, the inversion holds 1e-6 of f; below it MG pairs have
        # valleys between component modes, 1e-6 of 1/E[Y] deep, where it
        # holds 1e-6 of |f| + 1/E[Y], the tolerance of its own check.
        model = mg_preset(f"mg_config{config}")
        branches = [model] * 2
        m1 = envelope_moment(model, 1.0, 2.0)  # the sum's mean and sd
        mean = 2.0 * m1
        sd = math.sqrt(2.0 * (envelope_moment(model, 1.0, 4.0) - m1 * m1))
        comps = list(zip(np.log(model.alphas / 2.0), model.shapes - 2.0,
                         model.rates))

        def f(x):
            # The envelope density sum a r^(b-1) e^(-z r) at r = sqrt(x),
            # over 2r: written here in floats, for speed.
            ln_r, r = 0.5 * math.log(x), math.sqrt(x)
            return sum(math.exp(lna + e * ln_r - z * r) for lna, e, z in comps)

        def conv(y):
            return integrate.quad(lambda x: f(x) * f(y - x), 0.0, y,
                                  epsrel=1e-12, epsabs=0.0, limit=500)[0]

        ys = np.linspace(mean, mean + 5.0 * sd, 6)
        np.testing.assert_allclose(sum_power_pdf(branches, 1.0, ys),
                                   [conv(y) for y in ys], rtol=1e-6, atol=0.0)
        ys = np.geomspace(0.01 * mean, mean, 6)
        ref = np.array([conv(y) for y in ys])
        gap = np.abs(sum_power_pdf(branches, 1.0, ys) - ref)
        assert np.all(gap <= 1e-6 * (ref + 1.0 / mean))

    def test_forced_miss_is_one_accuracy_line(self, tmp_path, monkeypatch,
                                              capsys):
        import json

        monkeypatch.setattr(sum_dist, "_EULER_TOL", 0.0)
        scn = tmp_path / "mg.json"
        scn.write_text(json.dumps({
            "branches": [{"preset": "mg_config1", "copies": 2}],
            "snr_db": {"start": 0.0, "stop": 10.0, "step": 10.0}}))
        out = tmp_path / "pdf.csv"
        rc = cli.main(["pdf", "--scenario", str(scn), "--points", "3",
                       "--ymin", "1e4", "--ymax", "1e5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert err.startswith("numeric accuracy failure: Euler inversion")
        assert err.count("\n") == 1
