"""Exact and asymptotic BER routes, cross-checked against each other."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from thzdiv import ber_analytic, specfun
from thzdiv.ber_analytic import (
    AsymptoteLaw,
    AsymptoteSource,
    ber_alpha_mu_gen_asymptote,
    ber_alpha_mu_gen_foxh,
    ber_alpha_mu_iid_asymptote,
    ber_exact_quadrature,
    ber_mg_asymptote,
    ber_mg_mgf,
)
from thzdiv.channel_models import (
    AlphaMuA,
    AlphaMuB,
    Scenario,
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    envelope_moment,
    mg_preset,
    power_pdf,
)
from thzdiv.errors import DomainError, EvaluationError
from thzdiv.mg_laplace import SquaredMgSnr, laplace_exact_series
from thzdiv.monte_carlo import simulate_mrc_ber
from thzdiv.specfun import q_function
from thzdiv.sum_dist import (
    IidAlphaMuSum,
    iid_sum_power_pdf,
    inid_sum_power_pdf,
    solve_mixture_nodes,
    sum_power_pdf,
)

RAYLEIGH = AlphaMuA(alpha=2.0, mu=1.0, z_hat=1.0)


def rayleigh_ber(upsilon, g=0.5):
    """Closed form for one Rayleigh branch with unit mean power."""
    x = g * upsilon
    return 0.5 * (1.0 - math.sqrt(x / (1.0 + x)))


def mg_theta_quad(branches, upsilon, g=1.0):
    """Craig-form MG BER by adaptive quadrature over theta.

    At low SNR the integrand has a layer about sqrt(Upsilon) wide near
    theta = 0; breakpoints from 1e-3 to 100 sqrt(Upsilon) let QUADPACK
    find it.
    """
    snrs = [SquaredMgSnr.from_model(b, upsilon, 1.0) for b in branches]

    def integrand(theta):
        s = g / math.sin(theta) ** 2
        return math.prod(laplace_exact_series(snr, s) for snr in snrs)

    brk = [p for p in np.geomspace(1e-3, 100.0, 11) * math.sqrt(upsilon)
           if p < math.pi / 2]
    val, _ = integrate.quad(integrand, 0.0, math.pi / 2, points=brk,
                            epsabs=0.0, epsrel=1e-12, limit=500)
    return val / math.pi


def mg_closed_form(branches, upsilon, g=1.0):
    """Craig-form MG BER from the Tricomi-U closed form of each transform,
    point by point, under ber_mg_mgf's nested tanh-sinh theta rule."""
    snrs = [SquaredMgSnr.from_model(b, upsilon, 1.0) for b in branches]

    def integrand(t):
        x = math.pi * np.sinh(t)
        p, q = sp.expit(x), sp.expit(-x)
        s = g / np.sin(0.5 * math.pi * p) ** 2
        return (0.5 * math.pi**2 * p * q * np.cosh(t)
                * math.prod(laplace_exact_series(snr, s) for snr in snrs))

    return specfun._nested_trapezoid(integrand, -3.0, 3.0, 12, 1e-9,
                                     8) / math.pi


def quad_oracle(pdf, upsilon, g=0.5):
    """Exact BER by adaptive quadrature in s = ln x, one point at a time.

    The window starts 1e-20 below both the density's scale (x ~ 1) and the
    error law's (x ~ 1/(2 g Upsilon)) and ends where Q underflows.
    """
    scale = 1.0 / (2.0 * g * upsilon)

    def integrand(s):
        x = math.exp(s)
        return float(q_function(math.sqrt(x / scale)) * pdf(x)) * x

    lo, hi = math.log(1e-20 * min(scale, 1.0)), math.log(1500.0 * scale)
    brk = [p for p in (0.0, math.log(scale)) if lo < p < hi]
    val, _ = integrate.quad(integrand, lo, hi, points=brk, epsabs=0.0,
                            epsrel=1e-11, limit=200)
    return val


class TestExactQuadrature:
    @pytest.mark.parametrize("upsilon", [0.2, 2.0, 30.0, 500.0])
    def test_rayleigh_closed_form(self, upsilon):
        pdf = lambda y: power_pdf(RAYLEIGH, 1.0, y)
        assert ber_exact_quadrature(pdf, upsilon, g=0.5) == pytest.approx(
            rayleigh_ber(upsilon), rel=1e-9)

    def test_low_snr_regression(self):
        # Regression: QUADPACK once missed the density mass entirely at low
        # SNR (huge integration window) and returned exactly 0.
        s = IidAlphaMuSum.build(alpha_mu_a_preset("indoor_1"), 1.0, 3)
        val = ber_exact_quadrature(lambda y: iid_sum_power_pdf(s, y), 0.1,
                                   g=0.5)
        assert val == pytest.approx(0.3172969639030704, rel=1e-7)

    def test_frozen_mid_snr_value(self):
        s = IidAlphaMuSum.build(alpha_mu_a_preset("indoor_1"), 1.0, 3)
        val = ber_exact_quadrature(lambda y: iid_sum_power_pdf(s, y), 10.0,
                                   g=0.5)
        assert val == pytest.approx(0.0009205840200195985, rel=1e-7)

    def test_g_and_upsilon_enter_as_product(self):
        pdf = lambda y: power_pdf(RAYLEIGH, 1.0, y)
        a = ber_exact_quadrature(pdf, 8.0, g=0.5)
        b = ber_exact_quadrature(pdf, 4.0, g=1.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_rejects_bad_args(self):
        pdf = lambda y: power_pdf(RAYLEIGH, 1.0, y)
        with pytest.raises(DomainError):
            ber_exact_quadrature(pdf, 0.0)
        with pytest.raises(DomainError):
            ber_exact_quadrature(pdf, 1.0, g=-1.0)
        with pytest.raises(DomainError):
            ber_exact_quadrature(pdf, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("preset,l_branches,step_db", [
        ("indoor_1", 1, 50.0), ("indoor_2", 4, 50.0), (None, 1, 10.0)],
        ids=["indoor_1-L1", "indoor_2-L4", "rayleigh"])
    def test_grid_matches_adaptive_quadrature(self, preset, l_branches,
                                              step_db):
        if preset is None:
            pdf = lambda y: power_pdf(RAYLEIGH, 1.0, y)
        else:
            s = IidAlphaMuSum.build(alpha_mu_a_preset(preset), 1.0,
                                    l_branches)
            pdf = lambda y: iid_sum_power_pdf(s, y)
        grid = 10.0 ** (np.arange(-100.0, 100.1, step_db) / 10.0)
        ref = [quad_oracle(pdf, u) for u in grid]
        assert ber_exact_quadrature(pdf, grid) == pytest.approx(
            ref, rel=1e-9, abs=0.0)

    def test_scalar_mode_agrees_with_grid_mode(self, nodes):
        pdf = lambda y: inid_sum_power_pdf(nodes, y)
        grid = 10.0 ** (np.arange(-100.0, 100.1, 10.0) / 10.0)
        scalars = [ber_exact_quadrature(pdf, u) for u in grid]
        assert all(isinstance(p, float) for p in scalars)
        assert ber_exact_quadrature(pdf, grid) == pytest.approx(
            scalars, rel=1e-12, abs=0.0)


class TestAlphaMuIidAsymptote:
    def test_rayleigh_leading_constant(self):
        # Single Rayleigh branch: BER -> 1/(4 g Upsilon).
        vals, law = ber_alpha_mu_iid_asymptote(RAYLEIGH, 1.0, 1, 100.0, g=0.5)
        assert law.kappa2 == pytest.approx(1.0)
        assert law.kappa1 == pytest.approx(0.5, rel=1e-12)
        assert float(np.atleast_1d(vals)[0]) == pytest.approx(
            0.5 / 100.0, rel=1e-12)

    def test_diversity_exponent_value(self):
        model = alpha_mu_a_preset("indoor_1")
        _, law = ber_alpha_mu_iid_asymptote(model, 1.0, 3, 10.0)
        assert law.kappa2 == pytest.approx(2.6718006822, abs=1e-10)
        assert law.kappa1 == pytest.approx(0.4758708444458062, rel=1e-10)
        assert law.source is AsymptoteSource.ALPHA_MU_IID

    def test_converges_to_exact(self):
        model = alpha_mu_a_preset("indoor_1")
        s = IidAlphaMuSum.build(model, 1.0, 3)
        ratios = []
        for u in (100.0, 1000.0):
            exact = ber_exact_quadrature(lambda y: iid_sum_power_pdf(s, y), u,
                                         g=0.5)
            asym = float(np.atleast_1d(
                ber_alpha_mu_iid_asymptote(model, 1.0, 3, u)[0])[0])
            ratios.append(asym / exact)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[1] == pytest.approx(1.0, abs=5e-4)


@pytest.fixture(scope="module")
def nodes():
    return solve_mixture_nodes([alpha_mu_b_preset("indoor_1")] * 2, 1.0)


class TestFormBFoxH:
    @pytest.mark.parametrize("upsilon", [1.0, 40.0, 2000.0])
    def test_foxh_equals_quadrature(self, nodes, upsilon):
        # Two independent routes to the same number: the closed-form Fox-H
        # expression and direct quadrature over the sum density.
        p_h = ber_alpha_mu_gen_foxh(nodes, upsilon)
        p_q = ber_exact_quadrature(lambda y: inid_sum_power_pdf(nodes, y),
                                   upsilon, g=0.5)
        assert p_h == pytest.approx(p_q, rel=1e-8)

    @pytest.mark.parametrize("preset", ["indoor_1", "indoor_2"])
    @pytest.mark.parametrize("upsilon", [1.0, 40.0, 2000.0])
    def test_single_branch_equals_quadrature(self, preset, upsilon):
        # One branch is its own one-node mixture, so Fox-H is exact.
        model = alpha_mu_b_preset(preset)
        nodes = solve_mixture_nodes([model], 1.0)
        p_q = ber_exact_quadrature(lambda y: power_pdf(model, 1.0, y),
                                   upsilon, g=0.5)
        assert ber_alpha_mu_gen_foxh(nodes, upsilon) == pytest.approx(
            p_q, rel=1e-10, abs=0.0)

    def test_frozen_value(self, nodes):
        # kappa1 and the mixture nodes are solver outputs; freeze them only
        # to the accuracy the moment system pins down.
        assert ber_alpha_mu_gen_foxh(nodes, 40.0) == pytest.approx(
            0.000270781050, rel=1e-6)

    @pytest.mark.parametrize("g", [0.25, 1.0])
    def test_foxh_honours_g(self, nodes, g):
        p_q = ber_exact_quadrature(lambda y: inid_sum_power_pdf(nodes, y),
                                   40.0, g=g)
        assert ber_alpha_mu_gen_foxh(nodes, 40.0, g=g) == pytest.approx(
            p_q, rel=1e-8)

    def test_grid_equals_points(self):
        # One fox_h call over every (node, Upsilon) pair against one call
        # per point; a 2-D grid keeps its shape.
        nodes = solve_mixture_nodes(
            [alpha_mu_b_preset("indoor_1", x_mean=x)
             for x in (0.8, 0.9, 1.1, 1.25)], 1.0)
        u = 10.0 ** (np.linspace(-100.0, 100.0, 60) / 10.0).reshape(6, 10)
        grid = ber_alpha_mu_gen_foxh(nodes, u, g=0.7)
        assert grid.shape == u.shape
        each = [ber_alpha_mu_gen_foxh(nodes, v, g=0.7) for v in u.flat]
        assert all(type(p) is float for p in each)
        np.testing.assert_allclose(grid.ravel(), each, rtol=1e-13, atol=0.0)

    def test_grid_memory_is_bounded(self):
        # fox_h carries at most _FOX_H_BLOCK z per (t, z) table; one table
        # over all 4 x 2001 pairs would take about 86 MB.
        nodes = solve_mixture_nodes(
            [alpha_mu_b_preset("indoor_1", x_mean=x)
             for x in (0.8, 0.9, 1.1, 1.25)], 1.0)
        u = 10.0 ** (np.linspace(-100.0, 100.0, 2001) / 10.0)
        tracemalloc.start()
        try:
            ber_alpha_mu_gen_foxh(nodes, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_asymptote_law(self):
        _, law = ber_alpha_mu_gen_asymptote(
            [alpha_mu_b_preset("indoor_1")] * 2, 1.0, 100.0)
        assert law.kappa2 == pytest.approx(1.7812004548, abs=1e-9)
        assert law.kappa1 == pytest.approx(0.193843558, rel=1e-6)
        assert law.source is AsymptoteSource.ALPHA_MU_GEN

    def test_asymptote_converges(self, nodes):
        exact = ber_alpha_mu_gen_foxh(nodes, 3e4)
        asym = float(np.atleast_1d(ber_alpha_mu_gen_asymptote(
            [alpha_mu_b_preset("indoor_1")] * 2, 1.0, 3e4)[0])[0])
        assert asym / exact == pytest.approx(1.0, abs=2e-3)


@functools.cache
def iid_form_b_and_a(preset, l_branches):
    """(form-B mixture nodes, equivalent form-A series), built once each.

    An i.i.d. form-B sum is exactly the form-A sum with
    z_hat = mu^(1/alpha) x_mean / beta.
    """
    b = alpha_mu_b_preset(preset)
    a = AlphaMuA(alpha=b.alpha, mu=b.mu,
                 z_hat=b.mu ** (1.0 / b.alpha) * b.x_mean / b.beta_param)
    return (solve_mixture_nodes([b] * l_branches, 1.0),
            IidAlphaMuSum.build(a, 1.0, l_branches))


class TestMixtureAgainstSeries:
    @pytest.mark.parametrize("preset", ["indoor_1", "indoor_2"])
    @pytest.mark.parametrize("l_branches", [2, 3, 4])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_iid_foxh_equals_exact_series(self, preset, l_branches, snr_db):
        # Judges the mixture solve by BER, not by node positions: the
        # nodes of a near-degenerate i.i.d. moment system may drift.
        nodes, series = iid_form_b_and_a(preset, l_branches)
        u = 10.0 ** (snr_db / 10.0)
        p_series = ber_exact_quadrature(
            lambda y: iid_sum_power_pdf(series, y), u, g=0.5)
        assert ber_alpha_mu_gen_foxh(nodes, u) == pytest.approx(
            p_series, rel=1e-6, abs=0.0)


MG_SETS = {
    "config1x2": ["mg_config1"] * 2,
    "config1+2": ["mg_config1", "mg_config2"],
    "config3x3": ["mg_config3"] * 3,
    "config2+4": ["mg_config2", "mg_config4"],
}


class TestMgMgf:
    CFG1 = mg_preset("mg_config1")

    def test_frozen_value(self):
        assert ber_mg_mgf([self.CFG1] * 2, 1.0, 2, 0.01, g=1.0) == pytest.approx(
            4.5999097374746705e-05, rel=1e-7)

    def test_matches_direct_quadrature(self):
        # Dual route: Craig-form MGF product vs numeric integration of
        # Q against the sum density by Laplace inversion (2.1e-8 apart).
        u = 0.003
        branches = [self.CFG1] * 2
        direct = ber_exact_quadrature(
            lambda y: sum_power_pdf(branches, 1.0, y), u, g=1.0)
        mgf = ber_mg_mgf(branches, 1.0, 2, u, g=1.0)
        assert mgf == pytest.approx(direct, rel=1e-7)

    def test_closed_form_at_low_snr(self):
        # -40 dB: zeta / sqrt(Upsilon s) reaches about 15, where a residue
        # series diverges; the Tricomi-U closed form holds at every SNR.
        val = ber_mg_mgf([self.CFG1] * 2, 1.0, 2, 1e-4, g=1.0)
        assert 0.0 < val < 0.5
        assert val == pytest.approx(0.0315760441411177, rel=1e-6)

    def test_g_and_upsilon_enter_as_product(self):
        a = ber_mg_mgf([self.CFG1] * 2, 1.0, 2, 0.02, g=1.0)
        b = ber_mg_mgf([self.CFG1] * 2, 1.0, 2, 0.04, g=0.5)
        assert a == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("name", sorted(MG_SETS))
    @pytest.mark.parametrize("snr_db", [-100.0, -90.0, -60.0, 20.0, 60.0])
    def test_matches_adaptive_theta_quadrature(self, name, snr_db):
        branches = [mg_preset(p) for p in MG_SETS[name]]
        u = 10.0 ** (snr_db / 10.0)
        assert ber_mg_mgf(branches, 1.0, len(branches), u) == pytest.approx(
            mg_theta_quad(branches, u), rel=1e-9, abs=0.0)

    def test_equal_branches_share_one_laplace_call(self, monkeypatch):
        # Two equal models that are distinct objects cost one table fill,
        # as one shared object does, and give the same bits.
        calls = []
        table = ber_analytic._laplace_table
        monkeypatch.setattr(ber_analytic, "_laplace_table",
                            lambda m, *a: calls.append(m) or table(m, *a))

        def run(branches):
            calls.clear()
            return ber_mg_mgf(branches, 1.0, 2, 0.1).hex(), len(calls)

        shared = run([mg_preset("mg_config3")] * 2)
        separate = run([mg_preset("mg_config3"), mg_preset("mg_config3")])
        assert separate == shared == (shared[0], 1)

    def test_levels_run_out_is_an_error(self, monkeypatch):
        monkeypatch.setattr(ber_analytic, "_T_LEVELS", 1)
        with pytest.raises(EvaluationError):
            ber_mg_mgf([self.CFG1] * 2, 1.0, 2, 1e-6)

    @pytest.mark.parametrize("names", [
        [f"mg_config{k}"] * 2 for k in (1, 2, 3, 4)] + [
        ["mg_config2", "mg_config3"]], ids=lambda n: "+".join(n))
    def test_matches_the_closed_form(self, names):
        # scipy's hyperu is good to about 1e-8, the tables to about 1e-14.
        branches = [mg_preset(n) for n in names]
        grid = 10.0 ** (np.arange(-100.0, 60.1, 5.0) / 10.0)
        ref = [mg_closed_form(branches, u) for u in grid]
        assert ber_mg_mgf(branches, 1.0, 2, grid) == pytest.approx(
            ref, rel=2e-8, abs=0.0)

    def test_grid_call_equals_point_calls(self):
        branches = [mg_preset("mg_config1"), mg_preset("mg_config4")]
        grid = 10.0 ** (np.arange(-60.0, 40.1, 10.0) / 10.0)
        curve = ber_mg_mgf(branches, 1.0, 2, grid)
        points = [ber_mg_mgf(branches, 1.0, 2, u) for u in grid]
        assert isinstance(points[0], float) and curve.shape == grid.shape
        assert curve == pytest.approx(points, rel=1e-12, abs=0.0)

    def test_grid_memory_is_bounded(self):
        # The theta rule takes 512 points at a time and the table fill 8
        # pieces of 25 s columns: 3.4 MB traced on 10 000 points.
        branches = [mg_preset("mg_config4")] * 3
        grid = 10.0 ** (np.linspace(-100.0, 60.0, 10_000) / 10.0)
        ber_mg_mgf(branches, 1.0, 3, grid[:2])
        tracemalloc.start()
        try:
            bers = ber_mg_mgf(branches, 1.0, 3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.diff(bers) < 0.0)
        assert peak < 8e6

    @settings(max_examples=40, deadline=None)
    @given(preset=st.sampled_from(["mg_config1", "mg_config2", "mg_config3",
                                   "mg_config4"]),
           copies=st.integers(1, 3),
           db_lo=st.floats(-100.0, 59.9),
           gap=st.floats(0.1, 160.0))
    def test_bounded_and_non_increasing(self, preset, copies, db_lo, gap):
        branches = [mg_preset(preset)] * copies
        lo, hi = (ber_mg_mgf(branches, 1.0, copies, 10.0 ** (db / 10.0))
                  for db in (db_lo, min(db_lo + gap, 60.0)))
        assert 0.0 <= hi <= lo <= 0.5


def alpha_mu_transform_mpmath(model, s):
    """E[exp(-s X)] of an alpha-mu branch's power in mpmath at 30 digits.

    With u = (r/c)^alpha, c the envelope scale, L(s) = (1/Gamma(mu)) int
    u^(mu-1) exp(-u - s c^2 u^(2/alpha)) du; u = (knee v)^(1/mu) removes the
    singularity at 0, and knee, where s c^2 u^(2/alpha) reaches 1, keeps
    the integrand's mass near v = 1.
    """
    import mpmath as mp
    with mp.workdps(30):
        a, m = mp.mpf(model.alpha), mp.mpf(model.mu)
        if isinstance(model, AlphaMuA):
            c = mp.mpf(model.z_hat) / m ** (1 / a)
        else:
            c = mp.mpf(model.x_mean) * mp.gamma(m) / mp.gamma(m + 1 / a)
        b = mp.mpf(s) * c**2
        knee = min(1, b ** (-a / 2)) ** m
        val, err = mp.quad(
            lambda v: mp.exp(-(knee * v) ** (1 / m)
                             - b * (knee * v) ** (2 / (a * m))),
            [0, 0.01, 0.1, 1, 10, 100, mp.inf], error=True)
        assert err < 1e-20 * val
        return float(knee * val / mp.gamma(m + 1))


def mg_transform_mpmath(model, s):
    """Sum over components of a 2 Gamma(2b) (4s)^-b U(b, 1/2, c^2/(4s)) at
    unit SNR (G&R 3.462.1), in mpmath at 30 digits."""
    import mpmath as mp
    with mp.workdps(30):
        return float(sum(
            mp.mpf(w) * mp.gamma(beta) * (4 * s) ** (-mp.mpf(beta) / 2)
            * mp.hyperu(mp.mpf(beta) / 2, 0.5, mp.mpf(zeta) ** 2 / (4 * s))
            for w, beta, zeta in zip(model.alphas, model.shapes,
                                     model.rates)))


class TestLaplaceTable:
    """The per-branch tables of ln L(s) that ber_mg_mgf reads."""

    @staticmethod
    def transform(model, s):
        ln_s = np.log(s)
        table = ber_analytic._laplace_table(model, 1.0, ln_s.min(),
                                            ln_s.max(), 62.0)
        return np.exp(table(ln_s))

    @pytest.mark.parametrize("name", ["mg_config1", "mg_config2",
                                      "mg_config3", "mg_config4"])
    def test_matches_mpmath_hyperu(self, name):
        # scipy's hyperu is 5.9e-9 off on mg_config4 at s = 3.16e-4.
        model = mg_preset(name)
        s = np.array([3.16e-4, 5e-3, 0.3, 20.0, 1e3])
        ref = [mg_transform_mpmath(model, v) for v in s]
        assert self.transform(model, s) == pytest.approx(ref, rel=1e-13,
                                                         abs=0.0)

    @pytest.mark.parametrize("family", [AlphaMuA, AlphaMuB])
    @pytest.mark.parametrize("mu", [0.04, 0.05, 0.15, 1.0, 2.5])
    def test_nakagami_closed_form(self, family, mu):
        # alpha = 2: the power is gamma, L = (1 + s Omega / mu)^-mu.  At
        # mu = 0.15 the mass below the DE rule's first node counts; at
        # mu = 0.05 the first nodes x_c e^(-40/phi) underflow to 0, where
        # power_pdf's y = 0 limit would raise; at mu = 0.04 the rule starts
        # later, where k x^(phi-1) is still finite.
        model = family(2.0, mu, 0.7)
        omega = envelope_moment(model, 1.0, 2.0)
        s = np.geomspace(1e-2, 1e20, 200)
        assert self.transform(model, s) == pytest.approx(
            (1.0 + s * omega / mu) ** -mu, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", [mg_preset("mg_config4"),
                                       AlphaMuA(2.0, 0.15, 0.7)],
                             ids=["mg_config4", "nakagami_0.15"])
    def test_density_runs_once_per_node_and_piece(self, model, monkeypatch):
        # A piece's columns share one DE centre, so power_pdf sees each
        # (t node, piece) at most once, not each (t node, column).
        pdf, rule = ber_analytic.power_pdf, ber_analytic._nested_trapezoid
        points, fills = [], []

        def counted_pdf(m, nu, y):
            points.append(np.size(y))
            return pdf(m, nu, y)

        def counted_rule(f, *args):
            fill = [0, 0]
            fills.append(fill)

            def g(t):
                out = f(t)
                fill[0] += t.size       # DE points per column
                fill[1] = out[0].size   # columns
                return out

            return rule(g, *args)

        monkeypatch.setattr(ber_analytic, "power_pdf", counted_pdf)
        monkeypatch.setattr(ber_analytic, "_nested_trapezoid", counted_rule)
        ber_analytic._laplace_table(model, 1.0, math.log(1e-4),
                                    math.log(10.0), 62.0)
        per_column = max(n for n, _ in fills)
        columns = sum(c for _, c in fills)
        pieces = columns / ber_analytic._CHEB_NODES.size
        assert pieces == int(pieces) and pieces > 1
        assert 0 < sum(points) <= per_column * pieces

    @pytest.mark.parametrize("mu", [0.15, 1.0, 2.5])
    def test_outermost_columns_match_nakagami(self, mu):
        # Each piece's first and last Chebyshev columns lie furthest from
        # the DE centre the piece's columns share.
        model = AlphaMuA(2.0, mu, 0.7)
        omega = envelope_moment(model, 1.0, 2.0)
        ln_lo, ln_hi = math.log(1e-2), math.log(1e20)
        table = ber_analytic._laplace_table(model, 1.0, ln_lo, ln_hi, 62.0)
        width = ber_analytic._PIECE
        mid = ln_lo + width * (np.arange(int((ln_hi - ln_lo) // width)) + 0.5)
        edge = 0.5 * width * ber_analytic._CHEB_NODES[[0, -1]]
        s = np.exp(np.add.outer(mid, edge).ravel())
        assert np.exp(table(np.log(s))) == pytest.approx(
            (1.0 + s * omega / mu) ** -mu, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", [alpha_mu_a_preset, alpha_mu_b_preset])
    @pytest.mark.parametrize("preset", ["indoor_1", "indoor_2"])
    def test_matches_mpmath_quad(self, family, preset):
        # alpha != 2 has no closed form; mpmath.quad at 30 digits is the
        # reference (within 4e-16 of the alpha = 2 closed form).
        model = family(preset)
        s = np.array([1e-2, 0.37, 1.0, 31.0, 1e3, 2.2e5, 1e8, 1e12])
        ref = [alpha_mu_transform_mpmath(model, v) for v in s]
        assert self.transform(model, s) == pytest.approx(ref, rel=1e-13,
                                                         abs=0.0)

    def test_mpmath_reference_matches_nakagami(self):
        model = AlphaMuB(2.0, 0.15, 0.7)
        omega = envelope_moment(model, 1.0, 2.0)
        for s in (1e-2, 1.0, 1e3, 1e12):
            assert alpha_mu_transform_mpmath(model, s) == pytest.approx(
                (1.0 + s * omega / 0.15) ** -0.15, rel=1e-15, abs=0.0)


class TestMgfOnAlphaMu:
    @pytest.mark.parametrize("preset", ["indoor_1", "indoor_2"])
    @pytest.mark.parametrize("l_branches", [2, 3])
    def test_form_a_equals_the_delta_series(self, preset, l_branches):
        model = alpha_mu_a_preset(preset)
        series = IidAlphaMuSum.build(model, 1.0, l_branches)
        grid = 10.0 ** (np.arange(-10.0, 30.1, 2.5) / 10.0)
        exact = ber_exact_quadrature(
            lambda y: iid_sum_power_pdf(series, y), grid, g=0.5)
        assert ber_mg_mgf([model] * l_branches, 1.0, l_branches, grid,
                          g=0.5) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu", [0.15, 0.61844, 2.5])
    def test_eight_nakagami_branches_match_the_gamma_craig_integral(self,
                                                                    mu):
        # Eight alpha = 2 branches sum to a gamma power of shape 8 mu, so
        # BER = (1/pi) int (1 + g Upsilon Omega / (mu sin^2))^(-8 mu) dtheta,
        # here in mpmath at 30 digits.  At mu = 0.61844 and 2.5 the delta
        # series' quadrature does not reach its tolerance on these points.
        import mpmath as mp
        model, g = AlphaMuA(2.0, mu, 0.7), 0.5
        omega = envelope_moment(model, 1.0, 2.0)
        grid = 10.0 ** (np.array([-40.0, -15.0, 10.0]) / 10.0)
        ref = []
        with mp.workdps(30):
            for u in grid:
                c = mp.mpf(g * u * omega / mu)
                layer = min(mp.sqrt(c), mp.mpf(0.5))
                ref.append(float(mp.quad(
                    lambda th: (1 + c / mp.sin(th) ** 2) ** (-8 * mp.mpf(mu)),
                    [0, layer / 4, layer, mp.pi / 2]) / mp.pi))
        assert ber_mg_mgf([model] * 8, 1.0, 8, grid, g=g) == pytest.approx(
            ref, rel=1e-12, abs=0.0)

    def test_form_b_true_sum_within_3_se_of_monte_carlo(self, capsys):
        # x_mean ratio 4, where the psi = 4 mixture of Eq. 23 is furthest
        # from the true sum; the test reports that gap, it does not bound it.
        branches = [alpha_mu_b_preset("indoor_2", x_mean=x)
                    for x in (0.5, 2.0)]
        grid = 10.0 ** (np.array([0.0, 5.0, 10.0]) / 10.0)
        true = ber_mg_mgf(branches, 1.0, 2, grid, g=0.5)
        mixture = ber_alpha_mu_gen_foxh(solve_mixture_nodes(branches, 1.0),
                                        grid)
        mc = simulate_mrc_ber(Scenario(branches=tuple(branches), g=0.5,
                                       snr_grid=tuple(grid)),
                              trials=4_000_000, seed=7)
        ses = np.array([p.se for p in mc.points])
        z_true = (np.array([p.ber for p in mc.points]) - true) / ses
        z_mix = (np.array([p.ber for p in mc.points]) - mixture) / ses
        with capsys.disabled():
            print(f"\nform B x_mean 0.5, 2.0 at 0, 5, 10 dB: mgf "
                  f"{np.round(z_true, 2)} SE, mixture {np.round(z_mix, 2)} "
                  f"SE, |mixture/mgf - 1| = {np.abs(mixture / true - 1)}")
        assert np.all(np.abs(z_true) <= 3.0)


class TestMgAsymptote:
    CFG1 = mg_preset("mg_config1")
    CFG2 = mg_preset("mg_config2")

    def test_iid_diversity_law(self):
        _, law = ber_mg_asymptote([self.CFG1] * 2, 1.0, 1.0, g=1.0,
                                  dominant_only=True)
        assert law.kappa2 == pytest.approx(4.417045104, abs=1e-12)
        assert law.kappa1 == pytest.approx(2.4778534380468427e-12, rel=1e-9)
        assert law.source is AsymptoteSource.MG_IID

    def test_inid_diversity_law(self):
        _, law = ber_mg_asymptote([self.CFG1, self.CFG2], 1.0, 1.0, g=1.0)
        # (min beta of config 1 + min beta of config 2) / 2
        assert law.kappa2 == pytest.approx(4.085232282, abs=1e-12)
        assert law.kappa1 == pytest.approx(3.298357358551723e-11, rel=1e-9)
        assert law.source is AsymptoteSource.MG_INID

    def test_full_sum_close_to_dominant_term(self):
        # Components with large beta are multiplied by zeta^beta ~ 1e-18:
        # the dominant tuple carries essentially all of the asymptote.
        u = 1.0
        full = float(np.atleast_1d(
            ber_mg_asymptote([self.CFG1] * 2, 1.0, u, g=1.0)[0])[0])
        dom = float(np.atleast_1d(
            ber_mg_asymptote([self.CFG1] * 2, 1.0, u, g=1.0,
                             dominant_only=True)[0])[0])
        assert full == pytest.approx(dom, rel=1e-9)

    def test_converges_to_exact_at_high_snr(self):
        ratios = []
        for u in (1.0, 100.0):
            exact = ber_mg_mgf([self.CFG1] * 2, 1.0, 2, u, g=1.0)
            asym = float(np.atleast_1d(
                ber_mg_asymptote([self.CFG1] * 2, 1.0, u, g=1.0,
                                 dominant_only=True)[0])[0])
            ratios.append(asym / exact)
        assert ratios[1] < ratios[0]
        assert ratios[1] == pytest.approx(1.0, abs=0.05)


class TestAsymptoteLaw:
    @pytest.mark.parametrize("route", ["form_a", "form_b", "mg"])
    @pytest.mark.parametrize("g", [0.25, 1.0, 3.0])
    def test_kappa1_scales_with_g(self, route, g):
        # Q(sqrt(2 g Upsilon y)) makes Upsilon and g enter as a product.
        law_at = {
            "form_a": lambda g: ber_alpha_mu_iid_asymptote(
                alpha_mu_a_preset("indoor_1"), 1.0, 2, 1.0, g=g)[1],
            "form_b": lambda g: ber_alpha_mu_gen_asymptote(
                [alpha_mu_b_preset("indoor_1")] * 2, 1.0, 1.0, g=g)[1],
            "mg": lambda g: ber_mg_asymptote(
                [mg_preset("mg_config1"), mg_preset("mg_config3")], 1.0, 1.0,
                g=g)[1],
        }[route]
        half, law = law_at(0.5), law_at(g)
        assert law.kappa2 == half.kappa2
        assert law.kappa1 == pytest.approx(
            half.kappa1 * (2.0 * g) ** -half.kappa2, rel=1e-13)


class TestLeadingTermOracles:
    """The one leading-term law against the formulas it replaced."""

    @pytest.mark.parametrize("preset,x_means", [
        ("indoor_1", (0.8, 1.25)),
        ("indoor_1", (0.8, 1.0, 1.25)),
        ("indoor_1", (0.8, 0.9, 1.1, 1.25)),
        ("indoor_2", (0.5, 2.0)),
    ])
    def test_form_b_law_equals_the_mixture_law(self, preset, x_means):
        # The fitted mixture density starts as (sum_m Lambda_m)
        # y^(alpha_bar mu_bar - 1); its solve pins that coefficient.
        branches = [alpha_mu_b_preset(preset, x_mean=x) for x in x_means]
        nodes = solve_mixture_nodes(branches, 1.0)
        am = nodes.alpha_bar * nodes.mu_bar
        kappa1 = math.exp(ber_analytic._ln_kappa1(
            math.log(nodes.lambdas.sum()), am, 0.5))
        _, law = ber_alpha_mu_gen_asymptote(branches, 1.0, 1.0)
        assert law.kappa1 == pytest.approx(kappa1, rel=1e-9, abs=0.0)
        assert law.kappa2 == pytest.approx(am, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("l_branches", [1, 2, 3, 4])
    def test_form_a_law_equals_the_series_prefactor(self, l_branches):
        # The delta series starts as exp(ln_prefactor) coeffs[0] y^(phi0-1).
        model = alpha_mu_a_preset("indoor_1")
        s = IidAlphaMuSum.build(model, 1.0, l_branches)
        kappa1 = math.exp(ber_analytic._ln_kappa1(
            s.ln_prefactor + math.log(s.coeffs[0]), s.phi0, 0.5))
        _, law = ber_alpha_mu_iid_asymptote(model, 1.0, l_branches, 1.0)
        assert law.kappa1 == pytest.approx(kappa1, rel=1e-13, abs=0.0)
        assert law.kappa2 == s.phi0

    def test_mg_dominant_law_equals_the_full_sum_law(self):
        branches = [mg_preset(f"mg_config{i}") for i in (1, 2, 3)]
        u = np.array([1.0, 1e2, 1e4])
        dom, dom_law = ber_mg_asymptote(branches, 1.0, u, dominant_only=True)
        full, full_law = ber_mg_asymptote(branches, 1.0, u)
        assert dom_law == full_law
        assert full == pytest.approx(dom, rel=1e-12, abs=0.0)


NODES_1 = solve_mixture_nodes([alpha_mu_b_preset("indoor_1")], 1.0)
RAYLEIGH_PDF = functools.partial(power_pdf, RAYLEIGH, 1.0)
ROUTES = {
    "exact": lambda u, g: ber_exact_quadrature(RAYLEIGH_PDF, u, g=g),
    "foxh": lambda u, g: ber_alpha_mu_gen_foxh(NODES_1, u, g=g),
    "mgf": lambda u, g: ber_mg_mgf([mg_preset("mg_config1")], 1.0, 1, u,
                                   g=g),
}
BAD_ARGS = {"u-nan": (math.nan, 0.5), "g-nan": (10.0, math.nan),
            "g-inf": (10.0, math.inf), "g-zero": (10.0, 0.0),
            "g-negative": (10.0, -1.0)}


@pytest.mark.parametrize("route,case", [
    (r, c) for r in ROUTES for c in BAD_ARGS] + [
    ("exact", "grid-nan"), ("foxh", "grid-nan"), ("mgf", "grid-nan")])
def test_rejects_bad_upsilon_or_g_at_once(monkeypatch, route, case):
    # A NaN fails every comparison, so each check is written to fail on it;
    # the error comes before any quadrature runs, with no warning.
    u, g = BAD_ARGS.get(case, (np.array([10.0, math.nan]), 0.5))
    monkeypatch.setattr(ber_analytic, "_nested_trapezoid", None)
    monkeypatch.setattr(specfun, "_nested_trapezoid", None)
    with pytest.raises(DomainError):
        ROUTES[route](u, g)


class TestHelpers:
    def test_asymptote_law_callable(self):
        law = AsymptoteLaw(kappa1=2.0, kappa2=1.5,
                           source=AsymptoteSource.FITTED)
        assert float(law(4.0)) == pytest.approx(2.0 * 4.0**-1.5)
        with pytest.raises(DomainError):
            AsymptoteLaw(kappa1=0.0, kappa2=1.0,
                         source=AsymptoteSource.FITTED)
