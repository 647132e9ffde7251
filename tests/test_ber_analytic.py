"""Exact and asymptotic BER routes, cross-checked against each other."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from thzdiv import ber_analytic
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
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    mg_preset,
    power_pdf,
)
from thzdiv.errors import DomainError, EvaluationError
from thzdiv.mg_laplace import SquaredMgSnr, laplace_exact_series
from thzdiv.specfun import q_function
from thzdiv.sum_dist import (
    IidAlphaMuSum,
    convolution_oracle,
    iid_sum_power_pdf,
    inid_sum_power_pdf,
    solve_mixture_nodes,
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
        # Q against the convolved SNR density.
        u = 0.003
        branches = [self.CFG1] * 2
        # The MG power support spans ~1e6, so the oracle needs a fine grid.
        conv = convolution_oracle(
            [lambda y: power_pdf(self.CFG1, 1.0, y)] * 2, y_max=8e5, n=2**17)
        direct, _ = integrate.quad(
            lambda y: conv(y) * float(q_function(math.sqrt(2.0 * u * y))),
            0.0, conv.y[-1], limit=600)
        mgf = ber_mg_mgf(branches, 1.0, 2, u, g=1.0)
        assert mgf == pytest.approx(direct, rel=2e-3)

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
        # Two equal models that are distinct objects cost what one shared
        # object costs, and give the same bits.
        calls = []
        series = ber_analytic.laplace_exact_series
        monkeypatch.setattr(ber_analytic, "laplace_exact_series",
                            lambda s, x: calls.append(s) or series(s, x))

        def run(branches):
            calls.clear()
            return ber_mg_mgf(branches, 1.0, 2, 0.1).hex(), len(calls)

        shared = run([mg_preset("mg_config3")] * 2)
        separate = run([mg_preset("mg_config3"), mg_preset("mg_config3")])
        assert separate == shared

    def test_levels_run_out_is_an_error(self, monkeypatch):
        monkeypatch.setattr(ber_analytic, "_T_LEVELS", 1)
        with pytest.raises(EvaluationError):
            ber_mg_mgf([self.CFG1] * 2, 1.0, 2, 1e-6)

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


class TestHelpers:
    def test_asymptote_law_callable(self):
        law = AsymptoteLaw(kappa1=2.0, kappa2=1.5,
                           source=AsymptoteSource.FITTED)
        assert float(law(4.0)) == pytest.approx(2.0 * 4.0**-1.5)
        with pytest.raises(DomainError):
            AsymptoteLaw(kappa1=0.0, kappa2=1.0,
                         source=AsymptoteSource.FITTED)
