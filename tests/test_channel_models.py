"""Single-branch models: densities, moments, presets, link budget."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from thzdiv import channel_models
from thzdiv.channel_models import (
    ALPHA_MU_PRESETS,
    MG_PRESETS,
    AlphaMuA,
    AlphaMuB,
    LinkBudget,
    MixtureGamma,
    Scenario,
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    branch_scale_nu,
    envelope_moment,
    envelope_pdf,
    list_presets,
    mg_preset,
    path_loss_amplitude,
    power_pdf,
)
from thzdiv.errors import DomainError

ALL_MODELS = [
    alpha_mu_a_preset("indoor_1"),
    alpha_mu_a_preset("indoor_2", z_hat=1.4),
    alpha_mu_b_preset("indoor_1"),
    alpha_mu_b_preset("indoor_2", x_mean=0.7),
    mg_preset("mg_config1"),
    mg_preset("mg_config2"),
    mg_preset("mg_config3"),
    mg_preset("mg_config4"),
]


def _mass(pdf, scale=1.0):
    brk = list(np.geomspace(1e-8 * scale, 60.0 * scale, 40))
    val, _ = integrate.quad(pdf, 0.0, brk[-1], points=brk[:-1], limit=400)
    tail, _ = integrate.quad(pdf, brk[-1], np.inf)
    return val + tail


class TestDensities:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_envelope_normalizes(self, model):
        scale = envelope_moment(model, 1.0, 1.0)
        assert _mass(lambda y: envelope_pdf(model, y), scale) == pytest.approx(
            1.0, abs=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("nu", [1.0, 0.03])
    def test_power_normalizes(self, model, nu):
        scale = envelope_moment(model, nu, 2.0)
        assert _mass(lambda y: power_pdf(model, nu, y), scale) == pytest.approx(
            1.0, abs=1e-8)

    def test_power_is_envelope_change_of_variables(self):
        # f_{|h|^2}(y) = f_{|h_f|}(sqrt(y)/nu) / (2 nu sqrt(y))
        model = alpha_mu_a_preset("indoor_1")
        nu = 0.5
        for y in (0.04, 0.3, 1.1):
            ref = envelope_pdf(model, math.sqrt(y) / nu) / (2.0 * nu * math.sqrt(y))
            assert power_pdf(model, nu, y) == pytest.approx(ref, rel=1e-12)

    def test_rayleigh_special_case(self):
        # alpha = 2, mu = 1, z_hat = 1: f(y) = 2 y exp(-y^2)
        model = AlphaMuA(alpha=2.0, mu=1.0, z_hat=1.0)
        for y in (0.2, 1.0, 2.5):
            assert envelope_pdf(model, y) == pytest.approx(
                2.0 * y * math.exp(-y * y), rel=1e-12)

    def test_form_a_and_b_agree_when_matched(self):
        # Parameterizations coincide when x_mean equals form A's mean.
        a, m = ALPHA_MU_PRESETS["indoor_1"]
        fa = AlphaMuA(alpha=a, mu=m, z_hat=1.3)
        fb = AlphaMuB(alpha=a, mu=m, x_mean=envelope_moment(fa, 1.0, 1.0))
        for y in (0.05, 0.4, 1.0, 2.0):
            assert envelope_pdf(fb, y) == pytest.approx(
                envelope_pdf(fa, y), rel=1e-10)

    def test_singular_origin_raises(self):
        # alpha*mu < 1 diverges at y = 0; evaluating there must be an error.
        model = alpha_mu_a_preset("indoor_2")  # alpha*mu ~ 1.81 > 1 is fine
        assert envelope_pdf(model, 0.0) == 0.0
        singular = AlphaMuA(alpha=1.0, mu=0.5)
        with pytest.raises(DomainError):
            envelope_pdf(singular, 0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            envelope_pdf(ALL_MODELS[0], -0.1)


class TestMoments:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
    def test_moment_matches_quadrature(self, model, k):
        scale = envelope_moment(model, 1.0, 1.0)
        num = _mass(lambda y: y**k * envelope_pdf(model, y), scale)
        assert envelope_moment(model, 1.0, k) == pytest.approx(num, rel=1e-7)

    def test_nu_scaling(self):
        model = mg_preset("mg_config2")
        assert envelope_moment(model, 2.0, 3.0) == pytest.approx(
            8.0 * envelope_moment(model, 1.0, 3.0), rel=1e-13)

    def test_zeroth_moment_is_one(self):
        assert envelope_moment(ALL_MODELS[0], 1.0, 0.0) == 1.0


class TestPresets:
    def test_alpha_mu_values(self):
        assert ALPHA_MU_PRESETS["indoor_1"] == (3.45388, 0.51571)
        assert ALPHA_MU_PRESETS["indoor_2"] == (2.92801, 0.61844)

    def test_mg_weights_sum_to_one(self):
        for name in MG_PRESETS:
            model = mg_preset(name)
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mg_config1_components(self):
        model = mg_preset("mg_config1")
        assert model.n_components == 2
        assert model.shapes[1] == 4.417045104
        assert model.rates[0] == 0.069986341

    def test_beta_param_definition(self):
        model = alpha_mu_b_preset("indoor_1")
        ref = math.exp(sp.gammaln(model.mu + 1.0 / model.alpha)
                       - sp.gammaln(model.mu))
        assert model.beta_param == pytest.approx(ref, rel=1e-14)

    def test_list_presets_covers_everything(self):
        out = list_presets()
        assert set(out) == set(ALPHA_MU_PRESETS) | set(MG_PRESETS)
        assert out["mg_config3"]["family"] == "mixture_gamma"
        assert len(out["mg_config3"]["beta"]) == 3

    def test_mixture_validation(self):
        with pytest.raises(DomainError):
            MixtureGamma(components=((0.5, 2.0, 1.0),))  # weights don't sum
        with pytest.raises(DomainError):
            MixtureGamma(components=((1.0, -1.0, 1.0),))
        # NaN passes no comparison, so it must not pass the check either.
        for bad in ((1.0, 2.0, math.inf), (1.0, math.nan, 1.0),
                    (math.nan, 2.0, 1.0)):
            with pytest.raises(DomainError):
                MixtureGamma(components=(bad,))


class TestLinkBudget:
    def test_path_loss_amplitude_value(self):
        # (c / (4 pi f d))^(rho/2) at 0.142 THz, 20 m, rho = 2.
        assert path_loss_amplitude(0.142e12, 20.0) == pytest.approx(
            8.40025556203687e-06, rel=1e-12)

    def test_absorption_factor(self):
        base = path_loss_amplitude(1e11, 10.0)
        absorbed = path_loss_amplitude(1e11, 10.0, kabs=0.01)
        assert absorbed == pytest.approx(base * math.exp(-0.05), rel=1e-12)

    def test_normalized_link_is_unit_scale(self):
        link = LinkBudget()
        assert branch_scale_nu(link) == 1.0

    def test_physical_link(self):
        link = LinkBudget(normalized=False, pt=2.0, gt=10.0, gr=79.43)
        expect = math.sqrt(2.0 * 10.0 * 79.43) * path_loss_amplitude(
            link.f, link.d, link.kabs, link.rho)
        assert branch_scale_nu(link) == pytest.approx(expect, rel=1e-12)

    def test_rejects_nonphysical(self):
        with pytest.raises(DomainError):
            LinkBudget(f=-1.0)
        with pytest.raises(DomainError):
            path_loss_amplitude(1e11, 10.0, kabs=-0.1)


class TestScenario:
    def test_ascending_grid_accepted(self):
        sc = Scenario(branches=(ALL_MODELS[0],) * 2, snr_grid=(0.1, 1.0, 10.0))
        assert sc.l_branches == 2
        assert sc.nu == 1.0

    def test_non_ascending_grid_rejected(self):
        with pytest.raises(DomainError):
            Scenario(branches=(ALL_MODELS[0],), snr_grid=(1.0, 1.0))
        with pytest.raises(DomainError):
            Scenario(branches=(ALL_MODELS[0],), snr_grid=(2.0, 1.0))

    def test_needs_branches_and_positive_g(self):
        with pytest.raises(DomainError):
            Scenario(branches=())
        with pytest.raises(DomainError):
            Scenario(branches=(ALL_MODELS[0],), g=0.0)


NAN, INF = math.nan, math.inf
# (call, field it names): every entry point given one NaN or infinite field.
NON_FINITE = {
    "AlphaMuA-alpha-nan": (lambda: AlphaMuA(NAN, 1.0), "alpha"),
    "AlphaMuA-mu-inf": (lambda: AlphaMuA(3.0, INF), "mu"),
    "AlphaMuA-z_hat-nan": (lambda: AlphaMuA(3.0, 1.0, NAN), "z_hat"),
    "AlphaMuB-mu-nan": (lambda: AlphaMuB(3.0, NAN), "mu"),
    "AlphaMuB-x_mean-inf": (lambda: AlphaMuB(3.0, 1.0, INF), "x_mean"),
    "LinkBudget-f-nan": (lambda: LinkBudget(f=NAN), "f"),
    "LinkBudget-d-inf": (lambda: LinkBudget(d=INF), "d"),
    "LinkBudget-kabs-nan": (lambda: LinkBudget(kabs=NAN), "kabs"),
    "LinkBudget-kabs-inf": (lambda: LinkBudget(kabs=INF), "kabs"),
    "LinkBudget-pt-inf": (lambda: LinkBudget(pt=INF), "pt"),
    "path_loss-f-nan": (lambda: path_loss_amplitude(NAN, 10.0), "f"),
    "path_loss-d-inf": (lambda: path_loss_amplitude(1e11, INF), "d"),
    "path_loss-kabs-nan": (lambda: path_loss_amplitude(1e11, 10.0, NAN),
                           "kabs"),
    "path_loss-rho-nan": (lambda: path_loss_amplitude(1e11, 10.0, 0.0, NAN),
                          "rho"),
    "Scenario-g-nan": (lambda: Scenario((ALL_MODELS[0],), g=NAN), "g"),
    "Scenario-g-inf": (lambda: Scenario((ALL_MODELS[0],), g=INF), "g"),
    "Scenario-grid-nan": (lambda: Scenario((ALL_MODELS[0],),
                                           snr_grid=(NAN,)), "snr_grid"),
    "Scenario-grid-inf": (lambda: Scenario((ALL_MODELS[0],),
                                           snr_grid=(1.0, INF)), "snr_grid"),
    "power_pdf-nu-nan": (lambda: power_pdf(ALL_MODELS[0], NAN, 1.0), "nu"),
    "power_pdf-nu-inf": (lambda: power_pdf(ALL_MODELS[4], INF, 1.0), "nu"),
    "moment-nu-nan": (lambda: envelope_moment(ALL_MODELS[0], NAN, 2.0), "nu"),
    "moment-nu-inf": (lambda: envelope_moment(ALL_MODELS[4], INF, 2.0), "nu"),
    "moment-k-nan": (lambda: envelope_moment(ALL_MODELS[0], 1.0, NAN), "k"),
    "moment-k-inf": (lambda: envelope_moment(ALL_MODELS[2], 1.0, INF), "k"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_rejects_non_finite_fields_at_once(monkeypatch, case):
    # NaN passes no comparison, so each check is written in the positive
    # form; with the computing helpers gone, only a check made first raises
    # DomainError.
    call, field = NON_FINITE[case]
    for name in ("sp", "_alpha_mu_scale", "_power_leading_terms"):
        monkeypatch.setattr(channel_models, name, None)
    with pytest.raises(DomainError, match=field):
        call()
