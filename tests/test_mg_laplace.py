"""Laplace transform of the squared mixture-of-gamma SNR density."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from thzdiv import mg_laplace
from thzdiv.channel_models import envelope_moment, mg_preset
from thzdiv.errors import DomainError, EvaluationError
from thzdiv.mg_laplace import (
    SquaredMgSnr,
    laplace_exact_series,
    laplace_high_snr,
    laplace_numeric_oracle,
    snr_pdf_mg,
)

CONFIGS = [mg_preset(f"mg_config{i}") for i in (1, 2, 3, 4)]


def _snr(cfg, upsilon):
    return SquaredMgSnr.from_model(cfg, upsilon, 1.0)


class TestSnrDensity:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["c1", "c2", "c3", "c4"])
    def test_normalizes(self, cfg):
        s = _snr(cfg, 100.0)
        mean = envelope_moment(cfg, 1.0, 2.0) * 100.0
        brk = list(np.geomspace(1e-8 * mean, 50.0 * mean, 40))
        mass, _ = integrate.quad(lambda y: snr_pdf_mg(s, y), 0.0, brk[-1],
                                 points=brk[:-1], limit=400)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_normalizes_where_a_underflows(self):
        # Regression: at 40 dB config 4's shape-65 coefficient a_i underflows
        # to 0, which used to drop a quarter of the mass.
        s = _snr(CONFIGS[3], 1e4)
        assert s.a[2] == 0.0
        mean = envelope_moment(CONFIGS[3], 1.0, 2.0) * 1e4
        brk = list(np.geomspace(1e-8 * mean, 50.0 * mean, 40))
        mass, _ = integrate.quad(lambda y: snr_pdf_mg(s, y), 0.0, brk[-1],
                                 points=brk[:-1], limit=400)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_large_y_no_overflow(self):
        # Regression: y^(b-1) with shape 65 (config 4) overflowed where the
        # exponential factor already made the term negligible.
        s = _snr(CONFIGS[3], 100.0)
        vals = snr_pdf_mg(s, np.geomspace(1.0, 1e12, 30))
        assert np.all(np.isfinite(vals))

    def test_mean_matches_model(self):
        cfg = CONFIGS[0]
        u = 10.0
        s = _snr(cfg, u)
        mean_ref = envelope_moment(cfg, 1.0, 2.0) * u
        brk = list(np.geomspace(1e-8 * mean_ref, 50.0 * mean_ref, 40))
        mean, _ = integrate.quad(lambda y: y * snr_pdf_mg(s, y), 0.0, brk[-1],
                                 points=brk[:-1], limit=400)
        assert mean == pytest.approx(mean_ref, rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            SquaredMgSnr.from_model(CONFIGS[0], 0.0, 1.0)
        with pytest.raises(DomainError):
            snr_pdf_mg(_snr(CONFIGS[0], 1.0), -1.0)

    @pytest.mark.parametrize("field,upsilon,nu", [
        ("upsilon", math.nan, 1.0), ("upsilon", math.inf, 1.0),
        ("nu", 10.0, math.nan), ("nu", 10.0, math.inf)])
    def test_rejects_non_finite_arguments(self, monkeypatch, field, upsilon,
                                          nu):
        monkeypatch.setattr(mg_laplace, "sp", None)
        with pytest.raises(DomainError, match=field):
            SquaredMgSnr.from_model(CONFIGS[0], upsilon, nu)


@pytest.mark.parametrize("transform", [laplace_exact_series,
                                       laplace_high_snr])
@pytest.mark.parametrize("s_arg", [math.nan, np.array([1.0, math.nan])])
def test_transforms_reject_nan_argument_at_once(monkeypatch, transform, s_arg):
    s = _snr(CONFIGS[0], 10.0)
    monkeypatch.setattr(mg_laplace, "sp", None)
    with pytest.raises(DomainError):
        transform(s, s_arg)


@pytest.mark.parametrize("s_arg", [math.nan, math.inf, -1.0])
def test_oracle_rejects_bad_argument_before_integrating(s_arg):
    # No density: the quadrature's first evaluation would fail otherwise.
    with pytest.raises(DomainError):
        laplace_numeric_oracle(None, s_arg)


# (upsilon, s) points of the oracle comparison; the s = 1 ids name upsilon
# alone.  At s = 10 and upsilon >= 1e3 the transform falls to 4e-17..2e-11,
# where only a relative tolerance tells a right value from a wrong one.
ORACLE_POINTS = [pytest.param(u, x, id=str(u) if x == 1.0 else f"{u}-s{x:g}")
                 for x in (1.0, 10.0) for u in (10.0, 1e3, 1e4)]


class TestExactSeries:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["c1", "c2", "c3", "c4"])
    @pytest.mark.parametrize("upsilon,s_arg", ORACLE_POINTS)
    def test_agrees_with_numeric_oracle(self, cfg, upsilon, s_arg):
        s = _snr(cfg, upsilon)
        exact = laplace_exact_series(s, s_arg)
        oracle = laplace_numeric_oracle(lambda y: snr_pdf_mg(s, y), s_arg)
        assert exact == pytest.approx(oracle, rel=1e-6, abs=0.0)

    def test_frozen_value(self):
        s = _snr(CONFIGS[0], 1e4)
        assert laplace_exact_series(s, 1.0) == pytest.approx(
            6.371340250708064e-15, rel=1e-10)

    @pytest.mark.parametrize("cfg,upsilon,s_args", [
        (CONFIGS[0], 1e-6, [1.0]),
        *[(cfg, u, [1.0, 3.0, 30.0, 1e3])
          for cfg in CONFIGS for u in (1e-4, 10.0 ** -3.5)],
    ])
    def test_matches_mpmath_where_series_diverged(self, cfg, upsilon, s_args):
        # c_i / sqrt(s) >= 1 here: a residue series in that ratio diverges,
        # the closed form a 2 Gamma(2b) (4s)^-b U(b, 1/2, c^2/4s) does not.
        s = _snr(cfg, upsilon)
        with mp.workdps(40):
            for x in s_args:
                ref = sum(
                    mp.mpf(a) * 2 * mp.gamma(2 * mp.mpf(b))
                    * (4 * mp.mpf(x)) ** -mp.mpf(b)
                    * mp.hyperu(mp.mpf(b), 0.5, mp.mpf(c) ** 2 / (4 * mp.mpf(x)))
                    for a, b, c in zip(s.a, s.b, s.c))
                assert laplace_exact_series(s, x) == pytest.approx(
                    float(ref), rel=1e-8)

    @pytest.mark.parametrize("upsilon", [1e-4, 10.0 ** -3.5])
    def test_matches_oracle_at_low_snr(self, upsilon):
        for cfg in CONFIGS:
            s = _snr(cfg, upsilon)
            for x in (1.0, 10.0, 1e3):
                oracle = laplace_numeric_oracle(lambda y: snr_pdf_mg(s, y), x)
                assert laplace_exact_series(s, x) == pytest.approx(
                    oracle, rel=1e-6)

    def test_array_equals_scalar_calls(self):
        s = _snr(CONFIGS[2], 1e-3)
        xs = np.geomspace(1.0, 1e5, 17)
        out = laplace_exact_series(s, xs)
        assert out.shape == xs.shape
        assert list(out) == [laplace_exact_series(s, x) for x in xs]

    def test_rejects_bad_args(self):
        s = _snr(CONFIGS[0], 1.0)
        with pytest.raises(DomainError):
            laplace_exact_series(s, 0.0)


class TestHighSnrLimit:
    def test_error_below_one_percent_at_1e6(self):
        for cfg in CONFIGS:
            s = _snr(cfg, 1e6)
            hi = float(laplace_high_snr(s, 1.0))
            ref = laplace_numeric_oracle(lambda y: snr_pdf_mg(s, y), 1.0)
            assert abs(hi - ref) / ref < 0.01

    def test_error_shrinks_sqrt10_per_decade(self):
        errs = []
        for u in (1e4, 1e5, 1e6):
            s = _snr(CONFIGS[0], u)
            hi = float(laplace_high_snr(s, 1.0))
            ref = laplace_numeric_oracle(lambda y: snr_pdf_mg(s, y), 1.0)
            errs.append(abs(hi - ref) / ref)
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(np.sqrt(10.0), rel=0.15)

    def test_vectorized(self):
        s = _snr(CONFIGS[1], 1e5)
        out = laplace_high_snr(s, np.array([0.5, 1.0, 2.0]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0.0)


class TestNumericOracle:
    def test_unit_mass_at_zero_argument(self):
        s = _snr(CONFIGS[0], 10.0)
        assert laplace_numeric_oracle(
            lambda y: snr_pdf_mg(s, y), 1e-12) == pytest.approx(1.0, abs=1e-6)

    def test_reports_quadrature_failure(self):
        with pytest.raises(EvaluationError), \
                pytest.warns(integrate.IntegrationWarning):
            laplace_numeric_oracle(lambda y: np.cos(y * y), 1e-8)
