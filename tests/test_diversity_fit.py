"""Power-law extraction from BER curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzdiv.ber_analytic import AsymptoteLaw, AsymptoteSource
from thzdiv.cli import _parse_grid
from thzdiv.diversity_fit import compare_to_theory, fit_power_law
from thzdiv.errors import DomainError
from thzdiv.monte_carlo import BerCurve, BerPoint


def make_curve(ups, bers, ses=None):
    ses = [0.0] * len(ups) if ses is None else ses
    pts = tuple(BerPoint(float(u), float(b), float(s), 1000)
                for u, b, s in zip(ups, bers, ses))
    return BerCurve(points=pts, seed=0, method="exact")


class TestExactRecovery:
    @given(k1=st.floats(1e-3, 1e3), k2=st.floats(0.2, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_recovers_pure_power_law(self, k1, k2):
        # Start the grid where the law gives BER = 0.5 so points stay valid.
        u_lo = (2.0 * k1) ** (1.0 / k2)
        ups = np.geomspace(u_lo, 1e3 * u_lo, 10)
        curve = make_curve(ups, k1 * ups**-k2)
        report = fit_power_law(curve, window=(ups[0], ups[-1]))
        assert report.law.kappa2 == pytest.approx(k2, rel=1e-9)
        assert report.law.kappa1 == pytest.approx(k1, rel=1e-6)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_default_window_is_top_decade(self):
        ups = np.geomspace(1.0, 1e4, 13)
        curve = make_curve(ups, 0.5 * ups**-2.0)
        report = fit_power_law(curve)
        assert report.window == (1e3, 1e4)
        # The CLI's -5..25 dB grid: 10**1.5 rounds just below 10**2.5 / 10,
        # and the fit must still use the 15, 20 and 25 dB points.
        ups = np.array(_parse_grid({"start": -5, "stop": 25, "step": 5}))
        report = fit_power_law(make_curve(ups, 0.01 * ups**-2.0))
        assert report.window == (ups[-1] / 10.0, ups[-1])
        assert len(report.residuals) == 3

    def test_residuals_zero_for_exact_law(self):
        ups = np.geomspace(10.0, 100.0, 5)
        report = fit_power_law(make_curve(ups, ups**-1.5))
        assert max(abs(r) for r in report.residuals) < 1e-12


class TestWeighting:
    def test_noisy_point_downweighted(self):
        ups = np.geomspace(1.0, 100.0, 7)
        bers = 0.1 * ups**-2.0
        bers_off = bers.copy()
        bers_off[3] *= 1.5  # an outlier ...
        ses = 1e-6 * bers
        ses_off = ses.copy()
        ses_off[3] = 10.0 * bers_off[3]  # ... with a huge reported SE
        loose = fit_power_law(make_curve(ups, bers_off, ses_off),
                              window=(1.0, 100.0))
        assert loose.law.kappa2 == pytest.approx(2.0, abs=1e-3)

    def test_unweighted_when_any_se_is_zero(self):
        ups = np.geomspace(1.0, 100.0, 5)
        bers = 0.1 * ups**-2.0
        ses = [0.0] + [1e-9] * 4
        report = fit_power_law(make_curve(ups, bers, ses), window=(1.0, 100.0))
        assert report.law.kappa2 == pytest.approx(2.0, rel=1e-9)


class TestEdgeCases:
    def test_zero_ber_points_excluded_and_counted(self):
        ups = np.geomspace(1.0, 1e3, 8)
        bers = list(0.1 * ups**-2.0)
        bers[-1] = 0.0
        report = fit_power_law(make_curve(ups, bers), window=(1.0, 1e3))
        assert report.excluded_zero_points == 1
        assert report.law.kappa2 == pytest.approx(2.0, rel=1e-9)

    def test_too_few_points_raises(self):
        ups = [1.0, 10.0]
        with pytest.raises(DomainError):
            fit_power_law(make_curve(ups, [0.1, 0.01]), window=(1.0, 10.0))

    def test_growing_curve_rejected(self):
        ups = np.geomspace(1.0, 100.0, 5)
        from thzdiv.errors import EvaluationError
        with pytest.raises(EvaluationError):
            fit_power_law(make_curve(ups, 0.01 * ups**1.0),
                          window=(1.0, 100.0))

    def test_bad_window(self):
        ups = np.geomspace(1.0, 100.0, 5)
        curve = make_curve(ups, 0.1 * ups**-2.0)
        with pytest.raises(DomainError):
            fit_power_law(curve, window=(10.0, 10.0))


class TestCompareToTheory:
    def _report(self, k2):
        ups = np.geomspace(1.0, 1e3, 8)
        return fit_power_law(make_curve(ups, ups**-k2), window=(1.0, 1e3))

    def test_pass_inside_tolerance(self):
        theory = AsymptoteLaw(kappa1=1.0, kappa2=2.05,
                              source=AsymptoteSource.FITTED)
        out = compare_to_theory(self._report(2.0), theory, tolerance=0.05)
        assert out.passed is True
        assert out.relative_gap == pytest.approx(0.05 / 2.05, rel=1e-6)

    def test_fail_outside_tolerance(self):
        theory = AsymptoteLaw(kappa1=1.0, kappa2=3.0,
                              source=AsymptoteSource.FITTED)
        out = compare_to_theory(self._report(2.0), theory, tolerance=0.05)
        assert out.passed is False

    def test_original_report_untouched(self):
        report = self._report(2.0)
        theory = AsymptoteLaw(kappa1=1.0, kappa2=2.0,
                              source=AsymptoteSource.FITTED)
        compare_to_theory(report, theory)
        assert report.passed is None and report.theory is None
