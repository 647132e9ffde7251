"""Every density shares one y >= 0 contract.

A scalar in gives a float out, an array in gives the scalar values element
by element, y < 0 and NaN are DomainErrors, and y = 0 takes the limit of the
local form sum_i c_i y^e_i: 0 for e_i > 0, c_i for e_i = 0, a DomainError
for e_i < 0.
"""

import numpy as np
import pytest

from thzdiv.channel_models import (
    AlphaMuA,
    AlphaMuB,
    MixtureGamma,
    envelope_pdf,
    power_pdf,
)
from thzdiv.errors import DomainError
from thzdiv.mg_laplace import SquaredMgSnr, snr_pdf_mg
from thzdiv.sum_dist import (
    IidAlphaMuSum,
    iid_sum_power_pdf,
    inid_sum_power_pdf,
    solve_mixture_nodes,
    sum_power_pdf,
)


def _mg(beta):
    return MixtureGamma(((0.6, beta, 0.7), (0.4, beta + 3.0, 1.1)))


CASES = ["envelope_a", "envelope_b", "envelope_mg", "power_a", "power_b",
         "power_mg", "iid_sum", "inid_sum", "power_sum", "snr_mg"]


def _density(case, alpha, mu, beta):
    """Density ``case`` built on alpha-mu(alpha, mu) or MG shape-beta branches.

    A power or sum density of one branch behaves like y^(alpha mu / 2 - 1),
    or y^(beta/2 - 1) for MG, at y = 0; the envelope cases take alpha/2 and
    beta/2, so every case has that same leading exponent.
    """
    if case == "envelope_a":
        return lambda y: envelope_pdf(AlphaMuA(alpha / 2, mu, z_hat=1.3), y)
    if case == "envelope_b":
        return lambda y: envelope_pdf(AlphaMuB(alpha / 2, mu, x_mean=0.8), y)
    if case == "envelope_mg":
        return lambda y: envelope_pdf(_mg(beta / 2), y)
    if case == "power_a":
        return lambda y: power_pdf(AlphaMuA(alpha, mu, z_hat=1.3), 1.5, y)
    if case == "power_b":
        return lambda y: power_pdf(AlphaMuB(alpha, mu, x_mean=0.8), 1.5, y)
    if case == "power_mg":
        return lambda y: power_pdf(_mg(beta), 1.5, y)
    if case == "iid_sum":
        s = IidAlphaMuSum.build(AlphaMuA(alpha, mu, z_hat=1.3), 1.0, 1)
        return lambda y: iid_sum_power_pdf(s, y)
    if case == "inid_sum":
        # Two branches of shape mu/2 each: the sum behaves like one of shape mu.
        nodes = solve_mixture_nodes([AlphaMuB(alpha, mu / 2, x_mean=0.8),
                                     AlphaMuB(alpha, mu / 2, x_mean=1.1)],
                                    1.0, psi=2)
        return lambda y: inid_sum_power_pdf(nodes, y)
    if case == "power_sum":
        # The same two branches' true sum, by Laplace inversion.
        branches = [AlphaMuB(alpha, mu / 2, x_mean=0.8),
                    AlphaMuB(alpha, mu / 2, x_mean=1.1)]
        return lambda y: sum_power_pdf(branches, 1.0, y)
    snr = SquaredMgSnr.from_model(_mg(beta), 2.0, 1.0)
    return lambda y: snr_pdf_mg(snr, y)


# (alpha, mu, beta) giving each sign of the leading exponent.
POSITIVE = (3.0, 1.0, 4.4)
ZERO = (2.0, 1.0, 2.0)
NEGATIVE = (1.5, 0.4, 0.5)


@pytest.mark.parametrize("case", CASES)
class TestDensityContract:
    def test_scalar_gives_float_and_array_matches_scalars(self, case):
        pdf = _density(case, *POSITIVE)
        ys = np.array([0.0, 1e-3, 0.4, 1.7, 5.0])
        scalars = [pdf(float(y)) for y in ys]
        assert all(type(v) is float for v in scalars)
        vals = pdf(ys)
        assert isinstance(vals, np.ndarray) and vals.shape == ys.shape
        np.testing.assert_allclose(vals, scalars, rtol=1e-15, atol=0.0)

    def test_negative_argument_rejected(self, case):
        pdf = _density(case, *POSITIVE)
        with pytest.raises(DomainError):
            pdf(-1e-9)
        with pytest.raises(DomainError):
            pdf(np.array([1.0, -0.5]))

    def test_nan_argument_rejected(self, case):
        # Regression: NaN is not > 0, so it used to take the y = 0 limit.
        pdf = _density(case, *POSITIVE)
        with pytest.raises(DomainError):
            pdf(np.nan)
        with pytest.raises(DomainError):
            pdf(np.array([1.0, np.nan]))

    def test_positive_exponent_vanishes_at_zero(self, case):
        assert _density(case, *POSITIVE)(0.0) == 0.0

    def test_zero_exponent_takes_the_coefficient(self, case):
        pdf = _density(case, *ZERO)
        at_zero = pdf(0.0)
        assert at_zero > 0.0
        assert at_zero == pytest.approx(pdf(1e-12), rel=1e-6)
        assert pdf(np.array([0.0, 1.0]))[0] == at_zero

    def test_negative_exponent_diverges(self, case):
        pdf = _density(case, *NEGATIVE)
        assert pdf(1e-3) > 0.0
        with pytest.raises(DomainError):
            pdf(0.0)
        with pytest.raises(DomainError):
            pdf(np.array([1.0, 0.0]))
