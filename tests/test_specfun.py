"""Oracle-first tests for the special-function layer.

The Fox-H evaluator is checked against closed forms it must reproduce
(exponential, binomial kernel) and against an independent mpmath
Mellin-Barnes integration of the same kernel.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from thzdiv import specfun
from thzdiv.errors import AccuracyError, DomainError, EvaluationError
from thzdiv.specfun import FoxHParams, _nested_trapezoid, fox_h, q_function

# H^{1,0}_{0,1}[z | -; (0,1)] = exp(-z)
H_EXP = FoxHParams(m=1, n=0, upper=(), lower=((0.0, 1.0),))


def h_binom(a: float) -> FoxHParams:
    """H^{1,1}_{1,1}[z | (1-a,1); (0,1)] = Gamma(a) (1+z)^(-a)."""
    return FoxHParams(m=1, n=1, upper=((1.0 - a, 1.0),), lower=((0.0, 1.0),))


class TestScalarWrappers:
    def test_q_function_moderate(self):
        for x in (-2.0, 0.0, 1.0, 5.0):
            ref = 0.5 * sp.erfc(x / math.sqrt(2.0))
            assert q_function(x) == pytest.approx(ref, rel=1e-13)

    def test_q_function_deep_tail_finite(self):
        # Plain 0.5*erfc underflows near x ~ 38; the scaled form must not.
        val = q_function(30.0)
        ref = float(mp.ncdf(-30))
        assert val > 0.0
        assert val == pytest.approx(ref, rel=1e-12)

    def test_q_function_vectorized(self):
        x = np.array([-1.0, 0.0, 2.0])
        out = q_function(x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5)

    def test_q_function_bitwise_equals_the_plain_expression(self):
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 1e308,
                             -1e308], np.linspace(-40.0, 40.0, 4001),
                            np.geomspace(1e-300, 1e300, 601)])
        x = np.concatenate([x, -x[7:]])
        with np.errstate(over="ignore", invalid="ignore"):
            pos = 0.5 * sp.erfcx(np.abs(x) / math.sqrt(2.0)) * np.exp(
                -0.5 * x * x)
            ref = np.where(x >= 0.0, pos, 1.0 - pos)
            out = q_function(x)
            scalars = np.array([q_function(float(v)) for v in x])
        assert out.dtype == np.float64 and out.shape == x.shape
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(scalars.view(np.uint64), ref.view(np.uint64))
        assert type(q_function(1.0)) is float


class TestFoxHClosedForms:
    @pytest.mark.parametrize("z", [0.05, 0.4, 1.0, 3.0, 12.0])
    def test_exponential(self, z):
        assert fox_h(H_EXP, z) == pytest.approx(math.exp(-z), rel=1e-9)

    @pytest.mark.parametrize("a", [0.7, 1.5, 4.2])
    @pytest.mark.parametrize("z", [1e-4, 0.1, 1.0, 9.0])
    def test_binomial_kernel(self, a, z):
        ref = math.gamma(a) * (1.0 + z) ** (-a)
        assert fox_h(h_binom(a), z) == pytest.approx(ref, rel=1e-9)

    def test_against_mpmath_contour(self):
        # Independent route: mpmath quadrature along the same vertical line
        # for an asymmetric kernel with unequal coefficients.
        params = FoxHParams(m=1, n=1, upper=((0.3, 0.8),),
                            lower=((0.6, 1.3),))
        z = 1.7
        c = 0.1  # inside (-0.6/1.3, (1-0.3)/0.8)

        def integrand(t):
            s = mp.mpc(c, t)
            return (mp.gamma(mp.mpf("0.6") + mp.mpf("1.3") * s)
                    * mp.gamma(1 - mp.mpf("0.3") - mp.mpf("0.8") * s)
                    * mp.power(z, -s))

        ref = mp.quad(integrand, [-60, 0, 60]) / (2 * mp.pi)
        assert float(ref.imag) == pytest.approx(0.0, abs=1e-12)
        assert fox_h(params, z) == pytest.approx(float(ref.real), rel=1e-8)


class TestFoxHArray:
    def test_array_equals_elementwise(self, monkeypatch):
        # 1200 z over twelve decades: the small z take a left abscissa, the
        # large a right one, and a group of more than _FOX_H_BLOCK z is
        # split into blocks.
        params = h_binom(1.5)
        z = np.geomspace(1e-6, 1e6, 1200).reshape(30, 40)
        abscissas, rules, widths = set(), [], []
        kernel, rule = specfun._log_mellin_kernel, specfun._nested_trapezoid

        def spy_kernel(p, s):
            if np.size(s) > 5:
                abscissas.update(np.unique(np.real(s)).tolist())
            return kernel(p, s)

        def spy_rule(f, *args):
            def record(t):
                vals = f(t)
                widths.append(vals.shape[1])
                return vals

            rules.append(args)
            return rule(record, *args)

        monkeypatch.setattr(specfun, "_log_mellin_kernel", spy_kernel)
        monkeypatch.setattr(specfun, "_nested_trapezoid", spy_rule)
        out = fox_h(params, z)
        monkeypatch.undo()
        assert out.shape == z.shape
        assert len(abscissas) >= 2
        assert len(rules) > len(abscissas)
        assert max(widths) <= specfun._FOX_H_BLOCK
        each = np.array([fox_h(params, float(v)) for v in z.flat])
        np.testing.assert_allclose(out.ravel(), each, rtol=1e-14, atol=0.0)
        ref = math.gamma(1.5) * (1.0 + z) ** -1.5
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=0.0)

    def test_scalar_gives_float(self):
        assert type(fox_h(H_EXP, 1.0)) is float
        assert type(fox_h(H_EXP, np.float64(1.0))) is float
        assert fox_h(H_EXP, np.array([1.0])).shape == (1,)


class TestFoxHValidation:
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf,
                                   np.array([1.0, math.nan])],
                             ids=["nan", "inf", "-inf", "array-nan"])
    def test_rejects_non_finite_z_at_once(self, monkeypatch, z):
        # Raised before any quadrature, so no halving runs and no warning.
        monkeypatch.setattr(specfun, "_nested_trapezoid", None)
        with pytest.raises(DomainError):
            fox_h(H_EXP, z)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(DomainError):
            fox_h(H_EXP, 0.0)
        with pytest.raises(DomainError):
            fox_h(H_EXP, -1.0)

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(DomainError):
            FoxHParams(m=1, n=0, upper=(), lower=((0.0, -1.0),))

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            FoxHParams(m=2, n=0, upper=(), lower=((0.0, 1.0),))

    def test_pole_collision_detected(self):
        # Left poles start at s = 1, right poles end at s = 0: no gap.
        params = FoxHParams(m=1, n=1, upper=((1.0, 1.0),),
                            lower=((-1.0, 1.0),))
        with pytest.raises(EvaluationError):
            fox_h(params, 1.0)

    def test_divergent_kernel_rejected(self):
        # m = n = 0 style decay is impossible with rho <= 0.
        params = FoxHParams(m=1, n=0, upper=((0.5, 2.0),),
                            lower=((0.0, 1.0),))
        with pytest.raises(EvaluationError):
            fox_h(params, 1.0)


class TestNestedTrapezoid:
    def test_trailing_axes_each_converge(self):
        est = _nested_trapezoid(
            lambda t: np.stack([np.exp(t), np.cos(t)], axis=1),
            0.0, 1.0, 4, 1e-10, 20)
        assert est == pytest.approx([math.e - 1.0, math.sin(1.0)], rel=1e-9)

    def test_levels_run_out_is_an_evaluation_error(self):
        # A kink keeps the trapezoid error at O(h^2): three halvings of a
        # two-interval rule cannot reach 1e-12.
        with pytest.raises(EvaluationError) as info:
            _nested_trapezoid(lambda t: np.abs(t - 0.3), 0.0, 1.0, 2,
                              1e-12, 3)
        assert isinstance(info.value, AccuracyError)
        assert info.value.achieved > 1e-12
