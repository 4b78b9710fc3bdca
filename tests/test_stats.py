import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from conftest import reference_beta_cf

from labelalign.errors import ConfigError, TooFewPointsError, ZeroVarianceError
from labelalign.experiment import auc_over_k, paired_t_test
from labelalign.stats import _beta_cf, regularized_incomplete_beta, student_t_two_sided_p


def t_density(x, dof):
    c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
    return c * (1 + x * x / dof) ** (-(dof + 1) / 2)


def outcome(cf, a, b, x):
    """The fraction's value as its exact bits, or the error that it raised."""
    try:
        return cf(a, b, x).hex()
    except ArithmeticError as exc:
        return str(exc)


def two_sided_p_by_quadrature(t, dof):
    tail, _ = scipy.integrate.quad(t_density, abs(t), np.inf, args=(dof,))
    return 2.0 * tail


class TestIncompleteBeta:
    def test_against_scipy_grid(self):
        for a in (0.5, 1.0, 2.5, 10.0):
            for b in (0.5, 1.0, 3.0, 8.0):
                for x in (0.0, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0):
                    mine = regularized_incomplete_beta(a, b, x)
                    ref = scipy.special.betainc(a, b, x)
                    assert mine == pytest.approx(ref, abs=1e-9)

    def test_the_fraction_equals_the_reference_bitwise_on_the_grid(self):
        for a in (0.5, 1.0, 2.5, 10.0):
            for b in (0.5, 1.0, 3.0, 8.0):
                for x in (0.0, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0):
                    assert outcome(_beta_cf, a, b, x) == outcome(reference_beta_cf, a, b, x)

    def test_the_fraction_equals_the_reference_bitwise_on_random_draws(self):
        # Shapes from 0.05 to 200, log-uniform; 7 in 10 draws with b = 0.5, the
        # t-test's case.
        rng = np.random.default_rng(93)
        n = 12_000
        a = np.exp(rng.uniform(np.log(0.05), np.log(200.0), n))
        b = np.where(rng.uniform(size=n) < 0.7, 0.5,
                     np.exp(rng.uniform(np.log(0.05), np.log(200.0), n)))
        for ai, bi, xi in zip(a.tolist(), b.tolist(), rng.uniform(size=n).tolist()):
            assert outcome(_beta_cf, ai, bi, xi) == outcome(reference_beta_cf, ai, bi, xi)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestPairedTTest:
    def test_equal_samples_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_nonzero_difference_also_degenerate(self):
        with pytest.raises(ZeroVarianceError):
            paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_zero_mean_difference(self):
        t, p = paired_t_test([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])
        assert t == 0.0
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_one_two_three_hand_value(self):
        t, p = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert t == pytest.approx(3.4641, abs=1e-4)
        assert p == pytest.approx(0.0742, abs=1e-3)
        assert p == pytest.approx(two_sided_p_by_quadrature(t, 2), abs=1e-9)

    def test_matches_quadrature_oracle_random(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            t, p = paired_t_test(a, b)
            assert p == pytest.approx(two_sided_p_by_quadrature(t, n - 1), abs=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            paired_t_test([1.0, 2.0], [1.0])


class TestAucOverK:
    def test_constant_curve_rectangle(self):
        curve = [(k, 0.75) for k in range(2, 21, 2)]
        assert auc_over_k(curve) == pytest.approx(18 * 0.75, abs=1e-12)

    def test_triangle(self):
        assert auc_over_k([(2, 0.0), (20, 1.0)]) == pytest.approx(9.0, abs=1e-12)

    def test_matches_segment_sum_oracle(self):
        rng = np.random.default_rng(92)
        ks = np.sort(rng.choice(np.arange(1, 60), size=10, replace=False))
        accs = rng.uniform(0, 1, size=10)
        curve = list(zip(ks.tolist(), accs.tolist()))
        expected = sum(
            (k1 - k0) * (a0 + a1) / 2.0
            for (k0, a0), (k1, a1) in zip(curve, curve[1:])
        )
        assert auc_over_k(curve) == pytest.approx(expected, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            auc_over_k([(2, 0.5)])

    def test_non_increasing_k_rejected(self):
        with pytest.raises(ConfigError):
            auc_over_k([(2, 0.5), (2, 0.6)])
