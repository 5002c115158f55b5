import math

import numpy as np
import pytest
from scipy import stats

from ronsynth.mechanism import BudgetLedger, laplace_perturb, mean_sensitivity
from ronsynth.preprocessing import (
    center_with_mean,
    dp_mean,
    preprocess,
    sample_normalize,
)


def unit_columns(m, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n))
    return X / np.linalg.norm(X, axis=0)


class TestSampleNormalize:
    def test_three_four_five(self):
        out = sample_normalize(np.array([[3.0], [4.0]]))
        assert np.allclose(out[:, 0], [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        X = np.array([[1.0], [0.0], [0.0]])
        assert np.allclose(sample_normalize(X), X)

    def test_zero_column_is_an_error_naming_the_index(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="sample 1"):
            sample_normalize(X)

    def test_all_columns_come_out_unit(self):
        out = sample_normalize(np.random.default_rng(0).normal(size=(7, 40)))
        assert np.allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)


class TestDpMean:
    def test_noise_scale_matches_calibration(self):
        # at m=4, n=10, eps=1 the Laplace scale must be 2*sqrt(4)/10 = 0.4;
        # verify by replaying the same seed through the raw mechanism
        X = unit_columns(4, 10, seed=1)
        out = dp_mean(X, 1.0, np.random.default_rng(5))
        expected = laplace_perturb(X.mean(axis=1), 0.4, np.random.default_rng(5))
        assert np.array_equal(out, expected)

    def test_infinite_budget_returns_exact_mean(self):
        X = unit_columns(6, 25, seed=2)
        assert np.array_equal(dp_mean(X, math.inf, np.random.default_rng(0)),
                              X.mean(axis=1))

    def test_seeded_determinism(self):
        X = unit_columns(5, 12, seed=3)
        a = dp_mean(X, 0.5, np.random.default_rng(7))
        b = dp_mean(X, 0.5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_unnormalized_input(self):
        X = np.random.default_rng(4).normal(size=(5, 12))
        with pytest.raises(ValueError, match="not sample-normalized"):
            dp_mean(X, 1.0, np.random.default_rng(0))

    def test_rejects_nonpositive_epsilon(self):
        X = unit_columns(3, 4, seed=5)
        with pytest.raises(ValueError):
            dp_mean(X, 0.0, np.random.default_rng(0))

    def test_records_spend_in_ledger(self):
        X = unit_columns(4, 10, seed=6)
        ledger = BudgetLedger()
        dp_mean(X, 0.3, np.random.default_rng(0), ledger=ledger)
        (entry,) = ledger.entries
        assert entry.query == "mean"
        assert entry.sensitivity == mean_sensitivity(4, 10)
        assert entry.epsilon == 0.3

    def test_noise_distribution_at_scale(self):
        # one call in dimension 10^6 yields 10^6 i.i.d. draws; with
        # n=1 and eps = 2*sqrt(m)/b the scale is exactly b = 0.4
        m = 10**6
        col = np.zeros((m, 1))
        col[0, 0] = 1.0
        b = 0.4
        eps = 2.0 * math.sqrt(m) / b
        noise = dp_mean(col, eps, np.random.default_rng(21)) - col[:, 0]
        assert abs(noise.mean()) <= 0.01 * b
        assert 2 * b**2 * 0.97 <= noise.var() <= 2 * b**2 * 1.03


class TestPreprocess:
    def test_output_columns_are_unit_norm(self):
        X = np.random.default_rng(10).normal(size=(8, 60))
        pre = preprocess(X, 1.0, np.random.default_rng(0))
        assert np.allclose(np.linalg.norm(pre.x_bar, axis=0), 1.0, atol=1e-12)
        assert pre.mu_dp.shape == (8,)
        assert pre.zero_norm_rows_dropped == 0

    def test_neighbors_differ_in_exactly_one_column_given_same_mean(self):
        # fixing the released mean, replacing one sample must change
        # exactly that column of the output
        m, n, j = 6, 30, 11
        X = np.random.default_rng(11).normal(size=(m, n))
        Xp = X.copy()
        Xp[:, j] = np.random.default_rng(99).normal(size=m)
        mu = dp_mean(sample_normalize(X), 1.0, np.random.default_rng(1))
        out = preprocess(X, 1.0, None, mu_dp=mu)
        outp = preprocess(Xp, 1.0, None, mu_dp=mu)
        diffs = np.flatnonzero(np.any(out.x_bar != outp.x_bar, axis=0))
        assert list(diffs) == [j]

    def test_column_equal_to_mean_is_dropped_and_counted(self):
        mu = np.zeros(4)
        mu[2] = 1.0  # unit vector
        X = np.random.default_rng(12).normal(size=(4, 9))
        X[:, 3] = 2.0 * mu  # normalizes onto mu, centers to zero
        with pytest.warns(UserWarning, match="dropped 1 sample"):
            pre = preprocess(X, 1.0, None, mu_dp=mu)
        assert pre.zero_norm_rows_dropped == 1
        assert pre.n_samples == 8
        assert 3 not in pre.kept_indices

    def test_all_degenerate_is_an_error(self):
        mu = np.array([1.0, 0.0])
        X = np.array([[5.0, 3.0], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="nothing left"):
                preprocess(X, 1.0, None, mu_dp=mu)

    def test_rng_required_without_given_mean(self):
        X = np.random.default_rng(13).normal(size=(3, 5))
        with pytest.raises(ValueError, match="rng"):
            preprocess(X, 1.0, None)

    def test_center_with_mean_spends_nothing(self):
        X = np.random.default_rng(14).normal(size=(5, 20))
        out = center_with_mean(X, np.zeros(5))
        # the given mean is used as released: no noise is drawn for it
        assert np.array_equal(out.mu_dp, np.zeros(5))
        assert np.allclose(np.linalg.norm(out.x_bar, axis=0), 1.0)


class TestRegularityConditions:
    def test_second_moment_is_one_and_directional_bound(self):
        # every output norm is exactly 1, so the mean squared norm is 1;
        # random unit probes v must satisfy mean <v, x>^2 <= 1
        X = np.random.default_rng(15).normal(size=(12, 300))
        pre = preprocess(X, 1.0, np.random.default_rng(2))
        norms_sq = np.sum(pre.x_bar**2, axis=0)
        assert np.allclose(norms_sq.mean(), 1.0, atol=1e-10)
        rng = np.random.default_rng(16)
        for _ in range(100):
            v = rng.normal(size=12)
            v /= np.linalg.norm(v)
            assert np.mean((v @ pre.x_bar) ** 2) <= 1.0 + 1e-12

    def test_empirical_mean_sensitivity_never_exceeds_bound(self):
        # module-scale check; the acceptance suite runs the full-size one
        rng = np.random.default_rng(17)
        m, n = 9, 40
        bound = mean_sensitivity(m, n)
        worst = 0.0
        for _ in range(300):
            X = unit_columns(m, n, seed=rng.integers(2**32))
            Xp = X.copy()
            j = rng.integers(n)
            col = rng.normal(size=m)
            Xp[:, j] = col / np.linalg.norm(col)
            gap = np.abs(X.mean(axis=1) - Xp.mean(axis=1)).sum()
            worst = max(worst, gap)
        assert worst <= bound


def test_laplace_noise_math_matches_scipy():
    # spot-check the inverse-CDF sampler against scipy's laplace fit
    draws = laplace_perturb(np.zeros(50_000), 2.5, np.random.default_rng(8))
    assert stats.kstest(draws, stats.laplace(scale=2.5).cdf).pvalue > 0.01
