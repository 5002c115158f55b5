import math

import numpy as np
import pytest
from scipy import stats

from ronsynth.dataset import DataError, Dataset
from ronsynth.mechanism import (
    LedgerEntry,
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
    mean_sensitivity,
)
from ronsynth.preprocessing import (
    center_with_mean,
    column_sq_norms,
    dp_mean,
    preprocess,
    sample_normalize,
)
from ronsynth.projection import generate_ron
from ronsynth.synthesis import synth_gmm, synth_supervised, synth_unsupervised
from reference import spy_preprocess, unit_columns


def preprocess_one_class(X, epsilon_mu, rng, p=2):
    """preprocess for one class, projecting onto a fresh p-dim basis."""
    spend = LedgerEntry("mean", mean_sensitivity(*X.shape), epsilon_mu)
    return preprocess(X, column_sq_norms(X), [spend], [rng],
                      lambda: generate_ron(X.shape[0], p, rng))


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

    def test_column_too_large_to_square_is_an_error_naming_the_index(self):
        X = np.array([[1.0, 1e200], [1.0, 1.0]])
        with pytest.raises(ValueError, match="sample 1 is too large"):
            sample_normalize(X)

    def test_all_columns_come_out_unit(self):
        out = sample_normalize(np.random.default_rng(0).normal(size=(7, 40)))
        assert np.allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)

    def test_data_in_small_units_releases_as_in_unit_ones(self):
        # normalizing divides the scale out; only a squared norm below the
        # smallest normal double reads as zero
        X = np.random.default_rng(9).normal(size=(6, 200))
        small, unit = (synth_unsupervised(Dataset(features=scale * X), 2, 0.3, 0.7,
                                          rng=np.random.default_rng(1)).dataset.features
                       for scale in (1e-13, 1.0))
        np.testing.assert_allclose(small, unit, rtol=1e-7, atol=0.0)
        X[:, 5] = 0.0
        with pytest.raises(DataError, match="sample 5 has zero norm"):
            synth_unsupervised(Dataset(features=1e-13 * X), 2, 0.3, 0.7,
                               rng=np.random.default_rng(1))


class TestDpMean:
    def test_noise_scale_matches_calibration(self):
        # at m=4, n=10, eps=1 the Laplace scale must be 2*sqrt(4)/10 = 0.4;
        # verify by replaying the same seed through the raw mechanism
        X = unit_columns(np.random.default_rng(1), 4, 10)
        out = dp_mean(X, 1.0, np.random.default_rng(5))
        expected = laplace_perturb(X.mean(axis=1), 0.4, np.random.default_rng(5))
        assert np.array_equal(out, expected)

    def test_infinite_budget_returns_exact_mean(self):
        X = unit_columns(np.random.default_rng(2), 6, 25)
        assert np.array_equal(dp_mean(X, math.inf, np.random.default_rng(0)),
                              X.mean(axis=1))

    def test_seeded_determinism(self):
        X = unit_columns(np.random.default_rng(3), 5, 12)
        a = dp_mean(X, 0.5, np.random.default_rng(7))
        b = dp_mean(X, 0.5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_unnormalized_input(self):
        X = np.random.default_rng(4).normal(size=(5, 12))
        with pytest.raises(ValueError, match="not sample-normalized"):
            dp_mean(X, 1.0, np.random.default_rng(0))

    def test_rejects_nonpositive_epsilon(self):
        X = unit_columns(np.random.default_rng(5), 3, 4)
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                dp_mean(X, eps, np.random.default_rng(0))

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
        pre = preprocess_one_class(X, 1.0, np.random.default_rng(0))
        x_bar = center_with_mean(X, pre.mu_dp[:, 0])
        assert np.allclose(np.linalg.norm(x_bar, axis=0), 1.0, atol=1e-12)
        # the factored stage projects exactly those columns
        (x_tilde,) = pre.x_tilde
        assert np.max(np.abs(x_tilde - pre.projection.W.T @ x_bar)) <= 1e-12
        assert pre.mu_dp.shape == (8, 1)
        assert pre.zero_norm_rows_dropped == 0

    def test_neighbors_differ_in_exactly_one_column_given_same_mean(self):
        # fixing the released mean, replacing one sample must change
        # exactly that column of the output
        m, n, j = 6, 30, 11
        X = np.random.default_rng(11).normal(size=(m, n))
        Xp = X.copy()
        Xp[:, j] = np.random.default_rng(99).normal(size=m)
        mu = dp_mean(sample_normalize(X), 1.0, np.random.default_rng(1))
        out = center_with_mean(X, mu)
        outp = center_with_mean(Xp, mu)
        diffs = np.flatnonzero(np.any(out != outp, axis=0))
        assert list(diffs) == [j]

    def test_column_equal_to_mean_becomes_zero_and_is_counted(self):
        mu = np.zeros(4)
        mu[2] = 1.0  # unit vector
        X = np.random.default_rng(12).normal(size=(4, 9))
        X[:, 3] = 2.0 * mu  # normalizes onto mu, centers to zero
        x_bar = center_with_mean(X, mu)
        assert x_bar.shape == (4, 9)
        assert np.flatnonzero(~x_bar.any(axis=0)).tolist() == [3]
        others = np.delete(x_bar, 3, axis=1)
        assert np.allclose(np.linalg.norm(others, axis=0), 1.0, atol=1e-12)

    def test_all_collapsed_input_is_released_at_public_n(self, monkeypatch):
        # every column is a positive multiple of one vector, so with an
        # exact mean every sample collapses in both one-class modes: each
        # is counted and projects to zero. A mixture does not center, so
        # nothing collapses there. Each release still covers all n
        # samples, and its covariance noise uses the public n
        m, n, p, a = 5, 40, 2, 1.0
        rng = np.random.default_rng(18)
        X = np.outer(rng.normal(size=m), rng.uniform(0.5, 3.0, size=n))
        pre = preprocess_one_class(X, math.inf, np.random.default_rng(0), p)
        assert pre.zero_norm_rows_dropped == n
        seen = spy_preprocess(monkeypatch)
        unsup = synth_unsupervised(Dataset(features=X), p, math.inf, 1.0, rng=rng)
        sup = synth_supervised(Dataset(features=X, labels=rng.uniform(-a, a, size=n)), p,
                               math.inf, 1.0, a, rng=rng)
        gmm = synth_gmm(Dataset(features=X, class_labels=np.repeat(["a", "b"], [15, 25])),
                        p, math.inf, 1.0, rng=rng)
        assert [pre.zero_norm_rows_dropped for pre in seen] == [n, n, 0]
        assert not any(np.any(x_tilde) for pre in seen[:2] for x_tilde in pre.x_tilde)
        assert unsup.dataset.n_samples == sup.dataset.n_samples == gmm.dataset.n_samples == n
        assert unsup.ledger.entries[-1].sensitivity == cov_sensitivity(p, n)
        assert sup.ledger.entries[-1].sensitivity == aug_cov_sensitivity(p, n, a)
        assert [e.sensitivity for e in gmm.ledger.entries[1::2]] == \
            [cov_sensitivity(p, 15), cov_sensitivity(p, 25)]

    def test_center_with_mean_spends_nothing(self):
        X = np.random.default_rng(14).normal(size=(5, 20))
        out = center_with_mean(X, np.zeros(5))
        # the given mean is used as released: no noise is drawn for it,
        # so centering on zero leaves the normalized samples as they are
        assert np.allclose(out, sample_normalize(X), rtol=0.0, atol=1e-15)
        assert np.allclose(np.linalg.norm(out, axis=0), 1.0)


class TestRegularityConditions:
    def test_second_moment_is_one_and_directional_bound(self):
        # every output norm is exactly 1, so the mean squared norm is 1;
        # random unit probes v must satisfy mean <v, x>^2 <= 1
        X = np.random.default_rng(15).normal(size=(12, 300))
        pre = preprocess_one_class(X, 1.0, np.random.default_rng(2))
        x_bar = center_with_mean(X, pre.mu_dp[:, 0])
        norms_sq = np.sum(x_bar**2, axis=0)
        assert np.allclose(norms_sq.mean(), 1.0, atol=1e-10)
        rng = np.random.default_rng(16)
        for _ in range(100):
            v = rng.normal(size=12)
            v /= np.linalg.norm(v)
            assert np.mean((v @ x_bar) ** 2) <= 1.0 + 1e-12


def test_laplace_noise_math_matches_scipy():
    # spot-check the inverse-CDF sampler against scipy's laplace fit
    draws = laplace_perturb(np.zeros(50_000), 2.5, np.random.default_rng(8))
    assert stats.kstest(draws, stats.laplace(scale=2.5).cdf).pvalue > 0.01
