import math

import numpy as np
import pytest

from ronsynth import preprocessing, synthesis
from ronsynth.dataset import Dataset
from ronsynth.mechanism import (
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
)
from ronsynth.preprocessing import sample_normalize
from ronsynth.projection import generate_ron
from ronsynth.synthesis import (
    GaussianModel,
    dp_perturb_cov,
    estimate_aug_cov,
    estimate_cov,
    mode_transform,
    psd_repair,
    sample_gaussian,
    synth_gmm,
    synth_supervised,
    synth_unsupervised,
    transform_features,
)


def unit_columns(m, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n))
    return X / np.linalg.norm(X, axis=0)


class TestEstimateCov:
    def test_single_column_outer_product(self):
        out = estimate_cov(np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_basis_columns(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(estimate_cov(X), 0.5 * np.eye(2))

    def test_exactly_symmetric(self):
        X = np.random.default_rng(0).normal(size=(6, 40))
        S = estimate_cov(X)
        assert np.array_equal(S, S.T)

    def test_no_mean_subtraction(self):
        # shifting all samples by a constant must shift the estimate:
        # this is a second-moment matrix, not a centered covariance
        rng = np.random.default_rng(1)
        X = rng.normal(size=(3, 50))
        shifted = estimate_cov(X + 10.0)
        assert not np.allclose(shifted, estimate_cov(X))


class TestEstimateAugCov:
    def test_zero_labels_degenerate(self):
        X = np.random.default_rng(2).normal(size=(4, 30))
        y = np.zeros(30)
        aug = estimate_aug_cov(X, y)
        assert np.array_equal(aug[:4, :4], estimate_cov(X))
        assert np.array_equal(aug[4, :], np.zeros(5))
        assert np.array_equal(aug[:, 4], np.zeros(5))

    def test_hand_block_computation(self):
        aug = estimate_aug_cov(np.array([[1.0], [0.0]]), np.array([1.0]))
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        assert np.array_equal(aug, expected)

    def test_top_left_block_is_bitwise_estimate_cov(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 55))
        y = rng.uniform(-1, 1, size=55)
        assert np.array_equal(estimate_aug_cov(X, y)[:7, :7], estimate_cov(X))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            estimate_aug_cov(np.zeros((2, 3)), np.zeros(4))


class TestDpPerturbCov:
    def test_output_exactly_symmetric(self):
        cov = estimate_cov(np.random.default_rng(4).normal(size=(5, 20)))
        noisy = dp_perturb_cov(cov, 0.1, 0.7, np.random.default_rng(0))
        assert np.array_equal(noisy, noisy.T)

    def test_infinite_budget_is_identity(self):
        cov = estimate_cov(np.random.default_rng(5).normal(size=(4, 20)))
        assert np.array_equal(dp_perturb_cov(cov, 0.1, math.inf,
                                             np.random.default_rng(0)), cov)

    def test_noise_drawn_once_per_upper_entry_and_mirrored(self):
        # one Laplace draw per entry i <= j, the entries the sensitivity
        # covers; the lower triangle repeats them
        cov = estimate_cov(np.random.default_rng(6).normal(size=(4, 20)))
        noisy = dp_perturb_cov(cov, 0.1, 0.5, np.random.default_rng(2))
        upper = np.triu_indices(4)
        expected = laplace_perturb(cov[upper], 0.2, np.random.default_rng(2))
        assert np.array_equal(noisy[upper], expected)
        assert np.array_equal(noisy, noisy.T)

    def test_noise_scale_calibration(self):
        # p=9, n=100, eps_sigma=0.7 -> b = 0.1/0.7
        assert cov_sensitivity(9, 100) / 0.7 == pytest.approx(0.14285714285714285)

    def test_rejects_nonpositive_epsilon(self):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                dp_perturb_cov(np.eye(2), 0.1, eps, np.random.default_rng(0))


class TestPsdRepair:
    def test_two_dim_spec_example(self):
        # eigenvalues (-0.1, 0.5) clip to (0, 0.5) at floor 0
        c, s = math.cos(0.3), math.sin(0.3)
        Q = np.array([[c, -s], [s, c]])
        cov = (Q * np.array([-0.1, 0.5])) @ Q.T
        cov = (cov + cov.T) / 2
        repaired, applied = psd_repair(cov)
        assert applied
        assert np.allclose(np.linalg.eigvalsh(repaired), [0.0, 0.5], atol=1e-12)

    def test_clips_negative_eigenvalue(self):
        V = generate_ron(3, 2, np.random.default_rng(6)).W
        Q = np.column_stack([V, np.cross(V[:, 0], V[:, 1])])
        cov = (Q * np.array([-0.1, 0.5, 0.2])) @ Q.T
        cov = (cov + cov.T) / 2
        repaired, applied = psd_repair(cov)
        assert applied
        eigvals = np.linalg.eigvalsh(repaired)
        assert eigvals.min() >= -1e-12
        assert eigvals.max() == pytest.approx(0.5, abs=1e-10)

    def test_psd_input_returned_unchanged(self):
        cov = estimate_cov(np.random.default_rng(7).normal(size=(4, 50)))
        repaired, applied = psd_repair(cov)
        assert not applied
        assert repaired is cov

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            psd_repair(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSampleGaussian:
    def test_identity_covariance_monte_carlo(self):
        model = GaussianModel(np.zeros(2), np.eye(2))
        draws = sample_gaussian(model, 10**5, np.random.default_rng(8))
        emp = draws @ draws.T / draws.shape[1]
        assert np.max(np.abs(emp - np.eye(2))) <= 0.03
        assert np.max(np.abs(draws.mean(axis=1))) <= 0.02

    def test_zero_covariance_is_point_mass(self):
        mean = np.array([1.5, -2.0])
        model = GaussianModel(mean, np.zeros((2, 2)))
        draws = sample_gaussian(model, 100, np.random.default_rng(9))
        assert np.allclose(draws, mean[:, None])

    def test_seeded_determinism(self):
        model = GaussianModel(np.zeros(3), np.eye(3))
        a = sample_gaussian(model, 50, np.random.default_rng(10))
        b = sample_gaussian(model, 50, np.random.default_rng(10))
        assert np.array_equal(a, b)

    def test_singular_covariance_sampled_without_failure(self):
        cov = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        model = GaussianModel(np.zeros(3), cov)
        draws = sample_gaussian(model, 1000, np.random.default_rng(11))
        # samples live on the rank-1 line
        assert np.linalg.matrix_rank(draws @ draws.T, tol=1e-8) == 1

    def test_rejects_indefinite_covariance(self):
        model = GaussianModel(np.zeros(2), np.diag([1.0, -0.5]))
        with pytest.raises(ValueError, match="PSD"):
            sample_gaussian(model, 10, np.random.default_rng(12))

    def test_blocks_match_one_product_bit_for_bit(self):
        # the draw is transformed in place block by block; at a count
        # that leaves a partial last block the samples are still those
        # of one product over the whole draw
        rng = np.random.default_rng(13)
        A = rng.normal(size=(5, 5))
        model = GaussianModel(rng.normal(size=5), A @ A.T)
        n = 2 * synthesis.SAMPLE_BLOCK + 123
        eigvals, eigvecs = np.linalg.eigh(model.covariance)
        root = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
        z = np.random.default_rng(14).standard_normal((5, n))
        expected = model.mean[:, None] + root @ z
        assert np.array_equal(sample_gaussian(model, n, np.random.default_rng(14)), expected)


class TestGaussianModelType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianModel(np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianModel(np.zeros(3), np.eye(2))


def make_data(m=12, n=400, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.normal(size=(m, n)))


class TestUnsupervisedPipeline:
    def test_budget_total_and_shapes(self):
        res = synth_unsupervised(make_data(), 4, 0.3, 0.7,
                                 rng=np.random.default_rng(1))
        assert res.ledger.total() == 0.3 + 0.7
        assert res.dataset.features.shape == (4, 400)
        assert res.dataset.labels is None

    def test_n_synth_defaults_to_n(self):
        res = synth_unsupervised(make_data(n=123), 3, 0.3, 0.7,
                                 rng=np.random.default_rng(2))
        assert res.dataset.n_samples == 123

    def test_explicit_n_synth(self):
        res = synth_unsupervised(make_data(), 3, 0.3, 0.7, n_synth=77,
                                 rng=np.random.default_rng(3))
        assert res.dataset.n_samples == 77

    def test_released_covariance_is_psd_and_symmetric(self):
        res = synth_unsupervised(make_data(seed=4), 5, 0.1, 0.1,
                                 rng=np.random.default_rng(4))
        cov = res.model.covariance
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValueError):
            synth_unsupervised(make_data(m=5), 5, 0.3, 0.7,
                               rng=np.random.default_rng(0))

    def test_noiseless_release_matches_projected_moments(self):
        # with both budgets infinite the model covariance equals the
        # plain projected second-moment matrix
        data = make_data(seed=5)
        rng = np.random.default_rng(6)
        res = synth_unsupervised(data, 4, math.inf, math.inf, rng=rng)
        assert [e.epsilon for e in res.ledger.entries] == [math.inf, math.inf]
        assert res.ledger.total() == math.inf
        assert not res.psd_repair_applied

    def test_exact_mean_release_totals_infinity(self):
        # a noise-free spend is still a spend: the ledger must not report
        # the finite covariance budget alone
        res = synth_unsupervised(make_data(seed=5), 2, math.inf, 1.0,
                                 rng=np.random.default_rng(6))
        assert [e.epsilon for e in res.ledger.entries] == [math.inf, 1.0]
        assert res.ledger.total() == math.inf

    def test_noiseless_monte_carlo_moments_within_three_se(self):
        # 10^6 noise-free samples: the empirical second moment must sit
        # within 3 standard errors of the model covariance, per entry
        data = make_data(seed=6)
        res = synth_unsupervised(data, 4, math.inf, math.inf, n_synth=10**6,
                                 rng=np.random.default_rng(7))
        cov = res.model.covariance
        draws = res.dataset.features
        emp = draws @ draws.T / draws.shape[1]
        # Var of a Gaussian second-moment entry: (S_ii S_jj + S_ij^2)/N
        diag = np.diag(cov)
        se = np.sqrt((np.outer(diag, diag) + cov**2) / draws.shape[1])
        assert np.all(np.abs(emp - cov) <= 3.0 * se)


class TestSupervisedPipeline:
    def make_labeled(self, n=500, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, n))
        y = np.clip(rng.normal(scale=0.4, size=n), -1, 1)
        return Dataset(features=X, labels=y)

    def test_budget_total_and_label_column(self):
        res = synth_supervised(self.make_labeled(), 4, 0.3, 0.7, 1.0,
                               rng=np.random.default_rng(1))
        assert res.ledger.total() == 1.0
        assert res.dataset.features.shape == (4, 500)
        assert res.dataset.labels.shape == (500,)
        spends = [e.query for e in res.ledger.entries]
        assert spends == ["mean", "augmented_covariance"]
        (aug_entry,) = [e for e in res.ledger.entries if e.query != "mean"]
        assert aug_entry.sensitivity == aug_cov_sensitivity(4, 500, 1.0)

    def test_noiseless_label_variance_matches_formula(self):
        # at infinite budget the label block of the model is exactly
        # y'y/n, so the synthetic label second moment converges to it
        data = self.make_labeled(n=800, seed=7)
        res = synth_supervised(data, 4, math.inf, math.inf, 1.0, n_synth=200_000,
                               rng=np.random.default_rng(8))
        target = float(data.labels @ data.labels) / 800
        assert res.model.covariance[4, 4] == pytest.approx(target, rel=1e-12)
        synth_second_moment = float(np.mean(res.dataset.labels**2))
        assert synth_second_moment == pytest.approx(target, rel=0.05)

    def test_requires_labels_and_bound(self):
        with pytest.raises(ValueError, match="label"):
            synth_supervised(make_data(), 3, 0.3, 0.7, 1.0, rng=np.random.default_rng(0))
        unbounded = Dataset(features=np.random.default_rng(1).normal(size=(5, 20)),
                            labels=np.zeros(20))
        with pytest.raises(ValueError, match="label bound"):
            synth_supervised(unbounded, 3, 0.3, 0.7, None, rng=np.random.default_rng(0))

    def test_rejects_nonpositive_bound(self, monkeypatch):
        # a bound that is not positive and finite fails before any pass over X
        monkeypatch.setattr(synthesis, "preprocess", None)
        labeled = Dataset(features=np.random.default_rng(1).normal(size=(5, 20)),
                          labels=np.zeros(20))
        for bound in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="label bound"):
                synth_supervised(labeled, 3, 0.3, 0.7, bound, rng=np.random.default_rng(0))

    def test_release_clips_labels_to_its_bound(self):
        # labels past the bound release as if clipped in advance, bit for
        # bit, and the caller's Dataset keeps the labels it was given
        rng = np.random.default_rng(12)
        X = rng.normal(size=(10, 300))
        y = rng.normal(scale=2.0, size=300)
        raw = Dataset(features=X, labels=y)
        clipped = Dataset(features=X, labels=np.clip(y, -1.5, 1.5))
        assert not np.array_equal(raw.labels, clipped.labels)
        a, b = (synth_supervised(data, 4, 0.3, 0.7, 1.5, rng=np.random.default_rng(13))
                for data in (raw, clipped))
        assert np.array_equal(a.dataset.features, b.dataset.features)
        assert np.array_equal(a.dataset.labels, b.dataset.labels)
        assert np.array_equal(a.model.covariance, b.model.covariance)
        assert np.array_equal(raw.labels, y)


class TestGmmPipeline:
    def make_classed(self, n_a=300, n_b=200, seed=0):
        rng = np.random.default_rng(seed)
        X = np.concatenate([
            rng.normal(loc=2.0, size=(8, n_a)),
            rng.normal(loc=-2.0, size=(8, n_b)),
        ], axis=1)
        labels = np.array(["a"] * n_a + ["b"] * n_b)
        return Dataset(features=X, class_labels=labels)

    def test_parallel_composition_total(self):
        res = synth_gmm(self.make_classed(), 3, 0.3, 0.7,
                        rng=np.random.default_rng(1))
        assert res.ledger.total() == 0.3 + 0.7
        assert len(res.ledger.entries) == 4  # 2 classes x (mean + cov)

    def test_class_counts_and_alphabet(self):
        res = synth_gmm(self.make_classed(), 3, 0.3, 0.7,
                        rng=np.random.default_rng(2))
        labels, counts = np.unique(res.dataset.class_labels, return_counts=True)
        assert list(labels) == ["a", "b"]
        assert list(counts) == [300, 200]

    def test_uniform_count_override(self):
        res = synth_gmm(self.make_classed(), 3, 0.3, 0.7, per_class_n_synth=25,
                        rng=np.random.default_rng(4))
        assert res.dataset.n_samples == 50

    def test_mode_means_are_projected_dp_means(self):
        # noise-free means: each mode mean is the projected class mean of
        # the normalized samples, up to the order of the sums
        data = self.make_classed(seed=5)
        res = synth_gmm(data, 3, math.inf, 0.7, rng=np.random.default_rng(5))
        for mode in res.model.modes:
            X_c = data.features[:, data.class_labels == mode.label]
            expected = mode.projection.W.T @ sample_normalize(X_c).mean(axis=1)
            assert np.max(np.abs(mode.model.mean - expected)) <= 1e-12
            assert np.any(mode.model.mean != 0.0)

    def test_noiseless_mode_covariance_is_the_chart_covariance(self):
        # the mode covariance is the chart's second moment minus the
        # outer product of its mean: the covariance of the class's chart
        data = self.make_classed(seed=6)
        res = synth_gmm(data, 3, math.inf, math.inf, rng=np.random.default_rng(6))
        for mode in res.model.modes:
            chart = mode_transform(mode, data.features[:, data.class_labels == mode.label])
            expected = np.cov(chart, bias=True)
            assert np.max(np.abs(mode.model.covariance - expected)) <= 1e-12

    def test_every_mode_holds_the_release_projection(self):
        res = synth_gmm(self.make_classed(), 3, 0.3, 0.7, rng=np.random.default_rng(6))
        assert all(mode.projection is res.projection for mode in res.model.modes)

    def test_shared_projection_flag(self):
        # one shared basis is the only gmm path; the keyword that chose it is gone
        with pytest.raises(TypeError, match="shared_projection"):
            synth_gmm(self.make_classed(), 3, 0.3, 0.7, shared_projection=True,
                      rng=np.random.default_rng(7))
        res = synth_gmm(self.make_classed(), 3, 0.3, 0.7, rng=np.random.default_rng(7))
        W_a, W_b = (mode.projection.W for mode in res.model.modes)
        assert np.array_equal(W_a, W_b)
        assert res.projection is not None

    def test_one_basis_is_drawn_per_release(self, monkeypatch):
        calls = []

        def spy(m, p, rng):
            calls.append((m, p))
            return generate_ron(m, p, rng)

        monkeypatch.setattr(synthesis, "generate_ron", spy)
        res = synth_gmm(self.make_classed(), 3, 0.3, 0.7, rng=np.random.default_rng(7))
        assert len(res.model.modes) == 2
        assert calls == [(8, 3)]

    def test_requires_class_labels(self):
        with pytest.raises(ValueError, match="categorical"):
            synth_gmm(make_data(), 3, 0.3, 0.7, rng=np.random.default_rng(0))

    def test_seeded_determinism(self):
        a = synth_gmm(self.make_classed(), 3, 0.3, 0.7, rng=np.random.default_rng(9))
        b = synth_gmm(self.make_classed(), 3, 0.3, 0.7, rng=np.random.default_rng(9))
        assert np.array_equal(a.dataset.features, b.dataset.features)


@pytest.mark.parametrize("mode", ["unsupervised", "gmm"])
def test_empty_sample_count_is_rejected_before_fitting(mode, monkeypatch):
    repairs = []

    def spy(cov):
        repairs.append(cov)
        return psd_repair(cov)

    monkeypatch.setattr(synthesis, "psd_repair", spy)
    X = make_data(n=40).features
    with pytest.raises(ValueError, match="n_synth must be positive, got 0"):
        if mode == "gmm":
            synth_gmm(Dataset(features=X, class_labels=np.repeat(["a", "b"], 20)), 2, 0.3,
                      0.7, per_class_n_synth=0, rng=np.random.default_rng(0))
        else:
            synth_unsupervised(Dataset(features=X), 2, 0.3, 0.7, n_synth=0,
                               rng=np.random.default_rng(0))
    assert repairs == []


@pytest.mark.parametrize("mode", ["unsupervised", "supervised", "gmm"])
def test_every_noise_draw_uses_its_ledger_entry(mode, monkeypatch):
    # the epsilon the ledger prints is the one delivered: every Laplace
    # draw of a release has scale sensitivity / epsilon of its entry. A
    # fit draws every class's mean noise before any covariance noise.
    scales = []

    def capture(values, scale_b, rng):
        scales.append(scale_b)
        return laplace_perturb(values, scale_b, rng)

    monkeypatch.setattr(preprocessing, "laplace_perturb", capture)
    monkeypatch.setattr(synthesis, "laplace_perturb", capture)
    m, n, p = 10, 300, 3
    rng = np.random.default_rng(31)
    X = rng.normal(size=(m, n))
    if mode == "gmm":
        data = Dataset(features=X, class_labels=np.repeat(["a", "b", "c"], [50, 100, 150]))
        res = synth_gmm(data, p, 0.4, 0.9, rng=rng)
    elif mode == "supervised":
        data = Dataset(features=X, labels=rng.uniform(-1.5, 1.5, n))
        res = synth_supervised(data, p, 0.4, 0.9, 1.5, rng=rng)
    else:
        res = synth_unsupervised(Dataset(features=X), p, 0.4, 0.9, rng=rng)
    assert len(scales) == (6 if mode == "gmm" else 2)
    entries = sorted(res.ledger.entries, key=lambda e: e.query != "mean")  # stable
    assert scales == [e.sensitivity / e.epsilon for e in entries]


def upper_l1(A):
    return float(np.abs(A[np.triu_indices(A.shape[0])]).sum())


class TestEmpiricalSensitivity:
    """Monte-Carlo soundness of the closed-form bounds (module scale).

    Matrix-valued gaps are measured in the entrywise L1 norm over the
    upper triangle, the entries the mechanism adds noise to.
    """

    def test_second_moment_sensitivity(self):
        rng = np.random.default_rng(13)
        p, n = 6, 50
        bound = cov_sensitivity(p, n)
        for _ in range(300):
            X = unit_columns(p, n, seed=rng.integers(2**32))
            Xp = X.copy()
            col = rng.normal(size=p)
            Xp[:, rng.integers(n)] = col / np.linalg.norm(col)
            gap = upper_l1(estimate_cov(X) - estimate_cov(Xp))
            assert gap <= bound

    def test_augmented_sensitivity(self):
        rng = np.random.default_rng(14)
        p, n, a = 4, 40, 1.0
        bound = aug_cov_sensitivity(p, n, a)
        for _ in range(300):
            X = unit_columns(p, n, seed=rng.integers(2**32))
            y = rng.uniform(-a, a, size=n)
            Xp, yp = X.copy(), y.copy()
            j = rng.integers(n)
            col = rng.normal(size=p)
            Xp[:, j] = col / np.linalg.norm(col)
            yp[j] = rng.uniform(-a, a)
            gap = upper_l1(estimate_aug_cov(X, y) - estimate_aug_cov(Xp, yp))
            assert gap <= bound


def spy_preprocess(monkeypatch):
    """Record every PreprocessedDataset a release builds."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(preprocessing.preprocess(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(synthesis, "preprocess", spy)
    return seen


class TestTransforms:
    def test_transform_features_matches_training_chart(self, monkeypatch):
        seen = spy_preprocess(monkeypatch)
        rng = np.random.default_rng(15)
        data = make_data(seed=15)
        res = synth_unsupervised(data, 4, 0.5, math.inf, rng=rng)
        feats = transform_features(res.mu_dp, res.projection, data.features)
        # the training data pushed through its own transform is the chart
        # the model was fit on, bit for bit
        (pre,) = seen
        assert np.array_equal(feats, pre.x_tilde[0])
        assert np.allclose(estimate_cov(feats), res.model.covariance)
        # so it is with the norms the Dataset already holds
        assert np.array_equal(feats, transform_features(res.mu_dp, res.projection,
                                                        data.features, data.sq_norms))

    def test_mode_transform_matches_training_chart(self, monkeypatch):
        # columns in span(W) project to norm 1, which rounding moves either
        # way; the release clips its training charts to the unit ball, and
        # the held-out transform must too to map them back bit for bit
        m, p, n, seed = 10, 3, 400, 18
        W = generate_ron(m, p, np.random.default_rng(seed)).W  # the release's basis
        rng = np.random.default_rng(19)
        X = W @ rng.normal(size=(p, n))
        assert np.any(np.linalg.norm(W.T @ (X / np.linalg.norm(X, axis=0)), axis=0) > 1.0)
        data = Dataset(features=X, class_labels=rng.choice(["a", "b"], size=n))
        seen = spy_preprocess(monkeypatch)
        res = synth_gmm(data, p, 0.5, math.inf, rng=np.random.default_rng(seed))
        assert np.array_equal(res.projection.W, W)
        (pre,) = seen
        for c, mode in enumerate(res.model.modes):
            for sq_norms in (None, data.sq_norms):
                chart = mode_transform(mode, data.features, sq_norms)
                assert np.array_equal(chart[:, data.class_labels == mode.label],
                                      pre.x_tilde[c])

    def test_transform_features_rejects_a_wrong_row_count(self):
        rng = np.random.default_rng(17)
        proj = generate_ron(6, 2, rng)
        with pytest.raises(ValueError, match="expected a matrix with 6 rows"):
            transform_features(np.zeros(6), proj, rng.normal(size=(5, 10)))

    def test_transforms_reject_norms_of_another_sample_count(self):
        rng = np.random.default_rng(17)
        data = make_data(seed=17)
        res = synth_unsupervised(data, 2, 1.0, 1.0, rng=rng)
        with pytest.raises(ValueError, match=f"expected {data.n_samples} squared norms"):
            transform_features(res.mu_dp, res.projection, data.features, data.sq_norms[1:])
        gmm = synth_gmm(Dataset(features=data.features,
                                class_labels=np.resize(["a", "b"], data.n_samples)),
                        2, 1.0, 1.0, rng=rng)
        with pytest.raises(ValueError, match=f"expected {data.n_samples} squared norms"):
            mode_transform(gmm.model.modes[0], data.features, data.sq_norms[:1])

    def test_mode_transform_centers_on_mode_mean(self):
        rng = np.random.default_rng(16)
        n = 4000
        X = rng.normal(loc=3.0, size=(10, n))
        data = Dataset(features=X, class_labels=np.array(["only"] * n))
        res = synth_gmm(data, 3, math.inf, math.inf, rng=rng)
        (mode,) = res.model.modes
        projected = mode_transform(mode, X)
        assert np.max(np.abs(projected.mean(axis=1) - mode.model.mean)) <= 0.01
