import math

import numpy as np
import pytest

from ronsynth import mechanism, preprocessing, synthesis
from ronsynth.dataset import Dataset
from ronsynth.mechanism import (
    LedgerEntry,
    aug_cov_sensitivity,
    laplace_perturb,
)
from ronsynth.preprocessing import sample_normalize
from ronsynth.projection import generate_ron
from ronsynth.synthesis import (
    GaussianModel,
    GmmMode,
    GmmModel,
    dp_perturb_cov,
    estimate_aug_cov,
    estimate_cov,
    mode_transform,
    psd_repair,
    measure,
    sample_gaussian,
    synth_gmm,
    synth_supervised,
    synth_unsupervised,
    synthesize,
    transform_features,
)
from reference import spy_preprocess, unit_columns, upper_l1


class TestEstimateCov:
    def test_single_column_outer_product(self):
        out = estimate_cov(np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_basis_columns(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(estimate_cov(X), 0.5 * np.eye(2))

    def test_exactly_symmetric(self):
        # X Xᵀ is exactly symmetric whatever X's memory layout
        X = np.random.default_rng(0).normal(size=(6, 40))
        for layout in (X, np.asfortranarray(X), X.T, X[:, ::3]):
            S = estimate_cov(layout)
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
        noisy = dp_perturb_cov(cov, LedgerEntry("cov", 0.1, 0.7), np.random.default_rng(0))
        assert np.array_equal(noisy, noisy.T)

    def test_infinite_budget_is_identity(self):
        cov = estimate_cov(np.random.default_rng(5).normal(size=(4, 20)))
        assert np.array_equal(dp_perturb_cov(cov, LedgerEntry("cov", 0.1, math.inf),
                                             np.random.default_rng(0)), cov)

    def test_noise_drawn_once_per_upper_entry_and_mirrored(self):
        # one Laplace draw per entry i <= j, the entries the sensitivity
        # covers; the lower triangle repeats them
        cov = estimate_cov(np.random.default_rng(6).normal(size=(4, 20)))
        noisy = dp_perturb_cov(cov, LedgerEntry("cov", 0.1, 0.5), np.random.default_rng(2))
        upper = np.triu_indices(4)
        expected = laplace_perturb(cov[upper], 0.2, np.random.default_rng(2))
        assert np.array_equal(noisy[upper], expected)
        assert np.array_equal(noisy, noisy.T)


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

    def test_repaired_covariance_is_clipped_not_tested(self):
        # psd_repair's rebuild of a spectrum spanning 1e12 leaves rounding
        # far below zero in absolute terms; the sampler clips it and draws
        # mean + (V sqrt(max(lambda, 0))) z
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        cov = (Q * np.array([-1.0, 1e-3, 1.0, 1e6, 1e12])) @ Q.T
        cov, applied = psd_repair((cov + cov.T) / 2)
        assert applied
        eigvals, eigvecs = np.linalg.eigh(cov)
        assert eigvals.min() < -1e-10
        model = GaussianModel(rng.normal(size=5), cov)
        z = np.random.default_rng(12).standard_normal((5, 50))
        expected = model.mean[:, None] + (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ z
        assert np.array_equal(sample_gaussian(model, 50, np.random.default_rng(12)), expected)

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


def test_mixture_labels_must_differ_as_written():
    # 1 and "1" are distinct objects but would write the same class cell
    proj = generate_ron(3, 1, np.random.default_rng(0))
    modes = [GmmMode(label, GaussianModel(np.zeros(1), np.eye(1)), proj)
             for label in (1, "1")]
    with pytest.raises(ValueError, match="^class labels of mixture modes must be distinct$"):
        GmmModel(modes)


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
    # rejected before the data is measured, not only before the repair
    stages = []
    for name in ("preprocess", "psd_repair"):
        def spy(*args, _stage=getattr(synthesis, name), **kwargs):
            stages.append(_stage)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(synthesis, name, spy)
    X = make_data(n=40).features
    with pytest.raises(ValueError, match="n_synth must be positive, got 0"):
        if mode == "gmm":
            synth_gmm(Dataset(features=X, class_labels=np.repeat(["a", "b"], 20)), 2, 0.3,
                      0.7, per_class_n_synth=0, rng=np.random.default_rng(0))
        else:
            synth_unsupervised(Dataset(features=X), 2, 0.3, 0.7, n_synth=0,
                               rng=np.random.default_rng(0))
    assert stages == []


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan], ids=["0", "-1", "nan"])
@pytest.mark.parametrize("which", ["epsilon_mu", "epsilon_sigma"])
@pytest.mark.parametrize("mode", ["unsupervised", "supervised", "gmm"])
def test_nonpositive_epsilon_is_rejected_before_any_draw(mode, which, eps):
    # the ledger is the one epsilon check: a release records its spends
    # before it draws anything from its generator, the gmm basis included
    X = make_data(n=40).features
    budget = {"epsilon_mu": 0.3, "epsilon_sigma": 0.7, which: eps}
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="recorded epsilon must be positive"):
        if mode == "gmm":
            synth_gmm(Dataset(features=X, class_labels=np.repeat(["a", "b"], 20)), 2,
                      **budget, rng=rng)
        elif mode == "supervised":
            synth_supervised(Dataset(features=X, labels=np.zeros(40)), 2, **budget,
                             label_bound=1.0, rng=rng)
        else:
            synth_unsupervised(Dataset(features=X), 2, **budget, rng=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mode,factor", [
    *(pytest.param(mode, factor, id=mode + ("-doubled_mean_sensitivity" if factor == 2 else ""))
      for factor in (1, 2) for mode in ("unsupervised", "supervised", "gmm")),
])
def test_every_noise_draw_uses_its_ledger_entry(mode, factor, monkeypatch):
    # the epsilon the ledger prints is the one delivered: every Laplace
    # draw of a release has scale sensitivity / epsilon of its entry. A
    # fit draws every class's mean noise before any covariance noise.
    # A calibration changed in mechanism alone (here: a doubled mean
    # sensitivity) reaches the entries and every draw with them.
    scales = []
    single = mechanism.mean_sensitivity
    monkeypatch.setattr(mechanism, "mean_sensitivity", lambda m, n: factor * single(m, n))

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
    # the mean entries carry the (patched) calibration the draws followed
    mean_dim, counts = (p, (50, 100, 150)) if mode == "gmm" else (m, (n,))
    assert [e.sensitivity for e in entries if e.query == "mean"] == \
        [factor * single(mean_dim, n_c) for n_c in counts]


# how far a measured gap may pass its sensitivity by floating-point rounding
ROUNDING_ALLOWANCE = 1e-12


class TestEmpiricalSensitivity:
    """A release's own measurements move by at most what its ledger records.

    Criterion 03 checks the closed-form bounds on random and adversarial
    pairs; this runs ``measure`` itself, noise off, on neighbouring data.
    Matrix-valued gaps are measured in the entrywise L1 norm over the
    upper triangle, the entries the mechanism adds noise to.
    """

    def test_gmm_release_moves_by_at_most_its_ledger(self):
        # measure, noise off, on D and on D' that replaces one sample of
        # class b; each gap is checked against that class's own ledger
        # entry, the sensitivity a release prints
        m, p, j, seed = 20, 8, 15, 3
        X = np.random.default_rng(2).normal(size=(m, 23))
        labels = np.array(["a"] * 10 + ["b"] * 13)

        def measured(column):
            features = X.copy()
            features[:, j] = column
            return measure(Dataset(features=features, class_labels=labels), p, math.inf,
                           math.inf, np.random.default_rng(seed), by_class=True)

        # the basis reads no data: x = W v charts to v for a unit v
        W = measured(X[:, j]).projection.W
        ones, e1 = np.full(p, 1 / math.sqrt(p)), np.eye(p)[0]
        ratios = []
        for v, w in [(ones, -ones), (ones, e1)]:
            D, D2 = measured(W @ v), measured(W @ w)
            assert np.array_equal(D.projection.W, W) and np.array_equal(D2.projection.W, W)
            mean, cov = D.ledger.entries[2:4]  # class b's, after class a's
            assert (mean.query, cov.query) == ("mean", "covariance")
            mean_gap = float(np.abs(D.mu_dp[:, 1] - D2.mu_dp[:, 1]).sum())
            cov_gap = upper_l1(D.moments[1] - D2.moments[1])
            ratios.append((mean_gap / mean.sensitivity, cov_gap / cov.sensitivity))
            # class a's measurements read none of class b's samples
            assert np.array_equal(D.mu_dp[:, 0], D2.mu_dp[:, 0])
            assert np.array_equal(D.moments[0], D2.moments[0])
        assert all(r <= 1 + ROUNDING_ALLOWANCE for pair in ratios for r in pair)
        # x against -x reaches the mean's bound; 1/sqrt(p) against e1 moves
        # the triangle by (p - 2)/p + (p + 1)/2, 5.25 of the bound's 9 at p = 8
        assert ratios[0][0] == pytest.approx(1.0, abs=ROUNDING_ALLOWANCE)
        assert ratios[1][1] == pytest.approx(5.25 / 9, abs=ROUNDING_ALLOWANCE)

    @pytest.mark.parametrize("mode", ["unsupervised", "supervised"])
    def test_one_class_release_moves_by_at_most_its_ledger(self, monkeypatch, mode):
        # measure, noise off, on D and on D' that replaces sample j; the
        # supervised label goes from 3a to -3a, which the clip must bound
        m, p, n, j, seed, a = 20, 8, 23, 15, 3, 1.0
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(m, n)), rng.uniform(-2 * a, 2 * a, n)
        label_bound = a if mode == "supervised" else None

        def measured(column, label):
            features, labels = X.copy(), y.copy()
            features[:, j], labels[j] = column, label
            data = Dataset(features=features, labels=labels if label_bound else None)
            return measure(data, p, math.inf, math.inf, np.random.default_rng(seed),
                           label_bound)

        # the exact mean: x against -x reaches its bound at x = 1/sqrt(m)
        x = np.full(m, 1 / math.sqrt(m))
        D, D2 = measured(x, 3 * a), measured(-x, -3 * a)
        mean = D.ledger.entries[0]
        assert mean.query == "mean"
        mean_ratio = float(np.abs(D.mu_dp - D2.mu_dp).sum()) / mean.sensitivity
        assert mean_ratio == pytest.approx(1.0, abs=ROUNDING_ALLOWANCE)

        # the covariance is private given the released mean (adaptive
        # composition), so both runs take one fixed mean mu
        mu = 0.5 * unit_columns(rng, m, 1)[:, 0]
        monkeypatch.setattr(preprocessing, "_release_mean", lambda mean, spend, rng: mu)
        W = measured(X[:, j], y[j]).projection.W

        def sample(v):
            # x = mu + t W v, t > 0 for unit norm, centres and projects to v
            b = float(mu @ W @ v)
            return mu + (math.sqrt(b * b + 1 - float(mu @ mu)) - b) * (W @ v)

        ones, e1 = np.full(p, 1 / math.sqrt(p)), np.eye(p)[0]
        ratios = []
        for v, w in [(ones, -ones), (ones, e1)]:
            D, D2 = measured(sample(v), 3 * a), measured(sample(w), -3 * a)
            assert np.array_equal(D.projection.W, W) and np.array_equal(D2.projection.W, W)
            cov = D.ledger.entries[1]
            assert cov.query == ("augmented_covariance" if label_bound else "covariance")
            ratios.append(upper_l1(D.moments[0] - D2.moments[0]) / cov.sensitivity)
        assert max(ratios) <= 1 + ROUNDING_ALLOWANCE
        # 1/sqrt(p) against e1 moves the feature block by 5.25 (see the gmm
        # test), and the label column, at labels clipped to a and -a, by
        # a * sum|v_i + w_i| = a (sqrt(p) + 1)
        gap = 5.25 + (a * (math.sqrt(p) + 1) if label_bound else 0.0)
        assert ratios[1] == pytest.approx(gap / n / cov.sensitivity, abs=ROUNDING_ALLOWANCE)


class TestTransforms:
    def test_transform_features_matches_training_chart(self, monkeypatch):
        seen = spy_preprocess(monkeypatch)
        rng = np.random.default_rng(15)
        data = make_data(seed=15)
        res = synth_unsupervised(data, 4, 0.5, math.inf, rng=rng)
        feats = transform_features(res, data)
        # the training data pushed through its own transform is the chart
        # the model was fit on, bit for bit
        (pre,) = seen
        assert np.array_equal(feats, pre.x_tilde[0])
        assert np.allclose(estimate_cov(feats), res.model.covariance)

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
        chart = transform_features(res, data)
        for c, mode in enumerate(res.model.modes):
            cols = data.class_labels == mode.label
            assert np.array_equal(chart[:, cols], pre.x_tilde[c])
            assert np.array_equal(mode_transform(mode, data.features)[:, cols], pre.x_tilde[c])

    @pytest.mark.parametrize("mode", ["unsupervised", "gmm"])
    def test_transform_features_rejects_a_wrong_feature_count(self, mode):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(6, 40))
        if mode == "gmm":
            res = synth_gmm(Dataset(features=X, class_labels=np.resize(["a", "b"], 40)),
                            2, 1.0, 1.0, rng=rng)
        else:
            res = synth_unsupervised(Dataset(features=X), 2, 1.0, 1.0, rng=rng)
        with pytest.raises(ValueError, match="expected data with 6 features, got 5"):
            transform_features(res, Dataset(features=X[:5]))

    def test_mode_transform_centers_on_mode_mean(self):
        rng = np.random.default_rng(16)
        n = 4000
        X = rng.normal(loc=3.0, size=(10, n))
        data = Dataset(features=X, class_labels=np.array(["only"] * n))
        res = synth_gmm(data, 3, math.inf, math.inf, rng=rng)
        (mode,) = res.model.modes
        projected = mode_transform(mode, X)
        assert np.max(np.abs(projected.mean(axis=1) - mode.model.mean)) <= 0.01


def mode_release(mode, X, y, cls):
    """(measure's arguments past the budget, synth_* function and its extra
    arguments) of one mode on features X, real labels y or classes cls."""
    if mode == "gmm":
        return Dataset(features=X, class_labels=cls), {"by_class": True}, synth_gmm, {}
    if mode == "supervised":
        return (Dataset(features=X, labels=y), {"label_bound": 1.0}, synth_supervised,
                {"label_bound": 1.0})
    return Dataset(features=X), {}, synth_unsupervised, {}


def mode_inputs(seed=41, m=9, n=240):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(m, n)), rng.uniform(-1.5, 1.5, n),
            np.resize(np.array(["x", "y", "z"]), n))


class TestMeasureThenSynthesize:
    @pytest.mark.parametrize("mode", ["unsupervised", "supervised", "gmm"])
    def test_synthesize_reads_nothing_of_the_data(self, mode):
        # the firewall: once measured, the source may be destroyed and
        # the release is the seeded release of the intact data
        X, y, cls = mode_inputs()
        data, how, synth, extra = mode_release(mode, X.copy(), y.copy(), cls.copy())
        expected = synth(data, 3, 0.4, 0.9, **extra, rng=np.random.default_rng(8))
        data, how, _, _ = mode_release(mode, X, y, cls)
        measured = measure(data, 3, 0.4, 0.9, np.random.default_rng(8), **how)
        X[...] = np.nan
        y[...] = np.nan
        cls[...] = "gone"
        result = synthesize(measured)
        got, want = result.dataset, expected.dataset
        assert got.features.tobytes() == want.features.tobytes()
        assert (got.labels is None) == (want.labels is None)
        if want.labels is not None:
            assert got.labels.tobytes() == want.labels.tobytes()
        if want.class_labels is not None:
            assert got.class_labels.tolist() == want.class_labels.tolist()
        assert result.ledger.entries == expected.ledger.entries
        assert result.projection.W.tobytes() == expected.projection.W.tobytes()

    @pytest.mark.parametrize("mode,keys", [
        ("unsupervised", {"m", "n"}),
        ("supervised", {"m", "n"}),
        ("gmm", {"m", "n", "class_sizes", "class_names"}),
    ])
    def test_public_lists_every_data_derived_value(self, mode, keys):
        X, y, cls = mode_inputs()
        data, how, _, _ = mode_release(mode, X, y, cls)
        public = measure(data, 3, 0.4, 0.9, np.random.default_rng(8), **how).public
        assert set(public) == keys
        assert (public["m"], public["n"]) == (9, 240)
        if mode == "gmm":
            assert public["class_sizes"] == [80, 80, 80]
            assert public["class_names"] == ["x", "y", "z"]

    @pytest.mark.parametrize("n_synth", [0, -3])
    def test_synthesize_rejects_an_empty_sample_count(self, n_synth):
        data, how, _, _ = mode_release("unsupervised", *mode_inputs())
        measured = measure(data, 3, 0.4, 0.9, np.random.default_rng(8), **how)
        with pytest.raises(ValueError, match=f"n_synth must be positive, got {n_synth}"):
            synthesize(measured, n_synth)

    def test_each_synthesize_continues_the_generators(self):
        # a record is not used up: a second call draws a fresh release of
        # the same measurements, which spends nothing more
        data, how, _, _ = mode_release("gmm", *mode_inputs())
        measured = measure(data, 3, 0.4, 0.9, np.random.default_rng(8), **how)
        first, second = synthesize(measured), synthesize(measured)
        assert first.ledger.entries == second.ledger.entries
        assert first.projection.W.tobytes() == second.projection.W.tobytes()
        assert not np.array_equal(first.dataset.features, second.dataset.features)
