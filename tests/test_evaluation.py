import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.distance import cdist

import ronsynth
from ronsynth import Dataset, evaluation, split_budget, synth_gmm
from ronsynth.evaluation import (
    normality_diagnostic,
    kmeans,
    nearest_mean_accuracy,
    ols_fit,
    ols_predict,
    rmse,
    silhouette,
    silhouette_sweep,
)


def silhouette_oracle(X, assignments):
    """Brute-force double-loop reference, kept deliberately naive."""
    n = X.shape[1]
    scores = []
    for i in range(n):
        own = assignments[i]
        own_dists = [np.linalg.norm(X[:, i] - X[:, j])
                     for j in range(n) if j != i and assignments[j] == own]
        if not own_dists:
            scores.append(0.0)
            continue
        a = sum(own_dists) / len(own_dists)
        b = min(
            np.mean([np.linalg.norm(X[:, i] - X[:, j])
                     for j in range(n) if assignments[j] == other])
            for other in set(assignments) if other != own
        )
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


def kmeans_objective(X, assignments):
    """Sum of squared distances to the assigned cluster means."""
    total = 0.0
    for c in np.unique(assignments):
        members = X[:, assignments == c]
        centroid = members.mean(axis=1, keepdims=True)
        total += float(((members - centroid) ** 2).sum())
    return total


class TestSilhouette:
    def test_two_tight_far_groups(self):
        # hand computation: each point has a = 0.1 and b = mean distance
        # to the far pair, giving S.C. = 0.98999974999375
        X = np.array([[0.0, 0.1, 10.0, 10.1]])
        labels = np.array([0, 0, 1, 1])
        value = silhouette(X, labels)
        assert value == pytest.approx(0.98999974999375, abs=1e-12)
        assert value == pytest.approx(0.990, abs=1e-3)
        assert value == pytest.approx(silhouette_oracle(X, labels), abs=1e-12)

    def test_interleaved_same_distribution_scores_near_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 1000))
        labels = np.arange(1000) % 2  # arbitrary split of one blob
        assert abs(silhouette(X, labels)) < 0.1

    def test_perfect_separation_with_identical_points(self):
        X = np.array([[0.0, 0.0, 5.0, 5.0]])
        assert silhouette(X, np.array([0, 0, 1, 1])) == 1.0

    def test_matches_oracle_on_random_clusterings(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.normal(size=(2, 30))
            labels = rng.integers(0, 3, size=30)
            if len(set(labels.tolist())) < 2:
                continue
            assert silhouette(X, labels) == pytest.approx(
                silhouette_oracle(X, labels), abs=1e-10)
        # a singleton cluster, and identical points split across two
        # clusters, where a = b = 0 and the score's denominator is zero
        X = np.array([[0.0, 0.0, 0.0, 0.0, 3.0]])
        labels = np.array([0, 0, 1, 1, 2])
        assert silhouette(X, labels) == silhouette_oracle(X, labels) == 0.0

    def test_invariant_to_label_renaming_and_isometry(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3, 40))
        labels = rng.integers(0, 3, size=40)
        renamed = np.array([{0: 7, 1: 3, 2: 11}[c] for c in labels])
        base = silhouette(X, labels)
        assert silhouette(X, renamed) == base
        # rigid rotation + translation preserves pairwise distances
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        moved = Q @ X + rng.normal(size=(3, 1))
        assert silhouette(moved, labels) == pytest.approx(base, abs=1e-9)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            silhouette(np.zeros((2, 4)), np.zeros(4))

    def test_singletons_score_zero(self):
        X = np.array([[0.0, 0.1, 9.0]])
        labels = np.array([0, 0, 1])
        # singleton contributes 0; the pair contributes (b-a)/b each
        a0, b0 = 0.1, 9.0
        a1, b1 = 0.1, 8.9
        expected = ((b0 - a0) / b0 + (b1 - a1) / b1 + 0.0) / 3
        assert silhouette(X, labels) == pytest.approx(expected, abs=1e-12)


class TestDistances:
    @pytest.mark.parametrize("dim", [1, 2, 7, 30, 100])
    def test_equals_cdist_exactly(self, dim):
        rng = np.random.default_rng(dim)
        X = rng.normal(scale=3.0, size=(dim, 300))
        Y = rng.standard_t(df=2, size=(dim, 5))
        assert np.array_equal(evaluation._distances(X, X), cdist(X.T, X.T))
        assert np.array_equal(evaluation._distances(X, Y), cdist(X.T, Y.T))


class TestSilhouetteSweep:
    def test_distances_computed_once_for_all_k(self, monkeypatch):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(3, 600))
        pairwise = []
        helper = evaluation._distances

        def counting(A, B):
            if B.shape[1] == A.shape[1]:  # k-means' point-to-centroid calls are n x k
                pairwise.append(A.shape[1])
            return helper(A, B)

        monkeypatch.setattr(evaluation, "_distances", counting)
        best_k, sweep, n_points = silhouette_sweep(X, range(2, 6), 400, seed=4)
        assert pairwise == [400]
        assert n_points == 400 and list(sweep) == [2, 3, 4, 5]
        # each score is the one silhouette() gives on the same subsample
        sub = X[:, np.random.default_rng(4).choice(600, size=400, replace=False)]
        for k, value in sweep.items():
            assign = kmeans(sub, k, rng=np.random.default_rng(4))
            assert value == silhouette(sub, assign)
        assert sweep[best_k] == max(sweep.values())

    def test_no_feasible_k_is_an_error(self):
        with pytest.raises(ValueError, match="no feasible k"):
            silhouette_sweep(np.zeros((2, 3)), range(4, 6), 2000, seed=0)


@pytest.mark.parametrize("module", ["ronsynth", "ronsynth.cli"])
def test_import_does_not_load_scipy(module):
    src = os.path.dirname(os.path.dirname(ronsynth.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys, {module}; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# pipeline stages a release calls; the package exports the releases, not them
PIPELINE_INTERNALS = ("preprocess", "project", "estimate_cov", "estimate_aug_cov",
                      "dp_perturb_cov", "psd_repair", "sample_gaussian", "laplace_perturb")


def test_public_api_exports_no_pipeline_internals():
    assert all(hasattr(ronsynth, name) for name in ronsynth.__all__)
    assert not set(PIPELINE_INTERNALS) & set(ronsynth.__all__)
    assert not any(hasattr(ronsynth, name) for name in PIPELINE_INTERNALS)


class TestKmeans:
    def blobs(self, seed=0, n=100):
        rng = np.random.default_rng(seed)
        X = np.concatenate([
            rng.normal(loc=0.0, scale=0.2, size=(2, n)),
            rng.normal(loc=8.0, scale=0.2, size=(2, n)),
        ], axis=1)
        truth = np.array([0] * n + [1] * n)
        return X, truth

    def test_recovers_far_blobs_up_to_relabeling(self):
        X, truth = self.blobs()
        assign = kmeans(X, 2, rng=np.random.default_rng(3))
        agreement = np.mean(assign == truth)
        assert agreement in (0.0, 1.0)  # either labeling is a perfect recovery

    def test_k_equals_n_gives_zero_objective(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(2, 12))  # distinct points a.s.
        assign = kmeans(X, 12, rng=np.random.default_rng(5))
        assert sorted(assign.tolist()) == list(range(12))
        assert kmeans_objective(X, assign) == 0.0

    def test_seeded_determinism(self):
        X, _ = self.blobs(seed=6)
        a = kmeans(X, 3, rng=np.random.default_rng(7))
        b = kmeans(X, 3, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_objective_never_increases_across_iterations(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(3, 200))
        prev = None
        for max_iter in range(1, 12):
            assign = kmeans(X, 4, max_iter=max_iter, rng=np.random.default_rng(9))
            obj = kmeans_objective(X, assign)
            if prev is not None:
                assert obj <= prev + 1e-9
            prev = obj

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 3)), 4)


class TestRmse:
    def test_identity_is_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert rmse(v, v) == 0.0

    def test_hand_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            3.5355339059327378)

    def test_constant_shift(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=50)
        assert rmse(v + 1.7, v) == pytest.approx(1.7)

    def test_triangle_inequality_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 20))
            assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))


class TestOls:
    def test_recovers_an_exact_affine_map(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(3, 50))
        y = np.array([0.5, -2.0, 1.5]) @ X + 0.25
        coef = ols_fit(X, y)
        assert np.allclose(coef, [0.5, -2.0, 1.5, 0.25])
        assert np.allclose(ols_predict(coef, X), y)


def _benchmark_checks():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("column_major", [False, True])
def test_nearest_mean_accuracy_matches_the_benchmark_copy(column_major):
    m, n, k = 200, 4000, 8
    rng = np.random.default_rng(17)
    labels = np.repeat([f"c{c}" for c in range(k)], n // k)
    features = 3.0 * rng.normal(size=(m, k))[:, np.arange(n) * k // n] + rng.normal(size=(m, n))
    if column_major:
        # the layout the CSV loader gives: the transpose of a row-major table
        features = np.ascontiguousarray(features.T).T
    # at epsilon 1 the modes' p-dimensional means leave both right and
    # wrong predictions to compare (epsilon 10 gets nearly all right)
    eps_mu, eps_sigma = split_budget(1.0)
    data = Dataset(features=features, class_labels=labels)
    result = synth_gmm(data, 8, eps_mu, eps_sigma, rng=rng)
    accuracy = nearest_mean_accuracy(result, data, labels)
    assert 1 / k < accuracy < 1.0
    assert accuracy == _benchmark_checks().nearest_mean_accuracy(result, features, labels)


class TestNormalityDiagnostic:
    def test_gaussian_data_scores_low(self):
        rng = np.random.default_rng(12)
        X = rng.normal(scale=0.1, size=(4, 5000))
        report = normality_diagnostic(X)
        assert report.mean_ks < 0.02
        assert report.max_ks < 0.05
        assert report.degenerate_coords == ()

    def test_constant_coordinate_flagged(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(3, 100))
        X[1, :] = 2.5
        report = normality_diagnostic(X)
        assert report.degenerate_coords == (1,)
        assert report.ks_distances[1] == 0.5

    def test_expected_sigma(self):
        rng = np.random.default_rng(14)
        report = normality_diagnostic(rng.normal(size=(2, 64)), orig_dim=400)
        assert report.expected_sigma == 0.05
        assert normality_diagnostic(rng.normal(size=(2, 64))).expected_sigma is None

    @pytest.mark.parametrize("orig_dim", [0, -4])
    def test_non_positive_orig_dim_rejected(self, orig_dim):
        with pytest.raises(ValueError, match=f"orig_dim must be positive, got {orig_dim}"):
            normality_diagnostic(np.random.default_rng(14).normal(size=(2, 64)),
                                 orig_dim=orig_dim)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="30"):
            normality_diagnostic(np.zeros((2, 10)))

    @pytest.mark.parametrize("n", [30, 1000, 12000])
    def test_ks_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        X = np.stack([rng.normal(size=n), rng.standard_t(df=2, size=n),
                      rng.standard_cauchy(size=n), rng.exponential(size=n)])
        report = normality_diagnostic(X)
        for coord, ks in zip(X, report.ks_distances):
            standardized = (coord - coord.mean()) / coord.std()
            assert abs(ks - stats.kstest(standardized, "norm").statistic) <= 1e-15

    def test_uniform_data_scores_higher_than_gaussian(self):
        rng = np.random.default_rng(15)
        uniform_ks = normality_diagnostic(rng.uniform(-1, 1, size=(3, 5000))).mean_ks
        normal_ks = normality_diagnostic(rng.normal(size=(3, 5000))).mean_ks
        assert uniform_ks > normal_ks
