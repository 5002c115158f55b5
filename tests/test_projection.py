import warnings

import numpy as np
import pytest

from ronsynth.evaluation import normality_diagnostic
from ronsynth.mechanism import LedgerEntry, mean_sensitivity
from ronsynth.preprocessing import center_with_mean, column_sq_norms, preprocess
from ronsynth.projection import (
    RonProjection,
    dimension_guidance,
    generate_ron,
    project,
)


class TestGenerateRon:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        for m, p in [(5, 1), (10, 3), (50, 13), (120, 40)]:
            proj = generate_ron(m, p, rng)
            gram = proj.W.T @ proj.W
            assert np.max(np.abs(gram - np.eye(p))) <= 1e-10

    def test_seeded_determinism_is_bitwise(self):
        a = generate_ron(30, 7, np.random.default_rng(123))
        b = generate_ron(30, 7, np.random.default_rng(123))
        assert np.array_equal(a.W, b.W)

    def test_rejects_bad_dimensions(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            generate_ron(5, 5, rng)
        with pytest.raises(ValueError):
            generate_ron(5, 0, rng)

    def test_basis_is_sign_corrected_qr_of_a_normal_draw(self):
        # W spans the m x p standard-normal draw A with A = W R, where R
        # is upper triangular with a positive diagonal: the Haar law
        m, p = 40, 10
        proj = generate_ron(m, p, np.random.default_rng(2))
        A = np.random.default_rng(2).standard_normal((m, p))
        R = proj.W.T @ A
        assert np.allclose(proj.W @ R, A, atol=1e-12)
        assert np.max(np.abs(np.tril(R, -1))) <= 1e-12
        assert np.all(np.diag(R) > 0)

    def test_rank_deficient_draw_raises(self):
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
            generate_ron(6, 2, ZeroRng())

    def test_first_column_not_aligned_with_ones(self):
        # a Haar column is a uniformly random direction, so its cosine
        # with the all-ones vector is about 1/sqrt(m); QR of a matrix
        # with i.i.d. uniform [0, 1) entries gives about 0.87 at m=100
        m = 100
        cosines = [abs(generate_ron(m, 3, np.random.default_rng(seed)).W[:, 0].sum())
                   / np.sqrt(m) for seed in range(20)]
        assert np.median(cosines) < 0.3

    def test_provenance_fields(self):
        proj = generate_ron(12, 4, np.random.default_rng(3))
        assert (proj.m, proj.p) == (12, 4) == proj.W.shape
        with pytest.raises(AttributeError):
            proj.m = 13

    def test_constructor_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RonProjection(W=np.ones((4, 2)))
        with pytest.raises(ValueError, match="1 <= p < m"):
            RonProjection(W=np.eye(3))
        with pytest.raises(ValueError, match="m x p matrix"):
            RonProjection(W=np.ones(4) / 2.0)


class TestProject:
    def test_unit_norm_contracts_to_at_most_one(self):
        rng = np.random.default_rng(4)
        proj = generate_ron(25, 6, rng)
        for _ in range(200):
            x = rng.normal(size=(25, 1))
            x /= np.linalg.norm(x)
            assert np.linalg.norm(project(proj, x)) <= 1.0 + 1e-12

    def test_vector_in_span_keeps_norm(self):
        rng = np.random.default_rng(5)
        proj = generate_ron(12, 5, rng)
        x = proj.W @ rng.normal(size=(5, 1))
        assert np.linalg.norm(project(proj, x)) == pytest.approx(np.linalg.norm(x))

    def test_orthogonal_vector_maps_to_zero(self):
        rng = np.random.default_rng(6)
        proj = generate_ron(10, 3, rng)
        x = rng.normal(size=(10, 1))
        x -= proj.W @ (proj.W.T @ x)  # strip the in-span part
        assert np.linalg.norm(project(proj, x)) <= 1e-10

    def test_dimension_mismatch(self):
        proj = generate_ron(10, 3, np.random.default_rng(7))
        with pytest.raises(ValueError):
            project(proj, np.zeros((11, 4)))

    def test_neighboring_columns_stay_neighboring(self):
        rng = np.random.default_rng(8)
        proj = generate_ron(15, 4, rng)
        X = rng.normal(size=(15, 20))
        Xp = X.copy()
        Xp[:, 13] += 1.0
        diff = np.any(project(proj, X) != project(proj, Xp), axis=0)
        assert list(np.flatnonzero(diff)) == [13]


class TestDimensionBound:
    def test_published_worked_example(self):
        assert dimension_guidance(100) == 13

    def test_direct_formula_at_1000(self):
        # floor(2*3 / log10(3)) = floor(12.575...) = 12
        assert dimension_guidance(1000) == 12

    def test_small_m_returns_one_without_warning(self):
        # log10(log10(m)) <= 0 for m <= 10: the guidance is vacuous there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [dimension_guidance(m) for m in range(1, 11)] == [1] * 10

    def test_rejects_tiny_m(self):
        for m in (0, -1):
            with pytest.raises(ValueError):
                dimension_guidance(m)

    def test_monotone_enough_in_reasonable_range(self):
        values = [dimension_guidance(m) for m in (20, 50, 100, 500, 1000)]
        assert all(v >= 1 for v in values)


def test_projected_marginals_approach_gaussian():
    # scaled-down version of the distributional check: uniform data in
    # 100 dims projected to 3 should look far more normal per
    # coordinate than the raw marginals do, for most projections. The
    # second input adds one +-0.5 offset per sample to every coordinate,
    # a shared factor that survives projection onto the all-ones
    # direction (median KS about 0.18 under a uniform-entry QR basis)
    rng = np.random.default_rng(14)
    m, n, p = 100, 2000, 3
    X = rng.uniform(-1.0, 1.0, size=(m, n))
    shifted = X + rng.choice([-0.5, 0.5], size=n)
    spend = LedgerEntry("mean", mean_sensitivity(m, n), 1.0)
    for data in (X, shifted):
        gen = np.random.default_rng(1)
        pre = preprocess(data, column_sq_norms(data), [spend], [gen],
                         lambda: generate_ron(m, p, gen))
        x_bar = center_with_mean(data, pre.mu_dp[:, 0])
        ks_proj = np.median([
            normality_diagnostic(
                project(generate_ron(m, p, np.random.default_rng(seed)), x_bar)
            ).mean_ks
            for seed in range(20)
        ])
        assert ks_proj < 0.05
        assert ks_proj < normality_diagnostic(data).mean_ks
