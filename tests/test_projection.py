import numpy as np
import pytest

from ronsynth.evaluation import normality_diagnostic
from ronsynth.preprocessing import preprocess
from ronsynth.projection import (
    RonProjection,
    dimension_guidance,
    generate_ron,
    project,
    reconstruct,
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

    def test_gaussian_law_variant(self):
        proj = generate_ron(40, 10, np.random.default_rng(2), matrix_law="gaussian")
        assert np.max(np.abs(proj.W.T @ proj.W - np.eye(10))) <= 1e-10
        assert proj.matrix_law == "gaussian"
        with pytest.raises(ValueError):
            generate_ron(40, 10, np.random.default_rng(2), matrix_law="bernoulli")

    def test_provenance_fields(self):
        proj = generate_ron(12, 4, np.random.default_rng(3))
        assert (proj.m, proj.p, proj.matrix_law) == (12, 4, "uniform")

    def test_constructor_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RonProjection(W=np.ones((4, 2)), m=4, p=2)


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


class TestReconstruct:
    def test_round_trip_in_span_recovers_vector(self):
        rng = np.random.default_rng(9)
        proj = generate_ron(20, 6, rng)
        x = proj.W @ rng.normal(size=(6, 3))
        back = reconstruct(proj, project(proj, x))
        assert np.max(np.abs(back - x)) <= 1e-10

    def test_zero_maps_to_zero(self):
        proj = generate_ron(8, 2, np.random.default_rng(10))
        assert np.array_equal(reconstruct(proj, np.zeros((2, 5))), np.zeros((8, 5)))

    def test_projection_never_grows_norms(self):
        rng = np.random.default_rng(11)
        proj = generate_ron(30, 9, rng)
        X = rng.normal(size=(30, 500))
        back = reconstruct(proj, project(proj, X))
        assert np.all(np.linalg.norm(back, axis=0)
                      <= np.linalg.norm(X, axis=0) + 1e-12)

    def test_equals_orthogonal_projector(self):
        rng = np.random.default_rng(12)
        proj = generate_ron(14, 5, rng)
        X = rng.normal(size=(14, 7))
        P = proj.W @ proj.W.T
        assert np.allclose(reconstruct(proj, project(proj, X)), P @ X)

    def test_dimension_mismatch(self):
        proj = generate_ron(10, 3, np.random.default_rng(13))
        with pytest.raises(ValueError):
            reconstruct(proj, np.zeros((4, 2)))


class TestDimensionBound:
    def test_published_worked_example(self):
        assert dimension_guidance(100) == 13

    def test_direct_formula_at_1000(self):
        # floor(2*3 / log10(3)) = floor(12.575...) = 12
        assert dimension_guidance(1000) == 12

    def test_degenerate_low_dimension_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert dimension_guidance(10) == 1
        with pytest.warns(UserWarning):
            assert dimension_guidance(5) == 1

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            dimension_guidance(2)

    def test_monotone_enough_in_reasonable_range(self):
        values = [dimension_guidance(m) for m in (20, 50, 100, 500, 1000)]
        assert all(v >= 1 for v in values)


def test_projected_marginals_approach_gaussian():
    # scaled-down version of the distributional check: uniform data in
    # 100 dims projected to 3 should look far more normal per
    # coordinate than the raw uniform marginals do
    rng = np.random.default_rng(14)
    m, n, p = 100, 2000, 3
    X = rng.uniform(-1.0, 1.0, size=(m, n))
    pre = preprocess(X, 1.0, np.random.default_rng(1))
    proj = generate_ron(m, p, np.random.default_rng(2))
    projected = project(proj, pre.x_bar)
    ks_proj = normality_diagnostic(projected).mean_ks
    ks_raw = normality_diagnostic(X).mean_ks
    assert ks_proj < 0.05
    assert ks_proj < ks_raw
