import numpy as np
import pytest
from scipy import stats

from ronsynth.mechanism import (
    BudgetLedger,
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
    mean_sensitivity,
    mle_cov_sensitivity,
    split_budget,
)


class TestSensitivities:
    def test_mean_sensitivity_values(self):
        assert mean_sensitivity(4, 10) == pytest.approx(0.4)
        assert mean_sensitivity(1, 1) == 2.0
        # large-n regime: 2*sqrt(100)/27936
        assert mean_sensitivity(100, 27936) == pytest.approx(20.0 / 27936)
        assert mean_sensitivity(100, 27936) == pytest.approx(7.158e-4, rel=1e-3)

    def test_cov_sensitivity_values(self):
        assert cov_sensitivity(9, 100) == pytest.approx(0.1)
        assert cov_sensitivity(1, 1) == 2.0

    def test_projection_reduces_sensitivity(self):
        # same n: the 100-dim mean costs 2*sqrt(100) = 20, the 10-dim
        # projected second moment 10 + 1 = 11
        n = 1000
        ratio = mean_sensitivity(100, n) / cov_sensitivity(10, n)
        assert ratio == pytest.approx(20.0 / 11.0)

    def test_aug_cov_sensitivity_values(self):
        # (p + 1 + 2*a*sqrt(p) + a^2) / n
        assert aug_cov_sensitivity(4, 100, 1.0) == pytest.approx(0.10)
        assert aug_cov_sensitivity(4, 100, 2.0) == pytest.approx(0.17)

    def test_aug_cov_reduces_to_cov_when_labels_vanish(self):
        assert aug_cov_sensitivity(7, 50, 1e-12) == pytest.approx(cov_sensitivity(7, 50))

    def test_aug_cov_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            aug_cov_sensitivity(4, 100, 0.0)
        with pytest.raises(ValueError):
            aug_cov_sensitivity(4, 100, -1.0)

    def test_mle_cov_sensitivity_values(self):
        assert mle_cov_sensitivity(4, 100) == pytest.approx(5.05)
        assert mle_cov_sensitivity(1, 1) == 4.0

    def test_mle_to_biased_ratio_is_exactly_n_plus_1(self):
        # the saving factor is the identity mle == (n+1) * biased; assert
        # it with zero tolerance in product form (a float division of the
        # two outputs can re-round and drift by one ulp)
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(1, 300))
            n = int(rng.integers(1, 10**6))
            assert mle_cov_sensitivity(p, n) == (n + 1) * cov_sensitivity(p, n)
        # where n+1 is a power of two the product is exact, so even the
        # literal quotient must hit n+1 on the nose
        for k in range(1, 20):
            n = 2**k - 1
            assert mle_cov_sensitivity(11, n) / cov_sensitivity(11, n) == n + 1

    def test_rejects_nonpositive_dims(self):
        for fn in (mean_sensitivity, cov_sensitivity):
            with pytest.raises(ValueError):
                fn(0, 5)
            with pytest.raises(ValueError):
                fn(5, 0)


class TestLaplacePerturb:
    def test_scale_from_sensitivity(self):
        # calibration rule: scale = sensitivity / epsilon
        assert mean_sensitivity(4, 10) / 0.5 == pytest.approx(0.8)

    def test_zero_input_shape_and_seed_determinism(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        a = laplace_perturb(np.zeros((3, 5)), 1.0, rng1)
        b = laplace_perturb(np.zeros((3, 5)), 1.0, rng2)
        assert a.shape == (3, 5)
        assert np.array_equal(a, b)

    def test_noise_is_additive(self):
        base = np.arange(12.0).reshape(3, 4)
        noise = laplace_perturb(np.zeros((3, 4)), 0.7, np.random.default_rng(3))
        shifted = laplace_perturb(base, 0.7, np.random.default_rng(3))
        assert np.allclose(shifted - base, noise)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            laplace_perturb(np.zeros(3), 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            laplace_perturb(np.zeros(3), -1.0, np.random.default_rng(0))

    def test_moments_at_unit_scale(self):
        draws = laplace_perturb(np.zeros(10**6), 1.0, np.random.default_rng(11))
        assert abs(draws.mean()) <= 0.01
        assert 1.94 <= draws.var() <= 2.06  # Var(Laplace(b)) = 2 b^2

    def test_kolmogorov_smirnov_against_laplace_cdf(self):
        draws = laplace_perturb(np.zeros(10**5), 1.0, np.random.default_rng(13))
        assert stats.kstest(draws, stats.laplace(scale=1.0).cdf).pvalue > 0.01

    def test_median_of_inverse_cdf_is_zero(self):
        # u = 0 maps to zero noise: sign(0) kills the draw
        assert -1.0 * np.sign(0.0) * np.log1p(-2.0 * abs(0.0)) == 0.0


class TestSplitBudget:
    def test_default_allocation(self):
        # fl(0.3) + fl(0.7) != 1.0, so exactness of the sum (the binding
        # contract) costs one ulp on the mu part
        eps_mu, eps_sigma = split_budget(1.0)
        assert eps_mu == pytest.approx(0.3, rel=1e-15)
        assert eps_sigma == pytest.approx(0.7, rel=1e-15)
        assert eps_mu + eps_sigma == 1.0

    def test_symmetric_split(self):
        assert split_budget(2.0, 0.5) == (1.0, 1.0)

    def test_parts_sum_back_bit_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            eps = float(rng.uniform(1e-6, 50.0))
            ratio = float(rng.uniform(0.01, 0.99))
            eps_mu, eps_sigma = split_budget(eps, ratio)
            assert eps_mu + eps_sigma == eps

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            split_budget(0.0)
        with pytest.raises(ValueError):
            split_budget(1.0, 0.0)
        with pytest.raises(ValueError):
            split_budget(1.0, 1.0)


class TestBudgetLedger:
    def test_serial_spends_add(self):
        ledger = BudgetLedger()
        ledger.record("mean", 0.1, 0.3)
        ledger.record("covariance", 0.2, 0.7)
        assert ledger.total() == 1.0

    def test_parallel_group_counts_once(self):
        ledger = BudgetLedger()
        for _ in range(5):
            ledger.record("covariance", 0.2, 0.7, group="classes")
        assert ledger.total() == 0.7

    def test_mixed_groups(self):
        ledger = BudgetLedger()
        for _ in range(3):
            ledger.record("mean", 0.1, 0.3, group="g_mean")
            ledger.record("covariance", 0.2, 0.7, group="g_cov")
        assert ledger.total() == 1.0

    def test_empty_ledger(self):
        assert BudgetLedger().total() == 0.0
        assert len(BudgetLedger()) == 0

    def test_total_invariant_under_reordering(self):
        rng = np.random.default_rng(17)
        spends = [("q", float(rng.uniform(0.01, 1)), float(rng.uniform(0.01, 2)),
                   rng.choice([None, "a", "b"])) for _ in range(30)]
        ledger = BudgetLedger()
        for q, s, e, g in spends:
            ledger.record(q, s, e, group=g)
        for perm_seed in range(5):
            shuffled = BudgetLedger()
            order = np.random.default_rng(perm_seed).permutation(len(spends))
            for i in order:
                q, s, e, g = spends[i]
                shuffled.record(q, s, e, group=g)
            assert shuffled.total() == ledger.total()

    def test_rejects_nonpositive_spends(self):
        ledger = BudgetLedger()
        with pytest.raises(ValueError):
            ledger.record("mean", 0.1, 0.0)
        with pytest.raises(ValueError):
            ledger.record("mean", 0.0, 0.5)

    def test_render(self):
        ledger = BudgetLedger()
        ledger.record("mean", 0.5, 0.25)
        text = str(ledger)
        assert "mean" in text and "total epsilon" in text
        assert ledger.as_dicts()[0]["epsilon"] == 0.25
