import math

import numpy as np
import pytest

from ronsynth.mechanism import (
    LAPLACE_DRAW_BOUND,
    BudgetLedger,
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
    mean_sensitivity,
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
        # a^2 must be finite too: 1e200 squares to inf
        for a in (math.inf, math.nan, 1e200):
            with pytest.raises(ValueError, match="positive and finite"):
                aug_cov_sensitivity(4, 100, a)

    def test_rejects_nonpositive_dims(self):
        for fn in (mean_sensitivity, cov_sensitivity):
            with pytest.raises(ValueError):
                fn(0, 5)
            with pytest.raises(ValueError):
                fn(5, 0)


class TestLaplacePerturb:
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
        with pytest.raises(ValueError):
            laplace_perturb(np.zeros(3), math.nan, np.random.default_rng(0))

    def test_rejects_infinite_scale(self):
        # an infinite scale would return +-inf noise, not an error
        with pytest.raises(ValueError, match="positive and finite"):
            laplace_perturb(np.zeros(3), math.inf, np.random.default_rng(0))

    def test_edge_draw_is_redrawn(self):
        class EdgeFirst:
            """A generator whose first draw is 0.0, the edge u = -0.5, then 0.75."""

            def __init__(self):
                self.sizes = []

            def random(self, size):
                self.sizes.append(size)
                return np.full(size, 0.75 if len(self.sizes) > 1 else 0.0)

        rng = EdgeFirst()
        # kept, u = -0.5 would be log1p(-1): infinite noise
        noise = laplace_perturb(np.zeros(3), 1.0, rng)
        assert rng.sizes == [(3,), 3]
        assert np.array_equal(noise, np.full(3, -math.log(0.5)))

    def test_largest_draws_are_below_the_draw_bound(self):
        class Extremes:
            """A generator that draws the two ends of its 2**-53 grid's usable range."""

            def random(self, size):
                return np.array([2.0 ** -53, 1.0 - 2.0 ** -53])

        noise = laplace_perturb(np.zeros(2), 1.0, Extremes())
        assert noise[0] == -noise[1] == pytest.approx(-52 * math.log(2), rel=1e-15)
        assert np.all(np.abs(noise) < LAPLACE_DRAW_BOUND)


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
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                split_budget(eps)
        with pytest.raises(ValueError):
            split_budget(1.0, math.nan)
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
            ledger.record("mean", 0.1, -1.0)
        with pytest.raises(ValueError):
            ledger.record("mean", 0.0, 0.5)
        with pytest.raises(ValueError):
            ledger.record("mean", 0.1, math.nan)
        with pytest.raises(ValueError):
            ledger.record("mean", math.nan, 0.5)
        # a spend whose noise could not be drawn: an infinite sensitivity,
        # or a finite one over an epsilon so small the quotient overflows
        for sensitivity, eps in ((math.inf, 0.5), (math.inf, math.inf), (1.0, 1e-320)):
            with pytest.raises(ValueError, match=f"mean spend: sensitivity {sensitivity!r} / "
                                                 f"epsilon {eps!r} gives a noise scale"):
                ledger.record("mean", sensitivity, eps)
        assert len(ledger) == 0

    def test_render(self):
        ledger = BudgetLedger()
        ledger.record("mean", 0.5, 0.25)
        text = str(ledger)
        assert "mean" in text and "total epsilon" in text
        assert ledger.entries[0].as_dict()["epsilon"] == 0.25
        assert ledger.entries[0].as_dict()["noise_scale"] == ledger.entries[0].noise_scale == 2.0
        assert ledger.record("mean", 0.5, math.inf).noise_scale == 0.0
