"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s or -rA to see
them). The end-to-end utility criteria run scaled experiments with
built-in learners; seeds are fixed so results are reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from ronsynth.dataset import Dataset
from ronsynth.evaluation import (
    nearest_mean_accuracy,
    normality_diagnostic,
    ols_fit,
    ols_predict,
    ols_rmse,
    rmse,
)
from ronsynth.mechanism import (
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
    mean_sensitivity,
    split_budget,
)
from ronsynth.preprocessing import column_sq_norms, preprocess
from ronsynth.projection import generate_ron, project
from ronsynth.synthesis import (
    estimate_aug_cov,
    estimate_cov,
    synth_gmm,
    synth_supervised,
    synth_unsupervised,
)


def mle_cov_sensitivity(p: int, n: int) -> float:
    """L1-sensitivity of the mean-subtracted (MLE) covariance estimate.

    The release path never calibrates noise with it; it is the baseline
    the biased estimate is compared against. Equals (n + 1) * (p + 1)/n,
    computed in factored form so the ratio to ``cov_sensitivity`` is
    exactly n + 1.
    """
    return (n + 1) * cov_sensitivity(p, n)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def unit_columns(rng, m, n):
    X = rng.normal(size=(m, n))
    return X / np.linalg.norm(X, axis=0)


def test_criterion_01_orthonormality():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 501))
        p = int(rng.integers(1, m))
        proj = generate_ron(m, p, rng)
        worst = max(worst, float(np.max(np.abs(proj.W.T @ proj.W - np.eye(p)))))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"100 random bases, max |WtW - I| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_projection_norm_bound():
    rng = np.random.default_rng(102)
    violations = 0
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(10, 200))
        p = int(rng.integers(1, m))
        proj = generate_ron(m, p, rng)
        X = unit_columns(rng, m, 500)
        norms = np.linalg.norm(project(proj, X), axis=0)
        worst = max(worst, float(norms.max()))
        violations += int(np.count_nonzero(norms > 1.0 + 1e-12))
    report(2, violations == 0,
           f"10^4 unit vectors, max projected norm = {worst:.15f}, "
           f"{violations} violations")


def upper_l1(A):
    """Entrywise L1 norm over the upper triangle, the entries that get noise."""
    return float(np.abs(A[np.triu_indices(A.shape[0])]).sum())


def test_criterion_03_sensitivity_soundness():
    # matrix-valued gaps use the entrywise L1 norm over the upper
    # triangle, which is where the covariance mechanism adds noise
    rng = np.random.default_rng(103)
    start = time.monotonic()
    failures = []

    for _ in range(1000):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 201))
        X = unit_columns(rng, m, n)
        Xp = X.copy()
        Xp[:, rng.integers(n)] = unit_columns(rng, m, 1)[:, 0]
        gap = np.linalg.norm(X.mean(axis=1) - Xp.mean(axis=1), 1)
        if gap > mean_sensitivity(m, n):
            failures.append(("mean", m, n, gap))

    for _ in range(1000):
        p = int(rng.integers(1, 51))
        n = int(rng.integers(1, 201))
        X = unit_columns(rng, p, n)
        Xp = X.copy()
        Xp[:, rng.integers(n)] = unit_columns(rng, p, 1)[:, 0]
        gap = upper_l1(estimate_cov(X) - estimate_cov(Xp))
        if gap > cov_sensitivity(p, n):
            failures.append(("covariance", p, n, gap))

    a = 1.0
    for _ in range(1000):
        p = int(rng.integers(1, 51))
        n = int(rng.integers(1, 201))
        X = unit_columns(rng, p, n)
        y = rng.uniform(-a, a, size=n)
        Xp, yp = X.copy(), y.copy()
        j = rng.integers(n)
        Xp[:, j] = unit_columns(rng, p, 1)[:, 0]
        yp[j] = rng.uniform(-a, a)
        gap = upper_l1(estimate_aug_cov(X, y) - estimate_aug_cov(Xp, yp))
        if gap > aug_cov_sensitivity(p, n, a):
            failures.append(("augmented", p, n, gap))

    # adversarial pair: the flat unit vector 1/sqrt(p) against e_1
    # maximizes the L1 norm and so the upper-triangle mass
    for p in range(1, 51):
        n = int(rng.integers(1, 201))
        X = unit_columns(rng, p, n)
        y = rng.uniform(-a, a, size=n)
        Xp, yp = X.copy(), y.copy()
        X[:, 0] = 1.0 / np.sqrt(p)
        Xp[:, 0] = np.eye(p)[0]
        gap = upper_l1(estimate_cov(X) - estimate_cov(Xp))
        if gap > cov_sensitivity(p, n):
            failures.append(("adversarial covariance", p, n, gap))
        for y0, y0p in ((a, 0.0), (a, -a)):
            y[0], yp[0] = y0, y0p
            gap = upper_l1(estimate_aug_cov(X, y) - estimate_aug_cov(Xp, yp))
            if gap > aug_cov_sensitivity(p, n, a):
                failures.append(("adversarial augmented", p, n, gap))

    # a mixture mode's mean is taken of projected samples of norm at
    # most 1 in R^p; the flat pair 1/sqrt(p) against its negation is
    # the worst case and must reach the bound
    for _ in range(1000):
        p = int(rng.integers(1, 51))
        n = int(rng.integers(1, 201))
        X = unit_columns(rng, p, n) * rng.uniform(0.0, 1.0, size=n)
        Xp = X.copy()
        Xp[:, rng.integers(n)] = unit_columns(rng, p, 1)[:, 0] * rng.uniform(0.0, 1.0)
        gap = np.linalg.norm(X.mean(axis=1) - Xp.mean(axis=1), 1)
        if gap > mean_sensitivity(p, n):
            failures.append(("chart mean", p, n, gap))
    for p in range(1, 51):
        n = int(rng.integers(1, 201))
        X = unit_columns(rng, p, n)
        Xp = X.copy()
        X[:, 0] = 1.0 / np.sqrt(p)
        Xp[:, 0] = -1.0 / np.sqrt(p)
        gap = np.linalg.norm(X.mean(axis=1) - Xp.mean(axis=1), 1)
        # equal to the bound up to the rounding of the two means
        if not math.isclose(gap, mean_sensitivity(p, n), rel_tol=1e-9):
            failures.append(("tight chart mean", p, n, gap))

    elapsed = time.monotonic() - start
    report(3, not failures and elapsed < 60.0,
           f"4x1000 random, 150 adversarial and 50 tight neighboring pairs, "
           f"{len(failures)} violations, {elapsed:.1f}s")


def test_criterion_04_mle_comparison():
    rng = np.random.default_rng(104)
    exact = True
    for _ in range(100):
        p = int(rng.integers(1, 400))
        n = int(rng.integers(1, 10**6))
        # zero-tolerance identity in product form; the float quotient of
        # the two outputs re-rounds and is only guaranteed exact when
        # the multiply is (checked below on power-of-two factors)
        exact &= mle_cov_sensitivity(p, n) == (n + 1) * cov_sensitivity(p, n)
    for k in range(1, 16):
        n = 2**k - 1
        exact &= mle_cov_sensitivity(7, n) / cov_sensitivity(7, n) == n + 1
    report(4, exact, "mle/biased saving factor is exactly n+1 (100 random (p,n))")


def test_criterion_05_laplace_mechanism():
    draws = laplace_perturb(np.zeros(10**6), 1.0, np.random.default_rng(105))
    mean = float(draws.mean())
    var = float(draws.var())
    pvalue = float(stats.kstest(draws[:10**5], stats.laplace(scale=1.0).cdf).pvalue)
    ok = -0.01 <= mean <= 0.01 and 1.94 <= var <= 2.06 and pvalue > 0.01
    report(5, ok, f"10^6 draws at b=1: mean {mean:+.5f}, var {var:.4f}, "
                  f"KS p = {pvalue:.3f}")


def test_criterion_06_projected_normality():
    start = time.monotonic()
    m, n, p = 200, 5000, 3
    rng = np.random.default_rng(106)
    X = rng.uniform(-1.0, 1.0, size=(m, n))
    proj = generate_ron(m, p, np.random.default_rng(2))
    pre = preprocess(X, column_sq_norms(X), 1.0, [np.random.default_rng(1)], lambda rng: proj)
    ks_projected = normality_diagnostic(pre.x_tilde[0]).mean_ks
    ks_raw = normality_diagnostic(X).mean_ks
    elapsed = time.monotonic() - start
    ok = ks_projected < 0.05 and ks_projected < ks_raw and elapsed < 30.0
    report(6, ok, f"uniform data m={m}: projected mean KS {ks_projected:.4f} "
                  f"< 0.05 and < raw {ks_raw:.4f}, {elapsed:.1f}s")


def test_criterion_07_budget_accounting():
    eps_mu, eps_sigma = split_budget(1.0)
    expected = eps_mu + eps_sigma
    rng = np.random.default_rng(107)

    X = rng.normal(size=(10, 300))
    unsup = synth_unsupervised(Dataset(features=X), 3, eps_mu, eps_sigma,
                               rng=np.random.default_rng(0))
    y = np.clip(rng.normal(size=300), -1, 1)
    sup = synth_supervised(Dataset(features=X, labels=y), 3, eps_mu, eps_sigma, 1.0,
                           rng=np.random.default_rng(0))

    totals = {"unsupervised": unsup.ledger.total(), "supervised": sup.ledger.total()}
    gmm_totals = {}
    for n_classes in (2, 5, 10):
        labels = np.array([f"c{i % n_classes}" for i in range(300)])
        res = synth_gmm(Dataset(features=X, class_labels=labels), 3,
                        eps_mu, eps_sigma, rng=np.random.default_rng(0))
        gmm_totals[n_classes] = res.ledger.total()

    ok = (totals["unsupervised"] == expected and totals["supervised"] == expected
          and all(t == expected for t in gmm_totals.values()))
    report(7, ok, f"serial totals {totals} and parallel GMM totals {gmm_totals} "
                  f"all equal eps_mu + eps_sigma = {expected} bit-exactly")


# --- scaled end-to-end utility experiments (criteria 8-10) ---------------

REG_M, REG_N_TRAIN, REG_N_TEST = 30, 50_000, 10_000
REG_FACTORS, REG_FACTOR_STD, REG_BULK_STD, REG_NOISE_STD = 6, 0.2, 0.01, 0.2
REG_DIMS = (2, 4, 8, 16)
N_SEEDS = 20


def _regression_data(seed):
    """Linear target on a low-rank factor structure: y = w.x + noise."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(REG_M, REG_FACTORS)))[0]

    def draw(n):
        z = rng.normal(size=(REG_FACTORS, n))
        x = REG_FACTOR_STD * basis @ z + REG_BULK_STD * rng.normal(size=(REG_M, n))
        y = np.clip(basis[:, 0] @ x + REG_NOISE_STD * rng.normal(size=n), -1.0, 1.0)
        return x, y

    return draw(REG_N_TRAIN), draw(REG_N_TEST)


@pytest.fixture(scope="module")
def regression_experiment():
    start = time.monotonic()
    rows = []
    for seed in range(N_SEEDS):
        (x_tr, y_tr), (x_te, y_te) = _regression_data(seed)
        real = rmse(ols_predict(ols_fit(x_tr, y_tr), x_te), y_te)
        eps_mu, eps_sigma = split_budget(1.0)
        data = Dataset(features=x_tr, labels=y_tr)
        row = {"real": real}
        for p in REG_DIMS:
            res = synth_supervised(data, p, eps_mu, eps_sigma, 1.0,
                                   rng=np.random.default_rng(1000 + seed * 7 + p))
            row[p] = ols_rmse(res, x_te, y_te)
        rows.append(row)
    return rows, time.monotonic() - start


def test_criterion_08_regression_utility(regression_experiment):
    rows, elapsed = regression_experiment
    real_mean = float(np.mean([r["real"] for r in rows]))
    synth_mean = float(np.mean([r[4] for r in rows]))
    ok = synth_mean <= 2.0 * real_mean and elapsed < 120.0
    report(8, ok, f"m={REG_M}, n={REG_N_TRAIN}, eps=1, 20 seeds: OLS-on-release "
                  f"RMSE {synth_mean:.4f} vs real {real_mean:.4f} "
                  f"(ratio {synth_mean / real_mean:.2f} <= 2), {elapsed:.0f}s")


def test_criterion_09_classification_utility():
    m, n_per_class, n_test = 20, 20_000, 4_000
    acc_real, acc_synth = [], []
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=m)
        u = 2.0 * direction / np.linalg.norm(direction)

        def draw(n):
            half = n // 2
            x = np.concatenate([
                u[:, None] + rng.normal(size=(m, half)),
                -u[:, None] + rng.normal(size=(m, half)),
            ], axis=1)
            return x, np.array(["pos"] * half + ["neg"] * half)

        x_tr, y_tr = draw(2 * n_per_class)
        x_te, y_te = draw(n_test)
        # real-data baseline: nearest class mean, in the original space
        classes = np.unique(y_tr)
        dists = [np.linalg.norm(x_te - x_tr[:, y_tr == c].mean(axis=1)[:, None], axis=0)
                 for c in classes]
        acc_real.append(float(np.mean(classes[np.argmin(dists, axis=0)] == y_te)))

        eps_mu, eps_sigma = split_budget(1.0)
        res = synth_gmm(Dataset(features=x_tr, class_labels=y_tr), m - 1,
                        eps_mu, eps_sigma, rng=np.random.default_rng(500 + seed))
        acc_synth.append(nearest_mean_accuracy(res, x_te, y_te))

    real = float(np.mean(acc_real))
    synth = float(np.mean(acc_synth))
    gap_points = 100.0 * abs(real - synth)
    report(9, gap_points <= 5.0,
           f"two-Gaussian GMM release, 20 seeds: accuracy {100 * synth:.2f}% vs "
           f"real {100 * real:.2f}% (gap {gap_points:.2f} <= 5 points)")


def test_criterion_10_dimension_sweep_shape(regression_experiment):
    rows, _ = regression_experiment
    hits = sum(1 for r in rows if min(REG_DIMS, key=lambda p: r[p]) < 16)
    argmins = [min(REG_DIMS, key=lambda p: r[p]) for r in rows]
    report(10, hits >= 15,
           f"best RMSE over p in {REG_DIMS} below p=16 in {hits}/20 seeds "
           f"(argmin counts: {dict((p, argmins.count(p)) for p in REG_DIMS)})")
