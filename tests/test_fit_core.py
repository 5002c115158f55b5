"""The factored fitting core against an explicit per-class reference.

The release never builds the normalized or centered m x n matrices: it
works from column norms and one GEMM, [W, mu]ᵀ X for one class and Wᵀ X
for a mixture. These tests build the explicit stage (normalize, noisy
mean, the m x n centered matrix of ``center_with_mean``, project; for a
mixture, the uncentered chart and its p-dimensional mean) and check that
releases, held-out transforms and adversarial near-collapse inputs agree
with it.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ronsynth import preprocessing, synthesis
from ronsynth.dataset import Dataset
from ronsynth.mechanism import (
    BudgetLedger,
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
    mean_sensitivity,
    record_spends,
)
from ronsynth.projection import generate_ron
from ronsynth.synthesis import (
    dp_perturb_cov,
    estimate_aug_cov,
    estimate_cov,
    mode_transform,
    psd_repair,
    synth_gmm,
    synth_supervised,
    synth_unsupervised,
    transform_features,
)

# the modes that center on an m-dimensional mean; a mixture does not
ONE_CLASS_MODES = ["unsupervised", "supervised"]
# projected norms may exceed 1 by the rounding of the clip's own division
NORM_SLACK = 4 * np.finfo(float).eps
# the supervised releases' bound; make_data's labels reach past it
LABEL_BOUND = 1.0


def explicit_chart(X, mu, W):
    """Normalize, center on mu, re-normalize and project, written out."""
    return W.T @ preprocessing.center_with_mean(X, mu)


def reference_fit(X, p, eps_mu, eps_sigma, rng, projection=None, labels=None,
                  label_bound=None):
    """One class's fit in the draw order of a release: mean noise, basis,
    covariance noise. Returns (mu, projection, covariance)."""
    m, n = X.shape
    mu = (X / np.linalg.norm(X, axis=0)).mean(axis=1)
    if not math.isinf(eps_mu):
        mu = laplace_perturb(mu, mean_sensitivity(m, n) / eps_mu, rng)
    proj = projection if projection is not None else generate_ron(m, p, rng)
    x_tilde = explicit_chart(X, mu, proj.W)
    if label_bound is None:
        second, sens = estimate_cov(x_tilde), cov_sensitivity(p, n)
    else:
        second = estimate_aug_cov(x_tilde, np.clip(labels, -label_bound, label_bound))
        sens = aug_cov_sensitivity(p, n, label_bound)
    cov, _ = psd_repair(dp_perturb_cov(second, sens, eps_sigma, rng))
    return mu, proj, cov


def reference_mode(X, proj, eps_mu, eps_sigma, rng):
    """One mixture class's fit on the release's basis, in the draw order
    of a release: mean noise, covariance noise. Returns (mean, covariance)."""
    p, n = proj.p, X.shape[1]
    chart = proj.W.T @ (X / np.linalg.norm(X, axis=0))
    mu = chart.mean(axis=1)
    if not math.isinf(eps_mu):
        mu = laplace_perturb(mu, mean_sensitivity(p, n) / eps_mu, rng)
    noisy = dp_perturb_cov(estimate_cov(chart), cov_sensitivity(p, n), eps_sigma, rng)
    cov, _ = psd_repair(noisy - np.outer(mu, mu))
    return mu, cov


def make_data(mode, m=12, n=300, seed=40, column_major=False):
    """Features are row-major m x n, or, with ``column_major``, the
    transpose of a row-major n x m table, the layout the CSV loader gives."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n)) + rng.normal(size=(m, 1))
    if column_major:
        X = np.ascontiguousarray(X.T).T
    if mode == "gmm":
        return Dataset(features=X, class_labels=rng.choice(["b", "a", "c"], size=n))
    if mode == "supervised":
        return Dataset(features=X, labels=rng.uniform(-1.5, 1.5, size=n))
    return Dataset(features=X)


def release(mode, data, p, eps_mu, eps_sigma, rng):
    if mode == "gmm":
        return synth_gmm(data, p, eps_mu, eps_sigma, rng=rng)
    if mode == "supervised":
        return synth_supervised(data, p, eps_mu, eps_sigma, LABEL_BOUND, rng=rng)
    return synth_unsupervised(data, p, eps_mu, eps_sigma, rng=rng)


@pytest.mark.parametrize("column_major", [False, True])
@pytest.mark.parametrize("mode", ["unsupervised", "supervised", "gmm"])
@pytest.mark.parametrize("eps_mu", [0.4, math.inf])
def test_release_matches_explicit_per_class_reference(mode, column_major, eps_mu):
    p, eps_sigma, seed = 3, 0.9, 41
    data = make_data(mode, column_major=column_major)
    assert data.features.flags.f_contiguous == column_major
    m, n = data.features.shape
    res = release(mode, data, p, eps_mu, eps_sigma, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    ledger = BudgetLedger()
    if mode != "gmm":
        bound = LABEL_BOUND if mode == "supervised" else None
        record_spends(ledger, m, p, n, eps_mu, eps_sigma, bound)
        mu, proj, cov = reference_fit(data.features, p, eps_mu, eps_sigma, rng,
                                      labels=data.labels, label_bound=bound)
        assert np.array_equal(res.projection.W, proj.W)
        assert np.max(np.abs(res.mu_dp - mu)) <= 1e-12
        assert np.max(np.abs(res.model.covariance - cov)) <= 1e-12
    else:
        names = sorted(set(data.class_labels.tolist()))
        # the release generator draws the basis before the class generators spawn
        proj = generate_ron(m, p, rng)
        assert np.array_equal(res.projection.W, proj.W)
        for name, mode_c, class_rng in zip(names, res.model.modes, rng.spawn(len(names))):
            X_c = data.features[:, data.class_labels == name]
            record_spends(ledger, m, p, X_c.shape[1], eps_mu, eps_sigma, per_class=True)
            mu, cov = reference_mode(X_c, proj, eps_mu, eps_sigma, class_rng)
            assert mode_c.label == name
            assert mode_c.projection is res.projection
            assert np.max(np.abs(mode_c.model.mean - mu)) <= 1e-12
            assert np.max(np.abs(mode_c.model.covariance - cov)) <= 1e-12
    assert res.ledger.entries == ledger.entries


def spy_preprocess(monkeypatch):
    """Record every PreprocessedDataset a release builds."""
    seen = []

    def spy(*args, **kwargs):
        pre = preprocessing.preprocess(*args, **kwargs)
        seen.append(pre)
        return pre

    monkeypatch.setattr(synthesis, "preprocess", spy)
    return seen


def class_columns(data):
    """Each class's column indices, in the release's class order."""
    if data.class_labels is None:
        return [np.arange(data.n_samples)]
    names = sorted(set(data.class_labels.tolist()), key=str)
    return [np.flatnonzero(data.class_labels == name) for name in names]


def pin_mean(monkeypatch, mu):
    """Make every released mean exactly mu, in place of the noisy one."""
    monkeypatch.setattr(preprocessing, "laplace_perturb",
                        lambda values, scale_b, rng: mu.copy())


@pytest.mark.parametrize("mode", ONE_CLASS_MODES)
def test_sample_at_the_mean_projects_to_zero(mode, monkeypatch):
    m, n, p = 9, 90, 3
    data = make_data(mode, m, n, seed=43)
    X = data.features.copy()
    mu = np.zeros(m)
    mu[4] = 1.0
    X[:, 10] = 2.0 * mu  # normalizes exactly onto mu
    data = Dataset(features=X, labels=data.labels, class_labels=data.class_labels)
    pin_mean(monkeypatch, mu)
    seen = spy_preprocess(monkeypatch)
    release(mode, data, p, 1.0, math.inf, np.random.default_rng(44))
    (pre,) = seen
    assert pre.zero_norm_rows_dropped == 1
    assert np.array_equal(preprocessing.center_with_mean(X, mu)[:, 10], np.zeros(m))
    c, cols = next((c, cols) for c, cols in enumerate(class_columns(data)) if 10 in cols)
    assert np.array_equal(pre.x_tilde[c][:, np.searchsorted(cols, 10)], np.zeros(p))


@pytest.mark.parametrize("mode", ONE_CLASS_MODES)
def test_samples_near_the_mean_project_inside_the_unit_ball(mode, monkeypatch):
    # the expanded centered norm is only good to about 1e-8 near mu;
    # whatever it reads, no projected column may leave the unit ball
    m, n, p = 9, 90, 3
    data = make_data(mode, m, n, seed=45)
    rng = np.random.default_rng(46)
    mu = rng.normal(size=m)
    mu /= np.linalg.norm(mu)
    X = data.features.copy()
    deltas = [1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 2e-6, 1e-5, 1e-4]
    for j, delta in enumerate(deltas):
        X[:, j] = 3.0 * (mu + delta * rng.normal(size=m))
    data = Dataset(features=X, labels=data.labels, class_labels=data.class_labels)
    pin_mean(monkeypatch, mu)
    seen = spy_preprocess(monkeypatch)
    res = release(mode, data, p, 1.0, math.inf, np.random.default_rng(47))
    (pre,) = seen
    for x_tilde in pre.x_tilde:
        assert np.all(np.linalg.norm(x_tilde, axis=0) <= 1.0 + NORM_SLACK)
    # samples well clear of the threshold come out as the explicit stage's
    clear = np.arange(len(deltas), n)
    for x_tilde, cols in zip(pre.x_tilde, class_columns(data)):
        keep = np.isin(cols, clear)
        expected = explicit_chart(X[:, cols[keep]], mu, pre.projection.W)
        assert np.max(np.abs(x_tilde[:, keep] - expected)) <= 1e-12
    assert res.dataset.n_samples == n


@pytest.mark.parametrize("column_major", [False, True])
def test_mixture_charts_are_uncentered_and_in_the_unit_ball(column_major, monkeypatch):
    # a mixture class is fit in Wᵀx/||x||, the chart mode_transform maps
    # held-out data into; nothing is centered, so nothing collapses
    m, n, p = 9, 90, 3
    data = make_data("gmm", m, n, seed=43, column_major=column_major)
    X = data.features
    seen = spy_preprocess(monkeypatch)
    res = release("gmm", data, p, 1.0, math.inf, np.random.default_rng(44))
    (pre,) = seen
    assert pre.zero_norm_rows_dropped == 0
    assert pre.mu_dp.shape == (p, len(res.model.modes))
    for c, (x_tilde, cols, mode) in enumerate(zip(pre.x_tilde, class_columns(data),
                                                   res.model.modes)):
        assert np.all(np.linalg.norm(x_tilde, axis=0) <= 1.0 + NORM_SLACK)
        assert np.max(np.abs(x_tilde - mode_transform(mode, X[:, cols]))) <= 1e-12
        assert np.array_equal(mode.model.mean, pre.mu_dp[:, c])
    assert all(x_tilde.any(axis=0).all() for x_tilde in pre.x_tilde)


def test_mixture_charts_are_clipped_whatever_the_norms_read(monkeypatch):
    # the clip, not the norm arithmetic, bounds every chart column: with
    # norms that read half their size, every column still lands in the
    # unit ball. A release reads its norms from the Dataset, so they are
    # set there, at a quarter of each true squared norm
    data = make_data("gmm", 9, 90, seed=52)
    object.__setattr__(data, "sq_norms", data.sq_norms / 4.0)
    seen = spy_preprocess(monkeypatch)
    release("gmm", data, 3, 1.0, math.inf, np.random.default_rng(53))
    (pre,) = seen
    norms = np.concatenate([np.linalg.norm(x_tilde, axis=0) for x_tilde in pre.x_tilde])
    assert np.all(norms <= 1.0 + NORM_SLACK)
    assert np.count_nonzero(norms > 1.0 - NORM_SLACK) > len(norms) // 2


def test_clip_absorbs_the_rounding_of_the_expanded_norm():
    # with the identity as the chart nothing shrinks the centered columns,
    # so the expanded norm's rounding (up to 2e-4 just above the collapse
    # threshold) would show; the clip keeps every column in the unit ball
    rng = np.random.default_rng(51)
    m = 9
    mu = rng.normal(size=m)
    mu /= np.linalg.norm(mu)
    deltas = np.repeat([1e-9, 1e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5], 50)
    X = 3.0 * (mu[:, None] + deltas * rng.normal(size=(m, deltas.size)))
    scale = preprocessing.inverse_norms(preprocessing.column_sq_norms(X))
    out, inv = preprocessing.center_projected(X, mu @ X, scale, mu, float(mu @ mu))
    assert np.all(np.linalg.norm(out, axis=0) <= 1.0 + NORM_SLACK)
    collapsed = inv == 0.0
    assert np.all(collapsed[deltas <= 1e-8]) and not np.any(collapsed[deltas >= 1e-5])
    assert not np.any(out[:, collapsed])


def test_held_out_transforms_match_the_explicit_stage():
    rng = np.random.default_rng(48)
    m, p = 10, 4
    X = rng.normal(size=(m, 200)) + 0.5
    mu = rng.normal(size=m) * 0.1
    proj = generate_ron(m, p, rng)
    assert np.max(np.abs(transform_features(mu, proj, X) - explicit_chart(X, mu, proj.W))) \
        <= 1e-12
    mode = synthesis.GmmMode(label="a", model=synthesis.GaussianModel(np.zeros(p), np.eye(p)),
                             projection=proj)
    expected = proj.W.T @ (X / np.linalg.norm(X, axis=0))
    assert np.max(np.abs(mode_transform(mode, X) - expected)) <= 1e-12


@pytest.mark.parametrize("mode", ["unsupervised", "gmm"])
def test_release_allocates_no_copy_of_the_data(mode):
    # the explicit stage holds several m x n temporaries at once; the
    # factored one allocates O((k p + k) n) beyond the input
    m, n, p = 500, 4000, 8
    rng = np.random.default_rng(49)
    X = rng.normal(size=(m, n))
    if mode == "gmm":
        data = Dataset(features=X, class_labels=np.repeat(["a", "b", "c", "d"], n // 4))
    else:
        data = Dataset(features=X)
    tracemalloc.start()
    try:
        release(mode, data, p, 0.3, 0.7, np.random.default_rng(50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 5
