"""Gaussian generative models over the projected space.

All three release modes fit and sample through one core, in which
unsupervised and supervised releases are the one-class case of the
mixture: preprocess and project every class from a fixed number of
passes over the data, then per class estimate a second-moment matrix,
add Laplace noise calibrated to its sensitivity, repair the noisy matrix
to the PSD cone and sample the fitted Gaussian. Each mode only
assembles the samples into its release.

The covariance estimate deliberately skips mean subtraction. With
samples of norm at most 1 after projection, replacing one sample moves
the upper triangle of (1/n) * X Xᵀ by at most (p+1)/n in entrywise L1,
whereas the mean-subtracted estimate couples every summand through the
mean and its sensitivity is worse by a factor of n + 1. The small bias
is the price of a usable noise level. A mixture mode, fit in an
uncentered chart, subtracts the outer product of its already released
DP mean from the noisy moment instead: post-processing, at no cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .mechanism import BudgetLedger, laplace_perturb, record_spends
from .preprocessing import (centered_chart, clip_to_unit_ball, column_sq_norms,
                            inverse_norms, preprocess)
from .projection import RonProjection, generate_ron, project

PSD_TOL = 1e-10
# columns that sample_gaussian transforms in place at a time
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class GaussianModel:
    """A DP-protected Gaussian: mean and covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if mean.shape != (cov.shape[0],):
            raise ValueError(
                f"mean has shape {mean.shape}, covariance is {cov.shape}"
            )
        if not np.array_equal(cov, cov.T):
            raise ValueError("covariance must be exactly symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]


@dataclass(frozen=True)
class GmmMode:
    """One class of a mixture: its released model and transform.

    The model is fit in the mixture's chart, which ``transform_features``
    maps held-out data into. Every mode of a release holds the same
    projection, the release's one basis.
    """

    label: object
    model: GaussianModel
    projection: RonProjection


@dataclass(frozen=True)
class GmmModel:
    """Per-class Gaussian modes forming a mixture release."""

    modes: tuple[GmmMode, ...]

    def __post_init__(self):
        modes = tuple(self.modes)
        labels = [m.label for m in modes]
        if len(set(map(str, labels))) != len(labels):
            raise ValueError("class labels of mixture modes must be distinct")
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True)
class SynthesisResult:
    """A synthetic release plus everything needed to audit or reuse it.

    projection, the release's one basis, and mu_dp are DP-safe and
    define ``transform_features``, the map of held-out real data into the
    release's chart. A mixture has no mu_dp: its chart is uncentered, and
    its projection is every mode's.
    """

    dataset: Dataset
    model: GaussianModel | GmmModel
    ledger: BudgetLedger
    psd_repair_applied: bool
    projection: RonProjection
    mu_dp: np.ndarray | None = None


def estimate_cov(X_tilde: np.ndarray) -> np.ndarray:
    """Second-moment matrix (1/n) * X Xᵀ of column-wise samples."""
    X_tilde = np.asarray(X_tilde, dtype=float)
    if X_tilde.ndim != 2 or X_tilde.shape[1] < 1:
        raise ValueError(f"expected a p x n matrix with n >= 1, got shape {X_tilde.shape}")
    n = X_tilde.shape[1]
    S = (X_tilde @ X_tilde.T) / n
    return (S + S.T) / 2.0


def estimate_aug_cov(X_tilde: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-moment matrix of samples stacked with their labels.

    Block form: the top-left p x p block is estimate_cov(X_tilde), the
    last column/row holds (1/n) * X y, and the corner scalar is
    (1/n) * yᵀy. The augmented sensitivity holds only for labels in
    [-a, a]; a release passes labels it has clipped to its bound a.
    """
    X_tilde = np.asarray(X_tilde, dtype=float)
    y = np.asarray(y, dtype=float)
    if X_tilde.ndim != 2:
        raise ValueError(f"expected a p x n matrix, got shape {X_tilde.shape}")
    p, n = X_tilde.shape
    if y.shape != (n,):
        raise ValueError(f"labels must have length {n}, got shape {y.shape}")
    out = np.empty((p + 1, p + 1), dtype=float)
    out[:p, :p] = estimate_cov(X_tilde)
    cross = (X_tilde @ y) / n
    out[:p, p] = cross
    out[p, :p] = cross
    out[p, p] = float(y @ y) / n
    return out


def dp_perturb_cov(cov: np.ndarray, sensitivity: float, epsilon_sigma: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Laplace-perturb the upper triangle of a covariance and mirror it.

    Each entry i <= j, the entries the sensitivity covers, gets noise of
    scale sensitivity/epsilon_sigma once; the lower triangle copies it.
    epsilon_sigma=math.inf disables the noise. The caller records the
    spend (``mechanism.record_spends``).
    """
    cov = np.asarray(cov, dtype=float)
    if not epsilon_sigma > 0:
        raise ValueError(f"epsilon_sigma must be positive, got {epsilon_sigma}")
    upper = np.triu_indices(cov.shape[0])
    values = cov[upper]
    if not math.isinf(epsilon_sigma):
        values = laplace_perturb(values, sensitivity / epsilon_sigma, rng)
    noisy = np.empty_like(cov)
    noisy[upper] = values
    noisy.T[upper] = values
    return noisy


def psd_repair(cov: np.ndarray) -> tuple[np.ndarray, bool]:
    """Clip negative eigenvalues to zero.

    Returns the repaired matrix and whether any clipping happened. An
    already-compliant matrix is returned unchanged. Spectral clipping
    is the minimal-change projection onto the PSD cone and, being
    post-processing of a DP quantity, is free.
    """
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
        raise ValueError("psd_repair expects a symmetric matrix")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() >= 0.0:
        return cov, False
    repaired = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    return (repaired + repaired.T) / 2.0, True


def sample_gaussian(model: GaussianModel, n_synth: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw n_synth columns from N(model.mean, model.covariance).

    Uses an eigendecomposition square root, so singular (rank-deficient)
    covariances are handled without a Cholesky failure. The standard
    normal draw is overwritten by its samples, SAMPLE_BLOCK columns at a
    time, so one d x n_synth array is held.
    """
    if n_synth < 1:
        raise ValueError(f"n_synth must be positive, got {n_synth}")
    eigvals, eigvecs = np.linalg.eigh(model.covariance)
    if eigvals.min() < -PSD_TOL:
        raise ValueError(
            f"covariance is not PSD (min eigenvalue {eigvals.min():.3e}); run psd_repair"
        )
    root = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    z = rng.standard_normal((model.dim, n_synth))
    for start in range(0, n_synth, SAMPLE_BLOCK):
        block = z[:, start:start + SAMPLE_BLOCK]
        block[...] = root @ block
        block += model.mean[:, None]
    return z


def _released_names(p: int) -> tuple[str, ...]:
    return tuple(f"z{j + 1}" for j in range(p))


def _fit(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
         rngs: list[np.random.Generator], n_synth: int | None,
         classes: np.ndarray | None = None, projection: RonProjection | None = None,
         label_bound: float | None = None):
    """The fitting and sampling core of every release mode.

    One class (``classes`` None, one generator) is the unsupervised and
    supervised case; the mixture passes each column's class and one
    generator per class. Records every class's spends in a new ledger,
    preprocesses and projects every class onto one basis (the mixture's
    given ``projection``, or a fresh one for one class), then per class
    estimates the second moment (augmented with ``data.labels`` clipped
    to [-label_bound, label_bound] when a bound is given) and
    Laplace-perturbs it at the recorded sensitivity. One class is
    zero-mean; a mixture class is centred on its chart's DP mean mu_c,
    and mu_c mu_cᵀ is subtracted from its noisy moment. The result is
    repaired to the PSD cone, and n_synth samples (default: the class's
    count) are drawn. Each generator draws its mean noise (one class:
    then the basis) in ``preprocess``, then covariance noise, then
    samples.
    Returns (preprocessed, ledger, [(model, samples, repaired) per class]).
    """
    X = data.features
    m, n = X.shape
    counts = [n] if classes is None else np.bincount(classes).tolist()
    ledger = BudgetLedger()
    cov_spends = [record_spends(ledger, m, p, n_c, epsilon_mu, epsilon_sigma,
                                label_bound, classes is not None)[1] for n_c in counts]
    labels = None if label_bound is None else np.clip(data.labels, -label_bound, label_bound)

    def draw(rng):
        return projection if projection is not None else generate_ron(m, p, rng)

    pre = preprocess(X, data.sq_norms, epsilon_mu, rngs, draw, classes)
    fits = []
    for c, (x_tilde, spend, rng) in enumerate(zip(pre.x_tilde, cov_spends, rngs)):
        second = estimate_cov(x_tilde) if labels is None else estimate_aug_cov(x_tilde, labels)
        noisy = dp_perturb_cov(second, spend.sensitivity, epsilon_sigma, rng)
        mean = np.zeros(noisy.shape[0]) if classes is None else pre.mu_dp[:, c]
        # both terms are exactly symmetric, and so is their difference
        cov, repaired = psd_repair(noisy - np.outer(mean, mean))
        model = GaussianModel(mean, cov)
        samples = sample_gaussian(model, counts[c] if n_synth is None else n_synth, rng)
        fits.append((model, samples, repaired))
    return pre, ledger, fits


def synth_unsupervised(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
                       n_synth: int | None = None,
                       rng: np.random.Generator | None = None) -> SynthesisResult:
    """Release unlabeled synthetic data from a zero-mean Gaussian model.

    Total privacy cost is epsilon_mu + epsilon_sigma (two serial
    spends). n_synth defaults to the source sample count.
    """
    return _zero_mean_release(data, p, epsilon_mu, epsilon_sigma, n_synth, rng)


def synth_supervised(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
                     label_bound: float, n_synth: int | None = None,
                     rng: np.random.Generator | None = None) -> SynthesisResult:
    """Release synthetic features plus a real-valued label column.

    The labels are clipped to [-label_bound, label_bound], the interval
    the augmented sensitivity (p + 1 + 2a√p + a²)/n holds for;
    ``data.labels`` is left as read. The clipped label is appended to
    the projected features as an extra coordinate (never projected
    itself, so its meaning survives), the (p+1)-dim second-moment matrix
    is perturbed at the augmented sensitivity, and joint samples are
    drawn from the zero-mean Gaussian. The last coordinate of each
    sample becomes the synthetic label. Labels come out as unconstrained
    reals; classification users should prefer synth_gmm.
    """
    if data.labels is None:
        raise ValueError("supervised synthesis needs real-valued labels")
    if label_bound is None:
        raise ValueError("supervised synthesis needs a label bound")
    return _zero_mean_release(data, p, epsilon_mu, epsilon_sigma, n_synth, rng,
                              label_bound=label_bound)


def _zero_mean_release(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
                       n_synth: int | None, rng: np.random.Generator | None,
                       label_bound: float | None = None) -> SynthesisResult:
    """Fit and sample one zero-mean Gaussian; with a label bound, the
    labels are its last coordinate."""
    rng = np.random.default_rng(rng)  # returns a given Generator unchanged
    _check_sizes(p, data.features.shape[0], n_synth)
    pre, ledger, [(model, samples, repaired)] = _fit(
        data, p, epsilon_mu, epsilon_sigma, [rng], n_synth, label_bound=label_bound)
    release = Dataset(features=samples[:p], feature_names=_released_names(p),
                      labels=None if label_bound is None else samples[p])
    return SynthesisResult(dataset=release, model=model, ledger=ledger,
                           psd_repair_applied=repaired, projection=pre.projection,
                           mu_dp=pre.mu_dp[:, 0])


def synth_gmm(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
              per_class_n_synth: int | None = None,
              rng: np.random.Generator | None = None) -> SynthesisResult:
    """Release class-labeled synthetic data from one Gaussian per class.

    Every class is projected onto one basis W, drawn from ``rng`` before
    the per-class generators are spawned, so all classes share one
    feature space. Each class is modeled independently on its disjoint
    slice of the data, in the uncentered chart clip₁(Wᵀx/||x||) (see
    ``transform_features``). The mode mean is the DP mean of that chart, at
    the p-dimensional sensitivity 2*sqrt(p)/n_c, so classes land in
    separate locations; the covariance is the noisy second moment minus
    the mean's outer product, repaired to the PSD cone. Unlike the
    one-class releases, no m-dimensional mean is taken. Per-class sample
    counts are treated as public. Because the per-class spends operate
    on disjoint partitions, they compose in parallel and the total cost
    stays epsilon_mu + epsilon_sigma regardless of the class count.
    per_class_n_synth sets one synthetic count for every class; by
    default each class keeps its source count.
    """
    if data.class_labels is None:
        raise ValueError("mixture synthesis needs categorical class labels")
    rng = np.random.default_rng(rng)  # returns a given Generator unchanged
    m = data.features.shape[0]
    _check_sizes(p, m, per_class_n_synth)

    names = data.class_labels.tolist()
    class_names = sorted(set(names), key=str)
    lookup = {name: c for c, name in enumerate(class_names)}
    classes = np.fromiter(map(lookup.__getitem__, names), dtype=np.intp, count=len(names))

    projection = generate_ron(m, p, rng)
    _, ledger, fits = _fit(data, p, epsilon_mu, epsilon_sigma, rng.spawn(len(class_names)),
                           per_class_n_synth, classes, projection)

    modes = tuple(GmmMode(label=name, model=model, projection=projection)
                  for name, (model, _, _) in zip(class_names, fits))
    release = Dataset(
        features=np.concatenate([samples for _, samples, _ in fits], axis=1),
        class_labels=np.concatenate([np.full(samples.shape[1], name)
                                     for name, (_, samples, _) in zip(class_names, fits)]),
        feature_names=_released_names(p),
    )
    return SynthesisResult(dataset=release, model=GmmModel(modes), ledger=ledger,
                           psd_repair_applied=any(repaired for _, _, repaired in fits),
                           projection=projection)


def transform_features(result: SynthesisResult, data: Dataset) -> np.ndarray:
    """Map held-out data into the chart the release's model is fit in.

    A one-class release's chart is centred on its released mean
    (``preprocessing.centered_chart``); a mixture's (``mu_dp`` None) is
    the uncentered clip₁(Wᵀx/||x||) every mode shares. Either is computed
    from ``data.sq_norms`` by the same GEMM and arithmetic as in
    training, so the training data maps onto the release's own chart bit
    for bit, every column clipped to norm at most 1; a sample that
    collapses onto the mean projects to zero, as in training. The mean
    and the projection are DP-safe, so this spends nothing. Returns one
    chart column per sample of data.
    """
    proj = result.projection
    if data.n_features != proj.m:
        raise ValueError(f"expected data with {proj.m} features, got {data.n_features}")
    scale = inverse_norms(data.sq_norms)
    if result.mu_dp is None:
        return clip_to_unit_ball((proj.W.T @ data.features) * scale)
    return centered_chart(data.features, scale, result.mu_dp, proj)[0]


def mode_transform(mode: GmmMode, X: np.ndarray) -> np.ndarray:
    """Map held-out data, an m x n array, into one mixture mode's chart.

    The chart of ``transform_features`` for a mixture, clip₁(Wᵀx/||x||),
    with X's column norms taken here. A class's held-out expectation in
    this chart is what the mode's DP mean estimates.
    """
    X = np.asarray(X, dtype=float)
    return clip_to_unit_ball(project(mode.projection, X) * inverse_norms(column_sq_norms(X)))


def _check_sizes(p: int, m: int, n_synth: int | None) -> None:
    """Reject a release's sizes before any of it is fitted."""
    if not 1 <= p < m:
        raise ValueError(f"projected dimension must satisfy 1 <= p < m, got p={p}, m={m}")
    if n_synth is not None and n_synth < 1:
        raise ValueError(f"n_synth must be positive, got {n_synth}")

