"""Gaussian generative models over the projected space.

All three release modes fit through one core: preprocess, project,
estimate a second-moment matrix, add Laplace noise calibrated to its
sensitivity, and repair the noisy matrix to the PSD cone. Each mode
then samples from the fitted Gaussian (one per class for the mixture).

The covariance estimate deliberately skips mean subtraction. With
samples of norm at most 1 after projection, replacing one sample moves
the upper triangle of (1/n) * X Xᵀ by at most (p+1)/n in entrywise L1,
whereas the mean-subtracted estimate couples every summand through the
mean and its sensitivity is worse by a factor of n + 1. The small bias
is the price of a usable noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .mechanism import (
    BudgetLedger,
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
)
from .preprocessing import center_with_mean, preprocess, sample_normalize
from .projection import RonProjection, generate_ron, project

PSD_TOL = 1e-10

# parallel-composition group tags used by the per-class pipeline
GMM_MEAN_GROUP = "class_mean"
GMM_COV_GROUP = "class_cov"


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
    """One class of a mixture: its released model and transform."""

    label: object
    n_c: int
    model: GaussianModel
    projection: RonProjection
    mu_dp: np.ndarray


@dataclass(frozen=True)
class GmmModel:
    """Per-class Gaussian modes forming a mixture release."""

    modes: tuple[GmmMode, ...]

    def __post_init__(self):
        modes = tuple(self.modes)
        labels = [m.label for m in modes]
        if len(set(map(str, labels))) != len(labels):
            raise ValueError("class labels of mixture modes must be distinct")
        if any(m.n_c < 1 for m in modes):
            raise ValueError("every mixture mode needs at least one source sample")
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True)
class SynthesisResult:
    """A synthetic release plus everything needed to audit or reuse it.

    mu_dp and projection (per mode for mixtures) are DP-safe and define
    the transform that maps held-out real data into the space the
    synthetic features live in.
    """

    dataset: Dataset
    model: GaussianModel | GmmModel
    ledger: BudgetLedger
    psd_repair_applied: bool
    projection: RonProjection | None = None
    mu_dp: np.ndarray | None = None


def estimate_cov(X_tilde: np.ndarray) -> np.ndarray:
    """Second-moment matrix (1/n) * X Xᵀ of column-wise samples."""
    X_tilde = np.asarray(X_tilde, dtype=float)
    if X_tilde.ndim != 2 or X_tilde.shape[1] < 1:
        raise ValueError(f"expected a p x n matrix with n >= 1, got shape {X_tilde.shape}")
    n = X_tilde.shape[1]
    S = (X_tilde @ X_tilde.T) / n
    return (S + S.T) / 2.0


def estimate_aug_cov(X_tilde: np.ndarray, y: np.ndarray,
                     label_bound: float | None = None) -> np.ndarray:
    """Second-moment matrix of samples stacked with their labels.

    Block form: the top-left p x p block is estimate_cov(X_tilde), the
    last column/row holds (1/n) * X y, and the corner scalar is
    (1/n) * yᵀy. Labels must already be clipped to [-label_bound,
    label_bound] when a bound is supplied.
    """
    X_tilde = np.asarray(X_tilde, dtype=float)
    y = np.asarray(y, dtype=float)
    if X_tilde.ndim != 2:
        raise ValueError(f"expected a p x n matrix, got shape {X_tilde.shape}")
    p, n = X_tilde.shape
    if y.shape != (n,):
        raise ValueError(f"labels must have length {n}, got shape {y.shape}")
    if label_bound is not None and np.any(np.abs(y) > label_bound):
        worst = float(np.max(np.abs(y)))
        raise ValueError(
            f"labels exceed the bound {label_bound} (max |y| = {worst}); clip them first"
        )
    out = np.empty((p + 1, p + 1), dtype=float)
    out[:p, :p] = estimate_cov(X_tilde)
    cross = (X_tilde @ y) / n
    out[:p, p] = cross
    out[p, :p] = cross
    out[p, p] = float(y @ y) / n
    return out


def dp_perturb_cov(cov: np.ndarray, sensitivity: float, epsilon_sigma: float,
                   rng: np.random.Generator, ledger: BudgetLedger | None = None,
                   query: str = "covariance", group: str | None = None) -> np.ndarray:
    """Laplace-perturb the upper triangle of a covariance and mirror it.

    Each entry i <= j, the entries the sensitivity covers, gets noise of
    scale sensitivity/epsilon_sigma once; the lower triangle copies it.
    epsilon_sigma=math.inf disables the noise.
    """
    cov = np.asarray(cov, dtype=float)
    if epsilon_sigma <= 0:
        raise ValueError(f"epsilon_sigma must be positive, got {epsilon_sigma}")
    upper = np.triu_indices(cov.shape[0])
    values = cov[upper]
    if not math.isinf(epsilon_sigma):
        if ledger is not None:
            ledger.record(query, sensitivity, epsilon_sigma, group=group)
        values = laplace_perturb(values, sensitivity / epsilon_sigma, rng)
    noisy = np.empty_like(cov)
    noisy[upper] = values
    noisy.T[upper] = values
    return noisy


def psd_repair(cov: np.ndarray, floor: float = 0.0) -> tuple[np.ndarray, bool]:
    """Clip eigenvalues below ``floor`` up to it.

    Returns the repaired matrix and whether any clipping happened. An
    already-compliant matrix is returned unchanged. Spectral clipping
    is the minimal-change projection onto the PSD cone and, being
    post-processing of a DP quantity, is free.
    """
    cov = np.asarray(cov, dtype=float)
    if floor < 0:
        raise ValueError(f"eigenvalue floor must be non-negative, got {floor}")
    if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
        raise ValueError("psd_repair expects a symmetric matrix")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() >= floor:
        return cov, False
    repaired = (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T
    return (repaired + repaired.T) / 2.0, True


def sample_gaussian(model: GaussianModel, n_synth: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw n_synth columns from N(model.mean, model.covariance).

    Uses an eigendecomposition square root, so singular (rank-deficient)
    covariances are handled without a Cholesky failure.
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
    return model.mean[:, None] + root @ z


def _released_names(p: int) -> tuple[str, ...]:
    return tuple(f"z{j + 1}" for j in range(p))


def covariance_spend(p: int, n: int,
                     label_bound: float | None = None) -> tuple[str, float]:
    """Ledger query and sensitivity of the second moment of n samples.

    A label bound selects the label-augmented matrix. Releases and
    ``ronsynth budget`` both account through this function.
    """
    if label_bound is None:
        return "covariance", cov_sensitivity(p, n)
    return "augmented_covariance", aug_cov_sensitivity(p, n, label_bound)


def _fit(X: np.ndarray, p: int, epsilon_mu: float, epsilon_sigma: float,
         rng: np.random.Generator, ledger: BudgetLedger, psd_floor: float,
         projection: RonProjection | None = None, labels: np.ndarray | None = None,
         label_bound: float | None = None, groups: tuple = (None, None)):
    """The fitting core of every release mode.

    Preprocesses X, projects it (onto a fresh basis unless one is
    given), estimates the second moment (label-augmented when a label
    bound is given), Laplace-perturbs it and repairs it to the PSD
    cone. Returns (preprocessed, projection, covariance, repaired).
    """
    m = X.shape[0]
    pre = preprocess(X, epsilon_mu, rng, ledger=ledger, group=groups[0])
    proj = projection if projection is not None else generate_ron(m, p, rng)
    if proj.m != m or proj.p != p:
        raise ValueError(f"projection is {proj.m}x{proj.p}, pipeline needs {m}x{p}")
    x_tilde = project(proj, pre.x_bar)
    if label_bound is None:
        second = estimate_cov(x_tilde)
    else:
        second = estimate_aug_cov(x_tilde, labels[pre.kept_indices],
                                  label_bound=label_bound)
    query, sensitivity = covariance_spend(p, x_tilde.shape[1], label_bound)
    noisy = dp_perturb_cov(second, sensitivity, epsilon_sigma, rng, ledger=ledger,
                           query=query, group=groups[1])
    cov, repaired = psd_repair(noisy, psd_floor)
    return pre, proj, cov, repaired


def synth_unsupervised(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
                       n_synth: int | None = None,
                       rng: np.random.Generator | None = None,
                       psd_floor: float = 0.0,
                       projection: RonProjection | None = None) -> SynthesisResult:
    """Release unlabeled synthetic data from a zero-mean Gaussian model.

    Total privacy cost is epsilon_mu + epsilon_sigma (two serial
    spends). n_synth defaults to the source sample count.
    """
    return _zero_mean_release(data, p, epsilon_mu, epsilon_sigma, n_synth, rng,
                              psd_floor, projection)


def synth_supervised(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
                     n_synth: int | None = None,
                     rng: np.random.Generator | None = None,
                     psd_floor: float = 0.0,
                     projection: RonProjection | None = None) -> SynthesisResult:
    """Release synthetic features plus a real-valued label column.

    The label is appended to the projected features as an extra
    coordinate (never projected itself, so its meaning survives), the
    (p+1)-dim second-moment matrix is perturbed at the augmented
    sensitivity, and joint samples are drawn from the zero-mean
    Gaussian. The last coordinate of each sample becomes the synthetic
    label. Labels come out as unconstrained reals; classification users
    should prefer synth_gmm.
    """
    if data.labels is None:
        raise ValueError("supervised synthesis needs real-valued labels")
    if data.label_bound is None:
        raise ValueError("supervised synthesis needs a declared label bound")
    return _zero_mean_release(data, p, epsilon_mu, epsilon_sigma, n_synth, rng,
                              psd_floor, projection, label_bound=data.label_bound)


def _zero_mean_release(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
                       n_synth: int | None, rng: np.random.Generator | None,
                       psd_floor: float, projection: RonProjection | None,
                       label_bound: float | None = None) -> SynthesisResult:
    """Fit and sample one zero-mean Gaussian; with a label bound, the
    labels are its last coordinate."""
    rng = np.random.default_rng(rng)  # returns a given Generator unchanged
    m, n = data.features.shape
    _check_dims(p, m)
    ledger = BudgetLedger()
    pre, proj, cov, repaired = _fit(data.features, p, epsilon_mu, epsilon_sigma, rng,
                                    ledger, psd_floor, projection, data.labels, label_bound)
    model = GaussianModel(np.zeros(cov.shape[0]), cov)
    samples = sample_gaussian(model, n if n_synth is None else n_synth, rng)
    release = Dataset(features=samples[:p], feature_names=_released_names(p),
                      labels=None if label_bound is None else samples[p])
    return SynthesisResult(dataset=release, model=model, ledger=ledger,
                           psd_repair_applied=repaired, projection=proj, mu_dp=pre.mu_dp)


def synth_gmm(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
              per_class_n_synth: int | dict | None = None,
              rng: np.random.Generator | None = None,
              psd_floor: float = 0.0,
              shared_projection: bool = False) -> SynthesisResult:
    """Release class-labeled synthetic data from one Gaussian per class.

    Each class is preprocessed, projected, and modeled independently on
    its disjoint slice of the data; the mode mean is the projected DP
    class mean, so classes land in separate locations. Per-class sample
    counts are treated as public. Because the per-class spends operate
    on disjoint partitions, they compose in parallel and the total cost
    stays epsilon_mu + epsilon_sigma regardless of the class count.

    By default every class draws its own fresh projection, so the
    feature columns of different classes live in different projected
    bases (each mode records its own). ``shared_projection=True`` uses
    one basis for all classes, which downstream consumers that compare
    features across classes will usually want.
    """
    if data.class_labels is None:
        raise ValueError("mixture synthesis needs categorical class labels")
    rng = np.random.default_rng(rng)  # returns a given Generator unchanged
    m = data.features.shape[0]
    _check_dims(p, m)
    ledger = BudgetLedger()

    class_names = sorted(set(data.class_labels.tolist()), key=str)
    counts = _per_class_counts(per_class_n_synth, class_names)

    shared = generate_ron(m, p, rng) if shared_projection else None
    class_rngs = rng.spawn(len(class_names))

    modes: list[GmmMode] = []
    feature_blocks: list[np.ndarray] = []
    label_blocks: list[np.ndarray] = []
    any_repair = False
    for name, class_rng in zip(class_names, class_rngs):
        mask = data.class_labels == name
        pre, proj, cov, repaired = _fit(data.features[:, mask], p, epsilon_mu,
                                        epsilon_sigma, class_rng, ledger, psd_floor,
                                        shared, groups=(GMM_MEAN_GROUP, GMM_COV_GROUP))
        any_repair = any_repair or repaired
        model_c = GaussianModel(proj.W.T @ pre.mu_dp, cov)
        n_c = int(np.count_nonzero(mask))
        modes.append(GmmMode(label=name, n_c=n_c, model=model_c,
                             projection=proj, mu_dp=pre.mu_dp))

        count = counts.get(name, n_c)
        feature_blocks.append(sample_gaussian(model_c, count, class_rng))
        label_blocks.append(np.full(count, name))

    release = Dataset(
        features=np.concatenate(feature_blocks, axis=1),
        class_labels=np.concatenate(label_blocks),
        feature_names=_released_names(p),
    )
    return SynthesisResult(dataset=release, model=GmmModel(tuple(modes)), ledger=ledger,
                           psd_repair_applied=any_repair, projection=shared)


def transform_features(mu_dp: np.ndarray, proj: RonProjection,
                       X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map held-out data into the space synthetic features live in.

    Applies the released mean's normalize/center/re-normalize transform
    followed by the projection -- the same chart the unsupervised and
    supervised models are fit in. Both inputs are DP-safe, so this
    spends nothing. Returns the projected samples and the indices of
    the input columns that survived (degenerate columns are dropped,
    mirroring the training-side rule).
    """
    pre = center_with_mean(X, mu_dp)
    return project(proj, pre.x_bar), pre.kept_indices


def mode_transform(mode: GmmMode, X: np.ndarray) -> np.ndarray:
    """Map held-out data into one mixture mode's chart.

    Mixture modes keep their class location (the projected DP class
    mean), so the matching transform for new samples is projection of
    the normalized sample without centering: its class-conditional
    expectation then coincides with the mode's synthetic mean.
    """
    return project(mode.projection, sample_normalize(X))


def _check_dims(p: int, m: int) -> None:
    if not 1 <= p < m:
        raise ValueError(f"projected dimension must satisfy 1 <= p < m, got p={p}, m={m}")


def _per_class_counts(per_class_n_synth, class_names) -> dict:
    if per_class_n_synth is None:
        return {}
    if isinstance(per_class_n_synth, int):
        if per_class_n_synth < 1:
            raise ValueError("per-class synthetic count must be positive")
        return {name: per_class_n_synth for name in class_names}
    counts = dict(per_class_n_synth)
    unknown = [k for k in counts if k not in class_names]
    if unknown:
        raise ValueError(f"per-class counts name unknown classes: {unknown}")
    if any(v < 1 for v in counts.values()):
        raise ValueError("per-class synthetic counts must be positive")
    return counts
