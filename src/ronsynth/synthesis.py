"""Gaussian generative models over the projected space.

Every release mode is synthesize(measure(...)), and unsupervised and
supervised releases are the one-class case of the mixture. ``measure``,
the one step that reads the data, preprocesses and projects every class
from a fixed number of passes over it, then per class estimates a
second-moment matrix and adds Laplace noise at its ledger entry's scale.
``synthesize`` repairs each noisy matrix to the PSD cone, samples the
fitted Gaussian and assembles the release from the ``Measurements``
alone: post-processing, which spends nothing.

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

from .dataset import Dataset, column_sq_norms
from .mechanism import BudgetLedger, LedgerEntry, laplace_perturb, record_spends
from .preprocessing import chart, inverse_norms, preprocess
# project is unused, but perfbench/tracer.py wraps it in this module
from .projection import RonProjection, generate_ron, project  # noqa: F401

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


@dataclass(frozen=True)
class Measurements:
    """What ``measure`` took from the data; ``synthesize`` reads nothing else.

    moments[c] is class c's noisy second moment and mu_dp[:, c] its
    noisy mean. public holds the data-derived values a release treats as
    public: m, n and, for a mixture, class_sizes and class_names. rngs,
    never published, holds each class's generator where ``measure`` left it.
    """

    ledger: BudgetLedger
    projection: RonProjection
    mu_dp: np.ndarray
    moments: tuple[np.ndarray, ...]
    public: dict
    rngs: tuple[np.random.Generator, ...]


def estimate_cov(X_tilde: np.ndarray) -> np.ndarray:
    """Second-moment matrix (1/n) * X Xᵀ of column-wise samples."""
    X_tilde = np.asarray(X_tilde, dtype=float)
    if X_tilde.ndim != 2 or X_tilde.shape[1] < 1:
        raise ValueError(f"expected a p x n matrix with n >= 1, got shape {X_tilde.shape}")
    n = X_tilde.shape[1]
    return (X_tilde @ X_tilde.T) / n


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


def dp_perturb_cov(cov: np.ndarray, spend: LedgerEntry,
                   rng: np.random.Generator) -> np.ndarray:
    """Laplace-perturb the upper triangle of a covariance and mirror it.

    ``spend`` is the covariance's ledger entry (``mechanism.record_spends``).
    Each entry i <= j, the entries its sensitivity covers, gets noise at
    the entry's ``noise_scale`` once; the lower triangle copies it. An
    entry with epsilon=math.inf disables the noise.
    """
    cov = np.asarray(cov, dtype=float)
    upper = np.triu_indices(cov.shape[0])
    values = cov[upper]
    if not math.isinf(spend.epsilon):
        values = laplace_perturb(values, spend.noise_scale, rng)
    noisy = np.empty_like(cov)
    noisy[upper] = values
    noisy.T[upper] = values
    return noisy


def psd_repair(cov: np.ndarray) -> tuple[np.ndarray, bool]:
    """Clip negative eigenvalues to zero: a release's one PSD step.

    Returns the repaired matrix and whether any clipping happened. An
    already-compliant matrix is returned unchanged. Spectral clipping
    is the minimal-change projection onto the PSD cone and, being
    post-processing of a DP quantity, is free. The rebuilt matrix is PSD
    up to rounding that grows with its largest eigenvalue, which
    ``sample_gaussian`` clips.
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
    covariances are handled without a Cholesky failure. The covariance
    is taken to be ``psd_repair``'s output, which alone decides its
    spectrum: a negative eigenvalue is that repair's rounding and is
    clipped to zero, not tested. The standard normal draw is overwritten
    by its samples, SAMPLE_BLOCK columns at a time, so one d x n_synth
    array is held.
    """
    if n_synth < 1:
        raise ValueError(f"n_synth must be positive, got {n_synth}")
    eigvals, eigvecs = np.linalg.eigh(model.covariance)
    root = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    z = rng.standard_normal((model.dim, n_synth))
    for start in range(0, n_synth, SAMPLE_BLOCK):
        block = z[:, start:start + SAMPLE_BLOCK]
        block[...] = root @ block
        block += model.mean[:, None]
    return z


def _released_names(p: int) -> tuple[str, ...]:
    return tuple(f"z{j + 1}" for j in range(p))


def measure(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
            rng: np.random.Generator | None = None, label_bound: float | None = None,
            by_class: bool = False) -> Measurements:
    """The one step of a release that reads its data.

    One class is the unsupervised release, or with a label bound the
    supervised one (labels clipped to [-label_bound, label_bound]);
    ``by_class`` fits each class of ``data.class_labels`` on a generator
    spawned from ``rng``, over one basis drawn from ``rng``. Every spend
    is recorded before any draw; each generator then draws its mean
    noise (one class: then the basis), then its covariance noise.
    """
    rng = np.random.default_rng(rng)  # returns a given Generator unchanged
    X = data.features
    m, n = X.shape
    if not 1 <= p < m:
        raise ValueError(f"projected dimension must satisfy 1 <= p < m, got p={p}, m={m}")
    public = {"m": m, "n": n}
    classes, rngs = None, [rng]
    if by_class:
        if data.class_labels is None:
            raise ValueError("mixture synthesis needs categorical class labels")
        names = data.class_labels.tolist()
        class_names = sorted(set(names), key=str)
        lookup = {name: c for c, name in enumerate(class_names)}
        classes = np.fromiter(map(lookup.__getitem__, names), dtype=np.intp, count=len(names))
        # spawning the class generators leaves rng's own stream, the basis's, alone
        rngs = rng.spawn(len(class_names))
        public.update(class_sizes=np.bincount(classes).tolist(), class_names=class_names)
    if label_bound is not None and data.labels is None:
        raise ValueError("supervised synthesis needs real-valued labels")

    ledger = BudgetLedger()
    spends = [record_spends(ledger, m, p, n_c, epsilon_mu, epsilon_sigma, label_bound,
                            by_class) for n_c in public.get("class_sizes", [n])]
    labels = None if label_bound is None else np.clip(data.labels, -label_bound, label_bound)
    pre = preprocess(X, data.sq_norms, [mean for mean, _ in spends], rngs,
                     lambda: generate_ron(m, p, rng), classes)
    moments = tuple(
        dp_perturb_cov(estimate_cov(x) if labels is None else estimate_aug_cov(x, labels),
                       spend, class_rng)
        for x, (_, spend), class_rng in zip(pre.x_tilde, spends, rngs))
    return Measurements(ledger=ledger, projection=pre.projection, mu_dp=pre.mu_dp,
                        moments=moments, public=public, rngs=tuple(rngs))


def synthesize(measured: Measurements, n_synth: int | None = None) -> SynthesisResult:
    """PSD repair, sampling and assembly: post-processing of ``measured``.

    A mixture class is centred on its DP mean mu_c, and mu_c mu_cᵀ is
    subtracted from its noisy moment; one class is zero-mean, and a
    moment wider than the basis carries the label last. n_synth samples
    (default: the class's public size) are drawn per class, continuing
    its generator, so a second call on one record draws a new release.
    """
    _check_n_synth(n_synth)
    public = measured.public
    mixture = "class_names" in public
    sizes = public["class_sizes"] if mixture else [public["n"]]
    fits = []
    for c, (noisy, rng) in enumerate(zip(measured.moments, measured.rngs)):
        mean = measured.mu_dp[:, c] if mixture else np.zeros(noisy.shape[0])
        # both terms are exactly symmetric, and so is their difference
        cov, repaired = psd_repair(noisy - np.outer(mean, mean))
        model = GaussianModel(mean, cov)
        samples = sample_gaussian(model, sizes[c] if n_synth is None else n_synth, rng)
        fits.append((model, samples, repaired))
    p = measured.projection.p
    names = _released_names(p)
    repaired = any(flag for _, _, flag in fits)
    if not mixture:
        [(model, samples, _)] = fits
        labels = samples[p] if len(samples) > p else None
        return SynthesisResult(
            dataset=Dataset(features=samples[:p], feature_names=names, labels=labels),
            model=model, ledger=measured.ledger, psd_repair_applied=repaired,
            projection=measured.projection, mu_dp=measured.mu_dp[:, 0])
    class_names = public["class_names"]
    modes = tuple(GmmMode(label=name, model=model, projection=measured.projection)
                  for name, (model, _, _) in zip(class_names, fits))
    release = Dataset(
        features=np.concatenate([samples for _, samples, _ in fits], axis=1),
        class_labels=np.concatenate([np.full(samples.shape[1], name)
                                     for name, (_, samples, _) in zip(class_names, fits)]),
        feature_names=names,
    )
    return SynthesisResult(dataset=release, model=GmmModel(modes), ledger=measured.ledger,
                           psd_repair_applied=repaired, projection=measured.projection)


def synth_unsupervised(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
                       n_synth: int | None = None,
                       rng: np.random.Generator | None = None) -> SynthesisResult:
    """Release unlabeled synthetic data from a zero-mean Gaussian model.

    Total privacy cost is epsilon_mu + epsilon_sigma (two serial
    spends). n_synth defaults to the source sample count.
    """
    _check_n_synth(n_synth)
    return synthesize(measure(data, p, epsilon_mu, epsilon_sigma, rng), n_synth)


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
    if label_bound is None:
        raise ValueError("supervised synthesis needs a label bound")
    _check_n_synth(n_synth)
    return synthesize(measure(data, p, epsilon_mu, epsilon_sigma, rng, label_bound), n_synth)


def synth_gmm(data: Dataset, p: int, epsilon_mu: float, epsilon_sigma: float,
              per_class_n_synth: int | None = None,
              rng: np.random.Generator | None = None) -> SynthesisResult:
    """Release class-labeled synthetic data from one Gaussian per class.

    Every class is projected onto one basis W drawn from ``rng`` (spawning
    the per-class generators leaves its stream alone), so all classes
    share one feature space. Each class is modeled independently on its
    disjoint slice of the data, in the uncentered chart clip₁(Wᵀx/||x||)
    (see ``transform_features``). The mode mean is the DP mean of that chart, at
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
    _check_n_synth(per_class_n_synth)
    return synthesize(measure(data, p, epsilon_mu, epsilon_sigma, rng, by_class=True),
                      per_class_n_synth)


def _check_n_synth(n_synth: int | None) -> None:
    """Reject an empty sample count; the synth_* functions check before measuring."""
    if n_synth is not None and n_synth < 1:
        raise ValueError(f"n_synth must be positive, got {n_synth}")


def transform_features(result: SynthesisResult, data: Dataset) -> np.ndarray:
    """Map held-out data into the chart the release's model is fit in.

    A one-class release's chart is centred on its released mean; a
    mixture's (``mu_dp`` None) is the uncentered clip₁(Wᵀx/||x||) every
    mode shares. Either is ``preprocessing.chart``, the map training
    uses, from ``data.sq_norms``, so the training data maps onto the
    release's own chart bit for bit, every column clipped to norm at most
    1; a sample that collapses onto the mean projects to zero, as in
    training. The mean and the projection are DP-safe, so this spends
    nothing. Returns one chart column per sample of data.
    """
    proj = result.projection
    if data.n_features != proj.m:
        raise ValueError(f"expected data with {proj.m} features, got {data.n_features}")
    return chart(data.features, inverse_norms(data.sq_norms), proj, result.mu_dp)[0]


def mode_transform(mode: GmmMode, X: np.ndarray) -> np.ndarray:
    """Map held-out data, an m x n array, into one mixture mode's chart.

    ``preprocessing.chart`` for a mixture, clip₁(Wᵀx/||x||), with X's
    column norms taken here. A class's held-out expectation in this chart
    is what the mode's DP mean estimates.
    """
    return chart(X, inverse_norms(column_sq_norms(X)), mode.projection)[0]

