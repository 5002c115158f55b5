"""Utility metrics for scoring releases.

All matrices here follow the package's internal orientation: samples
are columns. The paper judges a release by three downstream tasks, and
each release mode has one scorer here: ``silhouette_sweep`` clusters an
unsupervised release, ``ols_rmse`` trains least squares on a supervised
release and ``nearest_mean_accuracy`` classifies with a gmm release's
class means, both scored on real data. The normality diagnostic
quantifies how Gaussian each projected coordinate looks, which is the
property the low-dimensional projection is supposed to buy.

The metrics need numpy alone. Pairwise distances add the squared
coordinate differences one coordinate at a time, so every distance is
bit for bit that of a per-pair loop adding squares in coordinate
order; the KS statistic takes the normal CDF from ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .synthesis import SynthesisResult, mode_transform, transform_features

# cells of the distance accumulator filled per block: 512 KiB of
# float64, small enough to stay in cache across the coordinate loop
_BLOCK_CELLS = 1 << 16


def silhouette(X: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette coefficient of a clustering.

    For each point, a(i) is the mean distance to the other members of
    its own cluster and b(i) the smallest mean distance to any other
    cluster; the point's score is (b - a) / max(a, b). Points in
    singleton clusters score 0, since a(i) is undefined there. The
    result lies in [-1, 1]; higher is better.
    """
    X = np.asarray(X, dtype=float)
    return _silhouette(_distances(X, X), assignments)


def _silhouette(dists: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette coefficient from the n x n distance matrix."""
    assignments = np.asarray(assignments)
    n = dists.shape[0]
    if assignments.shape != (n,):
        raise ValueError(f"assignments must have length {n}, got {assignments.shape}")
    labels, inverse = np.unique(assignments, return_inverse=True)
    k = len(labels)
    if k < 2:
        raise ValueError("silhouette needs at least two clusters")

    sizes = np.bincount(inverse, minlength=k)
    # sum of distances from each point to every cluster, shape (n, k)
    cluster_sums = np.zeros((n, k))
    for c in range(k):
        cluster_sums[:, c] = dists[:, inverse == c].sum(axis=1)

    rows = np.arange(n)
    own_sizes = sizes[inverse]
    # excludes the zero self-distance; a singleton divides by 1 and scores 0 below
    a = cluster_sums[rows, inverse] / np.maximum(own_sizes - 1, 1)
    other_means = cluster_sums / sizes
    other_means[rows, inverse] = np.inf
    b = other_means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(n), where=(own_sizes > 1) & (denom != 0))
    return float(scores.mean())


def _distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the columns of X and the columns of Y.

    Squared differences are summed in coordinate order, one coordinate
    at a time, then square-rooted. Rows of the result are filled in
    blocks of about _BLOCK_CELLS cells.
    """
    n, k = X.shape[1], Y.shape[1]
    out = np.empty((n, k))
    rows = max(1, _BLOCK_CELLS // max(k, 1))
    for start in range(0, n, rows):
        acc = out[start:start + rows]
        acc.fill(0.0)
        diff = np.empty_like(acc)
        for x, y in zip(X[:, start:start + rows], Y):
            np.subtract(x[:, None], y, out=diff)
            diff *= diff
            acc += diff
    return np.sqrt(out, out=out)


def silhouette_sweep(X: np.ndarray, ks, max_samples: int, seed) -> tuple[int, dict, int]:
    """Cluster X by k-means for each k in ks and score each clustering.

    X is first subsampled to max_samples columns. Every k above the
    point count is skipped; none left is a ValueError. The pairwise
    distances are computed once and shared by every k. Returns the best
    k, the silhouette of every feasible k, and the number of points
    scored.
    """
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    if X.shape[1] > max_samples:
        X = X[:, rng.choice(X.shape[1], size=max_samples, replace=False)]
    ks = [k for k in ks if k <= X.shape[1]]
    if not ks:
        raise ValueError("no feasible k: fewer samples than clusters")
    dists = _distances(X, X)
    sweep = {k: _silhouette(dists, kmeans(X, k, rng=np.random.default_rng(seed)))
             for k in ks}
    return max(sweep, key=sweep.get), sweep, X.shape[1]


def kmeans(X: np.ndarray, k: int, max_iter: int = 100,
           rng: np.random.Generator | None = None) -> np.ndarray:
    """Lloyd's algorithm; returns the cluster index of every sample.

    Centroids start at k distinct randomly chosen samples and iterate
    until the assignment reaches a fixpoint or max_iter passes. A
    cluster that empties steals the point currently farthest from its
    own centroid, which keeps the objective non-increasing. Fixing the
    rng seed makes the result deterministic.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"cannot form k={k} clusters from n={n} samples")
    if rng is None:
        rng = np.random.default_rng()

    points = X.T
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(max_iter):
        dists = _distances(X, centroids.T)
        new_assign = dists.argmin(axis=1)

        for empty in np.setdiff1d(np.arange(k), new_assign):
            sizes = np.bincount(new_assign, minlength=k)
            movable = sizes[new_assign] > 1
            donor = int(np.argmax(np.where(movable, dists[np.arange(n), new_assign], -1.0)))
            new_assign[donor] = empty
            centroids[empty] = points[donor]

        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return assign


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square error between two equal-length vectors."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size == 0:
        raise ValueError(
            f"pred and truth must be equal-length non-empty vectors, got "
            f"{pred.shape} and {truth.shape}"
        )
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def ols_fit(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (with intercept) for column-wise samples."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    design = np.vstack([features, np.ones(features.shape[1])]).T
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return coef


def ols_predict(coef: np.ndarray, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    design = np.vstack([features, np.ones(features.shape[1])]).T
    return design @ coef


def ols_rmse(result: SynthesisResult, features: np.ndarray, labels: np.ndarray,
             sq_norms: np.ndarray | None = None) -> float:
    """RMSE on real data of least squares trained on a supervised release.

    The real features (columns) are mapped into the release's chart by
    ``transform_features`` before prediction; sq_norms, when given, are
    their squared column norms, as a Dataset holds them.
    """
    release = result.dataset
    coef = ols_fit(release.features, release.labels)
    feats = transform_features(result.mu_dp, result.projection, features, sq_norms)
    return rmse(ols_predict(coef, feats), labels)


def nearest_mean_accuracy(result: SynthesisResult, features: np.ndarray,
                          labels: np.ndarray, sq_norms: np.ndarray | None = None) -> float:
    """Accuracy on the real data of nearest release class mean, in the release's chart.

    sq_norms is as in ``ols_rmse``.
    """
    release = result.dataset
    modes = result.model.modes
    # every mode holds the release's one basis, so one chart serves them all
    chart = mode_transform(modes[0], features, sq_norms)
    dists = []
    for mode in modes:
        mean = release.features[:, release.class_labels == mode.label].mean(axis=1)
        dists.append(np.linalg.norm(chart - mean[:, None], axis=0))
    predicted = np.array([mode.label for mode in modes])[np.argmin(dists, axis=0)]
    return float(np.mean(predicted == labels))


@dataclass(frozen=True)
class NormalityReport:
    """Per-coordinate normality distances for a projected dataset."""

    ks_distances: tuple[float, ...]
    max_ks: float
    mean_ks: float
    n_samples: int
    degenerate_coords: tuple[int, ...]
    expected_sigma: float | None = None


def normality_diagnostic(X_tilde: np.ndarray, orig_dim: int | None = None) -> NormalityReport:
    """Kolmogorov-Smirnov distance of each coordinate to the normal.

    Every row (coordinate) is standardized and compared against N(0, 1)
    with the one-sample KS statistic. Constant coordinates cannot be
    standardized; they are flagged and assigned the KS distance 0.5 of
    a point mass at the normal's median. When the original dimension m
    is supplied, the report includes 1/sqrt(m), the marginal scale that
    unit-norm data is expected to project to.
    """
    X_tilde = np.asarray(X_tilde, dtype=float)
    if X_tilde.ndim != 2:
        raise ValueError(f"expected a p x n matrix, got shape {X_tilde.shape}")
    n = X_tilde.shape[1]
    if n < 30:
        raise ValueError(f"need at least 30 samples for a meaningful test, got {n}")

    distances = []
    degenerate = []
    for j, coord in enumerate(X_tilde):
        std = coord.std()
        if std == 0.0:
            distances.append(0.5)
            degenerate.append(j)
            continue
        standardized = (coord - coord.mean()) / std
        distances.append(_ks_normal(standardized))

    return NormalityReport(
        ks_distances=tuple(distances),
        max_ks=max(distances),
        mean_ks=float(np.mean(distances)),
        n_samples=n,
        degenerate_coords=tuple(degenerate),
        expected_sigma=1.0 / math.sqrt(orig_dim) if orig_dim else None,
    )


def _ks_normal(sample: np.ndarray) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic against N(0, 1).

    The largest gap between the empirical CDF, on either side of each
    step, and the normal CDF 0.5 * erfc(-x / sqrt(2)).
    """
    x = np.sort(sample)
    n = x.size
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(n) / n)
    return float(max(d_plus, d_minus))
