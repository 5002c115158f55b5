"""Reference scorers for the paper's three downstream tasks.

A release never scores itself, so the scorers live beside the tests
that use them. All matrices follow the package's internal orientation:
samples are columns. ``kmeans`` and ``silhouette`` cluster an
unsupervised release, ``ols_rmse`` trains least squares on a supervised
release and ``nearest_mean_accuracy`` classifies with a gmm release's
class means, both scored on a real ``Dataset`` mapped into the release's
chart by ``synthesis.transform_features``.

The scorers need numpy alone. Pairwise distances add the squared
coordinate differences one coordinate at a time, so every distance is
bit for bit that of a per-pair loop adding squares in coordinate order.

Data that cannot be scored (vectors of unequal length) is a
``DataError``, which is a ValueError; a bad argument stays a plain
ValueError.
"""

from __future__ import annotations

import numpy as np

from ronsynth.dataset import DataError, Dataset
from ronsynth.synthesis import SynthesisResult, transform_features

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
        raise DataError(
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


def ols_rmse(result: SynthesisResult, data: Dataset, labels: np.ndarray) -> float:
    """RMSE against labels of least squares trained on a supervised release.

    The real data is mapped into the release's chart by
    ``transform_features`` before prediction.
    """
    release = result.dataset
    coef = ols_fit(release.features, release.labels)
    return rmse(ols_predict(coef, transform_features(result, data)), labels)


def nearest_mean_accuracy(result: SynthesisResult, data: Dataset,
                          labels: np.ndarray) -> float:
    """Accuracy against labels of the nearest release class mean.

    The real data is mapped into the release's chart, which every mode
    shares, by ``transform_features``.
    """
    release = result.dataset
    modes = result.model.modes
    chart = transform_features(result, data)
    dists = []
    for mode in modes:
        mean = release.features[:, release.class_labels == mode.label].mean(axis=1)
        dists.append(np.linalg.norm(chart - mean[:, None], axis=0))
    predicted = np.array([mode.label for mode in modes])[np.argmin(dists, axis=0)]
    return float(np.mean(predicted == labels))
