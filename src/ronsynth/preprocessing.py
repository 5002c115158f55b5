"""Sample-wise normalization and differentially private centering.

The stage runs four steps on an m x n matrix whose columns are samples:

1. pre-normalize every column to unit Euclidean norm,
2. compute a DP estimate of the column mean with Laplace noise at
   scale 2*sqrt(m)/(n * epsilon_mu),
3. subtract that mean from every column,
4. re-normalize the centered columns to unit norm; a column that
   collapses onto the mean (centered norm at most DEGENERATE_NORM)
   becomes the zero vector instead.

Unit norms before step 2 are what make the mean's sensitivity bound
valid, and norms of at most 1 after step 4 are what the projection and
covariance sensitivity bounds downstream rely on. Every input column
keeps its place, so the sample count n that calibrates the noise is the
public input size. Because every column is mapped on its own,
neighboring datasets still differ in only one column after the whole
stage (given the same released mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanism import laplace_perturb, mean_sensitivity

UNIT_NORM_TOL = 1e-9
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class PreprocessedDataset:
    """Output of the preprocessing stage.

    x_bar holds the centered, re-normalized samples, one column per
    input column: unit norm, or the zero vector for a sample that
    collapsed onto the mean. mu_dp is the released DP mean of the
    pre-normalized data; it is safe to publish and is reused to
    transform held-out data into the same geometry.
    zero_norm_rows_dropped counts the samples mapped to the zero vector
    (none is dropped; the name is kept for existing readers).
    """

    x_bar: np.ndarray
    mu_dp: np.ndarray
    zero_norm_rows_dropped: int


def sample_normalize(X: np.ndarray) -> np.ndarray:
    """Divide every column by its Euclidean norm.

    Raises ValueError naming the first offending column if any column
    is (numerically) the zero vector; callers must drop or perturb such
    samples before normalizing.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an m x n matrix, got ndim={X.ndim}")
    norms = np.linalg.norm(X, axis=0)
    zero = norms <= DEGENERATE_NORM
    if np.any(zero):
        idx = int(np.argmax(zero))
        raise ValueError(f"sample {idx} has zero norm and cannot be normalized")
    return X / norms


def dp_mean(X_normalized: np.ndarray, epsilon_mu: float,
            rng: np.random.Generator) -> np.ndarray:
    """Laplace-perturbed column mean of unit-norm data.

    Noise scale is 2*sqrt(m)/(n * epsilon_mu). Passing
    epsilon_mu=math.inf disables the noise (research mode). The caller
    records the spend (``mechanism.record_spends``).
    """
    X = np.asarray(X_normalized, dtype=float)
    if not epsilon_mu > 0:
        raise ValueError(f"epsilon_mu must be positive, got {epsilon_mu}")
    m, n = X.shape
    # squared norms need no m x n temporary; |n^2 - 1| is about 2|n - 1|
    sq_norms = np.einsum("ij,ij->j", X, X)
    if np.any(np.abs(sq_norms - 1.0) > 2 * UNIT_NORM_TOL):
        idx = int(np.argmax(np.abs(sq_norms - 1.0)))
        raise ValueError(
            f"input is not sample-normalized: column {idx} has norm "
            f"{math.sqrt(sq_norms[idx])!r}"
        )
    mean = X.mean(axis=1)
    sensitivity = mean_sensitivity(m, n)
    if math.isinf(epsilon_mu):
        return mean
    return laplace_perturb(mean, sensitivity / epsilon_mu, rng)


def center_with_mean(X: np.ndarray, mu_dp: np.ndarray) -> PreprocessedDataset:
    """Apply the non-private steps (normalize, center, re-normalize).

    Used to push held-out data through the transform defined by an
    already-released mean. Spends no privacy budget. A sample whose
    centered norm is at most DEGENERATE_NORM becomes the zero vector.
    """
    return _center(sample_normalize(X), mu_dp)


def _center(X1: np.ndarray, mu_dp: np.ndarray) -> PreprocessedDataset:
    """Center sample-normalized columns on mu_dp and re-normalize them;
    a column that collapses onto mu_dp becomes the zero vector."""
    mu_dp = np.asarray(mu_dp, dtype=float)
    if mu_dp.shape != (X1.shape[0],):
        raise ValueError(
            f"mean has shape {mu_dp.shape}, expected ({X1.shape[0]},)"
        )
    centered = X1 - mu_dp[:, None]
    norms = np.linalg.norm(centered, axis=0)
    collapsed = norms <= DEGENERATE_NORM
    norms[collapsed] = np.inf  # dividing by inf maps a collapsed sample to zero
    centered /= norms
    return PreprocessedDataset(x_bar=centered, mu_dp=mu_dp,
                               zero_norm_rows_dropped=int(np.count_nonzero(collapsed)))


def preprocess(X: np.ndarray, epsilon_mu: float,
               rng: np.random.Generator) -> PreprocessedDataset:
    """Run the full preprocessing stage.

    Each raw sample is normalized once; the DP mean is taken of those
    unit columns, which are then centered and re-normalized. Samples
    whose centered norm is at most DEGENERATE_NORM have no direction to
    re-normalize to; they become the zero vector and are counted, so
    the output keeps every column. Held-out data goes through
    ``center_with_mean`` with the released mean instead.
    """
    X1 = sample_normalize(X)
    return _center(X1, dp_mean(X1, epsilon_mu, rng))
