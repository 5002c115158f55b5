"""Sample-wise normalization and differentially private centering.

The stage runs four steps on an m x n matrix whose columns are samples:

1. pre-normalize every column to unit Euclidean norm,
2. compute a DP estimate of the column mean with Laplace noise at
   scale 2*sqrt(m)/(n * epsilon_mu),
3. subtract that mean from every column,
4. re-normalize the centered columns to unit norm.

Unit norms before step 2 are what make the mean's sensitivity bound
valid, and unit norms after step 4 are what the projection and
covariance sensitivity bounds downstream rely on. Because every column
is divided by its own norm, neighboring datasets still differ in only
one column after the whole stage (given the same released mean).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mechanism import BudgetLedger, laplace_perturb, mean_sensitivity

UNIT_NORM_TOL = 1e-9
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class PreprocessedDataset:
    """Output of the preprocessing stage.

    x_bar holds the centered, re-normalized samples (every column has
    unit norm). mu_dp is the released DP mean of the pre-normalized
    data; it is safe to publish and is reused to transform held-out
    data into the same geometry. kept_indices maps columns of x_bar
    back to columns of the input, accounting for dropped degenerate
    samples.
    """

    x_bar: np.ndarray
    mu_dp: np.ndarray
    zero_norm_rows_dropped: int
    kept_indices: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.x_bar.shape[1]


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


def dp_mean(X_normalized: np.ndarray, epsilon_mu: float, rng: np.random.Generator,
            ledger: BudgetLedger | None = None, group: str | None = None) -> np.ndarray:
    """Laplace-perturbed column mean of unit-norm data.

    Noise scale is 2*sqrt(m)/(n * epsilon_mu). Passing
    epsilon_mu=math.inf disables the noise (research mode; the spend is
    then not recorded). The spend (query, sensitivity, epsilon) is
    appended to ``ledger`` when one is given.
    """
    X = np.asarray(X_normalized, dtype=float)
    if epsilon_mu <= 0:
        raise ValueError(f"epsilon_mu must be positive, got {epsilon_mu}")
    m, n = X.shape
    norms = np.linalg.norm(X, axis=0)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        idx = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"input is not sample-normalized: column {idx} has norm {norms[idx]!r}"
        )
    mean = X.mean(axis=1)
    sensitivity = mean_sensitivity(m, n)
    if math.isinf(epsilon_mu):
        return mean
    if ledger is not None:
        ledger.record("mean", sensitivity, epsilon_mu, group=group)
    return laplace_perturb(mean, sensitivity / epsilon_mu, rng)


def center_with_mean(X: np.ndarray, mu_dp: np.ndarray) -> PreprocessedDataset:
    """Apply the non-private steps (normalize, center, re-normalize).

    Used to push held-out data through the transform defined by an
    already-released mean. Spends no privacy budget.
    """
    X1 = sample_normalize(X)
    mu_dp = np.asarray(mu_dp, dtype=float)
    if mu_dp.shape != (X1.shape[0],):
        raise ValueError(
            f"mean has shape {mu_dp.shape}, expected ({X1.shape[0]},)"
        )
    centered = X1 - mu_dp[:, None]
    norms = np.linalg.norm(centered, axis=0)
    keep = norms > DEGENERATE_NORM
    dropped = int(np.count_nonzero(~keep))
    if dropped:
        warnings.warn(
            f"dropped {dropped} sample(s) that coincided with the DP mean "
            "after centering",
            stacklevel=2,
        )
    if not np.any(keep):
        raise ValueError("every sample collapsed onto the DP mean; nothing left to release")
    x_bar = centered[:, keep] / norms[keep]
    return PreprocessedDataset(
        x_bar=x_bar,
        mu_dp=mu_dp,
        zero_norm_rows_dropped=dropped,
        kept_indices=np.flatnonzero(keep),
    )


def preprocess(X: np.ndarray, epsilon_mu: float, rng: np.random.Generator | None,
               mu_dp: np.ndarray | None = None,
               ledger: BudgetLedger | None = None,
               group: str | None = None) -> PreprocessedDataset:
    """Run the full preprocessing stage.

    When ``mu_dp`` is given, the mean derivation is skipped and the
    provided (already released) mean is used for centering; no budget
    is spent in that case. Samples whose centered norm falls below
    1e-12 are dropped with a warning and counted -- keeping them would
    make the re-normalization undefined.
    """
    X1 = sample_normalize(X)
    if mu_dp is None:
        if rng is None:
            raise ValueError("rng is required when deriving a fresh DP mean")
        mu_dp = dp_mean(X1, epsilon_mu, rng, ledger=ledger, group=group)
    return center_with_mean(X1, mu_dp)
