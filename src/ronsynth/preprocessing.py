"""Sample-wise normalization, differentially private means and the projection.

The stage maps every column x_j of an m x n sample matrix X through
four steps:

1. pre-normalize it to unit Euclidean norm, x1_j = s_j x_j with
   s_j = 1/||x_j||,
2. take a DP estimate mu of the mean of the x1_j, with Laplace noise at
   the ``noise_scale`` of its ledger entry, 2*sqrt(m)/(n * epsilon_mu),
3. subtract mu,
4. re-normalize the centered column to unit norm; a column that
   collapses onto the mean becomes the zero vector instead.

Unit norms before step 2 are what make the mean's sensitivity bound
valid, and norms of at most 1 after step 4 are what the projection and
covariance sensitivity bounds downstream rely on. Every input column
keeps its place, so the sample count n that calibrates the noise is the
public input size. Because every column is mapped on its own,
neighboring datasets still differ in only one column after the whole
stage (given the same released mean).

The stage never builds the normalized or centered m x n matrices. The
RON projection W that follows is linear and ||x1_j|| = 1, so

    Wᵀ x̄_j = (s_j Wᵀx_j − Wᵀmu) / sqrt(1 − 2 s_j muᵀx_j + ||mu||²),

and a release needs only the column norms, the mean (one product of X
with the vector of s_j/n) and one GEMM [W, mu]ᵀ X; the rest is
arithmetic in p dimensions. The squared column norms come from the
``Dataset``, which takes them once with ``column_sq_norms`` (one
``einsum``) as it validates X, so a release does not read X for them;
held-out data gets the same kernel on its own array. Each projected
column is then clipped to norm at most 1. The clip maps every sample on
its own, so each sensitivity bound still holds, and it absorbs the
rounding of the expanded norm, which near a collapse is only good to
about 1e-8: the squared norm is a difference of terms of order 1 with
rounding of order 1e-16. ``DEGENERATE_NORM`` is therefore the expanded
centered norm at or below which a sample counts as collapsed, set well
above that rounding so that a sample at the mean always collapses.
``chart`` is the one map into a release's chart, for training and for
held-out data (``synthesis.transform_features``), so the training data's
held-out chart is the release's own. ``center_with_mean`` writes the
m x n output out explicitly, for tests to compare against; a release
never builds it.

A mixture skips steps 2 to 4. Every class shares one basis W, and class
c keeps the uncentered chart v_j = clip₁(s_j Wᵀx_j) of its columns, from
the Dataset's column norms and one GEMM WᵀX. Its DP mean is taken of the
v_j in R^p, at its entry's scale 2*sqrt(p)/(n_c * epsilon_mu): no
m-dimensional mean is released or noised.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, column_sq_norms
from .mechanism import BudgetLedger, LedgerEntry, laplace_perturb, mean_sensitivity
from .projection import RonProjection

UNIT_NORM_TOL = 1e-9
# a raw sample at most this long has no direction to normalize to
ZERO_NORM = 1e-12
DEGENERATE_NORM = 1e-6


@dataclass(frozen=True)
class PreprocessedDataset:
    """Output of the preprocessing stage, in projected form.

    mu_dp holds the released DP means, one column per class. For one
    class it is the (m, 1) mean of the pre-normalized data, reused to
    transform held-out data into the same geometry; for a mixture of k
    classes it is (p, k), every class's mean in the shared chart. Both
    are safe to publish. projection is the one basis of every class, and
    x_tilde[c] holds class c's chart, Wᵀx̄ for one class and the
    uncentered clip₁(Wᵀx/||x||) for a mixture, one column per sample in
    input order, each of norm at most 1. zero_norm_rows_dropped counts
    the samples mapped to the zero vector (none is dropped; the name is
    kept for existing readers).
    """

    mu_dp: np.ndarray
    projection: RonProjection
    x_tilde: tuple[np.ndarray, ...]
    zero_norm_rows_dropped: int


def inverse_norms(sq_norms: np.ndarray) -> np.ndarray:
    """1/||x_j|| for every column, from the squared norms ``column_sq_norms`` takes.

    Raises DataError, with its ``sample`` set, naming the first column
    that is (numerically) the zero vector, or too large to square.
    """
    zero = sq_norms <= ZERO_NORM ** 2
    if np.any(zero):
        idx = int(np.argmax(zero))
        raise DataError(f"sample {idx} has zero norm and cannot be normalized", idx)
    if not np.all(np.isfinite(sq_norms)):
        idx = int(np.argmax(~np.isfinite(sq_norms)))
        raise DataError(f"sample {idx} is too large to normalize", idx)
    return 1.0 / np.sqrt(sq_norms)


def sample_normalize(X: np.ndarray) -> np.ndarray:
    """Divide every column by its Euclidean norm.

    Raises DataError (a ValueError) naming the first offending column if
    any column is (numerically) the zero vector; callers must drop or
    perturb such samples before normalizing.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an m x n matrix, got ndim={X.ndim}")
    return X * inverse_norms(column_sq_norms(X))


def dp_mean(X_normalized: np.ndarray, epsilon_mu: float,
            rng: np.random.Generator) -> np.ndarray:
    """Laplace-perturbed column mean of unit-norm data.

    Noise scale is 2*sqrt(m)/(n * epsilon_mu), the ``noise_scale`` of
    the mean entry built here. Passing epsilon_mu=math.inf disables the
    noise (research mode).
    """
    X = np.asarray(X_normalized, dtype=float)
    m, n = X.shape
    spend = BudgetLedger().record("mean", mean_sensitivity(m, n), epsilon_mu)
    # squared norms need no m x n temporary; |n^2 - 1| is about 2|n - 1|
    sq_norms = np.einsum("ij,ij->j", X, X)
    if np.any(np.abs(sq_norms - 1.0) > 2 * UNIT_NORM_TOL):
        idx = int(np.argmax(np.abs(sq_norms - 1.0)))
        raise ValueError(
            f"input is not sample-normalized: column {idx} has norm "
            f"{math.sqrt(sq_norms[idx])!r}"
        )
    return _release_mean(X.mean(axis=1), spend, rng)


def _release_mean(mean: np.ndarray, spend: LedgerEntry,
                  rng: np.random.Generator) -> np.ndarray:
    """A mean of samples of norm at most 1 plus its Laplace noise.

    The noise scale is the mean entry's ``noise_scale``; an entry with
    epsilon=math.inf returns the mean as it is.
    """
    if math.isinf(spend.epsilon):
        return mean
    return laplace_perturb(mean, spend.noise_scale, rng)


def chart(X: np.ndarray, scale: np.ndarray, proj: RonProjection,
          mu: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """The release's chart of the columns of X, and its count of collapsed samples.

    scale holds 1/||x_j||. Without mu this is the mixture chart
    clip₁(s_j Wᵀx_j), from one GEMM WᵀX, and the count is 0. With mu it
    is steps 3 and 4 and the projection, Wᵀx̄_j, from one GEMM [W, mu]ᵀX:
    a sample whose expanded centered norm is at most DEGENERATE_NORM maps
    to the zero vector and is counted. Every column of the chart is
    clipped to norm at most 1.
    """
    if mu is None:
        Y, collapsed = (proj.W.T @ X) * scale, 0
    else:
        p = proj.p
        WX = np.concatenate([proj.W, mu[:, None]], axis=1).T @ X
        sq = 1.0 - 2.0 * (WX[p] * scale) + float(mu @ mu)
        centered = np.sqrt(np.maximum(sq, 0.0))
        inv = np.zeros_like(centered)
        np.divide(1.0, centered, out=inv, where=centered > DEGENERATE_NORM)
        Y = (WX[:p] * scale - (proj.W.T @ mu)[:, None]) * inv
        collapsed = int(np.count_nonzero(inv == 0.0))
    norms = np.sqrt(np.einsum("ij,ij->j", Y, Y))
    np.divide(Y, norms, out=Y, where=norms > 1.0)
    return Y, collapsed


def center_with_mean(X: np.ndarray, mu_dp: np.ndarray) -> np.ndarray:
    """Normalize, center on a released mean and re-normalize, as an m x n matrix.

    The explicit form of steps 1, 3 and 4, which a release never builds;
    tests compare the factored stage against it. Spends no privacy
    budget. A sample whose centered norm is at most DEGENERATE_NORM
    becomes the zero vector.
    """
    X = np.asarray(X, dtype=float)
    mu_dp = np.asarray(mu_dp, dtype=float)
    if mu_dp.shape != (X.shape[0],):
        raise ValueError(f"mean has shape {mu_dp.shape}, expected ({X.shape[0]},)")
    centered = sample_normalize(X) - mu_dp[:, None]
    norms = np.linalg.norm(centered, axis=0)
    return np.divide(centered, norms, out=np.zeros_like(centered),
                     where=norms > DEGENERATE_NORM)


def preprocess(X: np.ndarray, sq_norms: np.ndarray, mean_spends: Sequence[LedgerEntry],
               rngs: Sequence[np.random.Generator],
               draw_projection: Callable[[], RonProjection],
               classes: np.ndarray | None = None) -> PreprocessedDataset:
    """Run the full preprocessing stage and the projection.

    ``sq_norms`` holds every column's squared norm, ``column_sq_norms(X)``
    (a release passes ``Dataset.sq_norms``). Class c draws its mean noise
    from ``rngs[c]`` at the ``noise_scale`` of its entry ``mean_spends[c]``;
    ``classes`` holds each column's class (0..k-1), and without it all
    columns form one class. ``draw_projection()`` is called once, with no
    argument, for the basis every class shares.

    One class gets the paper's centered chart: the DP mean of the unit
    columns is drawn, then the basis, and the columns are centered,
    re-normalized and projected in factored form. A column whose centered
    norm is at most DEGENERATE_NORM becomes the zero vector and is
    counted, so the output keeps every column.

    A mixture draws the basis first and projects all columns by one GEMM
    WᵀX. Class c keeps the uncentered chart clip₁(Wᵀx_j/||x_j||) of its
    columns, and its DP mean is taken in R^p.
    """
    X = np.asarray(X, dtype=float)
    scale = inverse_norms(sq_norms)
    if classes is None:
        (spend,), (rng,) = mean_spends, rngs
        mu = _release_mean((X @ (scale / X.shape[1])[:, None])[:, 0], spend, rng)
        proj = draw_projection()
        Y, collapsed = chart(X, scale, proj, mu)
        return PreprocessedDataset(mu_dp=mu[:, None], projection=proj, x_tilde=(Y,),
                                   zero_norm_rows_dropped=collapsed)

    proj = draw_projection()
    Y = chart(X, scale, proj)[0]
    charts, means = [], []
    for c, (spend, rng) in enumerate(zip(mean_spends, rngs)):
        charts.append(Y[:, classes == c])
        means.append(_release_mean(charts[-1].mean(axis=1), spend, rng))
    return PreprocessedDataset(mu_dp=np.column_stack(means), projection=proj,
                               x_tilde=tuple(charts), zero_norm_rows_dropped=0)
