"""Random orthonormal projections and the low-dimension guidance.

The projector is built from data-independent randomness only, so
generating or publishing it consumes no privacy budget. Orthonormal
columns give two properties the rest of the pipeline leans on: the
projection of a unit-norm sample has norm at most 1, and projecting
well-spread high-dimensional data onto few dimensions produces nearly
Gaussian coordinates, which is what makes a Gaussian generative model a
good fit downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-10
_QR_RETRIES = 3


@dataclass(frozen=True)
class RonProjection:
    """An m x p matrix with orthonormal columns plus its provenance."""

    W: np.ndarray
    m: int
    p: int
    matrix_law: str = "uniform"

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.shape != (self.m, self.p):
            raise ValueError(f"W has shape {W.shape}, expected ({self.m}, {self.p})")
        if not 1 <= self.p < self.m:
            raise ValueError(f"need 1 <= p < m, got p={self.p}, m={self.m}")
        gram_err = np.max(np.abs(W.T @ W - np.eye(self.p)))
        if gram_err > ORTHONORMALITY_TOL:
            raise ValueError(f"columns are not orthonormal (max |WtW - I| = {gram_err:.3e})")
        object.__setattr__(self, "W", W)


def generate_ron(m: int, p: int, rng: np.random.Generator,
                 matrix_law: str = "uniform") -> RonProjection:
    """Draw a random m x p matrix with orthonormal columns.

    A full m x m matrix is filled with i.i.d. entries, QR-factorized,
    and the first p columns of Q are kept. The default fills with
    uniform [0, 1) entries. matrix_law="gaussian" fills with standard
    normal entries and sign-corrects with the diagonal of R, which
    makes the column distribution exactly rotation-invariant (Haar);
    the uniform form is the default because it is the cheaper, original
    construction.
    """
    if not 1 <= p < m:
        raise ValueError(f"need 1 <= p < m, got p={p}, m={m}")
    if matrix_law not in ("uniform", "gaussian"):
        raise ValueError(f"matrix_law must be 'uniform' or 'gaussian', got {matrix_law!r}")

    last_err: Exception | None = None
    for _ in range(_QR_RETRIES):
        if matrix_law == "uniform":
            A = rng.random((m, m))
        else:
            A = rng.standard_normal((m, m))
        try:
            Q, R = np.linalg.qr(A)
        except np.linalg.LinAlgError as err:  # pragma: no cover - qr almost never fails
            last_err = err
            continue
        diag = np.diag(R)
        if np.any(np.abs(diag) < np.finfo(float).tiny * m):
            # a (numerically) rank-deficient draw; try a fresh matrix
            last_err = np.linalg.LinAlgError("rank-deficient random matrix")
            continue
        if matrix_law == "gaussian":
            Q = Q * np.sign(diag)
        return RonProjection(W=Q[:, :p], m=m, p=p, matrix_law=matrix_law)
    raise np.linalg.LinAlgError(
        f"failed to build an orthonormal basis after {_QR_RETRIES} attempts: {last_err}"
    )


def project(proj: RonProjection, X_bar: np.ndarray) -> np.ndarray:
    """Map samples (columns of an m x n matrix) into the p-dim subspace."""
    X_bar = np.asarray(X_bar, dtype=float)
    if X_bar.ndim != 2 or X_bar.shape[0] != proj.m:
        raise ValueError(
            f"expected a matrix with {proj.m} rows, got shape {X_bar.shape}"
        )
    return proj.W.T @ X_bar


def reconstruct(proj: RonProjection, X_tilde: np.ndarray) -> np.ndarray:
    """Embed projected samples back into the original m-dim space.

    reconstruct(project(x)) equals the orthogonal projection of x onto
    the column span of W, so norms never grow.
    """
    X_tilde = np.asarray(X_tilde, dtype=float)
    if X_tilde.ndim != 2 or X_tilde.shape[0] != proj.p:
        raise ValueError(
            f"expected a matrix with {proj.p} rows, got shape {X_tilde.shape}"
        )
    return proj.W @ X_tilde


def dimension_guidance(m: int) -> int:
    """Largest projected dimension for which near-Gaussian marginals are expected.

    Evaluates floor(2 * log10(m) / log10(log10(m))), clamped to at
    least 1; in base-10 logs, m = 100 allows p <= 13. For m <= 10 the
    denominator is zero or negative; the clamp then applies and a
    warning is raised since the guidance is vacuous that low.
    """
    if m < 3:
        raise ValueError(f"dimension guidance needs m >= 3, got m={m}")
    denom = math.log10(math.log10(m))
    if denom <= 0:
        warnings.warn(
            f"dimension guidance is degenerate for m={m}; returning 1", stacklevel=2
        )
        return 1
    return max(1, math.floor(2.0 * math.log10(m) / denom))
