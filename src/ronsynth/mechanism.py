"""Laplace mechanism, L1-sensitivities, and privacy-budget accounting.

Every noise draw in the pipeline is calibrated here. The sensitivity
formulas assume sample-wise normalized data (each sample has unit
Euclidean norm), which the preprocessing stage guarantees, and the
bounded neighboring notion: two datasets of the same publicly-known
size n that differ in the values of a single sample.

WARNING: deterministic, seeded noise exists so that pipelines are
bit-reproducible for testing and review. A seeded run is NOT
differentially private -- anyone who knows the seed can subtract the
noise. Production releases must use fresh OS entropy. The usual
floating-point caveats of the Laplace mechanism (Mironov-style attacks
on the low-order bits) also apply and are not mitigated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def mean_sensitivity(m: int, n: int) -> float:
    """L1-sensitivity of the sample mean of n unit-norm samples in R^m.

    Replacing one unit-norm sample changes the mean by at most
    2*sqrt(m)/n in L1 norm.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}")
    return 2.0 * math.sqrt(m) / n


def cov_sensitivity(p: int, n: int) -> float:
    """Entrywise L1-sensitivity of the upper triangle of (1/n) * X Xᵀ.

    The mechanism noises the entries i <= j and mirrors them, as in
    Dwork et al., "Analyze Gauss" (STOC 2014). Replacing x by x' moves
    that triangle by at most (T(x) + T(x'))/n, where for ||x||_2 <= 1
    T(x) = sum_{i<=j} |x_i x_j| = (||x||_1^2 + ||x||_2^2)/2 <= (p+1)/2.
    """
    if p < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got p={p}, n={n}")
    return (p + 1.0) / n


def aug_cov_sensitivity(p: int, n: int, a: float) -> float:
    """Entrywise L1-sensitivity of the augmented matrix's upper triangle.

    For labels in [-a, a]: the feature block contributes (p+1)/n as in
    ``cov_sensitivity``, the label column 2*a*sqrt(p)/n (sum_i |x_i y|
    <= a*sqrt(p) per sample), and the corner |y^2 - y'^2|/n <= a^2/n.
    """
    if p < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got p={p}, n={n}")
    if a <= 0:
        raise ValueError(f"label bound must be positive, got a={a}")
    return (p + 1.0 + 2.0 * a * math.sqrt(p) + a * a) / n


def mle_cov_sensitivity(p: int, n: int) -> float:
    """L1-sensitivity of the mean-subtracted (MLE) covariance estimate.

    Exposed for comparison only -- the release path never calibrates
    noise with it. Equals (n + 1) * (p + 1)/n, computed in factored form
    so the ratio to ``cov_sensitivity`` is exactly n + 1.
    """
    return (n + 1) * cov_sensitivity(p, n)


def laplace_perturb(values: np.ndarray, scale_b: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Laplace(0, scale_b) noise to every entry of ``values``.

    Sampling uses the inverse CDF x = -b * sign(u) * ln(1 - 2|u|) with u
    uniform on (-0.5, 0.5), so draws are exactly reproducible from a
    seeded generator across platforms.
    """
    if scale_b <= 0:
        raise ValueError(f"Laplace scale must be positive, got {scale_b}")
    values = np.asarray(values, dtype=float)
    u = rng.random(values.shape) - 0.5
    # rng.random() covers [0, 1); redraw the measure-zero u = -0.5 edge
    # so log1p never sees -1.
    while np.any(u == -0.5):
        edge = u == -0.5
        u[edge] = rng.random(int(edge.sum())) - 0.5
    noise = -scale_b * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    return values + noise


def split_budget(epsilon_total: float, mu_ratio: float = 0.3) -> tuple[float, float]:
    """Split a total budget into (epsilon_mu, epsilon_sigma).

    The default 30/70 split favors the covariance, which is the higher
    complexity parameter. epsilon_sigma comes from subtraction and
    epsilon_mu is then re-centered against it; the re-centering absorbs
    the subtraction's rounding so the two parts always sum back to
    epsilon_total bit-exactly.
    """
    if epsilon_total <= 0:
        raise ValueError(f"epsilon_total must be positive, got {epsilon_total}")
    if not 0.0 < mu_ratio < 1.0:
        raise ValueError(f"mu_ratio must lie in (0, 1), got {mu_ratio}")
    epsilon_sigma = epsilon_total - mu_ratio * epsilon_total
    epsilon_mu = epsilon_total - epsilon_sigma
    return epsilon_mu, epsilon_sigma


@dataclass(frozen=True)
class LedgerEntry:
    query: str
    sensitivity: float
    epsilon: float
    group: str | None = None  # entries sharing a group compose in parallel

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "sensitivity": self.sensitivity,
            "epsilon": self.epsilon,
            "group": self.group,
        }


class BudgetLedger:
    """Ordered record of privacy spends with serial/parallel composition.

    Entries without a group compose serially (their epsilons add).
    Entries sharing a group are spends on disjoint data partitions and
    compose in parallel: the group contributes its maximum epsilon once,
    no matter how many partitions spent it.
    """

    def __init__(self) -> None:
        self._entries: list[LedgerEntry] = []

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def record(self, query: str, sensitivity: float, epsilon: float,
               group: str | None = None) -> LedgerEntry:
        if epsilon <= 0:
            raise ValueError(f"recorded epsilon must be positive, got {epsilon}")
        if sensitivity <= 0:
            raise ValueError(f"recorded sensitivity must be positive, got {sensitivity}")
        entry = LedgerEntry(query, sensitivity, epsilon, group)
        self._entries.append(entry)
        return entry

    def group_epsilons(self) -> dict[str, float]:
        """Maximum epsilon per parallel-composition group."""
        groups: dict[str, float] = {}
        for e in self._entries:
            if e.group is not None:
                groups[e.group] = max(groups.get(e.group, 0.0), e.epsilon)
        return groups

    def total(self) -> float:
        """Total privacy cost under serial + parallel composition.

        math.fsum makes the result independent of entry order, so
        reshuffling the ledger never changes the reported total.
        """
        contributions = [e.epsilon for e in self._entries if e.group is None]
        contributions.extend(self.group_epsilons().values())
        return math.fsum(contributions)

    def as_dicts(self) -> list[dict]:
        return [e.as_dict() for e in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        lines = [f"{'query':<24} {'sensitivity':>14} {'epsilon':>10} {'group':>12}"]
        for e in self._entries:
            group = e.group if e.group is not None else "-"
            lines.append(f"{e.query:<24} {e.sensitivity:>14.6g} {e.epsilon:>10.4g} {group:>12}")
        lines.append(f"total epsilon: {self.total():.6g}")
        return "\n".join(lines)

