"""Laplace mechanism, L1-sensitivities, and privacy-budget accounting.

Every noise draw in the pipeline is calibrated here, at the
``noise_scale`` of the ledger entry that records its spend. The
sensitivity formulas assume samples of Euclidean norm at most 1 (a
sample that collapses onto the mean is the zero vector, and projected
samples are clipped to the unit ball), which the preprocessing stage
guarantees, and the bounded neighboring notion: two datasets of the
same publicly-known size n that differ in the values of a single sample.

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
    """L1-sensitivity of the sample mean of n samples of norm <= 1 in R^m.

    Replacing x by x' moves the mean by (x - x')/n, whose L1 norm is at
    most sqrt(m) * ||x - x'||_2 / n <= 2*sqrt(m)/n; x' = -x = 1/sqrt(m)
    reaches it.
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
    <= a*sqrt(p) per sample), and the corner |y^2 - y'^2|/n <= a^2/n, so
    a^2 must be finite too.
    """
    if p < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got p={p}, n={n}")
    if not (a > 0.0 and a * a < math.inf):
        raise ValueError(f"label bound must be positive and finite, with a finite square, "
                         f"got a={a}")
    return (p + 1.0 + 2.0 * a * math.sqrt(p) + a * a) / n


def laplace_perturb(values: np.ndarray, scale_b: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Laplace(0, scale_b) noise to every entry of ``values``.

    Sampling uses the inverse CDF x = -b * sign(u) * ln(1 - 2|u|) with u
    uniform on (-0.5, 0.5), so draws are exactly reproducible from a
    seeded generator across platforms.
    """
    if not 0.0 < scale_b < math.inf:
        raise ValueError(f"Laplace scale must be positive and finite, got {scale_b}")
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
    epsilon_total bit-exactly. This is the one place a total budget is
    checked: it must be positive and finite (NaN and infinity fail), and
    neither part may round to zero.
    """
    if not 0.0 < epsilon_total < math.inf:
        raise ValueError(f"epsilon_total must be positive and finite, got {epsilon_total}")
    if not 0.0 < mu_ratio < 1.0:
        raise ValueError(f"mu_ratio must lie in (0, 1), got {mu_ratio}")
    epsilon_sigma = epsilon_total - mu_ratio * epsilon_total
    epsilon_mu = epsilon_total - epsilon_sigma
    if not (epsilon_mu > 0.0 and epsilon_sigma > 0.0):
        raise ValueError(f"--epsilon {epsilon_total!r} split by --mu-ratio {mu_ratio!r} gives "
                         f"a share that rounds to zero: epsilon_mu={epsilon_mu!r}, "
                         f"epsilon_sigma={epsilon_sigma!r}")
    return epsilon_mu, epsilon_sigma


@dataclass(frozen=True)
class LedgerEntry:
    query: str
    sensitivity: float
    epsilon: float
    group: str | None = None  # entries sharing a group compose in parallel

    @property
    def noise_scale(self) -> float:
        """The Laplace scale b of the draw this entry pays for; 0 at epsilon = inf."""
        return self.sensitivity / self.epsilon

    def as_dict(self) -> dict:
        """The row ``ronsynth budget`` prints; ``group`` only when set."""
        row = {"query": self.query, "sensitivity": self.sensitivity, "epsilon": self.epsilon,
               "noise_scale": self.noise_scale}
        if self.group is not None:
            row["group"] = self.group
        return row


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
        if not epsilon > 0:
            raise ValueError(f"recorded epsilon must be positive, got {epsilon}")
        if not sensitivity > 0:
            raise ValueError(f"recorded sensitivity must be positive, got {sensitivity}")
        entry = LedgerEntry(query, sensitivity, epsilon, group)
        # epsilon = inf turns the noise off (scale 0); any other scale must be drawable
        if not entry.noise_scale < math.inf:
            raise ValueError(f"{query} spend: sensitivity {sensitivity!r} / epsilon "
                             f"{epsilon!r} gives a noise scale that is not finite")
        self._entries.append(entry)
        return entry

    def total(self) -> float:
        """Total privacy cost under serial + parallel composition.

        Each group counts its maximum epsilon once. math.fsum makes the
        result independent of entry order, so reshuffling the ledger
        never changes the reported total.
        """
        serial: list[float] = []
        groups: dict[str, float] = {}
        for e in self._entries:
            if e.group is None:
                serial.append(e.epsilon)
            else:
                groups[e.group] = max(groups.get(e.group, 0.0), e.epsilon)
        return math.fsum(serial + list(groups.values()))

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        lines = [f"{'query':<24} {'sensitivity':>14} {'epsilon':>10} {'group':>12}"]
        for e in self._entries:
            group = e.group if e.group is not None else "-"
            lines.append(f"{e.query:<24} {e.sensitivity:>14.6g} {e.epsilon:>10.4g} {group:>12}")
        lines.append(f"total epsilon: {self.total():.6g}")
        return "\n".join(lines)


# parallel-composition group tags of the per-class (gmm) spends
GMM_MEAN_GROUP = "class_mean"
GMM_COV_GROUP = "class_cov"
# laplace_perturb's u lies on a 2**-53 grid, so 1 - 2|u| >= 2**-52 and
# every draw is below -ln(2**-52) * b < LAPLACE_DRAW_BOUND * b
LAPLACE_DRAW_BOUND = 37.0


def record_spends(ledger: BudgetLedger, m: int, p: int, n: int, epsilon_mu: float,
                  epsilon_sigma: float, label_bound: float | None = None,
                  per_class: bool = False) -> tuple[LedgerEntry, LedgerEntry]:
    """Record the mean spend, then the covariance spend, of one fit.

    The fit is on n samples in R^m projected to R^p. A label bound
    selects the label-augmented covariance. ``per_class`` marks a gmm
    class: its mean is taken in the p-dimensional chart, and both spends
    go in the parallel-composition groups. Releases and ``ronsynth
    budget`` account only here. Returns both entries; every draw takes
    its scale from its entry's ``noise_scale``.

    A spend whose draws float64 cannot carry is refused (ValueError)
    before any draw. The mean's d coordinates are squared and summed
    (||mu||^2 in the one-class chart, mu muᵀ in a gmm mode), so d times
    the square of its largest draw must be finite. The covariance's
    draws are only added, decomposed and square-rooted, so d_cov times
    its largest draw, a row sum of its d_cov x d_cov matrix, must be.
    """
    groups = (GMM_MEAN_GROUP, GMM_COV_GROUP) if per_class else (None, None)
    d = p if per_class else m
    mean = ledger.record("mean", mean_sensitivity(d, n), epsilon_mu, group=groups[0])
    if label_bound is None:
        query, sensitivity, d_cov = "covariance", cov_sensitivity(p, n), p
    else:
        query, sensitivity = "augmented_covariance", aug_cov_sensitivity(p, n, label_bound)
        d_cov = p + 1
    cov = ledger.record(query, sensitivity, epsilon_sigma, group=groups[1])
    mean_draw = LAPLACE_DRAW_BOUND * mean.noise_scale
    cov_draw = LAPLACE_DRAW_BOUND * cov.noise_scale
    for entry, largest_sum in ((mean, d * mean_draw * mean_draw), (cov, d_cov * cov_draw)):
        if not largest_sum < math.inf:
            raise ValueError(f"{entry.query} spend: sensitivity {entry.sensitivity!r} / "
                             f"epsilon {entry.epsilon!r} gives a noise scale "
                             f"{entry.noise_scale!r} too large for float64")
    return mean, cov
