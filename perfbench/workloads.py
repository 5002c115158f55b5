"""Workload definitions and their seeded input generators.

Every workload releases at epsilon=1 with the default 0.3 mean share
and p=8. The program only ever sees the generated file or arrays; the
seed stays inside the benchmark.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

EPSILON = 1.0
MU_RATIO = 0.3
P = 8


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # the CLI's --mode; "gmm" calls synth_gmm in-process instead
    m: int
    n: int
    n_synth: int
    extra_argv: tuple[str, ...]
    classes: int

    @property
    def uses_cli(self) -> bool:
        return self.mode != "gmm"

    @property
    def cells(self) -> int:
        return self.m * self.n

    def header(self) -> list[str]:
        """Expected header of the released data.csv (CLI workloads)."""
        names = [f"z{j + 1}" for j in range(P)]
        if self.mode == "supervised":
            names.append("label")
        return names


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall_csv", mode="unsupervised", m=100, n=10_000,
            n_synth=10_000, extra_argv=(), classes=0,
        ),
        Workload(
            name="upsample_csv", mode="supervised", m=50, n=10_000,
            n_synth=50_000,
            extra_argv=("--label-col", "label", "--label-bound", "1"),
            classes=0,
        ),
        Workload(
            name="wide_gmm", mode="gmm", m=1000, n=10_000,
            n_synth=10_000, extra_argv=(), classes=8,
        ),
    )
}


def make_inputs(workload: Workload, seed: int, work_dir: str) -> dict:
    """Generate the workload's inputs under work_dir from the seed.

    Returns a dict with the paths the release needs and, for the API
    workload, the arrays themselves (the checks reuse them).
    """
    rng = np.random.default_rng(seed)
    os.makedirs(work_dir, exist_ok=True)
    if not workload.uses_cli:
        features, labels = _separated_classes(rng, workload.m, workload.n, workload.classes)
        np.save(os.path.join(work_dir, "features.npy"), features)
        np.save(os.path.join(work_dir, "labels.npy"), labels)
        return {"dir": work_dir, "features": features, "labels": labels}

    m, n = workload.m, workload.n
    # a few strong directions plus isotropic noise, so the second moment has structure
    rows = rng.standard_normal((n, 5)) @ rng.standard_normal((5, m))
    rows += rng.standard_normal((n, m))
    header = [f"x{j + 1}" for j in range(m)]
    if workload.mode == "supervised":
        w = rng.standard_normal(m) / np.sqrt(m)
        label = np.tanh(rows @ w / 3.0 + 0.1 * rng.standard_normal(n))
        rows = np.column_stack([rows, label])
        header.append("label")
    path = os.path.join(work_dir, "input.csv")
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(header),
               comments="")
    return {"dir": work_dir, "csv": path}


def _separated_classes(rng: np.random.Generator, m: int, n: int, k: int):
    """n samples in k equal classes around random, well-separated centers."""
    centers = rng.standard_normal((m, k))
    centers *= 3.0 / np.linalg.norm(centers, axis=0)
    which = rng.permutation(np.arange(n) % k)
    features = centers[:, which] + rng.standard_normal((m, n)) / np.sqrt(m)
    labels = np.array([f"c{c}" for c in range(k)])[which]
    return features, labels
