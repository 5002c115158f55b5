"""What the tests share, each defined once: the criteria's generators,
the sensitivity checks' inputs, a CSV oracle that shares no code with the
package's writer, and a preprocess spy. Like ``scorers``, it needs numpy alone.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ronsynth import dataset, preprocessing, synthesis
from ronsynth.mechanism import cov_sensitivity


def unit_columns(rng, m, n):
    """n standard-normal directions in R^m, one unit column each."""
    X = rng.normal(size=(m, n))
    return X / np.linalg.norm(X, axis=0)


def upper_l1(A):
    """Entrywise L1 norm over the upper triangle, the entries that get noise."""
    return float(np.abs(A[np.triu_indices(A.shape[0])]).sum())


def mle_cov_sensitivity(p: int, n: int) -> float:
    """L1-sensitivity of the mean-subtracted (MLE) covariance estimate, the
    baseline criterion 04 compares the release's biased one against; in
    factored form, so the ratio to ``cov_sensitivity`` is exactly n + 1."""
    return (n + 1) * cov_sensitivity(p, n)


def spy_preprocess(monkeypatch):
    """Record every PreprocessedDataset a release builds."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(preprocessing.preprocess(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(synthesis, "preprocess", spy)
    return seen


def reference_csv(header, rows, spec=f".{dataset.RELEASE_DIGITS}g"):
    """The row-at-a-time writer the vectorized one must match byte for byte;
    numbers are formatted with spec, a release's precision by default."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else format(float(c), spec) for c in row])
    return buf.getvalue().encode("utf-8")


def write_input(tmp_path, text, name="in.csv"):
    """Write text as UTF-8 to tmp_path/name and return the path."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


REG_M, REG_N_TRAIN, REG_N_TEST = 30, 50_000, 10_000
REG_FACTORS, REG_FACTOR_STD, REG_BULK_STD, REG_NOISE_STD = 6, 0.2, 0.01, 0.2
REG_DIMS = (2, 4, 8, 16)


def regression_data(seed):
    """Linear target on a low-rank factor structure, y = w.x + noise:
    (x_train, y_train), (x_test, y_test)."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(REG_M, REG_FACTORS)))[0]

    def draw(n):
        z = rng.normal(size=(REG_FACTORS, n))
        x = REG_FACTOR_STD * basis @ z + REG_BULK_STD * rng.normal(size=(REG_M, n))
        y = np.clip(basis[:, 0] @ x + REG_NOISE_STD * rng.normal(size=n), -1.0, 1.0)
        return x, y

    return draw(REG_N_TRAIN), draw(REG_N_TEST)


def two_gaussian_data(seed, m, n_train, n_test):
    """Two unit-variance Gaussians at +u and -u, ||u|| = 2, in halves labelled
    "pos" and "neg": (x_train, y_train), (x_test, y_test)."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=m)
    u = 2.0 * direction / np.linalg.norm(direction)

    def draw(n):
        half = n // 2
        x = np.concatenate([
            u[:, None] + rng.normal(size=(m, half)),
            -u[:, None] + rng.normal(size=(m, half)),
        ], axis=1)
        return x, np.array(["pos"] * half + ["neg"] * half)

    return draw(n_train), draw(n_test)
