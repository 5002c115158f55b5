"""Output checks. Each returns a list of problems; an empty list passes.

They hold for every correct release whatever the RNG stream, so any
problem counts the release as failed. They run outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np

from ronsynth.dataset import REQUIRED_METADATA_KEYS

# eigenvalues this far below zero still count as PSD (rounding in the repair)
PSD_TOL = 1e-10


def check_cli_release(out_dir: str, returncode: int, header: list[str], expect: dict) -> list[str]:
    """A `ronsynth synth` release: exit code, data.csv and metadata.json."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    return (check_data_csv(os.path.join(out_dir, "data.csv"), header, expect["n_synth"])
            + check_metadata(os.path.join(out_dir, "metadata.json"), expect))


def check_data_csv(path: str, header: list[str], rows: int) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            got = fh.readline().rstrip("\r\n").split(",")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body warns; the shape check reports it
                values = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        return [f"data.csv unreadable: {err}"]
    problems = []
    if got != header:
        problems.append(f"data.csv header {got[:10]} != {header}")
    if values.shape != (rows, len(header)):
        problems.append(f"data.csv shape {values.shape} != {(rows, len(header))}")
    if not np.all(np.isfinite(values)):
        problems.append("data.csv has non-finite cells")
    return problems


def check_metadata(path: str, expect: dict) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"metadata.json unreadable: {err}"]
    problems = [f"metadata.json lacks {key!r}" for key in REQUIRED_METADATA_KEYS
                if key not in meta]
    for key in ("m", "p", "n", "n_synth"):
        if meta.get(key) != expect[key]:
            problems.append(f"metadata {key}={meta.get(key)!r}, expected {expect[key]}")
    total = meta.get("epsilon_total")
    if not isinstance(total, (int, float)) or not math.isclose(total, expect["epsilon"],
                                                               rel_tol=1e-9):
        problems.append(f"metadata epsilon_total={total!r}, expected {expect['epsilon']}")
    return problems


def check_gmm_result(result, source_labels: np.ndarray, expect: dict) -> list[str]:
    """An in-process synth_gmm result: shape, classes, budget, PSD modes."""
    release = result.dataset
    problems = []
    if release.features.shape != (expect["p"], expect["n_synth"]):
        problems.append(f"release shape {release.features.shape}")
    if not np.all(np.isfinite(release.features)):
        problems.append("release has non-finite cells")
    names, counts = np.unique(release.class_labels, return_counts=True)
    if set(names.tolist()) != set(np.unique(source_labels).tolist()):
        problems.append(f"class set changed: {sorted(names.tolist())}")
    if int(counts.sum()) != expect["n"]:
        problems.append(f"per-class counts sum to {int(counts.sum())}, expected {expect['n']}")
    if not math.isclose(result.ledger.total(), expect["epsilon"], rel_tol=1e-9):
        problems.append(f"ledger total {result.ledger.total()!r}, expected {expect['epsilon']}")
    for mode in result.model.modes:
        cov = mode.model.covariance
        if not np.array_equal(cov, cov.T):
            problems.append(f"mode {mode.label!r} covariance is not symmetric")
        elif np.linalg.eigvalsh(cov).min() < -PSD_TOL:
            problems.append(f"mode {mode.label!r} covariance is not PSD")
    return problems


def nearest_mean_accuracy(result, features: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy on the real data of nearest release class mean, per mode chart."""
    from ronsynth.synthesis import mode_transform

    release = result.dataset
    modes = result.model.modes
    dists = []
    for mode in modes:
        mean = release.features[:, release.class_labels == mode.label].mean(axis=1)
        dists.append(np.linalg.norm(mode_transform(mode, features) - mean[:, None], axis=0))
    predicted = np.array([mode.label for mode in modes])[np.argmin(dists, axis=0)]
    return float(np.mean(predicted == labels))
