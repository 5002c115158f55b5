"""Self-tests of the benchmark's output checks.

Each test makes a small real release, corrupts one property, and shows
the check rejects it. Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from ronsynth import Dataset, cli, split_budget, synth_gmm  # noqa: E402

HEADER = [f"z{j + 1}" for j in range(8)]
EXPECT = {"m": 20, "p": 8, "n": 200, "n_synth": 200, "epsilon": 1.0}


@pytest.fixture
def release(tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "in.csv"
    np.savetxt(src, rng.standard_normal((200, 20)), fmt="%.17g", delimiter=",",
               header=",".join(f"x{j}" for j in range(20)), comments="")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", str(src), "--dim", "8", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


def problems(out, code=0):
    return checks.check_cli_release(str(out), code, HEADER, EXPECT)


def edit_metadata(out, **changes):
    path = out / "metadata.json"
    meta = json.loads(path.read_text())
    meta.update(changes)
    for key, value in changes.items():
        if value is None:
            del meta[key]
    path.write_text(json.dumps(meta))


def test_real_release_passes(release):
    assert problems(release) == []


def test_nonzero_exit_rejected(release):
    assert problems(release, code=3) == ["exit code 3"]


def test_truncated_data_rejected(release):
    path = release / "data.csv"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert problems(release)


def test_missing_last_row_rejected(release):
    path = release / "data.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert any("shape" in p for p in problems(release))


def test_non_finite_cell_rejected(release):
    path = release / "data.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[2] = "nan"
    lines[5] = ",".join(cells)
    path.write_text("".join(lines))
    assert any("non-finite" in p for p in problems(release))


def test_wrong_header_rejected(release):
    path = release / "data.csv"
    text = path.read_text()
    path.write_text(text.replace("z8", "z9", 1))
    assert any("header" in p for p in problems(release))


def test_wrong_epsilon_rejected(release):
    edit_metadata(release, epsilon_total=1.5)
    assert any("epsilon_total" in p for p in problems(release))


def test_missing_metadata_key_rejected(release):
    edit_metadata(release, psd_repair_applied=None)
    assert any("psd_repair_applied" in p for p in problems(release))


def test_wrong_sample_count_rejected(release):
    edit_metadata(release, n_synth=199)
    assert any("n_synth" in p for p in problems(release))


GMM_EXPECT = {"m": 30, "p": 8, "n": 400, "n_synth": 400, "epsilon": 1.0}


@pytest.fixture
def gmm():
    rng = np.random.default_rng(1)
    labels = np.array(["a", "b", "c", "d"])[np.arange(400) % 4]
    data = Dataset(features=rng.standard_normal((30, 400)), class_labels=labels)
    result = synth_gmm(data, 8, *split_budget(1.0), rng=np.random.default_rng(2))
    return result, labels


def test_real_gmm_release_passes(gmm):
    result, labels = gmm
    assert checks.check_gmm_result(result, labels, GMM_EXPECT) == []


def test_non_psd_mode_rejected(gmm):
    result, labels = gmm
    model = result.model.modes[1].model
    object.__setattr__(model, "covariance", model.covariance - 10 * np.eye(8))
    assert any("not PSD" in p for p in checks.check_gmm_result(result, labels, GMM_EXPECT))


def test_asymmetric_mode_rejected(gmm):
    result, labels = gmm
    model = result.model.modes[0].model
    cov = model.covariance.copy()
    cov[0, 1] += 1e-3
    object.__setattr__(model, "covariance", cov)
    assert any("symmetric" in p for p in checks.check_gmm_result(result, labels, GMM_EXPECT))


def test_extra_spend_rejected(gmm):
    result, labels = gmm
    result.ledger.record("mean", 1.0, 0.5)
    assert any("ledger" in p for p in checks.check_gmm_result(result, labels, GMM_EXPECT))


def test_changed_class_set_rejected(gmm):
    result, labels = gmm
    release = result.dataset
    renamed = np.where(release.class_labels == "d", "e", release.class_labels)
    result = dataclasses.replace(result, dataset=Dataset(features=release.features,
                                                         class_labels=renamed))
    assert any("class set" in p for p in checks.check_gmm_result(result, labels, GMM_EXPECT))


def test_dropped_samples_rejected(gmm):
    result, labels = gmm
    release = result.dataset
    result = dataclasses.replace(result, dataset=Dataset(
        features=release.features[:, :-3], class_labels=release.class_labels[:-3]))
    found = checks.check_gmm_result(result, labels, GMM_EXPECT)
    assert any("sum to 397" in p for p in found) and any("shape" in p for p in found)
