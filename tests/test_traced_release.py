"""The benchmark's tracer must keep finding every name it instruments.

perfbench/tracer.py wraps functions by module attribute and reads
result fields in its counter hooks. A renamed function or field breaks
the traced benchmark; these tiny traced releases make it break the
test suite first.
"""

import contextlib
import io
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from tracer import SELF_TIME_METRICS, Tracer  # noqa: E402

from ronsynth import Dataset, cli, split_budget, synthesis  # noqa: E402

# spans every mode passes through once the release is running
CORE_SPANS = {
    "synthesis.synth", "preprocessing.preprocess", "projection.generate_ron",
    "synthesis.estimate_cov", "synthesis.dp_perturb_cov",
    "synthesis.psd_repair", "synthesis.sample_gaussian", "mechanism.laplace_perturb",
}


def write_csv(path, rng, with_label):
    X = rng.normal(size=(60, 6))
    header = [f"x{j}" for j in range(6)]
    if with_label:
        X = np.column_stack([X, np.clip(X[:, 0], -1, 1)])
        header.append("y")
    np.savetxt(path, X, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


@pytest.mark.parametrize("mode", ["unsupervised", "supervised", "gmm"])
def test_traced_release_covers_every_layer(mode, tmp_path):
    rng = np.random.default_rng(5)
    tracer = Tracer()
    if mode == "gmm":
        data = Dataset(features=rng.normal(size=(6, 60)),
                       class_labels=np.repeat(["a", "b"], 30))
        eps_mu, eps_sigma = split_budget(1.0)
        with tracer:
            synthesis.synth_gmm(data, 2, eps_mu, eps_sigma, rng=rng)
        expected = CORE_SPANS
    else:
        src = tmp_path / "in.csv"
        write_csv(src, rng, with_label=mode == "supervised")
        argv = ["synth", str(src), "--mode", mode, "--dim", "2", "--seed", "1",
                "--out", str(tmp_path / "out")]
        if mode == "supervised":
            argv += ["--label-col", "y", "--label-bound", "1"]
        stdout = io.StringIO()
        with tracer, contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0
        # the CLI calls synthesis.measure and synthesize, not a synth_*
        # function, so the tracer sees neither its synth span nor its ledger
        expected = CORE_SPANS - {"synthesis.synth"} | {"cli.cmd_synth", "dataset.load_csv",
                                                       "dataset.write_release"}
        # the printed ledger: a header, one line per entry, the total
        ledger = stdout.getvalue().split("total epsilon")[0].splitlines()[1:]
        assert len(ledger) == 2
    # leaving the tracer restores the originals
    assert not hasattr(synthesis.preprocess, "__wrapped__")

    names = [span["name"] for span in tracer.spans]
    assert expected <= set(names)
    # one preprocessing pass serves every class of the release
    assert names.count("preprocessing.preprocess") == 1
    metrics = tracer.layer_metrics(wall_s=1.0)
    for name in expected:
        assert metrics[SELF_TIME_METRICS[name]] > 0.0
    if mode == "gmm":
        assert metrics["mechanism.ledger_entries"] == 4
    assert metrics["preprocessing.cells"] == 360
    assert metrics["preprocessing.samples_dropped"] == 0
    assert metrics["synthesis.sample_gaussian_draws"] > 0
