"""The README's Library examples run as written."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_blocks():
    """The ```python blocks of the README's Library section, in order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_blocks_run():
    blocks = library_blocks()
    assert len(blocks) == 3
    # the names the examples leave to the reader: training and held-out
    # features as m x n matrices, real labels in [-1, 1] and class names
    rng = np.random.default_rng(0)
    m, n, n_test = 10, 400, 100
    X, X_test = rng.normal(size=(m, n)), rng.normal(size=(m, n_test))
    w = rng.normal(size=m) / np.sqrt(m)
    namespace = {
        "X": X, "y": np.tanh(w @ X), "names": np.where(X[0] > 0, "pos", "neg"),
        "X_test": X_test, "y_test": np.tanh(w @ X_test),
        "names_test": np.where(X_test[0] > 0, "pos", "neg"),
    }
    results = []
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
        results.append(namespace["result"])
    # measure, then synthesize, gives synth_supervised's release bit for bit
    assert results[1] is not results[0]
    for name in ("features", "labels"):
        assert getattr(results[1].dataset, name).tobytes() == \
            getattr(results[0].dataset, name).tobytes()
    assert namespace["result"].ledger.total() == 1.0
    assert namespace["feats"].shape == (4, n_test)
    assert namespace["gmm"].dataset.n_samples == n
