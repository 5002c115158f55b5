"""One API release in a fresh interpreter, so its peak RSS is its own.

Usage: python3 perfbench/worker.py INPUT_DIR OUT_PICKLE RELEASE_SEED
(with src/ on PYTHONPATH). Reads features.npy and labels.npy, times
set-up (import ronsynth plus building the Dataset) and the synth_gmm
call, and pickles both timings with the SynthesisResult.
"""

import os
import pickle
import sys
import time


def main(input_dir: str, out_path: str, seed: int) -> None:
    t0 = time.perf_counter()
    import numpy as np
    import ronsynth
    from ronsynth import synthesis
    t1 = time.perf_counter()
    from workloads import EPSILON, MU_RATIO, P
    features = np.load(os.path.join(input_dir, "features.npy"))
    labels = np.load(os.path.join(input_dir, "labels.npy"))
    t2 = time.perf_counter()
    data = ronsynth.Dataset(features=features, class_labels=labels)
    t3 = time.perf_counter()
    eps_mu, eps_sigma = ronsynth.split_budget(EPSILON, MU_RATIO)
    rng = np.random.default_rng(seed)
    t4 = time.perf_counter()
    result = synthesis.synth_gmm(data, P, eps_mu, eps_sigma, rng=rng)
    t5 = time.perf_counter()
    with open(out_path, "wb") as fh:
        pickle.dump({"setup_s": (t1 - t0) + (t3 - t2), "release_s": t5 - t4,
                     "result": result}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
