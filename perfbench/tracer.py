"""Span tracer that wraps ronsynth's public functions from outside.

The wrappers replace module globals at their import sites (for example
``ronsynth.synthesis.preprocess``), which the release path looks up at
call time, so no program file changes. Spans (name, start, end, parent)
are kept in memory; counters are filled at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np

MB = 1e6


def _wrap_specs():
    """(module, attribute, span name, counter hook) for every wrapped function."""
    # imported here, not at the top: run.py puts src/ on the path at run time
    from ronsynth import cli, preprocessing, synthesis

    def read(counts, result, args):
        counts["dataset.bytes_read"] += os.path.getsize(args[0])

    def written(counts, result, args):
        counts["dataset.bytes_written"] += sum(os.path.getsize(p) for p in result)

    def synth(counts, result, args):
        counts["mechanism.ledger_entries"] += len(result.ledger)

    def pre(counts, result, args):
        counts["preprocessing.cells"] += np.size(args[0])
        counts["preprocessing.samples_dropped"] += result.zero_norm_rows_dropped

    def ron(counts, result, args):
        m = args[0]
        counts["projection.generate_ron_calls"] += 1
        # LAPACK geqrf + orgqr on an m x m matrix: 4/3 m^3 flops each
        counts["projection.qr_gflop_computed"] += 8.0 / 3.0 * m ** 3 / 1e9

    def proj(counts, result, args):
        W, X = args[0].W, args[1]
        counts["projection.project_mb_computed"] += 8 * (W.size + np.size(X) + result.size) / MB

    def repair(counts, result, args):
        counts["synthesis.psd_repair_applied"] += int(result[1])

    def draws(counts, result, args):
        counts["synthesis.sample_gaussian_draws"] += result.size

    def noise(counts, result, args):
        counts["mechanism.laplace_draws"] += np.size(result)

    return [
        (cli, "cmd_synth", "cli.cmd_synth", None),
        (cli, "load_csv", "dataset.load_csv", read),
        (cli, "write_release", "dataset.write_release", written),
        *((mod, fn, "synthesis.synth", synth)
          for mod in (cli, synthesis)
          for fn in ("synth_unsupervised", "synth_supervised", "synth_gmm")),
        (synthesis, "preprocess", "preprocessing.preprocess", pre),
        (synthesis, "generate_ron", "projection.generate_ron", ron),
        (synthesis, "project", "projection.project", proj),
        (synthesis, "estimate_cov", "synthesis.estimate_cov", None),
        (synthesis, "estimate_aug_cov", "synthesis.estimate_cov", None),
        (synthesis, "dp_perturb_cov", "synthesis.dp_perturb_cov", None),
        (synthesis, "psd_repair", "synthesis.psd_repair", repair),
        (synthesis, "sample_gaussian", "synthesis.sample_gaussian", draws),
        (synthesis, "laplace_perturb", "mechanism.laplace_perturb", noise),
        (preprocessing, "sample_normalize", "preprocessing.sample_normalize", None),
        (preprocessing, "dp_mean", "preprocessing.dp_mean", None),
        (preprocessing, "center_with_mean", "preprocessing.center_with_mean", None),
        (preprocessing, "laplace_perturb", "mechanism.laplace_perturb", noise),
    ]


# span name -> per-layer metric holding the sum of its spans' self times
SELF_TIME_METRICS = {
    "cli.cmd_synth": "cli.cmd_synth.self_s",
    "dataset.load_csv": "dataset.load_csv_s",
    "dataset.write_release": "dataset.write_release_s",
    "preprocessing.preprocess": "preprocessing.preprocess_s",
    "preprocessing.sample_normalize": "preprocessing.sample_normalize_s",
    "preprocessing.dp_mean": "preprocessing.dp_mean_s",
    "preprocessing.center_with_mean": "preprocessing.center_with_mean_s",
    "projection.generate_ron": "projection.generate_ron_s",
    "projection.project": "projection.project_s",
    "synthesis.synth": "synthesis.synth_self_s",
    "synthesis.estimate_cov": "synthesis.estimate_cov_s",
    "synthesis.dp_perturb_cov": "synthesis.dp_perturb_cov_s",
    "synthesis.psd_repair": "synthesis.psd_repair_s",
    "synthesis.sample_gaussian": "synthesis.sample_gaussian_s",
    "mechanism.laplace_perturb": "mechanism.laplace_perturb_s",
}

COUNT_METRICS = (
    "dataset.bytes_read", "dataset.bytes_written", "preprocessing.cells",
    "preprocessing.samples_dropped", "projection.generate_ron_calls",
    "projection.qr_gflop_computed", "projection.project_mb_computed",
    "synthesis.psd_repair_applied", "synthesis.sample_gaussian_draws",
    "mechanism.laplace_draws", "mechanism.ledger_entries",
)


class Tracer:
    """Patches the release path while active; one span list per release."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, name, hook in _wrap_specs():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self):
        self.spans, self.counts = [], Counter()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, result, args)
            return result
        return traced

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the release whose spans were recorded."""
        child_time = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for span in self.spans:
            self_s = span["end"] - span["start"] - child_time[span["id"]]
            out[SELF_TIME_METRICS[span["name"]]] += self_s
        out.update({name: float(self.counts[name]) for name in COUNT_METRICS})
        out["dataset.load_csv_mb_per_s"] = _rate(out["dataset.bytes_read"],
                                                 out["dataset.load_csv_s"])
        out["dataset.write_mb_per_s"] = _rate(out["dataset.bytes_written"],
                                              out["dataset.write_release_s"])
        roots = [s for s in self.spans if s["parent"] is None]
        out["trace.coverage"] = sum(s["end"] - s["start"] for s in roots) / wall_s
        return out


def _rate(nbytes: float, seconds: float) -> float:
    return nbytes / MB / seconds if seconds > 0 else 0.0
