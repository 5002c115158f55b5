"""Release loops of the benchmark: one release at a time, each checked.

Imported by run.py after it has capped BLAS threads and put the
checkout's src/ first on the path.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np
import scipy

import checks
from ronsynth import Dataset, cli, split_budget, synthesis
from tracer import Tracer
from workloads import EPSILON, MU_RATIO, P, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RELEASES = 3
MAX_FAILURES = 3
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
IMPORT_MARK = "perfbench-import-s"
# the `ronsynth` console script, spelled out so no install is needed; it
# also reports how long `import ronsynth.cli` took, as set-up time
CLI_ENTRY = ("import sys, time; t = time.perf_counter(); from ronsynth.cli import main; "
             f"print('{IMPORT_MARK}', time.perf_counter() - t, file=sys.stderr, flush=True); "
             "sys.exit(main())")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ronsynth.cli; "
                "print(time.perf_counter() - t)")


def environment(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "blas": blas_name, "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
        "page_cache": "warm: CSV inputs are read right after the generator wrote them; "
                      "the benchmark does not drop caches",
        "load": "closed loop, one client, one release at a time",
    }


def spawn(argv: list[str], log_path: str) -> tuple[float, float, int]:
    """Run a child to exit; returns wall seconds, peak RSS in MB, exit code."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


class Bench:
    """One workload at one seed; counts attempted and failed releases."""

    def __init__(self, workload, seed: int, seconds: float, work_dir: str):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = work_dir
        self.inputs = make_inputs(workload, seed, work_dir)
        self.expect = {"m": workload.m, "p": P, "n": workload.n,
                       "n_synth": workload.n_synth, "epsilon": EPSILON}
        self.attempted = self.failed = self.successes = 0
        self.accuracy: float | None = None
        self.dataset = None

    # -- single releases; each returns (sample, problems) ---------------

    def _release_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def _synth_argv(self, i: int) -> tuple[list[str], str]:
        out = os.path.join(self.dir, f"out{i}")
        argv = ["synth", self.inputs["csv"], "--mode", self.w.mode,
                "--epsilon", str(EPSILON), "--dim", str(P), "--samples", str(self.w.n_synth),
                "--seed", str(self._release_seed(i)), "--out", out, *self.w.extra_argv]
        return argv, out

    def _check_cli(self, out: str, code: int) -> list[str]:
        problems = checks.check_cli_release(out, code, self.w.header(), self.expect)
        shutil.rmtree(out, ignore_errors=True)
        return problems

    def _check_api(self, result) -> list[str]:
        if self.accuracy is None:  # a diagnostic, once per run; see README
            self.accuracy = checks.nearest_mean_accuracy(result, self.inputs["features"],
                                                         self.inputs["labels"])
        return checks.check_gmm_result(result, self.inputs["labels"], self.expect)

    def _spawn_logged(self, argv: list[str], i: int) -> tuple[float, float, int, str]:
        """spawn() whose output is kept; it is echoed if the child failed."""
        log = os.path.join(self.dir, f"release{i}.log")
        wall, rss, code = spawn(argv, log)
        with open(log, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        if code != 0:
            sys.stderr.write(text[-2000:])
        return wall, rss, code, text

    def cli_child(self, i: int):
        """`ronsynth synth` timed from spawn to exit."""
        argv, out = self._synth_argv(i)
        wall, rss, code, log = self._spawn_logged([sys.executable, "-c", CLI_ENTRY, *argv], i)
        problems = self._check_cli(out, code)
        marks = [line.split()[1] for line in log.splitlines() if line.startswith(IMPORT_MARK)]
        if not marks:
            return None, problems + ["no import time reported"]
        return {"release_s": wall, "peak_rss_mb": rss, "setup_s": float(marks[0])}, problems

    def api_child(self, i: int):
        """synth_gmm in a fresh worker, which times its own set-up and call."""
        pkl = os.path.join(self.dir, f"result{i}.pkl")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), self.inputs["dir"], pkl,
                str(self._release_seed(i))]
        _, rss, code, _ = self._spawn_logged(argv, i)
        if code != 0:
            return None, [f"exit code {code}"]
        with open(pkl, "rb") as fh:
            out = pickle.load(fh)  # written by our own worker
        os.remove(pkl)
        sample = {"release_s": out["release_s"], "peak_rss_mb": rss, "setup_s": out["setup_s"]}
        return sample, self._check_api(out["result"])

    def in_process(self, i: int, tracer: Tracer | None = None):
        """One release in this process; the sample is its wall time."""
        scope = tracer if tracer is not None else contextlib.nullcontext()
        if self.w.uses_cli:
            argv, out = self._synth_argv(i)
            with contextlib.redirect_stdout(io.StringIO()), scope:
                start = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - start
            return wall, self._check_cli(out, code)
        eps_mu, eps_sigma = split_budget(EPSILON, MU_RATIO)
        rng = np.random.default_rng(self._release_seed(i))
        with scope:
            start = time.perf_counter()
            result = synthesis.synth_gmm(self.dataset, P, eps_mu, eps_sigma, rng=rng)
            wall = time.perf_counter() - start
        return wall, self._check_api(result)

    # -- loops ----------------------------------------------------------

    def _attempt(self, release, i: int):
        self.attempted += 1
        try:
            sample, problems = release(i)
        except Exception:  # a release that raises is a failed release
            traceback.print_exc()
            sample, problems = None, ["exception"]
        if problems:
            self.failed += 1
            print(f"release {i} failed: {problems}", file=sys.stderr)
            return None
        self.successes += 1
        return sample

    def _loop(self, step) -> None:
        """Call step(i) until the time is up and MIN_RELEASES succeeded."""
        deadline = time.perf_counter() + self.seconds
        i = 1
        while self.failed < MAX_FAILURES and (
                self.successes < MIN_RELEASES or time.perf_counter() < deadline):
            step(i)
            i += 1

    def _import_probe(self) -> float:
        """`import ronsynth.cli` timed inside a fresh interpreter."""
        log = os.path.join(self.dir, "import.log")
        _, _, code = spawn([sys.executable, "-c", IMPORT_PROBE], log)
        if code != 0:
            raise RuntimeError(f"import ronsynth.cli failed with exit code {code}")
        with open(log, encoding="utf-8") as fh:
            return float(fh.read().split()[-1])

    def run_end_to_end(self) -> dict:
        release = self.cli_child if self.w.uses_cli else self.api_child
        release(0)  # warm-up: untimed and not counted
        samples = []

        def step(i):
            sample = self._attempt(release, i)
            if sample is not None:
                samples.append(sample)

        self._loop(step)
        if not samples:
            return {}
        for key in ("release_s", "setup_s"):
            print(f"{key} per release: " + " ".join(f"{s[key]:.3f}" for s in samples))
        # medians, not minima: on a shared host a brief fast spell makes the
        # fastest release repeat worse from run to run than the median does
        out = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        out["throughput_mcells_s"] = self.w.cells / 1e6 / out["release_s"]
        return out

    def run_traced(self) -> tuple[dict, list]:
        """Alternate untraced and traced in-process releases."""
        if not self.w.uses_cli:
            self.dataset = Dataset(features=self.inputs["features"],
                                   class_labels=self.inputs["labels"])
        self.in_process(0)  # warm-up
        tracer = Tracer()
        plain, traced, layers, spans, probes = [], [], [], [], []

        def step(i):
            wall = self._attempt(self.in_process, 2 * i - 1)
            if wall is not None:
                plain.append(wall)
            tracer.reset()
            wall = self._attempt(lambda k: self.in_process(k, tracer), 2 * i)
            if wall is not None:
                traced.append(wall)
                layers.append(tracer.layer_metrics(wall))
                spans.append({"release": 2 * i, "wall_s": wall, "spans": tracer.spans})
            if self.w.uses_cli and len(probes) < SETUP_SAMPLES:
                probes.append(self._import_probe())

        self._loop(step)
        if not layers or not plain:
            return {}, spans
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["cli.import_s"] = min(probes) if probes else 0.0
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return metrics, spans
