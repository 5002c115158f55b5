"""Release benchmark for ronsynth.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tall_csv --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from --seed, makes one untimed warm-up
release, then releases one at a time (a closed loop with one client)
until --seconds have passed and at least three releases succeeded.
Every release is checked. The last stdout line is one JSON object: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics from an in-process traced run, whose spans are also
written to .perfbench_work/.
"""

import argparse
import json
import os
import shutil
import signal
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def main() -> int:
    parser = argparse.ArgumentParser(description="ronsynth release benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so children are killed and scratch files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "ronsynth", "__init__.py")):
        print(f"error: no ronsynth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # cap BLAS threads at nproc before numpy loads, here and in every child
    blas_threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)

    import ronsynth
    if not os.path.realpath(ronsynth.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: ronsynth imported from {ronsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import Bench, environment
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    env = environment(blas_threads)
    print("env " + json.dumps(env))

    work_dir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        bench = Bench(workload, args.seed, args.seconds, work_dir)
        if args.trace:
            metrics, releases = bench.run_traced()
            with open(os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"workload": workload.name, "seed": args.seed, "env": env,
                           "metrics": metrics, "releases": releases}, fh)
        else:
            metrics = bench.run_end_to_end()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not bench.successes:
        print(f"error: all {bench.attempted} releases failed", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value computed for {missing}", file=sys.stderr)
        return 1
    summary = (f"{workload.name}: {bench.successes} releases passed the checks, "
               f"error_rate {bench.failed}/{bench.attempted}")
    if bench.accuracy is not None:
        summary += (f", nearest_mean_accuracy {bench.accuracy:.4f} "
                    f"(chance {1 / workload.classes:.4f})")
    print(summary)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
