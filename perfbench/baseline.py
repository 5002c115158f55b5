"""Record a baseline: every workload, untraced and traced, at one seed.

Run from the repository root:

    python3 perfbench/baseline.py --seed 1 --out perfbench/baseline.json

Per-layer shares are each layer's self time over the sum of all layer
self times of the traced release (the spans cover the release; see
trace.coverage).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return {"env": env, "summary": lines[-2], **json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    from tracer import SELF_TIME_METRICS

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    record = {"seed": args.seed, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        plain = run(w["name"], args.seed, spec["run_seconds"], 0)
        traced = run(w["name"], args.seed, spec["run_seconds"], 1)
        record["env"] = plain.pop("env")
        traced.pop("env")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        self_times = {k: layer[k] for k in SELF_TIME_METRICS.values()}
        total = sum(self_times.values())
        shares = {k: v / total for k, v in sorted(self_times.items(), key=lambda kv: -kv[1])}
        record["workloads"][w["name"]] = {
            "end_to_end": plain, "per_layer": traced,
            "self_time_shares": shares, "largest_self_time": next(iter(shares)),
        }
        print(w["name"], plain["summary"], "| largest:", next(iter(shares)), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
