"""Repeat the benchmark over seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1] [--workload W ...]
                                    [--seconds S] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed for each workload, one run
at a time, and prints for every end-to-end metric its median, first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.  Then
makes one ``--trace 1`` run on the first seed for the per-layer metrics.
With ``--out`` the per-run values, the summary and the per-layer metrics are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; its result object, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: run failed\n{proc.stderr}",
              file=sys.stderr)
        return None
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(), "platform": platform.platform(),
              "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, 0)
            if result is None:
                ok = False
                continue
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bound}
            print(f"  {workload:9} {name:15} median={median:.4g} q1={q1:.4g} q3={q3:.4g} "
                  f"spread={(q3 - q1) / median:.3f} bound={bound}", flush=True)
        traced = run_once(workload, args.first_seed, args.seconds, 1)
        ok = ok and traced is not None
        record["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "per_layer": traced and {k: v["value"] for k, v in traced["metrics"].items()}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
