"""Benchmark for treehopf, driven from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``grafting``, ``cuts``, ``dual`` (one ``verify`` suite each) and
``oneshot`` (a seeded mix of one-shot CLI commands).  Every invocation is a
fresh ``python -m treehopf`` process, run one after another by a single
closed-loop client; nothing runs in parallel.

``--trace 0`` measures the end-to-end metrics: it repeats the workload's
unit (one verify invocation, or the whole one-shot mix) while another unit
fits in ``--seconds``.  Every time it reports is scaled to a fixed machine
speed by the reference process of ``speed.py``, timed between invocations;
the unscaled times are printed as ``# raw`` comment lines.  ``--trace 1``
runs one unit untraced and one unit under the span tracer (``traced_child.py``) and reports per-layer metrics.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Treehopf is loaded from ``src/`` of the
checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

from speed import REF_GAP_S, REF_S, REF_WINDOW_S, reference_s
from tracer import CACHED, COUNTED, TRACED
from workloads import VERIFY_WORKLOADS, Invocation, oneshot_invocations, verify_invocations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = tuple(VERIFY_WORKLOADS) + ("oneshot",)
SETUP_PROBE = ["enum", "--size", "1", "--count-only"]
SETUP_REPEATS = 15
RUN_LIMIT_S = 170.0       # a run must end well within 180 s
INVOCATION_LIMIT_S = 120.0


@dataclass
class Finished:
    exit_code: int
    stdout: str
    stderr: str
    start: float        # time.perf_counter() when the child was started
    wall_s: float
    maxrss_mb: float


class Client:
    """Closed-loop client: one child process at a time, each reaped with wait4.

    With ``scale`` it times a reference process (``speed.py``) before the
    first child and again once the children since the last one have run for
    ``REF_GAP_S``.  ``scaled`` gives a child's wall time times ``REF_S`` over
    the mean time of the references that ran within ``REF_WINDOW_S`` of it.
    """

    def __init__(self, deadline: float, scale: bool):
        self.deadline = deadline
        self.scale = scale
        self.refs: list[tuple[float, float]] = []     # (start, seconds)
        if scale:
            self.refs.append((time.perf_counter(), reference_s()))
        self.since_ref = 0.0
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    def take_ref(self) -> None:
        if self.scale and self.since_ref > 0:
            self.refs.append((time.perf_counter(), reference_s()))
            self.since_ref = 0.0

    def scaled(self, done: Finished) -> float:
        """Wall time at the reference speed; call after a final ``take_ref``.

        The references taken just before and just after the child always
        count, so the mean is never over an empty set."""
        low = done.start - REF_WINDOW_S
        high = done.start + done.wall_s + REF_WINDOW_S
        near = [took for start, took in self.refs if start <= high and start + took >= low]
        return done.wall_s * REF_S / statistics.mean(near)

    def spawn(self, argv: list[str]) -> Finished:
        limit = min(INVOCATION_LIMIT_S, self.deadline - time.perf_counter())
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(max(limit, 0.0), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        done = Finished(proc.returncode, out.decode(), err.decode(), start, wall,
                        usage.ru_maxrss / 1024.0)
        self.since_ref += wall
        if self.since_ref >= REF_GAP_S:
            self.take_ref()
        return done

    def run(self, prefix: list[str], inv: Invocation) -> Finished:
        """Run one invocation, check it, and count it as an operation."""
        done = self.spawn(prefix + inv.argv)
        self.attempted += 1
        reason = None
        if done.exit_code != 0:
            reason = f"exit {done.exit_code}: {done.stderr.strip()[-300:]}"
        elif not done.stdout.endswith("\n"):
            reason = "output does not end with a newline"
        else:
            reason = inv.check(done.stdout[:-1])
        if reason:
            self.failures.append(f"{' '.join(inv.argv)}: {reason}")
        return done


def untraced_prefix() -> list[str]:
    return [sys.executable, "-m", "treehopf"]


def build_invocations(workload: str, seed: int, tiny: bool) -> list[Invocation]:
    if workload == "oneshot":
        file_dir = os.path.join(OUT, "inputs")
        os.makedirs(file_dir, exist_ok=True)
        return oneshot_invocations(seed, os.path.relpath(file_dir, ROOT), tiny)
    return verify_invocations(workload, tiny)


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure_setup(client: Client) -> list[Finished]:
    probe = Invocation(SETUP_PROBE, lambda out: None if out == "1" else f"printed {out!r}")
    client.run(untraced_prefix(), probe)          # warm-up: writes the bytecode cache
    return [client.run(untraced_prefix(), probe) for _ in range(SETUP_REPEATS)]


def run_unit(client: Client, prefix: list[str], invocations: list[Invocation]):
    start = time.perf_counter()
    results = [client.run(prefix, inv) for inv in invocations]
    return time.perf_counter() - start, results


def time_metrics(units: list[list[Finished]], probes: list[Finished],
                 took: Callable[[Finished], float]) -> dict:
    """wall_s, latency_p50_ms, latency_p90_ms and setup_s, with ``took`` as the time of a call."""
    latencies = [took(done) for unit in units for done in unit]
    return {
        "wall_s": (statistics.median(sum(map(took, unit)) for unit in units), "s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "setup_s": (statistics.median(map(took, probes)), "s"),
    }


def end_to_end(client: Client, workload: str, invocations: list[Invocation],
               seconds: int) -> dict:
    probes = measure_setup(client)
    unit_times: list[float] = []
    units: list[list[Finished]] = []
    begin = time.perf_counter()
    while not unit_times or (
            time.perf_counter() - begin + statistics.median(unit_times) <= seconds
            and time.perf_counter() + 2 * max(unit_times) < client.deadline):
        wall, results = run_unit(client, untraced_prefix(), invocations)
        unit_times.append(wall)
        units.append(results)
        client.peak_rss_mb = max([client.peak_rss_mb] + [r.maxrss_mb for r in results])
    print(f"# {workload}: units={len(units)} latency samples={sum(map(len, units))}")
    client.take_ref()
    for name, (value, unit) in time_metrics(units, probes, lambda done: done.wall_s).items():
        print(f"# raw {name} = {value} {unit}")
    metrics = time_metrics(units, probes, client.scaled)
    metrics["peak_rss_mb"] = (client.peak_rss_mb, "MB")
    return {name: metrics[name] for name in
            ("wall_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s")}


def merge_summary(total: dict, summary: dict) -> None:
    for name, layer in summary["layers"].items():
        slot = total["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
        slot["calls"] += layer["calls"]
        slot["self_s"] += layer["self_s"]
    for name, stats in summary["caches"].items():
        slot = total["caches"].setdefault(name, {"hits": 0, "misses": 0})
        slot["hits"] += stats["hits"]
        slot["misses"] += stats["misses"]
    for name, count in summary["constructed"].items():
        total["constructed"][name] = total["constructed"].get(name, 0) + count
    total["absent"] |= set(summary["absent"])


def per_layer(client: Client, workload: str, invocations: list[Invocation]) -> dict:
    measure_setup(client)
    plain_s, plain = run_unit(client, untraced_prefix(), invocations)

    span_dir = os.path.join(OUT, "spans")
    os.makedirs(span_dir, exist_ok=True)
    summary_path = os.path.join(OUT, "summary.json")
    total = {"layers": {}, "caches": {}, "constructed": {}, "absent": set()}
    traced_s = 0.0
    for i, (inv, untraced) in enumerate(zip(invocations, plain)):
        prefix = [sys.executable, os.path.join(HERE, "traced_child.py"), summary_path,
                  os.path.join(span_dir, f"{workload}-{i}.bin"), "--"]
        same_output = Invocation(inv.argv, lambda out, check=inv.check, ref=untraced.stdout: (
            check(out) or (None if out + "\n" == ref else "traced output differs from untraced")))
        start = time.perf_counter()
        traced = client.run(prefix, same_output)
        traced_s += time.perf_counter() - start
        if traced.exit_code == 0:
            with open(summary_path, encoding="utf-8") as handle:
                merge_summary(total, json.load(handle))

    if total["absent"]:
        print(f"# absent (reported as 0): {', '.join(sorted(total['absent']))}")
    metrics = {}
    for module, func, _ in TRACED:
        layer = total["layers"].get(f"{module}.{func}", {"calls": 0, "self_s": 0.0})
        metrics[f"{module}.{func}.calls"] = (layer["calls"], "count")
        metrics[f"{module}.{func}.self_s"] = (layer["self_s"], "s")
    for module, func in CACHED:
        stats = total["caches"].get(f"{module}.{func}", {"hits": 0, "misses": 0})
        lookups = stats["hits"] + stats["misses"]
        metrics[f"{module}.{func}.hit_ratio"] = (stats["hits"] / lookups if lookups else 0.0,
                                                 "ratio")
    for module, cls, _ in COUNTED:
        metrics[f"{module}.{cls}.constructed"] = (
            total["constructed"].get(f"{module}.{cls}", 0), "count")
    metrics["tracing_overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: verify at degree 3, one one-shot per kind")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "treehopf", "__init__.py")):
        print(f"error: treehopf sources not found under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)

    client = Client(deadline=time.perf_counter() + RUN_LIMIT_S, scale=not args.trace)
    invocations = build_invocations(args.workload, args.seed, args.tiny)
    if args.trace:
        metrics = per_layer(client, args.workload, invocations)
    else:
        metrics = end_to_end(client, args.workload, invocations, args.seconds)
    for reason in client.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    failed = len(client.failures)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(f"# failed_ratio = {failed / client.attempted} ({failed}/{client.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
