"""Steadiness check for the benchmark.

    python3 bench/steady.py [--runs 10] [--out FILE]

Runs each workload of BENCHMARK.json `--runs` times for `run_seconds`,
with seeds 1, 2, ..., and reports for every end-to-end metric the median
and the spread, taken as the distance between the first and third
quartile over the median. It fails when any spread exceeds the metric's
bound in BENCHMARK.json, when a run reports `correct: false` or a failed
job, or when the work counts of two traced runs with seed 1 differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WALL: list[float] = []


def run(workload, seed, seconds, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    WALL.append(time.perf_counter() - start)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} reported a wrong verdict:\n{done.stdout[-2000:]}")
    return result["metrics"]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the medians and values here as JSON")
    args = parser.parse_args(argv)

    ok = True
    seconds = SPEC["run_seconds"]
    report = {"machine": machine(), "run_seconds": seconds, "runs": args.runs,
              "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        traced = [run(workload, 1, 0, 1) for _ in range(2)]
        for name in EXACT_COUNTS:
            a, b = (t[name]["value"] for t in traced)
            if a != b:
                ok = False
                print(f"{workload}: {name} differs between identical runs: {a} != {b}")
        summary = report["workloads"][workload] = {
            "per_layer": {name: m["value"] for name, m in traced[0].items()}}
        values: dict[str, list[float]] = {}
        WALL.clear()
        for seed in range(1, args.runs + 1):
            for name, m in run(workload, seed, seconds, 0).items():
                values.setdefault(name, []).append(m["value"])
        summary["run_wall_s"] = list(WALL)
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": xs}
            flag = ""
            if spread > bounds[name]:
                ok, flag = False, "  ABOVE BOUND"
            elif spread > bounds[name] / 3:
                flag = "  above bound/3"
            print(f"{workload:14s} {name:12s} median {median:.6g}  spread {spread:.3f}"
                  f"  bound {bounds[name]}{flag}")
        print(f"{workload:14s} wall per run: median {statistics.median(WALL):.1f} s,"
              f" max {max(WALL):.1f} s")
        sys.stdout.flush()
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
