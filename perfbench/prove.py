"""Run the benchmark over many seeds and judge its steadiness.

Usage (from the repository root)::

    python3 perfbench/prove.py --seeds 1-10 [--workloads a,b] \\
        [--seconds 20] [--out perfbench/reference.json]

For every workload and seed this runs ``run.py --trace 0`` in a fresh
process, then reports each end-to-end metric's median, quartiles and
spread (the distance between the quartiles, as a share of the median,
from ``statistics.quantiles(values, n=4)``) next to a third of its
bound from ``BENCHMARK.json``.  ``--out`` writes those figures with
every run's exact-count block and digest, so two commits can be
compared point for point.  The spread of the raw (not normalised)
figures is printed beside each, to show what normalisation removes.
Exit status 1 means a run failed or was incorrect; 3 means some spread
reached a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    report_path = os.path.join(ROOT, ".perfbench_work", "reports",
                               f"{workload}-s{seed}-t0.json")
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    return {"seed": seed, "exit": proc.returncode, "wall_s": wall,
            "correct": result.get("correct"), "exact": report["exact"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()},
            "raw": {name: metric["value"]
                    for name, metric in report["raw_metrics"].items()}}


def spread(values: List[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [workload["name"] for workload in spec["workloads"]])
    seeds = parse_seeds(args.seeds)

    status = 0
    document: Dict[str, Any] = {"seconds": seconds, "seeds": seeds,
                                "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: exit {run['exit']}"
                  f" correct {run['correct']} wall {run['wall_s']:.1f} s"
                  f" digest {run['exact']['digest']}", flush=True)
            if run["exit"] != 0 or not run["correct"]:
                status = 1
        summary = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name] for run in runs
                      if name in run["metrics"]]
            if len(values) < 2:
                continue
            q1, q2, q3, wide = spread(values)
            raw_wide = spread([run["raw"][name] for run in runs])[3]
            steady = wide < bound / 3
            if not steady:
                status = max(status, 3)
            summary[name] = {"median": q2, "q1": q1, "q3": q3,
                             "spread": wide, "raw_spread": raw_wide,
                             "bound": bound}
            print(f"  {name:18s} median {q2:<12.6g} spread {wide:.4f}"
                  f"  (a third of bound {bound / 3:.4f}; raw {raw_wide:.4f})"
                  f"{'' if steady else '  WIDE'}", flush=True)
        document["workloads"][workload] = {
            "summary": summary,
            "runs": [{"seed": run["seed"], "exact": run["exact"]}
                     for run in runs],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
