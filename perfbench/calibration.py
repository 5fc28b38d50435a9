"""Does the calibration loop's speed depend on the program under test?

Usage (from the repository root, about two minutes)::

    python3 perfbench/calibration.py [--seconds 100]

The benchmark normalises its times by the speed of
:class:`workloads.HostSpeed` slices that run between operations.  That
is only fair if a slice runs as fast after one kind of work as after
another: otherwise a change to the program's cache footprint would
read as a change of host speed.  This script runs, in rotation, a
static-engine point, a dynamic-engine point and an idle pause, each
followed by one slice, and prints the median slice rate after each.

It also prints how well the slices track the program: the spread of
the static point's time over blocks of ten rotations, raw and scaled
by the slices of the same block, as the benchmark scales a pass.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=100.0)
    args = parser.parse_args()
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro.machine.config import (
        PAPER_ISSUE_MODELS, PAPER_MEMORIES, BranchMode, Discipline,
        MachineConfig)
    from repro.machine.simulator import simulate
    from repro.workloads import WORKLOADS, prepared
    from workloads import HostSpeed

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        grep, sort = prepared(WORKLOADS["grep"]), prepared(WORKLOADS["sort"])
    static = MachineConfig(Discipline.STATIC, PAPER_ISSUE_MODELS[3],
                           PAPER_MEMORIES[2], BranchMode.ENLARGED)
    dynamic = MachineConfig(Discipline.DYNAMIC, PAPER_ISSUE_MODELS[5],
                            PAPER_MEMORIES[4], BranchMode.SINGLE,
                            window_blocks=4)
    work = {
        "static": lambda: simulate(grep, static),
        "dynamic": lambda: simulate(sort, dynamic),
        "idle": lambda: time.sleep(0.3),
    }
    speed = HostSpeed()
    rates = {name: [] for name in work}
    static_s = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        for name, run in work.items():
            start = time.perf_counter()
            run()
            if name == "static":
                static_s.append(time.perf_counter() - start)
            loops, seconds = speed.loops, speed.seconds
            speed.sample(force=1)
            rates[name].append((speed.loops - loops)
                               / (speed.seconds - seconds))

    print("median slice rate after each kind of work:")
    for name, values in rates.items():
        print(f"  {name:8s} {statistics.median(values) / 1e6:.3f}M loops/s"
              f"  ({len(values)} slices)")
    raw, scaled = [], []
    for first in range(0, len(static_s) - 9, 10):
        block_s = sum(static_s[first:first + 10])
        block_rate = statistics.mean(rates["static"][first:first + 10])
        raw.append(block_s)
        scaled.append(block_s * block_rate)
    if len(raw) >= 2:
        print(f"static point time over {len(raw)} blocks of ten: spread"
              f" (stdev / mean) {statistics.pstdev(raw) / statistics.mean(raw):.4f}"
              " raw, "
              f"{statistics.pstdev(scaled) / statistics.mean(scaled):.4f}"
              " scaled by the slices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
