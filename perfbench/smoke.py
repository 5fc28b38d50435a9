"""Smoke test of the benchmark itself.

Run from the repository root (about three minutes on one core)::

    python3 perfbench/smoke.py

Every workload runs at its smallest size, traced and untraced, and must
print every metric ``BENCHMARK.json`` names with its unit; a
deliberately corrupted simulation result must make the correctness
check fail with a non-zero exit; and without the program's sources the
benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN if cwd == ROOT else
                           os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


class BenchmarkSmoke(unittest.TestCase):

    def check_result(self, workload: str, trace: int) -> Dict[str, Any]:
        proc = bench("--workload", workload, "--seed", "1",
                     "--seconds", "0.01", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: metric["unit"] for name, metric in
             result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in wanted})
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        return result

    def test_every_workload_untraced(self) -> None:
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = self.check_result(workload["name"], 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced(self) -> None:
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_result(workload["name"], 1)

    def test_corrupted_result_fails_the_check(self) -> None:
        for path in (os.path.join(ROOT, "src"), HERE):
            if path not in sys.path:
                sys.path.insert(0, path)
        import run
        from repro.harness import runner

        original = runner.simulate

        def corrupted(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            result.retired_nodes += 1
            return result

        runner.simulate = corrupted
        try:
            status = run.main(["--workload", "sweep-dynamic", "--seed", "1",
                               "--seconds", "0.01", "--trace", "0"])
        finally:
            runner.simulate = original
        self.assertEqual(status, 1)

    def test_without_sources_exits_nonzero(self) -> None:
        work = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "sweep-static", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
