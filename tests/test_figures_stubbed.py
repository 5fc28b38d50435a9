"""Figure aggregation logic, exercised against a stubbed runner.

These verify the figure-data plumbing (which configs are requested, how
results aggregate) without running any timing simulations: the stub
returns synthetic results whose IPC encodes the configuration.
"""

import pytest

from repro.harness import figures
from repro.harness.figures import (
    FIGURE5_COMPOSITES,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
)
from repro.machine.config import BranchMode, Discipline, MachineConfig
from repro.stats.results import SimResult


class StubRunner:
    """Mimics SweepRunner.mean_ipc / mean_redundancy / run_point."""

    def __init__(self, benchmarks=("alpha", "beta")):
        self.benchmarks = list(benchmarks)
        self.requested = []

    def _result(self, benchmark: str, config: MachineConfig) -> SimResult:
        # Encode config identity in the numbers for verification.
        ipc_scale = config.issue_model * 100 + ord(config.memory)
        return SimResult(
            benchmark=benchmark,
            config=config,
            cycles=1000,
            retired_nodes=ipc_scale * 10,
            discarded_nodes=config.window_blocks,
            dynamic_blocks=10,
            work_nodes=ipc_scale * 10,
        )

    def run_point(self, benchmark, config):
        self.requested.append((benchmark, config))
        return self._result(benchmark, config)

    def mean_ipc(self, config, benchmarks=None):
        return self._result("x", config).retired_per_cycle

    def mean_redundancy(self, config, benchmarks=None):
        result = self._result("x", config)
        return result.redundancy


class TestFigure3Plumbing:
    def test_ten_lines_eight_points(self):
        data = figure3_data(StubRunner())
        lines = [k for k in data if not k.startswith("_")]
        assert len(lines) == 10
        for label in lines:
            assert len(data[label]) == 8

    def test_memory_is_A(self):
        data = figure3_data(StubRunner())
        # IPC encodes memory letter: all points must use memory A.
        for label in data:
            if label.startswith("_"):
                continue
            for index, value in enumerate(data[label]):
                expected = ((index + 1) * 100 + ord("A")) * 10 / 1000
                assert value == pytest.approx(expected)


class TestFigure4Plumbing:
    def test_memory_order_respected(self):
        data = figure4_data(StubRunner())
        assert data["_memories"] == list(figures.FIGURE4_MEMORY_ORDER)
        series = data["static/single"]
        for memory, value in zip(data["_memories"], series):
            expected = (8 * 100 + ord(memory)) * 10 / 1000
            assert value == pytest.approx(expected)


class TestFigure5Plumbing:
    def test_one_series_per_benchmark(self):
        runner = StubRunner(benchmarks=("sort", "grep", "diff"))
        data = figure5_data(runner)
        assert set(k for k in data if not k.startswith("_")) == {
            "sort", "grep", "diff"
        }
        assert len(data["sort"]) == len(FIGURE5_COMPOSITES)

    def test_uses_dyn4_enlarged(self):
        runner = StubRunner(benchmarks=("sort",))
        figure5_data(runner)
        for _, config in runner.requested:
            assert config.discipline is Discipline.DYNAMIC
            assert config.window_blocks == 4
            assert config.branch_mode is BranchMode.ENLARGED


class TestFigure6Plumbing:
    def test_redundancy_series(self):
        data = figure6_data(StubRunner())
        lines = [k for k in data if not k.startswith("_")]
        assert len(lines) == 10
        # Window size encoded in discarded_nodes: bigger window -> more.
        wide = {k: v[-1] for k, v in data.items() if not k.startswith("_")}
        assert wide["dyn256/single"] > wide["dyn4/single"] > 0


class TestReportGeneration:
    def test_report_with_stub_runner(self, monkeypatch):
        """generate_report assembles all sections from runner data."""
        from repro.harness import report as report_mod

        runner = StubRunner(benchmarks=("sort", "grep"))
        runner.scale = 1

        # figure2/static-ratio need real workloads; stub them out.
        monkeypatch.setattr(
            report_mod, "figure2_data",
            lambda r: {
                "buckets": ["0-4", "5+"],
                "single": [0.6, 0.4],
                "enlarged": [0.2, 0.8],
            },
        )
        monkeypatch.setattr(
            report_mod, "static_ratio_data",
            lambda r: {"sort": 2.5, "grep": 3.0},
        )
        text = report_mod.generate_report(runner)
        assert "# EXPERIMENTS" in text
        assert "Figure 2" in text
        assert "Figure 3" in text
        assert "Figure 4" in text
        assert "Figure 5" in text
        assert "Figure 6" in text
        assert "2.75" in text  # mean static ratio
        assert "dyn256/enlarged" in text
