"""Machine configuration space tests."""

import hashlib

import pytest

from repro.harness.cache import result_key
from repro.machine import config as machine_config
from repro.machine.config import (
    BranchMode,
    Discipline,
    FIGURE4_MEMORY_ORDER,
    ISSUE_MODELS,
    MEMORY_CONFIGS,
    MachineConfig,
    PAPER_ISSUE_MODELS,
    PAPER_MEMORIES,
    cache_configuration_space,
    full_configuration_space,
    scheduling_disciplines,
    smoke_configuration_space,
    spec_configuration_space,
)
from repro.service.jobs import GridSpec
from repro.workloads import WORKLOADS


class TestIssueModels:
    def test_paper_table(self):
        shapes = {
            index: (ISSUE_MODELS[index].mem_slots, ISSUE_MODELS[index].alu_slots)
            for index in PAPER_ISSUE_MODELS
        }
        assert shapes == {
            1: (1, 1),
            2: (1, 1),
            3: (1, 2),
            4: (1, 3),
            5: (2, 4),
            6: (2, 6),
            7: (4, 8),
            8: (4, 12),
        }
        assert ISSUE_MODELS[1].sequential
        assert not ISSUE_MODELS[2].sequential

    def test_total_slots(self):
        assert ISSUE_MODELS[1].total_slots == 1
        assert ISSUE_MODELS[8].total_slots == 16

    def test_extension_models_present_but_not_in_paper_space(self):
        assert ISSUE_MODELS[9].total_slots == 32
        assert ISSUE_MODELS[10].total_slots == 64
        assert 9 not in PAPER_ISSUE_MODELS


class TestMemoryConfigs:
    def test_paper_table(self):
        assert MEMORY_CONFIGS["A"].hit_cycles == 1
        assert MEMORY_CONFIGS["A"].is_perfect
        assert MEMORY_CONFIGS["C"].hit_cycles == 3
        assert MEMORY_CONFIGS["D"].cache_bytes == 1024
        assert MEMORY_CONFIGS["E"].cache_bytes == 16 * 1024
        assert MEMORY_CONFIGS["F"].hit_cycles == 2
        for letter in "DEFG":
            assert MEMORY_CONFIGS[letter].miss_cycles == 10

    def test_figure4_order_covers_all_paper_memories(self):
        assert sorted(FIGURE4_MEMORY_ORDER) == sorted(PAPER_MEMORIES)

    def test_extension_memories_present_but_not_in_paper_space(self):
        assert MEMORY_CONFIGS["H"].cache_bytes == 4 * 1024
        assert MEMORY_CONFIGS["I"].cache_bytes == 64 * 1024
        for letter in "HI":
            assert MEMORY_CONFIGS[letter].hit_cycles == 1
            assert MEMORY_CONFIGS[letter].miss_cycles == 10
            assert letter not in PAPER_MEMORIES


class TestMachineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(Discipline.DYNAMIC, 11, "A", BranchMode.SINGLE)
        with pytest.raises(ValueError):
            MachineConfig(Discipline.DYNAMIC, 8, "Z", BranchMode.SINGLE)
        with pytest.raises(ValueError):
            MachineConfig(Discipline.DYNAMIC, 8, "A", BranchMode.SINGLE,
                          window_blocks=0)
        with pytest.raises(ValueError):
            MachineConfig(Discipline.STATIC, 8, "A", BranchMode.PERFECT)

    def test_discipline_keys(self):
        static = MachineConfig(Discipline.STATIC, 2, "A", BranchMode.SINGLE)
        assert static.discipline_key() == "static/single"
        dynamic = MachineConfig(
            Discipline.DYNAMIC, 2, "A", BranchMode.ENLARGED, window_blocks=256
        )
        assert dynamic.discipline_key() == "dyn256/enlarged"


class TestConfigurationSpace:
    def test_ten_discipline_lines(self):
        lines = scheduling_disciplines()
        assert len(lines) == 10
        perfect = [line for line in lines if line[2] is BranchMode.PERFECT]
        assert {window for _, window, _ in perfect} == {4, 256}

    def test_560_points(self):
        """The paper: '560 individual data points for each benchmark'."""
        points = list(full_configuration_space())
        assert len(points) == 560
        assert len({str(p) for p in points}) == 560

    def test_paper_space_excludes_extension_memories(self):
        assert {p.memory for p in full_configuration_space()} == set(PAPER_MEMORIES)

    def test_cache_space_default_ladder(self):
        points = list(cache_configuration_space())
        assert len(points) == 24
        assert {p.memory for p in points} == {"D", "H", "E", "I"}
        assert all(not p.memory_config.is_perfect for p in points)
        assert all(p.memory_config.hit_cycles == 1 for p in points)

    def test_cache_space_respects_workload_override(self):
        from repro.workloads import WORKLOADS

        for name, workload in WORKLOADS.items():
            letters = {p.memory for p in cache_configuration_space(name)}
            if workload.cache_memories:
                assert letters == set(workload.cache_memories)
            else:
                assert letters == {"D", "H", "E", "I"}
        # Unknown benchmarks fall back to the default ladder.
        assert {p.memory for p in cache_configuration_space("nosuch")} == \
            {"D", "H", "E", "I"}


# ----------------------------------------------------------------------
#: Each grid's public space function, called with the benchmark name
#: (the shared grids take no argument).
_SPACES = {
    "full": lambda name: full_configuration_space(),
    "smoke": lambda name: smoke_configuration_space(),
    "cache": cache_configuration_space,
    "spec": spec_configuration_space,
}

#: ``(point count, sha256 of the newline-joined ordered result keys at
#: scale 1)`` per ``(grid, workload)``: pins membership, order and the
#: cache-key bytes of every grid.
GOLDEN_GRID_KEYS = {
    ("full", "sort"): (
        560, "175e05bd242e01010f581644d32c257231a5cc3c3650dc5587eaf21334680c55"),
    ("full", "grep"): (
        560, "0b9cab19b4f7b57f24577002ea03c67b2794806e60f8fa16057de21c6c7669ab"),
    ("full", "diff"): (
        560, "6cf2cc936037dac8158512a2ff597d57e8f1ca9fe601adf90d7198a6ced10bb4"),
    ("full", "cpp"): (
        560, "5f422dcda5b1aaf6fca0fda881f5af79c314c0821a1bb2d38c630aff1fa3d1ff"),
    ("full", "compress"): (
        560, "861468f939f981a8ef07bcbb26eaef5dea7f860ccfb0cf9535de7c028df49fac"),
    ("full", "hashjoin"): (
        560, "45b3cc046ff291605f4958a55bfed7295ffd94c9652c1be2141fdca6df1e331d"),
    ("full", "jsontok"): (
        560, "d3055b0da9660b2dd860c4f5860989b8ea5d7e6ec20aa6ff2cb59827ea9dfa20"),
    ("full", "crc32"): (
        560, "c081de9297c17296ef6ebff36a92d0b1d1658d6725464dd130d63832dd7d39e8"),
    ("smoke", "sort"): (
        40, "4cf72b0666589b5242caca525ced75392a97c2f3d717d592eb9a07fc4c2fc4f7"),
    ("smoke", "grep"): (
        40, "cc7571e58f034e53407bca2e27be8965af25e939c8cafe64c2494daa34cc7469"),
    ("smoke", "diff"): (
        40, "bf4c31eb1e1339daf9a0826cfda4dc365f0401800a2d3936696206c48b5af794"),
    ("smoke", "cpp"): (
        40, "d778808ac5d6fbcbbc64acfd51a55d87c30a62d0742138c8c41fe0a94fc31320"),
    ("smoke", "compress"): (
        40, "9915900ec91211a7d7f63ea20f73a0929b8b281b1835ef3ad5e84fac4feda5da"),
    ("smoke", "hashjoin"): (
        40, "d1e3905158aa0a9a2b907d60fc4bbf9860ed57e2595606333532cda343182293"),
    ("smoke", "jsontok"): (
        40, "5095385edf811c690a1f2a9a759c26da14173c3b5ff3ca8a4f853e2aec677adb"),
    ("smoke", "crc32"): (
        40, "5e98f9feccafdb838be74a1b55e47b64bfefd9b51dabda8b683d73eb59eae136"),
    ("cache", "sort"): (
        24, "af0061b089e3c92157c17c9d9a741775e6337691d118c8c315a3e037158b382f"),
    ("cache", "grep"): (
        24, "dc4a3d3536035b86e3c7ea06a340fd1598c7bc5b622fe3d8239d6708ec7ad307"),
    ("cache", "diff"): (
        24, "afca1a334b653c9d6a07a89c01d8c35ca50a8a9903250b3d3d3b557f280f1401"),
    ("cache", "cpp"): (
        24, "e3a0466ccc690d1896f8bcc10f9914fd89d28502bc15771fd84c2b73536671fa"),
    ("cache", "compress"): (
        24, "c9c9f789fde2f3a3b49ed1eba9d6bfd16bb4f603748af5866e6edf227375975b"),
    ("cache", "hashjoin"): (
        24, "e229c7a4f1847cc3a30c1e57bfdf2fef7ddda0e7598548f4a9bc2dc01f11521f"),
    ("cache", "jsontok"): (
        24, "d7a1b4746116e9825fe44f8595684e35482a5645cedab925d1cb230451b08d26"),
    ("cache", "crc32"): (
        18, "0ed9938f47d61ffb8def98772429222740637e7f00028300b9d4368bbb7508e1"),
    ("spec", "sort"): (
        68, "5cc09c7def29b9b2ba214a3271592e06e186b7c596eb0f758297063c43a96848"),
    ("spec", "grep"): (
        68, "5aa4cfdca4f8cec79c0db431bfa8bd829f97e7681a6bab0406510ac85d268191"),
    ("spec", "diff"): (
        68, "a7045786a935eb97abc29f82519d43e594af264795467571cc297534ff72e0f9"),
    ("spec", "cpp"): (
        68, "80a6aa179116fa884ff1570bb96b1b4e086693a74b8d373d0e310b507a3ab670"),
    ("spec", "compress"): (
        68, "009802860c925c538faec9b62cb5cfcc10a5cd9492cbe6e5c3e788707b9d5823"),
    ("spec", "hashjoin"): (
        68, "d1e3cb7f4ef469ddceb40727a677c746e9e83481bf1cbb5ccf5a2842a5c601d7"),
    ("spec", "jsontok"): (
        68, "8336a04375ea8cb6aa978ec8f0e8ada513f3e9c78a0297bc79d095572be3d5d7"),
    ("spec", "crc32"): (
        68, "c9b60f3dcf459b17f1e039852dc89e69342183443f3d699f45b3cc95027bd05e"),
}

#: ``GridSpec(...).digest(1)`` per grid, over every registered workload
#: and over grep alone: job ids derive from these.
GOLDEN_JOB_DIGESTS = {
    "full": ("cb2aa4ca488c", "95c924c0a458"),
    "smoke": ("6102a4737d88", "3bcddcb1b98a"),
    "cache": ("79afa288f9ee", "fe47c399f5ea"),
    "spec": ("d68a58c15f0c", "34f3ca387b2f"),
}


def _key_digest(names):
    keys = "\n".join(names)
    return hashlib.sha256(keys.encode()).hexdigest()


class TestGridPins:
    def test_every_grid_and_workload_is_pinned(self):
        assert set(GOLDEN_GRID_KEYS) == {
            (grid, name) for grid in _SPACES for name in WORKLOADS
        }
        assert set(GOLDEN_JOB_DIGESTS) == set(_SPACES)

    @pytest.mark.parametrize("grid,name", sorted(GOLDEN_GRID_KEYS))
    def test_grid_keys(self, grid, name):
        keys = [result_key(name, config, 1)
                for config in _SPACES[grid](name)]
        assert (len(keys), _key_digest(keys)) == \
            GOLDEN_GRID_KEYS[(grid, name)]

    @pytest.mark.parametrize("grid", sorted(GOLDEN_JOB_DIGESTS))
    def test_job_digests(self, grid):
        every = GridSpec(benchmarks=tuple(sorted(WORKLOADS)), grid=grid)
        grep = GridSpec(benchmarks=("grep",), grid=grid)
        assert (every.digest(1), grep.digest(1)) == GOLDEN_JOB_DIGESTS[grid]


class TestGridRegistry:
    # Reached through the module so the pins above still import (and
    # pass) on a tree without the registry.
    @pytest.mark.parametrize("grid,name", sorted(GOLDEN_GRID_KEYS))
    def test_registry_matches_the_pins(self, grid, name):
        space = machine_config.GRIDS[grid]
        keys = [result_key(name, config, 1) for config in space(name)]
        assert (len(keys), _key_digest(keys)) == \
            GOLDEN_GRID_KEYS[(grid, name)]

    def test_only_the_cache_grid_depends_on_the_benchmark(self):
        grids = machine_config.GRIDS
        for grid in ("full", "smoke", "spec"):
            assert grids[grid]("crc32") == grids[grid](None)
        assert grids["cache"]("crc32") != grids["cache"](None)
        assert grids["full"](None) is grids["full"]("grep")  # memoised
