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
    sched_configuration_space,
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
    "sched": sched_configuration_space,
}

#: ``(point count, sha256 of the newline-joined ordered result keys at
#: scale 1)`` per ``(grid, workload)``: pins membership, order and the
#: cache-key bytes of every grid.
GOLDEN_GRID_KEYS = {
    ("full", "sort"): (
        560, "8d0630045ece74a6c0800d91f859c25bca6ced50e7acebfe3d030dc348752fdf"),
    ("full", "grep"): (
        560, "ed0900605eaeea8a3ad5e8075d8753f33426fb9e692cddc74b3777815e8e4131"),
    ("full", "diff"): (
        560, "98233fd21f7859fe649c04533e144cde0ed118cf40408073cd5e63c055f1aae8"),
    ("full", "cpp"): (
        560, "d883b98c9a903875c1c34b532e69be7529057742666d5f113114ed2fc5d819f4"),
    ("full", "compress"): (
        560, "e7334cca3f921df3759308b77d2c695c93ef0f07aaf99966d9703ef932d0a8a9"),
    ("full", "hashjoin"): (
        560, "ca1e5eb4fcb9e8398d1a43f3c1598e0de09ebb0f6e02a5c40b909685d36c312b"),
    ("full", "jsontok"): (
        560, "367cc30f87a6884ba986fc7c010903c9b4a9d9b7bd34d0c002e64f41a3830310"),
    ("full", "crc32"): (
        560, "84955ea48098be38af6a03aefbf465b5695af195460210f4450f009e1a07bd8e"),
    ("smoke", "sort"): (
        40, "75d6ddaffa21f6849ac7b5462c899b3ed4642b043d5a4cedee7ca4eed74c37dc"),
    ("smoke", "grep"): (
        40, "46cf474a072af40da55175caf41afca3f8c92dda2374c39aa2d79f82e0a6b26a"),
    ("smoke", "diff"): (
        40, "b4ec4bfde51bb3c64020f3194245c51821fe416f2df0a0065119641001838277"),
    ("smoke", "cpp"): (
        40, "a0b7786ea6eb096a6bc7e7cd1385cfca657b6b4b26dcae207364523781ab6a5c"),
    ("smoke", "compress"): (
        40, "e461926d17a1895c1f48473a03743d2fdfa085e60fa10caf1a1aa5738ce53e9a"),
    ("smoke", "hashjoin"): (
        40, "7a120e579859115be375d57caf1f582644731dfa3812deae3ee8713ddfb9337d"),
    ("smoke", "jsontok"): (
        40, "1a1a236ae845402258e691a325588b9a9b85dc3003bdfd46bf9496a1d31f333b"),
    ("smoke", "crc32"): (
        40, "a41cd3ea0e271265b5811f19374b8b72bf9600b6f3913e7f5ab77dae63ffc73f"),
    ("cache", "sort"): (
        24, "6199b8ff1463910ff9b4e4201269f019e6d0f77c3034a88a356b39535ed33e6c"),
    ("cache", "grep"): (
        24, "f0de349ba24f4dff5a526ce1ae14c7cf7d32f858ce706f34dd3d619b36fe0b41"),
    ("cache", "diff"): (
        24, "fcef2aff18dc36b4ad7c99a5c54ea7fdcd3603d8b1ea3de7ae346946508a30c8"),
    ("cache", "cpp"): (
        24, "4e2ed5162c2899509020d8aaa3b57919b0026ade9864a58288fa8f8714fb0d77"),
    ("cache", "compress"): (
        24, "8e4c6745dd9f494903d192789e716f72226986c2495859e02dc86d12d72585a0"),
    ("cache", "hashjoin"): (
        24, "d5e9e134420616a7386be960f5a792acd745da7e4745ee631c28c49ef8ffa37f"),
    ("cache", "jsontok"): (
        24, "b93e2b13bc1d4e2f978adcddba5ba653a300f13875f03ae5f4bd672826319630"),
    ("cache", "crc32"): (
        18, "46150a4f1c7fea0476d8267d3484fd810ed31daaa89a63f1dc70835435712ca0"),
    ("spec", "sort"): (
        68, "7a104aef7518f00f9c729d872058d2b4ac7400ce7eba371960658d75ea724937"),
    ("spec", "grep"): (
        68, "bd59486efadffbe1cc928d1f76c8f7081f33895fc2cd97f4f363a2f3ae16aa0d"),
    ("spec", "diff"): (
        68, "85592bbb4127037e8859a07100efce85066d784d07ee3aab767fccd858bf2658"),
    ("spec", "cpp"): (
        68, "8d5ff394b43c9cf041a2414ac5149bf1bd3a07b6ee9eb0e7cc097578e985ea3c"),
    ("spec", "compress"): (
        68, "e1372457a037f70aa08d4919923ec40fa08fff193838e10469d1dee444dd49f0"),
    ("spec", "hashjoin"): (
        68, "9e09e87eb8c88c50aa5fa2b8adf102f33e07c5e4a5e3211721e0349a9d1022ea"),
    ("spec", "jsontok"): (
        68, "8736f4d002f54dd2e95d1253d363c468af4ceda654aa7818bc9c004a74bd59c8"),
    ("spec", "crc32"): (
        68, "eeefedd872082e08958bb0e98d38a0dd6158816b2d4e36e7232d0873718535e6"),
    ("sched", "sort"): (
        24, "cc4b7521ea788f26fb43ec5d4c52a441808238c68574b11dd2d204427e96f153"),
    ("sched", "grep"): (
        24, "59af06a07f48c48602f4e09eced5611ce05f3a7523757993dbe58ee1e5cf679d"),
    ("sched", "diff"): (
        24, "b561c836d251314e76442071316676ef5379adb376af4f9b0317399fa5534768"),
    ("sched", "cpp"): (
        24, "f4b4e21d8cef6f0931b5b5f780e8b6061c849a7eadd70a1f859be6446276181e"),
    ("sched", "compress"): (
        24, "2870d1c6a7b4fc944f37c1a024a21885ed72da11d65908f2d5a3b79b188010a1"),
    ("sched", "hashjoin"): (
        24, "2caa8f982bad03ebf04400fe21d7120866ecf19066f9358339e869180cab9783"),
    ("sched", "jsontok"): (
        24, "a2cca96d9091ea4b48186e88a3d4bc36df73956312069629ad7d0f77d5ede588"),
    ("sched", "crc32"): (
        24, "30c6209967514bae002f60b8b339ffceb28948e88b3d91494355198eccd2e563"),
}

#: ``GridSpec(...).digest(1)`` per grid, over every registered workload
#: and over grep alone: job ids derive from these.
GOLDEN_JOB_DIGESTS = {
    "full": ("ce00e1882e4b", "4ad7401d8cd0"),
    "smoke": ("74b117d8f750", "e018408e1c92"),
    "cache": ("d1504fc2347b", "10a00dc2a6bc"),
    "spec": ("4faa555d2e59", "07cf72d51f02"),
    "sched": ("8dcf44995c5d", "6c647bcb8708"),
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
        for grid in ("full", "smoke", "spec", "sched"):
            assert grids[grid]("crc32") == grids[grid](None)
        assert grids["cache"]("crc32") != grids["cache"](None)
        assert grids["full"](None) is grids["full"]("grep")  # memoised
