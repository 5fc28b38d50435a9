"""Focused unit tests of the dynamic engine's timing mechanics.

Hand-written assembly produces exactly-known traces; these tests pin the
issue-word shaping, window gating, memory disambiguation and wrong-path
accounting at single-cycle granularity (within documented tolerances).
"""

import dataclasses

from repro.interp import run_program
from repro.isa.registers import NUM_REGS
from repro.machine import BranchMode, Discipline, MachineConfig, build_templates
from repro.machine.config import ISSUE_MODELS
from repro.machine import dynamic
from repro.machine.dynamic import DynamicEngine, IssuePlan
from repro.machine.simulator import simulate
from repro.machine.templates import T_LOAD, T_SYSCALL
from repro.program import parse_program


def run_engine(asm, **overrides):
    settings = dict(
        discipline=Discipline.DYNAMIC,
        issue_model=8,
        memory="A",
        branch_mode=BranchMode.SINGLE,
        window_blocks=256,
    )
    settings.update(overrides)
    config = MachineConfig(**settings)
    program = parse_program(asm)
    result = run_program(program, inputs={0: b""})
    engine = DynamicEngine(build_templates(program), result.trace, config)
    return engine.run()


def block_of_movs(count, label="a", nxt=None):
    body = "\n".join(f"    mov r{1 + (i % 50)}, #{i}" for i in range(count))
    term = f"    jmp {nxt}" if nxt else "    sys exit(r1)"
    return f"block {label}:\n{body}\n{term}\n"


class TestIssueShaping:
    def test_sixteen_independent_movs_two_words(self):
        # Issue model 8: 12 ALU slots per word; 16 movs -> 2 issue words.
        asm = ".entry a\n" + block_of_movs(16)
        wide = run_engine(asm, issue_model=8)
        seq = run_engine(asm, issue_model=1)
        # Sequential: one node per cycle -> at least 16 issue cycles.
        assert seq.cycles >= 16
        assert wide.cycles <= 6

    def test_memory_slots_limit_loads(self):
        # 8 independent loads, issue model 8 (4 mem slots) -> 2 words.
        loads = "\n".join(
            f"    ldw r{i + 2}, [r1+{4 * i}]" for i in range(8)
        )
        asm = f""".entry a
block a:
    mov r1, #8192
{loads}
    sys exit(r1)
"""
        result = run_engine(asm, issue_model=8)
        narrow = run_engine(asm, issue_model=2)  # 1 mem slot per word
        assert result.cycles < narrow.cycles

    def test_blocks_do_not_share_issue_words(self):
        # 2 nodes split over two blocks vs in one block: the split
        # version needs an extra issue word (plus jump overhead).
        merged = ".entry a\n" + block_of_movs(8)
        split = (
            ".entry a\n"
            + block_of_movs(4, "a", nxt="b")
            + block_of_movs(4, "b")
        )
        assert run_engine(split).cycles >= run_engine(merged).cycles


class TestIssuePlan:
    """Issue-cycle offsets are decoded once per template and issue model."""

    ASM = """.entry a
block a:
    mov r1, #8192
    ldw r2, [r1]
    ldw r3, [r1+4]
    add r4, r2, r3
    sys exit(r4)
"""

    def plan(self, issue_model):
        template = build_templates(parse_program(self.ASM))["a"]
        return IssuePlan(template, ISSUE_MODELS[issue_model], max_latency=1)

    def test_word_model_offsets(self):
        # 1M+1A: mov and the first load share word 1, the second load
        # opens word 2 and the add joins it; the syscall takes no slot.
        plan = self.plan(2)
        assert [node[5] for node in plan.nodes] == [1, 1, 2, 2, 2]
        assert plan.words == 2

    def test_sequential_offsets(self):
        # Issue model 1 is a one-slot word model: one node per word, the
        # first word the cycle after fetch, as on every word model; the
        # syscall takes no slot and issues with the add.
        plan = self.plan(1)
        assert [node[5] for node in plan.nodes] == [1, 2, 3, 4, 4]
        assert plan.words == 4

    def test_node_encoding(self):
        # Missing sources read a padding register past the real ones; a
        # node without a destination writes a second one.
        cls, dest, *srcs, _offset, index, site = self.plan(8).nodes[1]
        assert (cls, dest, index, site) == (T_LOAD, 2, 1, "a#1")
        assert srcs == [1, NUM_REGS, NUM_REGS]
        syscall = self.plan(8).nodes[-1]
        assert syscall[:2] == (T_SYSCALL, NUM_REGS + 1)


class TestSlotTables:
    def test_sliding_every_block_changes_nothing(self, grep_prepared,
                                                 monkeypatch):
        # With the smallest span the tables slide whenever a block needs
        # room, instead of once in tens of thousands of cycles.
        config = MachineConfig(
            discipline=Discipline.DYNAMIC, issue_model=2, memory="G",
            branch_mode=BranchMode.ENLARGED, window_blocks=256,
            value_predictor="stride",
        )
        wide = simulate(grep_prepared, config)
        monkeypatch.setattr(dynamic, "_MIN_SLOT_SPAN", 1)
        tight = simulate(grep_prepared, config)
        assert dataclasses.asdict(tight) == dataclasses.asdict(wide)


class TestWindowGating:
    CHAIN_BLOCKS = (
        ".entry a\n"
        + block_of_movs(6, "a", "b")
        + block_of_movs(6, "b", "c")
        + block_of_movs(6, "c", "d")
        + block_of_movs(6, "d")
    )

    def test_window_one_serialises_blocks(self):
        w1 = run_engine(self.CHAIN_BLOCKS, window_blocks=1)
        w4 = run_engine(self.CHAIN_BLOCKS, window_blocks=4)
        assert w1.cycles > w4.cycles

    def test_window_larger_than_blocks_is_free(self):
        w4 = run_engine(self.CHAIN_BLOCKS, window_blocks=4)
        w256 = run_engine(self.CHAIN_BLOCKS, window_blocks=256)
        assert w4.cycles == w256.cycles


class TestMemoryDependences:
    def test_load_waits_for_same_address_store(self):
        conflict = """
.entry a
block a:
    mov r1, #8192
    mov r2, #5
    mov r3, #600
    stw r2, [r1]
    ldw r4, [r1]
    add r5, r4, #1
    sys exit(r5)
"""
        disjoint = conflict.replace("ldw r4, [r1]", "ldw r4, [r1+64]")
        assert run_engine(conflict).cycles >= run_engine(disjoint).cycles

    def test_loads_bypass_unrelated_stores(self):
        # Run-time disambiguation: a load to a different word proceeds
        # in parallel with an earlier store (same cycle count as no store).
        asm_with = """
.entry a
block a:
    mov r1, #8192
    mov r2, #4096
    stw r1, [r2+128]
    ldw r3, [r1]
    add r4, r3, #1
    sys exit(r4)
"""
        asm_without = asm_with.replace("    stw r1, [r2+128]\n", "")
        with_store = run_engine(asm_with)
        without_store = run_engine(asm_without)
        assert with_store.cycles <= without_store.cycles + 1

    def test_store_store_same_word_ordered(self):
        asm = """
.entry a
block a:
    mov r1, #8192
    stw r1, [r1]
    stw r1, [r1]
    stw r1, [r1]
    sys exit(r1)
"""
        result = run_engine(asm)
        # Three same-word stores serialise: at least 3 cycles apart.
        assert result.cycles >= 5


class TestWrongPathAccounting:
    LOOP = """
.entry top
block top:
    mov r1, #0
    mov r2, #40
    jmp head
block head:
    add r1, r1, #1
    slt r3, r1, r2
    br r3, head, done
block done:
    mov r4, #1
    mov r5, #2
    add r6, r4, r5
    mul r6, r6, r6
    jmp fin
block fin:
    sys exit(r1)
"""

    def test_perfect_mode_discards_nothing(self):
        result = run_engine(self.LOOP, branch_mode=BranchMode.PERFECT,
                            window_blocks=4)
        assert result.discarded_nodes == 0

    def test_bad_predictor_discards_more(self):
        good = run_engine(self.LOOP, window_blocks=4)
        bad = run_engine(self.LOOP, window_blocks=4, predictor="nottaken")
        assert bad.discarded_nodes > good.discarded_nodes
        assert bad.cycles > good.cycles

    def test_wrong_path_respects_window(self):
        w1 = run_engine(self.LOOP, window_blocks=1, predictor="nottaken")
        assert w1.discarded_nodes == 0  # no window room to speculate

    def test_discarded_bounded_by_wrong_path_length(self):
        bad = run_engine(self.LOOP, window_blocks=4, predictor="nottaken")
        # Each mispredict can discard at most the wrong-path region; with
        # tiny blocks this must stay well below total retired work.
        assert bad.discarded_nodes < bad.retired_nodes * 3


class TestLatencies:
    def test_alu_chain_one_cycle_each(self):
        asm = """
.entry a
block a:
    mov r1, #0
    add r1, r1, #1
    add r1, r1, #1
    add r1, r1, #1
    add r1, r1, #1
    sys exit(r1)
"""
        result = run_engine(asm)
        # 5-deep dependence chain: cycles ~ chain depth + pipeline slack.
        assert 5 <= result.cycles <= 9

    def test_miss_latency_visible_once(self):
        asm = """
.entry a
block a:
    mov r1, #8192
    ldw r2, [r1]
    ldw r3, [r1+4]
    add r4, r2, r3
    sys exit(r4)
"""
        # Config D: first load misses (10), second hits the same line (1).
        cold = run_engine(asm, memory="D")
        warm = run_engine(asm, memory="A")
        assert 8 <= cold.cycles - warm.cycles <= 11

    def test_write_buffer_accelerates_reload(self):
        asm = """
.entry a
block a:
    mov r1, #8192
    stw r1, [r1]
    jmp b
block b:
    ldw r2, [r1]
    add r3, r2, #1
    sys exit(r3)
"""
        result = run_engine(asm, memory="D")
        # The load hits the write-buffer line: no 10-cycle miss visible.
        assert result.cycles <= 12
