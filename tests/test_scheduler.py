"""Static list-scheduler tests: dependences, shapes, coverage, and the
schedule checker with its certified lower bound."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    AluOp,
    Imm,
    Reg,
    alu,
    jump,
    load,
    movi,
    ret,
    store,
)
from repro.isa.ops import NodeKind
from repro.machine.config import ISSUE_MODELS, MEMORY_CONFIGS
from repro.program import BasicBlock
from repro.sched import (
    BASE_LATENCIES,
    ScheduledBlock,
    check_schedule,
    latency_table,
    lower_bound,
    node_latency,
    schedule_program,
)
from repro.sched.list_scheduler import schedule_block
from repro.workloads import WORKLOADS, prepared

ISSUE8 = ISSUE_MODELS[8]
ISSUE5 = ISSUE_MODELS[5]
ISSUE2 = ISSUE_MODELS[2]
SEQ = ISSUE_MODELS[1]
MEM_A = MEMORY_CONFIGS["A"]
MEM_C = MEMORY_CONFIGS["C"]


def schedule(body, term=None, issue=ISSUE8, memory=MEM_A):
    block = BasicBlock("blk", body, term or ret())
    return schedule_block(block, issue, memory), list(block.nodes())


def cycle_of(sched):
    """node index -> word (cycle) index."""
    placement = {}
    for cycle, word in enumerate(sched.words):
        for index in word:
            placement[index] = cycle
    return placement


class TestCoverage:
    def test_every_node_scheduled_exactly_once(self):
        sched, nodes = schedule(
            [movi(1, 1), movi(2, 2), alu(AluOp.ADD, 3, Reg(1), Reg(2))]
        )
        seen = [i for word in sched.words for i in word]
        assert sorted(seen) == list(range(len(nodes)))

    def test_word_shape_respected(self):
        body = [load(i + 1, 62, 4 * i) for i in range(8)]
        sched, _ = schedule(body, issue=ISSUE8)
        for word in sched.words:
            mems = sum(1 for i in word if i < 8)
            assert mems <= ISSUE8.mem_slots

    def test_sequential_model_one_per_word(self):
        sched, nodes = schedule([movi(1, 1), movi(2, 2), movi(3, 3)], issue=SEQ)
        for word in sched.words:
            assert len(word) <= 1

    def test_independent_work_packs_into_one_word(self):
        body = [movi(i + 1, i) for i in range(12)]
        sched, _ = schedule(body, issue=ISSUE8)
        non_empty = [w for w in sched.words if w]
        assert len(non_empty) <= 2  # 12 ALU slots + terminator word


class TestDependences:
    def test_flow_dependence_orders(self):
        sched, _ = schedule([
            movi(1, 1),
            alu(AluOp.ADD, 2, Reg(1), Imm(1)),
            alu(AluOp.ADD, 3, Reg(2), Imm(1)),
        ])
        placement = cycle_of(sched)
        assert placement[0] < placement[1] < placement[2]

    def test_load_latency_respected(self):
        sched, _ = schedule(
            [load(1, 62, 0), alu(AluOp.ADD, 2, Reg(1), Imm(1))],
            memory=MEM_C,
        )
        placement = cycle_of(sched)
        assert placement[1] - placement[0] >= 3

    def test_anti_dependence(self):
        # r1 is read by node 0; node 1 overwrites it: must not move above.
        sched, _ = schedule([
            alu(AluOp.ADD, 2, Reg(1), Imm(3)),
            movi(1, 0),
        ])
        placement = cycle_of(sched)
        assert placement[0] <= placement[1]

    def test_output_dependence(self):
        sched, _ = schedule([movi(1, 5), movi(1, 6)])
        placement = cycle_of(sched)
        assert placement[0] < placement[1]

    def test_terminator_is_never_early(self):
        body = [movi(1, 1), movi(2, 2), alu(AluOp.ADD, 3, Reg(1), Reg(2))]
        sched, nodes = schedule(body, term=jump("blk"))
        placement = cycle_of(sched)
        term_cycle = placement[len(nodes) - 1]
        assert all(term_cycle >= placement[i] for i in range(len(nodes) - 1))

    def test_terminator_shares_the_last_word(self):
        # Its latency-0 edges release it inside the cycle that issues
        # the last body node, so it joins that word.
        sched, _ = schedule([movi(1, 1), movi(2, 2)])
        assert sched.words == [[0, 1, 2]]

    def test_anti_dependent_successor_shares_the_word(self):
        # r1 is read by the add and then redefined: the redefinition
        # waits only for the read (latency 0), so both issue together.
        body = [movi(1, 1), alu(AluOp.ADD, 2, Reg(1), Imm(1)), movi(1, 7)]
        sched, _ = schedule(body)
        placement = cycle_of(sched)
        assert placement[1] == placement[2]


class TestMemoryOrdering:
    def test_may_alias_store_load_ordered(self):
        # Different base registers: conservatively ordered.
        sched, _ = schedule([
            store(Reg(1), 10, 0),
            load(2, 11, 0),
        ])
        placement = cycle_of(sched)
        assert placement[0] < placement[1]

    def test_same_base_disjoint_offsets_reorderable(self):
        # Same base register, non-overlapping offsets: no edge, so the
        # scheduler may pack them into one word (2 memory slots).
        sched, _ = schedule([
            store(Reg(1), 10, 0),
            load(2, 10, 8),
        ], issue=ISSUE_MODELS[5])
        placement = cycle_of(sched)
        assert placement[1] <= placement[0] + 1  # not forcibly serialised

    def test_same_address_store_load_ordered(self):
        sched, _ = schedule([
            store(Reg(1), 10, 0),
            load(2, 10, 0),
        ], issue=ISSUE_MODELS[5])
        placement = cycle_of(sched)
        assert placement[1] > placement[0]

    def test_sp_gp_segments_disjoint(self):
        from repro.isa.registers import GP, SP

        sched, _ = schedule([
            store(Reg(1), SP, 0),
            load(2, GP, 0),
        ], issue=ISSUE_MODELS[5])
        placement = cycle_of(sched)
        assert placement[1] <= placement[0] + 1

    def test_base_redefinition_forces_order(self):
        # After r10 changes, offsets are no longer comparable.
        sched, _ = schedule([
            store(Reg(1), 10, 0),
            alu(AluOp.ADD, 10, Reg(10), Imm(4)),
            load(2, 10, 8),
        ], issue=ISSUE_MODELS[5])
        placement = cycle_of(sched)
        assert placement[2] > placement[0]

    def test_loads_need_no_mutual_order(self):
        sched, _ = schedule([
            load(1, 10, 0),
            load(2, 11, 0),
        ], issue=ISSUE_MODELS[5])
        placement = cycle_of(sched)
        assert placement[0] == placement[1]

    def test_mem_rank_maps_body_order(self):
        body = [movi(1, 1), load(2, 62, 0), store(Reg(2), 62, 4), load(3, 62, 8)]
        sched, _ = schedule(body)
        assert sched.mem_rank == {1: 0, 2: 1, 3: 2}


class TestAliasRelation:
    """Direct regression tests for the shared conservative alias test.

    The schedule checker reuses ``may_alias`` and ``build_dependences``
    verbatim, so these pin the relation itself, not just the placements
    the list scheduler derives from it.
    """

    def test_same_base_disjoint_offsets_do_not_alias(self):
        from repro.sched import may_alias

        st_node = store(Reg(1), 10, 0)
        ld_node = load(2, 10, 8)
        assert not may_alias(st_node, 0, ld_node, 0)

    def test_same_base_overlapping_offsets_alias(self):
        from repro.sched import may_alias

        st_node = store(Reg(1), 10, 0)
        for offset in (-3, 0, 3):  # 4-byte word accesses overlap
            assert may_alias(st_node, 0, load(2, 10, offset), 0)

    def test_sp_gp_segments_never_alias(self):
        from repro.isa.registers import GP, SP
        from repro.sched import may_alias

        # Disjoint segments exonerate even differing base versions.
        assert not may_alias(store(Reg(1), SP, 0), 0, load(2, GP, 0), 3)
        assert not may_alias(store(Reg(1), GP, 4), 2, load(2, SP, 4), 0)

    def test_redefined_base_is_pessimistic(self):
        from repro.sched import may_alias

        # Same base register but different versions: offsets are not
        # comparable, so disjoint ranges must still report aliasing.
        st_node = store(Reg(1), 10, 0)
        ld_node = load(2, 10, 8)
        assert may_alias(st_node, 0, ld_node, 1)

    def test_different_plain_bases_are_conservative(self):
        from repro.sched import may_alias

        assert may_alias(store(Reg(1), 10, 0), 0, load(2, 11, 64), 0)

    def test_build_dependences_orders_store_then_load(self):
        from repro.sched import build_dependences

        nodes = [store(Reg(1), 10, 0), load(2, 10, 0), ret()]
        preds = build_dependences(nodes, MEM_A)
        # Store-involved aliasing pair carries the write-buffer latency.
        assert (0, 1) in preds[1]

    def test_build_dependences_skips_load_load(self):
        from repro.sched import build_dependences

        nodes = [load(1, 10, 0), load(2, 10, 0), ret()]
        preds = build_dependences(nodes, MEM_A)
        assert all(pred != 0 for pred, _ in preds[1])

    def test_build_dependences_edges_point_backward(self):
        from repro.sched import build_dependences

        nodes = [
            movi(1, 1),
            store(Reg(1), 10, 0),
            load(2, 10, 0),
            alu(AluOp.ADD, 1, Reg(2), Imm(1)),
            ret(),
        ]
        preds = build_dependences(nodes, MEM_C)
        for index, plist in enumerate(preds):
            assert all(pred < index for pred, _ in plist)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6),   # dest
            st.integers(min_value=1, max_value=6),   # src
            st.integers(min_value=0, max_value=3),   # op selector
        ),
        min_size=1,
        max_size=20,
    ),
    st.sampled_from([1, 2, 5, 8]),
)
def test_random_blocks_schedule_completely(spec, issue_index):
    """Property: scheduling always covers each node once, in dep order."""
    ops = [AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.XOR]
    body = [
        alu(ops[op], dest, Reg(src), Imm(3))
        for dest, src, op in spec
    ]
    sched, nodes = schedule(body, issue=ISSUE_MODELS[issue_index])
    seen = sorted(i for word in sched.words for i in word)
    assert seen == list(range(len(nodes)))
    placement = cycle_of(sched)
    # Flow dependences respected.
    last_writer = {}
    for index, node in enumerate(body):
        src = node.src1.index
        if src in last_writer:
            assert placement[index] > placement[last_writer[src]]
        last_writer[node.dest] = index


class TestLatencyTable:
    """One latency table feeds the scheduler and the checker."""

    def test_table_covers_every_node_kind(self):
        assert set(BASE_LATENCIES) == set(NodeKind)
        for memory in (MEM_A, MEM_C):
            assert set(latency_table(memory)) == set(NodeKind)

    def test_load_latency_tracks_memory(self):
        assert node_latency(NodeKind.LOAD, MEM_A) == MEM_A.hit_cycles
        assert node_latency(NodeKind.LOAD, MEM_C) == MEM_C.hit_cycles
        assert latency_table(MEM_C)[NodeKind.LOAD] == MEM_C.hit_cycles


def checked(words, body, issue=ISSUE8, memory=MEM_A):
    """Run the checker on hand-written ``words`` for ``body`` + ret."""
    block = BasicBlock("blk", body, ret())
    count = len(list(block.nodes()))
    check_schedule(block, ScheduledBlock("blk", words, {}, count),
                   issue, memory)


class TestScheduleChecker:
    def test_lower_bounds(self):
        # Critical path: a movi -> add -> add chain of latency-1 edges
        # fills cycles 0..2; the terminator shares the last one.
        chain = list(BasicBlock("blk", [
            movi(1, 1),
            alu(AluOp.ADD, 2, Reg(1), Imm(1)),
            alu(AluOp.ADD, 3, Reg(2), Imm(1)),
        ], ret()).nodes())
        assert lower_bound(chain, ISSUE8, MEM_A) == 3
        # Resource: 8 independent loads through 2 memory slots.
        wide = list(BasicBlock(
            "blk", [load(i + 1, 10, 8 * i) for i in range(8)], ret()
        ).nodes())
        assert lower_bound(wide, ISSUE5, MEM_A) == 4
        # Sequential: every node, the terminator too, takes the slot.
        assert lower_bound(chain, SEQ, MEM_A) == 4

    def test_accepts_a_greedy_schedule(self):
        checked([[0, 1, 2]], [movi(1, 1), movi(2, 2)])

    def test_rejects_a_node_issued_twice(self):
        with pytest.raises(AssertionError, match="issued twice"):
            checked([[0, 1, 2], [1]], [movi(1, 1), movi(2, 2)])

    def test_rejects_a_missing_node(self):
        with pytest.raises(AssertionError, match="never issue"):
            checked([[0, 2]], [movi(1, 1), movi(2, 2)])

    def test_rejects_a_broken_latency(self):
        body = [movi(1, 1), alu(AluOp.ADD, 2, Reg(1), Imm(1))]
        with pytest.raises(AssertionError, match="1-cycle edge"):
            checked([[0, 1, 2]], body)

    def test_rejects_an_overfull_word(self):
        body = [load(i + 1, 10, 8 * i) for i in range(3)]
        with pytest.raises(AssertionError, match="exceeds issue model"):
            checked([[0, 1, 2, 3]], body, issue=ISSUE5)

    def test_rejects_a_node_left_out_of_a_word_it_fits(self):
        # The list scheduler's old once-per-cycle ready list: the
        # terminator was ready in cycle 0 but got a word to itself.
        with pytest.raises(AssertionError, match="was ready at cycle 0"):
            checked([[0, 1], [2]], [movi(1, 1), movi(2, 2)])

    def test_a_full_class_excuses_a_ready_node(self):
        # ISSUE2 has one memory slot: the second load must wait.
        body = [load(1, 10, 0), load(2, 10, 8)]
        checked([[0], [1, 2]], body, issue=ISSUE2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_schedule_is_checked(name):
    """Every block of every workload, single and enlarged, on issue
    models 1-10 and memories A and G, is a greedy-complete schedule."""
    workload = prepared(WORKLOADS[name])
    for program in (workload.single, workload.enlarged):
        for issue in ISSUE_MODELS.values():
            for memory in (MEM_A, MEMORY_CONFIGS["G"]):
                schedules = schedule_program(program, issue, memory)
                for block in program:
                    check_schedule(block, schedules[block.label], issue,
                                   memory)
