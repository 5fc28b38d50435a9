"""The dynamically scheduled (restricted-dataflow) timing engine.

Replays a functional trace against an HPS-style machine: nodes are issued
in program order in multi-node words, decoupled immediately, and
scheduled to function units as their operands (registers and memory
locations) become ready -- an unlimited-renaming dataflow model with
per-cycle function-unit limits equal to the issue-word shape, a window
bounded in *active basic blocks*, in-order block retirement, speculative
fetch past predicted branches, and full squash on mispredictions and
enlarged-block faults.

Modelling notes (documented deltas from real hardware, see DESIGN.md):

* cache probes happen in issue order rather than execution order;
* wrong-path memory operations see hit latency and do not pollute the
  cache;
* squashed nodes do not release the function-unit slots they reserved
  before the squash (slots for nodes that would execute after the squash
  are never reserved).

Each run pre-decodes every block template into an :class:`IssuePlan` for
its issue model and keeps function-unit occupancy in two sliding
``bytearray`` slot tables (DESIGN.md §5).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..chaos.inject import current as chaos_current
from ..interp.trace import TAKEN, Trace
from ..isa.ops import NodeKind
from ..isa.registers import NUM_REGS
from ..stats.results import SimResult
from ..telemetry.collector import (
    Collector,
    NULL_COLLECTOR,
    TID_CONTROL,
    TID_MEM,
    finalize_attribution,
)
from ..predict import load_site, make_value_predictor
from .cache import MemorySystem
from .config import BranchMode, IssueModel, MachineConfig
from .errors import EngineDivergence, SimulationHang, resolve_max_cycles
from .predictor import BranchPredictor, make_predictor
from .templates import (
    BlockTemplate,
    MEM_CLASSES,
    T_ALU,
    T_ASSERT,
    T_BRANCH,
    T_LOAD,
    T_STORE,
    T_SYSCALL,
)

#: Cycles between a resolving squash and the start of correct-path fetch
#: (the first issue word opens one cycle later).
REDIRECT_PENALTY = 1

#: Fetch budget for one wrong-path excursion, in blocks.
_WRONG_PATH_BLOCK_LIMIT = 64

#: Register padding of the issue plans: a missing source reads
#: ``_NO_SRC``, which is never written and so always ready at cycle 0; a
#: node that writes no register writes ``_NO_DEST``, which is never read.
_NO_SRC = NUM_REGS
_NO_DEST = NUM_REGS + 1

#: Smallest slot-table span, in cycles.
_MIN_SLOT_SPAN = 1 << 16


class IssuePlan:
    """One block template pre-decoded for one issue model.

    Each basic block is issued as its own unit of work: a new issue word
    opens at every block boundary, so small blocks waste issue slots --
    the issue-bandwidth problem basic block enlargement exists to solve.
    A node's issue cycle is therefore the block's fetch cycle plus an
    offset that depends only on the template's node classes and the
    issue shape.  ``nodes`` holds one
    ``(cls, dest, src0, src1, src2, offset, index, site)`` tuple per node
    in issue order:

    * ``cls`` is T_ALU for every class that takes an ALU slot (ALU,
      control, branch, assert), else T_LOAD, T_STORE or T_SYSCALL;
    * missing sources are ``_NO_SRC`` and a missing destination is
      ``_NO_DEST``;
    * ``offset`` is the issue cycle minus the block's fetch cycle;
    * ``index`` is the node's position in the block and ``site`` its
      value-predictor site (loads only, else None).

    ``words`` is the number of issue words the block opens, which is
    also how far it advances the fetch cycle; the words issue in the
    consecutive cycles from offset 1.  Issue model 1 is a word model
    with one slot of any class, so its first word too opens the cycle
    after the block is fetched (DESIGN.md §5).  ``reach`` bounds how far
    past the latest completion time so far the block, and a wrong-path
    excursion after it, can touch the slot tables.
    """

    __slots__ = ("tmpl", "nodes", "size", "words", "has_branch",
                 "n_datapath", "branch_index", "assert_indices", "reach")

    def __init__(self, tmpl: BlockTemplate, issue: IssueModel,
                 max_latency: int):
        nodes = []
        words = 0
        mem_left = alu_left = 0
        branch_index = -1
        assert_indices = []
        for index, (cls, dest, srcs) in enumerate(tmpl.nodes):
            if len(srcs) > 3:
                raise ValueError(
                    f"{tmpl.label}: node {index} reads {len(srcs)} registers;"
                    " the dynamic engine supports at most three"
                )
            if cls == T_SYSCALL:
                # No issue slot: it issues at the fetch cursor.
                offset = words
            else:
                if issue.sequential:
                    words += 1
                elif cls in MEM_CLASSES:
                    if mem_left <= 0:
                        words += 1
                        mem_left = issue.mem_slots
                        alu_left = issue.alu_slots
                    mem_left -= 1
                else:
                    if alu_left <= 0:
                        words += 1
                        mem_left = issue.mem_slots
                        alu_left = issue.alu_slots
                    alu_left -= 1
                offset = words
            if cls == T_BRANCH:
                branch_index = index
            elif cls == T_ASSERT:
                assert_indices.append(index)
            s0, s1, s2 = srcs + (_NO_SRC,) * (3 - len(srcs))
            nodes.append((
                cls if cls in MEM_CLASSES or cls == T_SYSCALL else T_ALU,
                dest if dest >= 0 else _NO_DEST,
                s0, s1, s2, offset, index,
                load_site(tmpl.label, index) if cls == T_LOAD else None,
            ))
        self.tmpl = tmpl
        self.nodes: Tuple[tuple, ...] = tuple(nodes)
        self.size = len(nodes)
        self.words = words
        self.has_branch = tmpl.has_branch
        self.n_datapath = tmpl.n_datapath
        self.branch_index = branch_index
        self.assert_indices = frozenset(assert_indices)
        # Every source was ready by max(latest completion, fetch cycle);
        # from there the block's issue offsets add at most n + 1 cycles,
        # its chains at most n latencies, and its own reservations (one
        # per node plus one per value-squash replay) at most 2n waits;
        # a wrong-path probe stops one cycle past a squash.
        self.reach = (self.size + 2) * (max_latency + 3)


def _slide(table: bytearray, shift: int, span: int) -> bytearray:
    """``table`` without its first ``shift`` cycles, ``span`` long."""
    moved = table[shift:shift + span]
    moved.extend(bytes(span - len(moved)))
    return moved


class DynamicEngine:
    """One trace replay on one dynamic machine configuration."""

    def __init__(self, templates: Dict[str, BlockTemplate], trace: Trace,
                 config: MachineConfig, benchmark: str = "",
                 collector: Collector = NULL_COLLECTOR,
                 max_cycles: Optional[int] = None, self_check: bool = True):
        self.templates = templates
        self.trace = trace
        self.config = config
        self.benchmark = benchmark
        self.collector = collector
        issue = config.issue
        self.mem_limit = issue.mem_slots
        self.alu_limit = issue.alu_slots
        self.window = config.window_blocks
        self.hit_latency = config.memory_config.hit_cycles
        self.perfect = config.branch_mode is BranchMode.PERFECT
        #: data speculation: deliver confident load-value predictions to
        #: dependents early; verify on real completion (DESIGN.md §16).
        self.value_spec = config.value_predictor != "none"
        #: watchdog: raise SimulationHang past this simulated cycle.
        self.max_cycles = resolve_max_cycles(max_cycles)
        #: verify engine accounting against the functional trace.
        self.self_check = self_check

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        trace = self.trace
        memory = self.config.memory_config
        max_latency = max(memory.hit_cycles, memory.miss_cycles)
        plans = {
            label: IssuePlan(tmpl, self.config.issue, max_latency)
            for label, tmpl in self.templates.items()
        }
        plan_of: List[IssuePlan] = [plans[label] for label in trace.labels]
        block_ids = trace.block_ids
        outcomes = trace.outcomes
        fault_indices = trace.fault_indices
        addresses = trace.addresses

        memsys = MemorySystem(memory)
        load_latency = memsys.load_latency
        store_access = memsys.store_access
        predictor = make_predictor(self.config.predictor, self.config.static_hints)
        bp_predict = predictor.predict
        bp_update = predictor.update
        perfect = self.perfect
        mem_limit = self.mem_limit
        alu_limit = self.alu_limit
        window_size = self.window
        collector = self.collector
        tracing = collector.tracing
        attributing = collector.enabled
        hit_latency = self.hit_latency

        reg_ready = [0] * (NUM_REGS + 2)
        # Per memory word: when its last store completes and when its
        # last load started (0: never, which no ready time undercuts).
        memory_words = (max(addresses) >> 2) + 1 if addresses else 0
        store_time = [0] * memory_words
        load_time = [0] * memory_words

        # Function-unit slot tables: entry ``c - slot_base`` counts the
        # ALU (memory) slots taken in cycle ``c``.  Each block first
        # makes room up to max(horizon, fetch_cycle) + plan.reach, where
        # ``horizon`` is the latest completion time so far; when that
        # does not fit, the tables slide forward to the block's fetch
        # cycle, before which nothing is ever touched again (block fetch
        # cycles never decrease).
        alu_slots = bytearray(_MIN_SLOT_SPAN)
        mem_slots = bytearray(_MIN_SLOT_SPAN)
        slot_base = 0
        slot_end = _MIN_SLOT_SPAN
        horizon = 0

        # Value speculation (DESIGN.md §16).  A confident prediction for
        # a load delivers its value one cycle after issue; verification
        # happens at the load's real completion.  A *wrong* delivered
        # value poisons the destination register: `spec_avail[reg]` is
        # when the wrong value became available, `spec_verify[reg]` when
        # the squash resolves it, and any dependent that would have
        # consumed the poisoned value before its verify burns a wasted
        # function-unit slot and replays -- propagating the poison one
        # level down the dependent subtree.
        value_spec = self.value_spec
        vp = None
        vp_perfect = False
        load_values: List[int] = []
        val_cursor = 0
        spec_avail: Dict[int, int] = {}
        spec_verify: Dict[int, int] = {}
        vr_replays = 0
        replay_nodes: set = set()
        if value_spec:
            vp = make_value_predictor(self.config.value_predictor)
            vp_perfect = vp.perfect
            vp_predict = vp.predict
            vp_update = vp.update
            load_values = trace.load_values
            if not load_values and any(
                node[0] == T_LOAD for plan in plan_of for node in plan.nodes
            ):
                raise ValueError(
                    "value prediction needs a trace with recorded load"
                    " values; re-prepare the workload's artifacts"
                )

        fetch_cycle = 0
        window_retires: deque = deque()

        # Cycle attribution (ATTRIBUTION_BUCKETS).  `acct` is a
        # monotonic accounting cursor: every cycle in [1, acct] has been
        # charged to exactly one bucket.  Fetch-gap cycles are classified
        # by two absolute-cycle markers -- `recover_until` (set at squash
        # redirects) and `window_until` (set when the window gate holds
        # fetch) -- applied recovery-first before a block's first word.
        # `window_mem` mirrors `window_retires` and remembers what kind
        # of node a window entry's straggler was (0 = ALU, 1 = memory
        # op, 2 = value-squash replay), so a window-gate wait on a
        # straggling load reads as memory-wait and a wait on a replayed
        # dependent reads as value-recovery.
        acct = 0
        b_issued = b_stall = b_mem = b_recover = b_value = 0
        recover_until = 0
        window_until = 0
        window_wait_kind = 0
        window_mem: deque = deque()

        def _charge_words(first: int, last: int) -> None:
            """Charge the issue cycles ``first..last`` and the gap to them."""
            nonlocal acct, b_issued, b_stall, b_mem, b_recover, b_value
            if last <= acct:
                return  # already charged (fetch re-covered old cycles)
            if first <= acct:
                first = acct + 1
            lo = acct
            hi = first - 1
            if recover_until > lo:
                take = (recover_until if recover_until < hi else hi) - lo
                if take > 0:
                    b_recover += take
                    lo += take
            if window_until > lo:
                take = (window_until if window_until < hi else hi) - lo
                if take > 0:
                    if window_wait_kind == 2:
                        b_value += take
                    elif window_wait_kind == 1:
                        b_mem += take
                    else:
                        b_stall += take
                    lo += take
            if hi > lo:
                b_stall += hi - lo
            b_issued += last - first + 1
            acct = last

        retired_nodes = 0
        discarded_nodes = 0
        faults = 0
        prev_retire = 0
        max_cycle = 0
        addr_cursor = 0
        issue_words = 0
        issued_slots = 0
        window_block_cycles = 0
        window_samples = 0

        watchdog_limit = self.max_cycles
        chaos_engine = chaos_current()
        if chaos_engine is not None:
            chaos_rule = chaos_engine.act("engine.budget", ("budget",))
            if chaos_rule is not None:
                watchdog_limit = chaos_rule.budget

        for position in range(len(block_ids)):
            plan = plan_of[block_ids[position]]

            # Watchdog: one comparison per block bounds any runaway
            # scheduling loop without touching the per-node hot path.
            if fetch_cycle > watchdog_limit:
                raise SimulationHang(
                    self.benchmark, str(self.config), fetch_cycle,
                    watchdog_limit,
                )

            # Window gating: a new block may not begin issue until the
            # block `window_size` older has retired (or been squashed).
            if len(window_retires) >= window_size:
                freed = window_retires.popleft()
                freed_kind = window_mem.popleft() if attributing else 0
                if freed + 1 > fetch_cycle:
                    fetch_cycle = freed + 1
                    if attributing:
                        window_until = fetch_cycle
                        window_wait_kind = freed_kind

            occupancy = len(window_retires) + 1
            if occupancy > window_size:
                occupancy = window_size
            window_block_cycles += occupancy
            window_samples += 1
            if tracing:
                collector.event(
                    "window.occupancy", fetch_cycle, 0, 0,
                    {"blocks": occupancy},
                )

            room = (horizon if horizon > fetch_cycle else fetch_cycle) + plan.reach
            if room > slot_end:
                span = 2 * (room - fetch_cycle)
                if span < _MIN_SLOT_SPAN:
                    span = _MIN_SLOT_SPAN
                alu_slots = _slide(alu_slots, fetch_cycle - slot_base, span)
                mem_slots = _slide(mem_slots, fetch_cycle - slot_base, span)
                slot_base = fetch_cycle
                slot_end = slot_base + span

            fault_index = fault_indices[position]
            block_start = fetch_cycle
            block_complete = 0
            exec_times = [0] * plan.size
            if value_spec:
                replay_nodes.clear()

            # A node issued at ``block_start + offset`` has its operands
            # at ``after_issue + offset`` at the earliest.
            after_issue = block_start + 1
            for cls, dest, s0, s1, s2, offset, index, site in plan.nodes:
                # ---- operand readiness ------------------------------
                ready = after_issue + offset
                r = reg_ready[s0]
                if r > ready:
                    ready = r
                r = reg_ready[s1]
                if r > ready:
                    ready = r
                r = reg_ready[s2]
                if r > ready:
                    ready = r
                if tracing and cls != T_SYSCALL:
                    collector.event(
                        "issue.slot", block_start + offset, 0,
                        TID_MEM if cls == T_LOAD or cls == T_STORE else 0,
                    )

                # ---- schedule to a function unit --------------------
                if cls == T_ALU:
                    t = ready - slot_base
                    while alu_slots[t] >= alu_limit:
                        t += 1
                    alu_slots[t] += 1
                    t += slot_base
                    done = t + 1
                elif cls == T_LOAD:
                    addr = addresses[addr_cursor]
                    addr_cursor += 1
                    word = addr >> 2
                    st = store_time[word]
                    if st > ready:
                        ready = st
                    t = ready - slot_base
                    while mem_slots[t] >= mem_limit:
                        t += 1
                    mem_slots[t] += 1
                    t += slot_base
                    if t > load_time[word]:
                        load_time[word] = t
                    if tracing:
                        wb_before = memsys.wb_hits
                        lat = load_latency(addr)
                        collector.event(
                            "mem.load", t, lat, TID_MEM,
                            {"addr": addr, "miss": lat > hit_latency,
                             "wb_hit": memsys.wb_hits != wb_before},
                        )
                    else:
                        lat = load_latency(addr)
                    done = t + lat
                elif cls == T_STORE:
                    addr = addresses[addr_cursor]
                    addr_cursor += 1
                    word = addr >> 2
                    lt = load_time[word]
                    if lt > ready:
                        ready = lt
                    st = store_time[word]
                    if st > ready:
                        ready = st
                    t = ready - slot_base
                    while mem_slots[t] >= mem_limit:
                        t += 1
                    mem_slots[t] += 1
                    t += slot_base
                    store_access(addr)
                    if tracing:
                        collector.event(
                            "mem.store", t, 1, TID_MEM, {"addr": addr}
                        )
                    done = t + 1
                    store_time[word] = done
                else:  # T_SYSCALL: no function unit
                    t = ready
                    done = t + 1

                reg_ready[dest] = done
                exec_times[index] = t
                if done > block_complete:
                    block_complete = done

                # ---- value speculation ------------------------------
                if value_spec:
                    poisoned = False
                    if spec_verify and cls != T_STORE and cls != T_SYSCALL:
                        # Did this node start on a wrong speculative
                        # operand before its verify?  Then it burned a
                        # slot on the wrong value and replays at `t`
                        # (the verified-operand time already charged
                        # above); the wasted early result propagates
                        # the poison one level down.
                        spec_ready = after_issue + offset
                        uses_spec = False
                        for src in (s0, s1, s2):
                            sa = spec_avail.get(src)
                            if sa is None:
                                r = reg_ready[src]
                            else:
                                r = sa
                                uses_spec = True
                            if r > spec_ready:
                                spec_ready = r
                        if uses_spec and spec_ready < ready:
                            if cls == T_LOAD:
                                slots, limit = mem_slots, mem_limit
                            else:
                                slots, limit = alu_slots, alu_limit
                            w = spec_ready - slot_base
                            stop = ready - slot_base
                            while w < stop and slots[w] >= limit:
                                w += 1
                            if w < stop:
                                slots[w] += 1
                                w += slot_base
                                vr_replays += 1
                                discarded_nodes += 1
                                replay_nodes.add(index)
                                poisoned = True
                                if dest != _NO_DEST:
                                    spec_avail[dest] = w + 1
                                    spec_verify[dest] = done
                                if tracing:
                                    collector.event(
                                        "value.replay", w, 1, TID_MEM
                                        if cls == T_LOAD else 0,
                                        {"block": plan.tmpl.label,
                                         "node": index},
                                    )
                    if cls == T_LOAD:
                        actual = load_values[val_cursor]
                        val_cursor += 1
                        if vp_perfect:
                            vp.lookups += 1
                            predicted: Optional[int] = actual
                        else:
                            predicted = vp_predict(site)
                        if predicted is not None:
                            # The predicted value is in hand one cycle
                            # after issue -- always strictly before the
                            # real completion `done` (t >= issue+1 and
                            # lat >= 1, so done >= issue+2).
                            spec_done = after_issue + offset
                            if predicted == actual:
                                reg_ready[dest] = spec_done
                                poisoned = False
                            else:
                                spec_avail[dest] = spec_done
                                spec_verify[dest] = done
                                poisoned = True
                            if tracing:
                                collector.event(
                                    "value.verify", done, 0, TID_MEM,
                                    {"block": plan.tmpl.label,
                                     "node": index,
                                     "confirmed": predicted == actual},
                                )
                        if vp_perfect:
                            vp.update("", actual, actual)
                        else:
                            vp_update(site, actual, predicted)
                    # A clean (non-speculative) write supersedes any
                    # stale poison on the destination register.
                    if not poisoned and spec_avail:
                        if spec_avail.pop(dest, None) is not None:
                            del spec_verify[dest]

            # ---- end of block: issue accounting ---------------------
            words = plan.words
            fetch_cycle = block_start + words
            issue_words += words
            issued_slots += plan.n_datapath
            if attributing and words:
                _charge_words(block_start + 1, block_start + words)
            if block_complete > horizon:
                horizon = block_complete
            tmpl = plan.tmpl

            # ---- faults, branches, retirement -----------------------
            if fault_index >= 0 and fault_index in plan.assert_indices:
                # The whole block is discarded.  Nodes that reached a
                # function unit by the fault's resolution count as
                # executed-but-not-retired work.
                fault_time = exec_times[fault_index]
                faults += 1
                block_discarded = 0
                nodes = plan.nodes
                for index, t in enumerate(exec_times):
                    if t <= fault_time and nodes[index][0] != T_SYSCALL:
                        block_discarded += 1
                discarded_nodes += block_discarded
                if tracing:
                    collector.event(
                        "block.fault", fault_time, 0, TID_CONTROL,
                        {"block": tmpl.label, "discarded": block_discarded},
                    )
                if not perfect:
                    discarded_nodes += self._wrong_path_issue(
                        self._predicted_successor(plan, predictor),
                        fetch_cycle + 1,
                        fault_time + 1,
                        window_retires,
                        reg_ready,
                        predictor,
                        plans,
                        alu_slots,
                        mem_slots,
                        slot_base,
                    )
                fetch_cycle = fault_time + REDIRECT_PENALTY
                window_retires.append(fault_time)
                if attributing:
                    window_mem.append(0)  # the assert is an ALU op
                    if fetch_cycle > recover_until:
                        recover_until = fetch_cycle
                if fault_time > max_cycle:
                    max_cycle = fault_time
                continue

            if plan.has_branch:
                branch_exec = exec_times[plan.branch_index]
                actual_taken = outcomes[position] == TAKEN
                if perfect:
                    predicted = actual_taken
                else:
                    predicted = bp_predict(tmpl.label, tmpl.static_hint)
                    bp_update(tmpl.label, actual_taken, predicted)
                if tracing:
                    collector.event(
                        "branch.resolve", branch_exec, 0, TID_CONTROL,
                        {"block": tmpl.label, "taken": actual_taken,
                         "mispredict": predicted != actual_taken},
                    )
                if predicted != actual_taken:
                    wrong_target = (
                        tmpl.branch_taken if predicted else tmpl.branch_alt
                    )
                    discarded_nodes += self._wrong_path_issue(
                        wrong_target,
                        fetch_cycle + 1,
                        branch_exec + 1,
                        window_retires,
                        reg_ready,
                        predictor,
                        plans,
                        alu_slots,
                        mem_slots,
                        slot_base,
                    )
                    fetch_cycle = branch_exec + REDIRECT_PENALTY
                    if attributing and fetch_cycle > recover_until:
                        recover_until = fetch_cycle

            retire = block_complete if block_complete > prev_retire else prev_retire
            prev_retire = retire
            # The window slot is reclaimed once every node of the block has
            # been *scheduled* (dispatched to a function unit) -- the node
            # table entries, not the retirement commit, are what bounds
            # fetch in an HPS-style machine.  Retirement stays in order for
            # the statistics above.
            last_scheduled = max(exec_times) if exec_times else fetch_cycle
            window_retires.append(last_scheduled)
            if attributing:
                if exec_times:
                    straggler = max(
                        range(len(exec_times)), key=exec_times.__getitem__
                    )
                    scls = plan.nodes[straggler][0]
                    if value_spec and straggler in replay_nodes:
                        window_mem.append(2)
                    elif scls == T_LOAD or scls == T_STORE:
                        window_mem.append(1)
                    else:
                        window_mem.append(0)
                else:
                    window_mem.append(0)
            retired_nodes += plan.n_datapath
            if retire > max_cycle:
                max_cycle = retire
            if tracing:
                collector.event(
                    "block.retire", block_start,
                    max(block_complete - block_start, 1), TID_CONTROL,
                    {"block": tmpl.label, "nodes": tmpl.n_datapath},
                )

        # Cross-engine invariant: every trace block either retires or
        # faults, so the retired datapath-node count must match the
        # functional run's.  A divergence means the replay is wrong.
        if self.self_check and retired_nodes != trace.retired_nodes:
            raise EngineDivergence(
                self.benchmark, str(self.config), retired_nodes,
                trace.retired_nodes,
            )

        cache = memsys.cache
        total_cycles = max(max_cycle, 1)
        extra: Dict[str, float] = {}
        if attributing:
            buckets = {
                "issued_full": b_issued,
                "issue_stall": b_stall,
                "memory_wait": b_mem,
                "mispredict_recovery": b_recover,
                "value_recovery": b_value,
                "drain_idle": 0,
            }
            finalize_attribution(buckets, total_cycles, acct)
            for name, value in buckets.items():
                collector.count("cycles.dynamic." + name, value)
                extra["attr." + name] = float(value)
            collector.count("branch.lookups", predictor.lookups)
            collector.count("branch.mispredicts", predictor.mispredicts)
            if value_spec:
                collector.count("value.predictions", vp.predictions)
                collector.count("value.confirmed", vp.confirmed)
                collector.count("value.squashed", vp.squashed)
                collector.count("value.replays", vr_replays)
        return SimResult(
            benchmark=self.benchmark,
            config=self.config,
            cycles=total_cycles,
            retired_nodes=retired_nodes,
            discarded_nodes=discarded_nodes,
            dynamic_blocks=len(block_ids),
            mispredicts=predictor.mispredicts,
            branch_lookups=predictor.lookups,
            faults=faults,
            loads=memsys.load_count,
            stores=memsys.store_count,
            cache_accesses=cache.accesses if cache else 0,
            cache_misses=cache.misses if cache else 0,
            write_buffer_hits=memsys.wb_hits,
            issue_words=issue_words,
            issued_slots=issued_slots,
            window_block_cycles=window_block_cycles,
            window_samples=window_samples,
            value_predictions=vp.predictions if vp is not None else 0,
            value_confirmed=vp.confirmed if vp is not None else 0,
            value_squashed=vp.squashed if vp is not None else 0,
            value_replays=vr_replays,
            extra=extra,
        )

    # ------------------------------------------------------------------
    def _predicted_successor(self, plan: IssuePlan,
                             predictor: BranchPredictor) -> Optional[str]:
        """Where fetch would go after ``plan``'s block on the predicted path."""
        tmpl = plan.tmpl
        if plan.has_branch:
            taken = predictor.peek(tmpl.label, tmpl.static_hint)
            return tmpl.branch_taken if taken else tmpl.branch_alt
        if tmpl.term_kind in (NodeKind.JUMP, NodeKind.CALL):
            return tmpl.control_target
        if tmpl.term_kind is NodeKind.SYSCALL:
            return tmpl.control_target  # None for EXIT
        return None  # RET: the return stack redirects; treat as fetch stall

    def _wrong_path_issue(self, start_label: Optional[str], start_cycle: int,
                          until_cycle: int, window_retires: deque,
                          reg_ready: List[int], predictor: BranchPredictor,
                          plans: Dict[str, IssuePlan],
                          alu_slots: bytearray, mem_slots: bytearray,
                          slot_base: int) -> int:
        """Issue and schedule wrong-path work; returns nodes executed.

        Wrong-path nodes consume issue bandwidth and function-unit slots
        until the squash at ``until_cycle``; their register results live
        in a copy of ``reg_ready`` so the architectural ready times are
        untouched.
        """
        if start_label is None or start_cycle > until_cycle:
            return 0
        mem_limit = self.mem_limit
        alu_limit = self.alu_limit
        window_size = self.window
        hit_latency = self.hit_latency

        # The real window does not change during the excursion, so its
        # unretired blocks are counted by bisecting one sorted copy.
        retires = sorted(window_retires)
        n_retires = len(retires)
        ready_of = reg_ready[:]
        executed = 0
        cycle = start_cycle
        stop = until_cycle - slot_base
        label = start_label
        blocks_fetched = 0

        while label is not None and cycle <= until_cycle:
            blocks_fetched += 1
            if blocks_fetched > _WRONG_PATH_BLOCK_LIMIT:
                break
            # Window room: real unretired blocks plus wrong-path blocks.
            active_real = n_retires - bisect_right(retires, cycle) + 1
            if active_real + blocks_fetched - 1 >= window_size:
                break
            plan = plans.get(label)
            if plan is None:
                break
            for cls, dest, s0, s1, s2, offset, _index, _site in plan.nodes:
                if cls == T_SYSCALL:
                    continue
                issue_cycle = cycle + offset
                if issue_cycle > until_cycle:
                    return executed
                ready = issue_cycle + 1
                r = ready_of[s0]
                if r > ready:
                    ready = r
                r = ready_of[s1]
                if r > ready:
                    ready = r
                r = ready_of[s2]
                if r > ready:
                    ready = r
                if cls == T_ALU:
                    slots, limit, latency = alu_slots, alu_limit, 1
                else:
                    slots, limit = mem_slots, mem_limit
                    latency = hit_latency if cls == T_LOAD else 1
                # Only slots up to the squash are probed: a node that
                # cannot start by then executes nothing, and neither does
                # any node waiting on it.
                t = ready - slot_base
                while t <= stop and slots[t] >= limit:
                    t += 1
                if t <= stop:
                    slots[t] += 1
                    executed += 1
                ready_of[dest] = t + slot_base + latency
            cycle += plan.words
            label = self._predicted_successor(plan, predictor)
        return executed
