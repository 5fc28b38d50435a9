"""List scheduling of basic blocks into multi-node words.

This is the back half of the translating loader for statically scheduled
machines: each (possibly enlarged) basic block is packed into a sequence
of instruction words shaped by the issue model, honouring

* flow dependences (with the producer's assumed latency),
* anti and output register dependences (no renaming in hardware),
* conservative memory ordering: two memory nodes are ordered unless the
  compiler can prove they cannot alias -- same base register (and same
  definition of it) with disjoint offset ranges, or bases known to point
  into distinct segments (sp: stack, gp: globals),
* the terminator issuing no earlier than any other node (it ends the
  block).

The dynamic engines ignore word packing entirely; this module is only
consulted by the static engine.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from ..isa.node import Node
from ..isa.ops import NodeKind
from ..isa.registers import GP, SP
from ..machine.config import IssueModel, MemoryConfig
from ..program.block import BasicBlock
from ..program.program import Program
from .latency import node_latency

#: Register bases guaranteed to address disjoint memory segments.
_SEGMENT_BASES = frozenset({SP, GP})


class ScheduledBlock:
    """A block packed into issue words.

    ``words`` holds node indices (into ``list(block.nodes())``) grouped by
    issue cycle; ``mem_rank[i]`` gives, for memory node ``i``, its rank in
    original body order (used to look up trace-recorded addresses).
    """

    __slots__ = ("label", "words", "mem_rank", "node_count")

    def __init__(self, label: str, words: List[List[int]],
                 mem_rank: Dict[int, int], node_count: int):
        self.label = label
        self.words = words
        self.mem_rank = mem_rank
        self.node_count = node_count


def may_alias(a: Node, a_version: int, b: Node, b_version: int) -> bool:
    """Conservative static alias test between two memory nodes.

    ``a_version`` / ``b_version`` count redefinitions of the node's base
    register at the point the node executes: offsets are only comparable
    while both accesses see the *same* definition of a shared base.
    """
    if a.base in _SEGMENT_BASES and b.base in _SEGMENT_BASES and a.base != b.base:
        return False
    if a.base == b.base and a_version == b_version:
        a_end = a.offset + a.width.value
        b_end = b.offset + b.width.value
        return not (a_end <= b.offset or b_end <= a.offset)
    return True


def build_dependences(nodes: Sequence[Node], memory: MemoryConfig):
    """Edges ``preds[i] = [(j, latency), ...]`` meaning i waits on j.

    This relation -- flow/anti/output register dependences, the
    conservative memory ordering built on :func:`may_alias`, and the
    terminator-last edges -- is the constraint set the list scheduler
    below packs, and the one :mod:`repro.sched.check` verifies its
    schedules and derives their lower bound from.  Anti dependences and
    terminator edges have latency 0: such a successor may share the
    word that issues its last predecessor.
    """
    preds: List[List[Tuple[int, int]]] = [[] for _ in nodes]
    last_writer: Dict[int, int] = {}
    writer_version: Dict[int, int] = {}
    readers: Dict[int, List[int]] = {}
    mem_history: List[Tuple[int, Node, int]] = []  # (index, node, base_version)

    for index, node in enumerate(nodes):
        lat_of = lambda j: node_latency(nodes[j].kind, memory)
        for src in node.source_regs():
            writer = last_writer.get(src)
            if writer is not None:
                preds[index].append((writer, lat_of(writer)))
            readers.setdefault(src, []).append(index)

        if node.is_memory:
            version = writer_version.get(node.base, 0)
            is_store = node.kind is NodeKind.STORE
            for other_index, other, other_version in mem_history:
                other_store = other.kind is NodeKind.STORE
                if not is_store and not other_store:
                    continue  # load/load need no ordering
                if may_alias(node, version, other, other_version):
                    # Store results land in the write buffer one cycle
                    # after execution; a dependent load sees them then.
                    latency = 1 if other_store else 0
                    preds[index].append((other_index, latency))
            mem_history.append((index, node, version))

        dest = node.dest_reg()
        if dest is not None:
            prior = last_writer.get(dest)
            if prior is not None:
                preds[index].append((prior, 1))  # output dependence
            for reader in readers.get(dest, ()):
                if reader != index:
                    preds[index].append((reader, 0))  # anti dependence
            last_writer[dest] = index
            writer_version[dest] = writer_version.get(dest, 0) + 1
            readers[dest] = []

    # The terminator issues no earlier than any other node.
    last = len(nodes) - 1
    for index in range(last):
        preds[last].append((index, 0))
    return preds


def schedule_block(block: BasicBlock, issue: IssueModel,
                   memory: MemoryConfig) -> ScheduledBlock:
    """Pack one block into issue words by critical-path list scheduling."""
    nodes = list(block.nodes())
    count = len(nodes)
    preds = build_dependences(nodes, memory)
    succs: List[List[Tuple[int, int]]] = [[] for _ in nodes]
    indegree = [0] * count
    for index, plist in enumerate(preds):
        indegree[index] = len(plist)
        for pred, latency in plist:
            succs[pred].append((index, latency))

    # Priority: longest latency-weighted path to any sink.
    height = [0] * count
    for index in range(count - 1, -1, -1):
        best = 0
        for succ, latency in succs[index]:
            candidate = height[succ] + max(latency, 1)
            if candidate > best:
                best = candidate
        height[index] = best

    earliest = [0] * count
    remaining = count
    ready: List[int] = [i for i in range(count) if indegree[i] == 0]
    words: List[List[int]] = []
    cycle = 0

    while remaining:
        # A heap of the nodes issuable this cycle, best first.  A node
        # released with latency 0 joins the word it was released in.
        available = [(-height[i], i) for i in ready if earliest[i] <= cycle]
        heapq.heapify(available)
        mem_left = issue.mem_slots
        alu_left = issue.alu_slots
        total_left = 1 if issue.sequential else count
        word: List[int] = []
        while available and total_left > 0:
            index = heapq.heappop(available)[1]
            node = nodes[index]
            if node.kind is NodeKind.SYSCALL:
                pass  # occupies no datapath slot
            elif node.is_memory:
                if mem_left <= 0:
                    continue
                mem_left -= 1
            else:
                if alu_left <= 0:
                    continue
                alu_left -= 1
            total_left -= 1
            word.append(index)
            ready.remove(index)
            remaining -= 1
            for succ, latency in succs[index]:
                start = cycle + latency
                if start > earliest[succ]:
                    earliest[succ] = start
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
                    if earliest[succ] <= cycle:
                        heapq.heappush(available, (-height[succ], succ))
        words.append(word)
        cycle += 1

    mem_rank: Dict[int, int] = {}
    rank = 0
    for index, node in enumerate(nodes):
        if node.is_memory:
            mem_rank[index] = rank
            rank += 1
    return ScheduledBlock(block.label, words, mem_rank, count)


def schedule_program(program: Program, issue: IssueModel,
                     memory: MemoryConfig) -> Dict[str, ScheduledBlock]:
    """Schedule every block of a program for one machine configuration."""
    return {
        block.label: schedule_block(block, issue, memory) for block in program
    }
