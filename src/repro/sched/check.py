"""A certified makespan lower bound and a checker for list schedules.

:func:`lower_bound` is the larger of two bounds no schedule of a block
can beat: the latency-weighted critical path over
:func:`build_dependences`, and the slot-capacity bound of the issue
model.  :func:`check_schedule` asserts that a :class:`ScheduledBlock`
is a legal, greedy-complete packing of its block.
"""

from __future__ import annotations

from typing import List

from ..isa.node import Node
from ..isa.ops import NodeKind
from ..machine.config import IssueModel, MemoryConfig
from ..program.block import BasicBlock
from .list_scheduler import ScheduledBlock, build_dependences

#: Slot classes a node draws from; syscalls take no datapath slot.
_MEM, _ALU, _FREE = "mem", "alu", "free"


def _slot_class(node: Node) -> str:
    if node.kind is NodeKind.SYSCALL:
        return _FREE
    return _MEM if node.is_memory else _ALU


def lower_bound(nodes: List[Node], issue: IssueModel,
                memory: MemoryConfig) -> int:
    """Fewest words any legal schedule of ``nodes`` can take."""
    if not nodes:
        return 0
    # Dependence edges point backward in program order, so index order
    # is topological: est[i] is the earliest cycle node i can issue.
    est = [0] * len(nodes)
    for index, preds in enumerate(build_dependences(nodes, memory)):
        est[index] = max((est[p] + lat for p, lat in preds), default=0)
    if issue.sequential:
        # Every node, syscalls included, takes the single slot.
        resource = len(nodes)
    else:
        classes = [_slot_class(node) for node in nodes]
        resource = max(-(-classes.count(_MEM) // issue.mem_slots),
                       -(-classes.count(_ALU) // issue.alu_slots), 1)
    return max(max(est) + 1, resource)


def check_schedule(block: BasicBlock, scheduled: ScheduledBlock,
                   issue: IssueModel, memory: MemoryConfig) -> None:
    """Raise AssertionError unless ``scheduled`` is a greedy-complete
    legal schedule of ``block``.

    Five properties: every node issues exactly once; every dependence
    edge meets its latency; no word exceeds the issue model's slots; no
    word leaves out a node that was ready at its cycle and fits one of
    its free slots; and there are at least :func:`lower_bound` words.
    """
    nodes = list(block.nodes())
    label = scheduled.label
    cycle_of = [-1] * len(nodes)
    for cycle, word in enumerate(scheduled.words):
        for index in word:
            if cycle_of[index] != -1:
                raise AssertionError(f"{label}: node {index} issued twice")
            cycle_of[index] = cycle
    missing = [i for i, cycle in enumerate(cycle_of) if cycle < 0]
    if missing:
        raise AssertionError(f"{label}: nodes {missing} never issue")

    preds = build_dependences(nodes, memory)
    ready_at = [0] * len(nodes)
    for index, plist in enumerate(preds):
        for pred, latency in plist:
            if cycle_of[index] < cycle_of[pred] + latency:
                raise AssertionError(
                    f"{label}: node {index} at cycle {cycle_of[index]}"
                    f" breaks its {latency}-cycle edge from node {pred}"
                    f" at cycle {cycle_of[pred]}"
                )
            ready_at[index] = max(ready_at[index], cycle_of[pred] + latency)

    # Per word, the classes that still have a free slot.
    classes = [_slot_class(node) for node in nodes]
    total = 1 if issue.sequential else len(nodes)
    open_classes = []
    for cycle, word in enumerate(scheduled.words):
        mem_free = issue.mem_slots - sum(classes[i] == _MEM for i in word)
        alu_free = issue.alu_slots - sum(classes[i] == _ALU for i in word)
        total_free = total - len(word)
        if min(mem_free, alu_free, total_free) < 0:
            raise AssertionError(
                f"{label}: word {cycle} {word} exceeds issue model {issue}"
            )
        fits = set()
        if total_free:
            fits.add(_FREE)
            if mem_free:
                fits.add(_MEM)
            if alu_free:
                fits.add(_ALU)
        open_classes.append(fits)

    for index, cls in enumerate(classes):
        for cycle in range(ready_at[index], cycle_of[index]):
            if cls in open_classes[cycle]:
                raise AssertionError(
                    f"{label}: node {index} was ready at cycle {cycle}"
                    f" and fits word {scheduled.words[cycle]}, but issues"
                    f" at cycle {cycle_of[index]}"
                )

    bound = lower_bound(nodes, issue, memory)
    if len(scheduled.words) < bound:
        raise AssertionError(
            f"{label}: {len(scheduled.words)} words beat the lower bound"
            f" {bound}"
        )
