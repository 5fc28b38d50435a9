"""Scheduling latencies assumed by the static compiler.

The statically scheduled machine exposes its pipeline to the compiler:
ALU results are available the next cycle and loads are scheduled assuming
the cache-hit latency of the target memory configuration (a miss stalls
the pipeline at the consumer, which the run-time engine models).

This module is the *single source of truth* for those assumptions: the
dependence relation :func:`repro.sched.build_dependences` weights its
flow edges with :func:`node_latency`, so the list scheduler, the
schedule checker and its lower bound all agree on a node's latency.
"""

from __future__ import annotations

from typing import Dict

from ..isa.ops import NodeKind
from ..machine.config import MemoryConfig

#: Baseline per-kind latencies in cycles.  ``None`` marks the one kind
#: whose latency is a property of the memory configuration rather than
#: the pipeline: loads are scheduled assuming the cache-hit latency.
BASE_LATENCIES: Dict[NodeKind, int] = {
    NodeKind.ALU: 1,
    NodeKind.LOAD: None,  # memory.hit_cycles
    NodeKind.STORE: 1,
    NodeKind.BRANCH: 1,
    NodeKind.JUMP: 1,
    NodeKind.CALL: 1,
    NodeKind.RET: 1,
    NodeKind.ASSERT: 1,
    NodeKind.SYSCALL: 1,
}


def latency_table(memory: MemoryConfig) -> Dict[NodeKind, int]:
    """The complete kind -> latency table for one memory configuration."""
    table = dict(BASE_LATENCIES)
    table[NodeKind.LOAD] = memory.hit_cycles
    return table


def node_latency(kind: NodeKind, memory: MemoryConfig) -> int:
    """Latency in cycles the compiler assumes for a node of ``kind``."""
    if kind is NodeKind.LOAD:
        return memory.hit_cycles
    base = BASE_LATENCIES.get(kind)
    return 1 if base is None else base
