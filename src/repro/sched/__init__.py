"""Static scheduling: list scheduler, shared dependences, latency model,
and the schedule checker with its certified lower bound."""

from .check import check_schedule, lower_bound
from .latency import BASE_LATENCIES, latency_table, node_latency
from .list_scheduler import (
    ScheduledBlock,
    build_dependences,
    may_alias,
    schedule_block,
    schedule_program,
)

__all__ = [
    "BASE_LATENCIES",
    "ScheduledBlock",
    "build_dependences",
    "check_schedule",
    "latency_table",
    "lower_bound",
    "may_alias",
    "node_latency",
    "schedule_block",
    "schedule_program",
]
