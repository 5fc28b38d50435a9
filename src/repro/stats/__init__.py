"""Statistics containers and aggregation helpers."""

from .aggregate import (
    EMPTY_SUMMARY,
    TELEMETRY_SCHEMA,
    format_summary,
    geometric_mean_ipc,
    group_by,
    histogram_stats,
    mean_redundancy,
    speedup_matrix,
    summarize,
    telemetry_report,
)
from .results import SimResult

__all__ = [
    "EMPTY_SUMMARY",
    "SimResult",
    "TELEMETRY_SCHEMA",
    "format_summary",
    "geometric_mean_ipc",
    "group_by",
    "histogram_stats",
    "mean_redundancy",
    "speedup_matrix",
    "summarize",
    "telemetry_report",
]
