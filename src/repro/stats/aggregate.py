"""Aggregation helpers over collections of simulation results.

The figure harnesses need only means, but downstream analysis (and the
ablation benches) want speedup matrices and per-benchmark summaries;
these helpers keep that logic out of the harness plumbing.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..telemetry.collector import Collector
from .results import SimResult

#: Version tag of the ``telemetry.json`` document layout.
TELEMETRY_SCHEMA = "repro.telemetry/2"

#: Counter-name prefix under which the engines publish cycle
#: attribution (``cycles.<engine>.<bucket>``; see
#: ``repro.telemetry.collector.ATTRIBUTION_BUCKETS``).
_ATTRIBUTION_PREFIX = "cycles."


def group_by(results: Iterable[SimResult],
             key: Callable[[SimResult], str]) -> Dict[str, List[SimResult]]:
    """Bucket results by an arbitrary key function."""
    buckets: Dict[str, List[SimResult]] = {}
    for result in results:
        buckets.setdefault(key(result), []).append(result)
    return buckets


def geometric_mean_ipc(results: Sequence[SimResult]) -> float:
    """Geometric mean of retired-nodes-per-cycle over results."""
    if not results:
        return 0.0
    total = sum(math.log(max(r.retired_per_cycle, 1e-12)) for r in results)
    return math.exp(total / len(results))


def mean_redundancy(results: Sequence[SimResult]) -> float:
    """Arithmetic mean redundancy over results."""
    if not results:
        return 0.0
    return sum(r.redundancy for r in results) / len(results)


def speedup_matrix(results: Iterable[SimResult],
                   baseline_key: str) -> Dict[str, Dict[str, float]]:
    """Per-benchmark speedups of every discipline over a baseline.

    Args:
        results: results spanning benchmarks and discipline lines (one
            result per (benchmark, discipline) pair).
        baseline_key: the ``discipline_key()`` used as the denominator.

    Returns:
        benchmark -> {discipline_key -> speedup}.  Raises ``KeyError``
        when a benchmark lacks the baseline.
    """
    by_benchmark = group_by(results, lambda r: r.benchmark)
    matrix: Dict[str, Dict[str, float]] = {}
    for benchmark, bucket in by_benchmark.items():
        baseline: Optional[SimResult] = None
        for result in bucket:
            if result.config.discipline_key() == baseline_key:
                baseline = result
                break
        if baseline is None:
            raise KeyError(
                f"benchmark {benchmark!r} has no {baseline_key!r} baseline"
            )
        row = {}
        for result in bucket:
            row[result.config.discipline_key()] = (
                baseline.cycles / result.cycles if result.cycles else 0.0
            )
        matrix[benchmark] = row
    return matrix


#: What :func:`summarize` reports for an empty batch: every key
#: present, ratios at their no-information identity (a consumer indexing
#: ``summary["geomean_ipc"]`` must never KeyError on an empty grid, and
#: nothing here is a NaN).
EMPTY_SUMMARY: Dict[str, float] = {
    "results": 0.0,
    "geomean_ipc": 0.0,
    "mean_redundancy": 0.0,
    "aggregate_ipc": 0.0,
    "branch_accuracy": 1.0,
    "value_accuracy": 1.0,
    "cache_hit_rate": 1.0,
    "discard_fraction": 0.0,
}


def summarize(results: Sequence[SimResult]) -> Dict[str, float]:
    """Aggregate statistics over a batch of results.

    An empty batch returns :data:`EMPTY_SUMMARY` (same keys, defined
    values) rather than an empty dict, so downstream indexing is safe
    on fully-failed or filtered-out grids.
    """
    if not results:
        return dict(EMPTY_SUMMARY)
    total_cycles = sum(r.cycles for r in results)
    total_retired = sum(r.retired_nodes for r in results)
    total_executed = sum(r.executed_nodes for r in results)
    total_lookups = sum(r.branch_lookups for r in results)
    total_mispredicts = sum(r.mispredicts for r in results)
    total_cache = sum(r.cache_accesses for r in results)
    total_misses = sum(r.cache_misses for r in results)
    total_value = sum(r.value_predictions for r in results)
    total_confirmed = sum(r.value_confirmed for r in results)
    return {
        "results": float(len(results)),
        "geomean_ipc": geometric_mean_ipc(results),
        "mean_redundancy": mean_redundancy(results),
        "aggregate_ipc": total_retired / total_cycles if total_cycles else 0.0,
        "branch_accuracy": (
            1.0 - total_mispredicts / total_lookups if total_lookups else 1.0
        ),
        "value_accuracy": (
            total_confirmed / total_value if total_value else 1.0
        ),
        "cache_hit_rate": (
            1.0 - total_misses / total_cache if total_cache else 1.0
        ),
        "discard_fraction": (
            (total_executed - total_retired) / total_executed
            if total_executed else 0.0
        ),
    }


def histogram_stats(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics of one recorded distribution."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    n = len(ordered)
    return {
        "count": n,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / n,
        "p50": ordered[n // 2],
        "p90": ordered[min(int(n * 0.9), n - 1)],
    }


def attribution_breakdown(counters: Dict[str, int],
                          ) -> Dict[str, Dict[str, Any]]:
    """Cycle attribution per engine from ``cycles.*`` counters.

    Returns ``{engine: {buckets: {bucket: cycles}, total_cycles,
    shares: {bucket: fraction}}}`` -- empty when no engine published
    attribution (collector disabled, or only cache hits served).
    """
    engines: Dict[str, Dict[str, int]] = {}
    for name, value in counters.items():
        if not name.startswith(_ATTRIBUTION_PREFIX):
            continue
        _, engine, bucket = name.split(".", 2)
        engines.setdefault(engine, {})[bucket] = value
    breakdown: Dict[str, Dict[str, Any]] = {}
    for engine, buckets in sorted(engines.items()):
        total = sum(buckets.values())
        breakdown[engine] = {
            "buckets": dict(sorted(buckets.items())),
            "total_cycles": total,
            "shares": {
                bucket: round(value / total, 4) if total else 0.0
                for bucket, value in sorted(buckets.items())
            },
        }
    return breakdown


def accuracy_summary(counters: Dict[str, int]) -> Dict[str, float]:
    """Prediction-accuracy ratios derived from the engines' counters.

    ``branch.accuracy`` is correct lookups over ``branch.lookups``;
    ``value.accuracy`` is ``value.confirmed`` over delivered
    ``value.predictions``.  Each key is present only when its
    denominator counter was published, so a grid without value
    speculation reports no ``value.accuracy`` rather than a fake 1.0.
    """
    accuracy: Dict[str, float] = {}
    lookups = counters.get("branch.lookups", 0)
    if lookups:
        accuracy["branch.accuracy"] = round(
            1.0 - counters.get("branch.mispredicts", 0) / lookups, 6
        )
    predictions = counters.get("value.predictions", 0)
    if predictions:
        accuracy["value.accuracy"] = round(
            counters.get("value.confirmed", 0) / predictions, 6
        )
    return accuracy


def span_totals(spans: Sequence[Dict[str, Any]],
                ) -> Dict[str, Dict[str, Any]]:
    """Fold raw span records into ``{name: {total_s, count}}``."""
    totals: Dict[str, List[float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0.0, 0])
        entry[0] += span["dur_s"]
        entry[1] += 1
    return {
        name: {"total_s": round(entry[0], 6), "count": int(entry[1])}
        for name, entry in sorted(totals.items())
    }


def telemetry_report(collector: Collector,
                     context: Optional[Dict[str, Any]] = None,
                     validation: Optional[Dict[str, Any]] = None,
                     ) -> Dict[str, Any]:
    """The machine-readable ``telemetry.json`` document for one sweep.

    Schema (``TELEMETRY_SCHEMA``): ``counters`` maps dotted counter
    names to totals (e.g. ``sweep.cache.hit``); ``timers`` maps timer
    names to ``{total_s, count}``; ``histograms`` maps distribution
    names to :func:`histogram_stats` summaries (e.g.
    ``sweep.point.wall_s``); ``points`` lists one record per simulated
    point with its per-point timings.  Points that failed under
    fault-tolerant execution carry ``failed: true`` and an ``error``
    kind, and are additionally surfaced in the ``failures`` list so a
    partial grid is visible at the top level.  ``phases`` folds the
    named phase spans (``phase.prepare`` / ``phase.simulate`` /
    ``phase.validate`` / ``phase.merge``) into per-phase totals;
    ``attribution`` is the per-engine cycle-attribution breakdown of
    :func:`attribution_breakdown` (empty unless fresh simulations ran
    with the collector enabled); ``accuracy`` is
    :func:`accuracy_summary` over the same counters
    (``branch.accuracy`` / ``value.accuracy``).  ``context`` (when
    given) records run-level facts such as the execution backend and worker
    count; a parallel sweep's document is the parent-side merge of every
    worker's collector snapshot, so the schema is identical across
    backends.  ``validation`` (when given) is a
    :meth:`repro.validate.ValidationReport.to_dict` document: the
    oracle's typed findings ride in the same file as the failure list.
    """
    points = list(collector.points)
    document: Dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA,
        "counters": dict(sorted(collector.counters.items())),
        "timers": {
            name: {"total_s": total, "count": count}
            for name, (total, count) in sorted(collector.timers.items())
        },
        "histograms": {
            name: histogram_stats(values)
            for name, values in sorted(collector.histograms.items())
        },
        "points": points,
        "failures": [point for point in points if point.get("failed")],
        "phases": span_totals(collector.spans),
        "attribution": attribution_breakdown(collector.counters),
        "accuracy": accuracy_summary(collector.counters),
    }
    if context:
        document["context"] = dict(context)
    if validation is not None:
        document["validation"] = validation
    return document


def format_summary(summary: Dict[str, float]) -> str:
    """One aligned line per statistic."""
    return "\n".join(
        f"{name:18s} {value:10.4f}" for name, value in summary.items()
    )
