"""Golden counters of the dynamic engine on grep.

Every ``SimResult`` counter of a handful of grep points, chosen so that
together they take every path through ``repro.machine.dynamic``:
sequential and word issue (1M+1A, 4M+12A), windows 1/4/256, the single,
enlarged and perfect branch lines, perfect and cached memories (A, G),
each value predictor (last, stride, context, perfect) and the promoted
branch predictors (gshare, perceptron).  One further run pins the cycle
attribution buckets (``MetricsCollector``) and one the per-name trace
events (``TraceCollector``).

The numbers were recorded from the engine before its hot loop was
restructured; a pure speed change to the engine must leave every one of
them unchanged.  A change that moves them on purpose (a modelling fix)
re-records them and says why in CHANGES.md.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.machine.config import BranchMode, Discipline, MachineConfig
from repro.machine.simulator import simulate
from repro.telemetry.collector import MetricsCollector, TraceCollector

#: (window, branch mode, issue model, memory, branch predictor,
#: value predictor)
POINTS = (
    (1, "single", 1, "A", "twobit", "none"),
    (4, "single", 2, "G", "twobit", "none"),
    (256, "single", 8, "G", "twobit", "none"),
    (4, "enlarged", 1, "G", "twobit", "none"),
    (256, "enlarged", 8, "A", "twobit", "none"),
    (1, "enlarged", 2, "A", "twobit", "none"),
    (4, "perfect", 2, "A", "twobit", "none"),
    (256, "perfect", 8, "G", "twobit", "none"),
    (256, "enlarged", 8, "A", "twobit", "last"),
    (4, "enlarged", 2, "G", "twobit", "stride"),
    (1, "enlarged", 1, "G", "twobit", "stride"),
    (256, "perfect", 8, "G", "twobit", "context"),
    (256, "enlarged", 2, "A", "twobit", "perfect"),
    (256, "enlarged", 8, "G", "gshare", "none"),
    (4, "single", 8, "A", "perceptron", "none"),
)

#: The point the collector runs use: every attribution bucket is
#: non-zero on it, and faults, mispredicts, value squashes and replays
#: all occur.
COLLECTOR_POINT = (1, "enlarged", 8, "C", "twobit", "context")


def config_of(point) -> MachineConfig:
    window, mode, issue, memory, predictor, value_predictor = point
    return MachineConfig(
        discipline=Discipline.DYNAMIC,
        issue_model=issue,
        memory=memory,
        branch_mode=BranchMode(mode),
        window_blocks=window,
        predictor=predictor,
        value_predictor=value_predictor,
    )


def counters_of(result) -> dict:
    fields = dataclasses.asdict(result)
    for name in ("benchmark", "config", "extra"):
        del fields[name]
    return fields


def attr_buckets(result) -> dict:
    return {name: value for name, value in sorted(result.extra.items())
            if name.startswith("attr.")}


def event_summary(collector) -> dict:
    """Per event name: (count, sum of timestamps, sum of durations)."""
    summary = collections.defaultdict(lambda: [0, 0, 0])
    for ts, dur, name, _tid, _args in collector.events:
        entry = summary[name]
        entry[0] += 1
        entry[1] += ts
        entry[2] += dur
    return {name: tuple(entry) for name, entry in sorted(summary.items())}


GOLDEN_COUNTERS = {(1, 'single', 1, 'A', 'twobit', 'none'): {'cycles': 511705,
                                           'retired_nodes': 330151,
                                           'discarded_nodes': 0,
                                           'dynamic_blocks': 90775,
                                           'mispredicts': 1069,
                                           'branch_lookups': 42521,
                                           'faults': 0,
                                           'loads': 51318,
                                           'stores': 25082,
                                           'cache_accesses': 0,
                                           'cache_misses': 0,
                                           'write_buffer_hits': 0,
                                           'issue_words': 330151,
                                           'issued_slots': 330151,
                                           'window_block_cycles': 90775,
                                           'window_samples': 90775,
                                           'work_nodes': 330151,
                                           'value_predictions': 0,
                                           'value_confirmed': 0,
                                           'value_squashed': 0,
                                           'value_replays': 0},
 (4, 'single', 2, 'G', 'twobit', 'none'): {'cycles': 264694,
                                           'retired_nodes': 330151,
                                           'discarded_nodes': 1941,
                                           'dynamic_blocks': 90775,
                                           'mispredicts': 1069,
                                           'branch_lookups': 42521,
                                           'faults': 0,
                                           'loads': 51318,
                                           'stores': 25082,
                                           'cache_accesses': 36755,
                                           'cache_misses': 491,
                                           'write_buffer_hits': 39645,
                                           'issue_words': 255559,
                                           'issued_slots': 330151,
                                           'window_block_cycles': 363094,
                                           'window_samples': 90775,
                                           'work_nodes': 330151,
                                           'value_predictions': 0,
                                           'value_confirmed': 0,
                                           'value_squashed': 0,
                                           'value_replays': 0},
 (256, 'single', 8, 'G', 'twobit', 'none'): {'cycles': 100573,
                                             'retired_nodes': 330151,
                                             'discarded_nodes': 9475,
                                             'dynamic_blocks': 90775,
                                             'mispredicts': 1069,
                                             'branch_lookups': 42521,
                                             'faults': 0,
                                             'loads': 51318,
                                             'stores': 25082,
                                             'cache_accesses': 36755,
                                             'cache_misses': 491,
                                             'write_buffer_hits': 39645,
                                             'issue_words': 94527,
                                             'issued_slots': 330151,
                                             'window_block_cycles': 23205760,
                                             'window_samples': 90775,
                                             'work_nodes': 330151,
                                             'value_predictions': 0,
                                             'value_confirmed': 0,
                                             'value_squashed': 0,
                                             'value_replays': 0},
 (4, 'enlarged', 1, 'G', 'twobit', 'none'): {'cycles': 414884,
                                             'retired_nodes': 300750,
                                             'discarded_nodes': 59480,
                                             'dynamic_blocks': 29074,
                                             'mispredicts': 603,
                                             'branch_lookups': 3288,
                                             'faults': 3350,
                                             'loads': 77438,
                                             'stores': 25599,
                                             'cache_accesses': 49866,
                                             'cache_misses': 491,
                                             'write_buffer_hits': 53171,
                                             'issue_words': 438393,
                                             'issued_slots': 438393,
                                             'window_block_cycles': 116290,
                                             'window_samples': 29074,
                                             'work_nodes': 330151,
                                             'value_predictions': 0,
                                             'value_confirmed': 0,
                                             'value_squashed': 0,
                                             'value_replays': 0},
 (256, 'enlarged', 8, 'A', 'twobit', 'none'): {'cycles': 64463,
                                               'retired_nodes': 300750,
                                               'discarded_nodes': 149476,
                                               'dynamic_blocks': 29074,
                                               'mispredicts': 603,
                                               'branch_lookups': 3288,
                                               'faults': 3350,
                                               'loads': 77438,
                                               'stores': 25599,
                                               'cache_accesses': 0,
                                               'cache_misses': 0,
                                               'write_buffer_hits': 0,
                                               'issue_words': 48478,
                                               'issued_slots': 438393,
                                               'window_block_cycles': 7410304,
                                               'window_samples': 29074,
                                               'work_nodes': 330151,
                                               'value_predictions': 0,
                                               'value_confirmed': 0,
                                               'value_squashed': 0,
                                               'value_replays': 0},
 (1, 'enlarged', 2, 'A', 'twobit', 'none'): {'cycles': 412542,
                                             'retired_nodes': 300750,
                                             'discarded_nodes': 51971,
                                             'dynamic_blocks': 29074,
                                             'mispredicts': 603,
                                             'branch_lookups': 3288,
                                             'faults': 3350,
                                             'loads': 77438,
                                             'stores': 25599,
                                             'cache_accesses': 0,
                                             'cache_misses': 0,
                                             'write_buffer_hits': 0,
                                             'issue_words': 336915,
                                             'issued_slots': 438393,
                                             'window_block_cycles': 29074,
                                             'window_samples': 29074,
                                             'work_nodes': 330151,
                                             'value_predictions': 0,
                                             'value_confirmed': 0,
                                             'value_squashed': 0,
                                             'value_replays': 0},
 (4, 'perfect', 2, 'A', 'twobit', 'none'): {'cycles': 336234,
                                            'retired_nodes': 300750,
                                            'discarded_nodes': 58226,
                                            'dynamic_blocks': 29074,
                                            'mispredicts': 0,
                                            'branch_lookups': 0,
                                            'faults': 3350,
                                            'loads': 77438,
                                            'stores': 25599,
                                            'cache_accesses': 0,
                                            'cache_misses': 0,
                                            'write_buffer_hits': 0,
                                            'issue_words': 336915,
                                            'issued_slots': 438393,
                                            'window_block_cycles': 116290,
                                            'window_samples': 29074,
                                            'work_nodes': 330151,
                                            'value_predictions': 0,
                                            'value_confirmed': 0,
                                            'value_squashed': 0,
                                            'value_replays': 0},
 (256, 'perfect', 8, 'G', 'twobit', 'none'): {'cycles': 70250,
                                              'retired_nodes': 300750,
                                              'discarded_nodes': 115273,
                                              'dynamic_blocks': 29074,
                                              'mispredicts': 0,
                                              'branch_lookups': 0,
                                              'faults': 3350,
                                              'loads': 77438,
                                              'stores': 25599,
                                              'cache_accesses': 49866,
                                              'cache_misses': 491,
                                              'write_buffer_hits': 53171,
                                              'issue_words': 48478,
                                              'issued_slots': 438393,
                                              'window_block_cycles': 7410304,
                                              'window_samples': 29074,
                                              'work_nodes': 330151,
                                              'value_predictions': 0,
                                              'value_confirmed': 0,
                                              'value_squashed': 0,
                                              'value_replays': 0},
 (256, 'enlarged', 8, 'A', 'twobit', 'last'): {'cycles': 64104,
                                               'retired_nodes': 300750,
                                               'discarded_nodes': 146948,
                                               'dynamic_blocks': 29074,
                                               'mispredicts': 603,
                                               'branch_lookups': 3288,
                                               'faults': 3350,
                                               'loads': 77438,
                                               'stores': 25599,
                                               'cache_accesses': 0,
                                               'cache_misses': 0,
                                               'write_buffer_hits': 0,
                                               'issue_words': 48478,
                                               'issued_slots': 438393,
                                               'window_block_cycles': 7410304,
                                               'window_samples': 29074,
                                               'work_nodes': 330151,
                                               'value_predictions': 29330,
                                               'value_confirmed': 29183,
                                               'value_squashed': 147,
                                               'value_replays': 110},
 (4, 'enlarged', 2, 'G', 'twobit', 'stride'): {'cycles': 338872,
                                               'retired_nodes': 300750,
                                               'discarded_nodes': 62017,
                                               'dynamic_blocks': 29074,
                                               'mispredicts': 603,
                                               'branch_lookups': 3288,
                                               'faults': 3350,
                                               'loads': 77438,
                                               'stores': 25599,
                                               'cache_accesses': 49866,
                                               'cache_misses': 491,
                                               'write_buffer_hits': 53171,
                                               'issue_words': 336915,
                                               'issued_slots': 438393,
                                               'window_block_cycles': 116290,
                                               'window_samples': 29074,
                                               'work_nodes': 330151,
                                               'value_predictions': 49102,
                                               'value_confirmed': 49001,
                                               'value_squashed': 101,
                                               'value_replays': 10},
 (1, 'enlarged', 1, 'G', 'twobit', 'stride'): {'cycles': 497342,
                                               'retired_nodes': 300750,
                                               'discarded_nodes': 49357,
                                               'dynamic_blocks': 29074,
                                               'mispredicts': 603,
                                               'branch_lookups': 3288,
                                               'faults': 3350,
                                               'loads': 77438,
                                               'stores': 25599,
                                               'cache_accesses': 49866,
                                               'cache_misses': 491,
                                               'write_buffer_hits': 53171,
                                               'issue_words': 438393,
                                               'issued_slots': 438393,
                                               'window_block_cycles': 29074,
                                               'window_samples': 29074,
                                               'work_nodes': 330151,
                                               'value_predictions': 49102,
                                               'value_confirmed': 49001,
                                               'value_squashed': 101,
                                               'value_replays': 8},
 (256, 'perfect', 8, 'G', 'twobit', 'context'): {'cycles': 69487,
                                                 'retired_nodes': 300750,
                                                 'discarded_nodes': 112590,
                                                 'dynamic_blocks': 29074,
                                                 'mispredicts': 0,
                                                 'branch_lookups': 0,
                                                 'faults': 3350,
                                                 'loads': 77438,
                                                 'stores': 25599,
                                                 'cache_accesses': 49866,
                                                 'cache_misses': 491,
                                                 'write_buffer_hits': 53171,
                                                 'issue_words': 48478,
                                                 'issued_slots': 438393,
                                                 'window_block_cycles': 7410304,
                                                 'window_samples': 29074,
                                                 'work_nodes': 330151,
                                                 'value_predictions': 29889,
                                                 'value_confirmed': 29558,
                                                 'value_squashed': 331,
                                                 'value_replays': 1163},
 (256, 'enlarged', 2, 'A', 'twobit', 'perfect'): {'cycles': 337198,
                                                  'retired_nodes': 300750,
                                                  'discarded_nodes': 58137,
                                                  'dynamic_blocks': 29074,
                                                  'mispredicts': 603,
                                                  'branch_lookups': 3288,
                                                  'faults': 3350,
                                                  'loads': 77438,
                                                  'stores': 25599,
                                                  'cache_accesses': 0,
                                                  'cache_misses': 0,
                                                  'write_buffer_hits': 0,
                                                  'issue_words': 336915,
                                                  'issued_slots': 438393,
                                                  'window_block_cycles': 7410304,
                                                  'window_samples': 29074,
                                                  'work_nodes': 330151,
                                                  'value_predictions': 77438,
                                                  'value_confirmed': 77438,
                                                  'value_squashed': 0,
                                                  'value_replays': 0},
 (256, 'enlarged', 8, 'G', 'gshare', 'none'): {'cycles': 73729,
                                               'retired_nodes': 300750,
                                               'discarded_nodes': 174157,
                                               'dynamic_blocks': 29074,
                                               'mispredicts': 503,
                                               'branch_lookups': 3288,
                                               'faults': 3350,
                                               'loads': 77438,
                                               'stores': 25599,
                                               'cache_accesses': 49866,
                                               'cache_misses': 491,
                                               'write_buffer_hits': 53171,
                                               'issue_words': 48478,
                                               'issued_slots': 438393,
                                               'window_block_cycles': 7410304,
                                               'window_samples': 29074,
                                               'work_nodes': 330151,
                                               'value_predictions': 0,
                                               'value_confirmed': 0,
                                               'value_squashed': 0,
                                               'value_replays': 0},
 (4, 'single', 8, 'A', 'perceptron', 'none'): {'cycles': 134576,
                                               'retired_nodes': 330151,
                                               'discarded_nodes': 3539,
                                               'dynamic_blocks': 90775,
                                               'mispredicts': 720,
                                               'branch_lookups': 42521,
                                               'faults': 0,
                                               'loads': 51318,
                                               'stores': 25082,
                                               'cache_accesses': 0,
                                               'cache_misses': 0,
                                               'write_buffer_hits': 0,
                                               'issue_words': 94527,
                                               'issued_slots': 330151,
                                               'window_block_cycles': 363094,
                                               'window_samples': 90775,
                                               'work_nodes': 330151,
                                               'value_predictions': 0,
                                               'value_confirmed': 0,
                                               'value_squashed': 0,
                                               'value_replays': 0}}

GOLDEN_ATTRIBUTION = {'attr.drain_idle': 4.0,
 'attr.issue_stall': 152074.0,
 'attr.issued_full': 48478.0,
 'attr.memory_wait': 1973.0,
 'attr.mispredict_recovery': 18978.0,
 'attr.value_recovery': 1474.0}

GOLDEN_EVENTS = {'block.fault': (3350, 388878062, 0),
 'block.retire': (25724, 2869546449, 201172),
 'branch.resolve': (3288, 380053235, 0),
 'issue.slot': (438393, 49752039909, 0),
 'mem.load': (77438, 8803642997, 232314),
 'mem.store': (25599, 2820478978, 25599),
 'value.replay': (300, 34767353, 300),
 'value.verify': (29889, 3456126175, 0),
 'window.occupancy': (29074, 3258402312, 0)}


@pytest.mark.parametrize("point", POINTS, ids=lambda p: str(config_of(p)))
def test_counters(grep_prepared, point):
    result = simulate(grep_prepared, config_of(point))
    assert counters_of(result) == GOLDEN_COUNTERS[point]


def test_attribution_buckets(grep_prepared):
    result = simulate(grep_prepared, config_of(COLLECTOR_POINT),
                      collector=MetricsCollector())
    assert attr_buckets(result) == GOLDEN_ATTRIBUTION
    assert sum(GOLDEN_ATTRIBUTION.values()) == result.cycles


def test_trace_events(grep_prepared):
    collector = TraceCollector()
    simulate(grep_prepared, config_of(COLLECTOR_POINT), collector=collector)
    assert event_summary(collector) == GOLDEN_EVENTS
