"""The benchmark's three workloads: inputs, timed phases and checks.

Each workload function takes ``(seed, seconds, work, shared, reps,
tracer)`` and returns a :class:`Pass`.  The seed picks and orders the
configuration points or job specs; program inputs are always the
workloads' own generators at scale 1.

Work is sized from ``seconds`` through a fixed nominal rate, never from
a clock, so a given ``(seed, seconds)`` does identical simulated work on
every commit: the exact counts and digest repeat bit for bit, and a
faster commit finishes the same work sooner.

Every time is reported normalised to a reference host speed.  Shared
hosts drift between speed regimes for seconds to minutes (a 2-vCPU KVM
guest on an Intel Xeon host ran a fixed Python loop anywhere from 13M
to 27M iterations per second), so between operations the
benchmark runs short slices of a fixed pure-Python loop
(:class:`HostSpeed`) and scales each measured time by the host speed
those slices saw over the whole pass, relative to
:data:`REFERENCE_LOOPS_PER_S`.

* ``sweep-dynamic`` -- cold serial sweep over dynamic-machine points
  (the paper grid's dynamic lines plus value/branch speculation points)
  of the paper's five benchmarks, artifacts loaded from disk.
* ``sweep-static`` -- cold preparation from source, then static points
  of the paper grid.
* ``resubmit-warm`` -- an in-process daemon answering all-cached jobs
  from one closed-loop client.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.harness.artifacts import ArtifactStore
from repro.harness.cache import ResultCache
from repro.harness.runner import SweepRunner
from repro.interp.interpreter import run_program
from repro.machine.config import (
    PAPER_ISSUE_MODELS,
    PAPER_MEMORIES,
    SPEC_ISSUE_MODELS,
    SPEC_MEMORIES,
    SPEC_SWEEP_LINES,
    BranchMode,
    Discipline,
    MachineConfig,
    scheduling_disciplines,
    smoke_configuration_space,
)
from repro.service import JobScheduler, ServiceClient, ServiceError, make_server
from repro.stats.results import SimResult
from repro.telemetry import MetricsCollector
from repro.validate import run_oracle
from repro.validate.invariants import check_result
from repro.workloads import PAPER_WORKLOAD_NAMES, WORKLOADS, prepared
from repro.workloads.base import clear_prepared_cache

from tracing import Tracer

#: Benchmarks the static sweep prepares from source on every set-up: the
#: three cheapest of the paper's five, so several cold set-ups fit a run.
STATIC_BENCHMARKS = ("sort", "grep", "diff")

#: Small benchmarks whose smoke grid the service set-up fills.
SERVICE_BENCHMARKS = ("jsontok", "hashjoin")

#: The set-up job's ``limit``: all 40 jsontok points and the first 20
#: hashjoin points (the single-block lines and static/enlarged), which
#: keeps a cold fill to a few seconds.
FILL_LIMIT = 60

#: One cycle of the resubmit mix: (benchmarks, limit); every job is a
#: prefix of the filled grid, so all of its points are cached.
SERVICE_MIX = (
    (("jsontok",), 10), (("jsontok",), 40),
    (("hashjoin",), 10), (("hashjoin",), 20),
    (("jsontok", "hashjoin"), 10), (("jsontok", "hashjoin"), 40),
    (("jsontok", "hashjoin"), 60),
)

#: Value predictors and promoted branch predictors of the speculation
#: points (``v``: value predictor on a spec-grid line; ``p``: branch
#: predictor on the large enlarged window).
SPEC_KINDS = (("v", "last"), ("v", "stride"), ("v", "context"),
              ("v", "perfect"), ("p", "gshare"), ("p", "perceptron"))

#: Set-up repetitions per untraced run, interleaved with the timed
#: phase; ``setup_s`` is their median.
SETUP_REPS = {"sweep-dynamic": 10, "sweep-static": 4, "resubmit-warm": 3}

#: Host speed that normalised times refer to: a host running the
#: calibration loop at this rate reads its raw times unchanged.
REFERENCE_LOOPS_PER_S = 2.5e6

#: Work per requested second, used only to size a run from ``--seconds``:
#: about the rates one CPython 3.11 core of a 2-vCPU KVM guest reaches,
#: but lower for ``resubmit-warm`` (about 125 jobs/s) so that its three
#: cold set-ups fit in a run.
NOMINAL_RATE = {
    "sweep-dynamic": 1.3,   # points/s
    "sweep-static": 3.6,    # points/s
    "resubmit-warm": 75.0,  # jobs/s
}

#: SimResult counters the exact-count digest covers.
RESULT_FIELDS = tuple(
    f.name for f in fields(SimResult)
    if f.name not in ("benchmark", "config", "extra")
)


class _Cell:
    __slots__ = ("value", "state")

    def __init__(self, value: int):
        self.value = value
        self.state = value & 3


class HostSpeed:
    """Samples a fixed pure-Python loop between operations.

    The loop looks like a simulator's inner loop rather than a counter:
    pseudo-random dict lookups over a 2K-object table, attribute reads
    and writes and a data-dependent branch, so that it feels a busy
    neighbour much as the program does.  :meth:`sample` runs one
    slice for each :attr:`EVERY_S` passed since the previous one (at
    least one with ``force``): slices follow the run's pace, cost about
    4% of it, and never fall inside a timed operation.  Each slice walks
    its table untimed first, so what ran before it barely changes its
    speed (``perfbench/calibration.py`` measures how little).
    """

    SLICE_LOOPS = 4_000
    TABLE_SIZE = 2_048
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.loops = 0
        self.seconds = 0.0
        self._table = {index * 7919 & 0xFFFFF: _Cell(index)
                       for index in range(self.TABLE_SIZE)}
        self._keys = list(self._table)
        self._last = time.perf_counter()

    def sample(self, force: int = 0) -> None:
        """Run one slice per ``EVERY_S`` elapsed (at least ``force``)."""
        due = int((time.perf_counter() - self._last) / self.EVERY_S)
        for _ in range(max(due, force)):
            self._slice()

    def _slice(self) -> None:
        table, keys, mask = self._table, self._keys, self.TABLE_SIZE - 1
        # Walk the whole table first, untimed, so that the slice's speed
        # does not depend on how much of the CPU cache the operation
        # before it left behind.
        for key in keys:
            table[key].state |= 0
        start = time.perf_counter()
        seed, total = 12345, 0
        for _ in range(self.SLICE_LOOPS):
            seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
            cell = table[keys[seed & mask]]
            if cell.state & 1:
                total += cell.value
            else:
                total -= cell.state
            cell.state = (cell.state + 1) & 3
        self._last = time.perf_counter()
        self.seconds += self._last - start
        self.loops += self.SLICE_LOOPS

    @property
    def loops_per_s(self) -> float:
        return self.loops / self.seconds if self.seconds else 0.0

    def normalise(self, seconds: float) -> float:
        """Host seconds scaled to the reference host speed."""
        return seconds * self.loops_per_s / REFERENCE_LOOPS_PER_S


@dataclass
class Pass:
    """What one pass (set-ups + timed phase) of a workload measured."""

    speed: HostSpeed = field(default_factory=HostSpeed)
    #: raw host seconds of each set-up repetition
    setup_s: List[float] = field(default_factory=list)
    #: raw host seconds of each operation (a fresh point, or one job's
    #: submit -> done -> results round trip)
    op_s: List[float] = field(default_factory=list)
    #: simulated points each operation delivered, and their executed nodes
    op_points: List[int] = field(default_factory=list)
    op_nodes: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: the simulation results the timed phase delivered, in order
    results: List[SimResult] = field(default_factory=list)
    findings: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: benchmarks this pass prepared (their outputs are checked)
    programs: List[str] = field(default_factory=list)
    #: the pass's correctness checks, run after tracing has stopped
    check: Callable[[], None] = lambda: None

    @property
    def timed_s(self) -> float:
        return sum(self.op_s)

    @property
    def points(self) -> int:
        return sum(self.op_points)

    @property
    def sim_nodes(self) -> int:
        return sum(self.op_nodes)


def _span(tracer: Optional[Tracer], name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _use_dirs(cache_dir: str, artifact_dir: str) -> None:
    """Point the program's result cache and artifact store elsewhere."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_ARTIFACT_DIR"] = artifact_dir


def sized(workload: str, seconds: float, unit: int) -> int:
    """Operations in a run: a whole number of ``unit`` (at least one)."""
    rounds = max(1, round(seconds * NOMINAL_RATE[workload] / unit))
    return rounds * unit


# ----------------------------------------------------------------------
# point selection
# ----------------------------------------------------------------------
def dynamic_points(seed: int, count: int) -> List[Tuple[str, MachineConfig]]:
    """``count`` dynamic points in rounds of two per paper benchmark.

    Each round gives every benchmark one paper-grid point and one
    speculation point.  Which line and which speculation kind a
    benchmark gets rotates with the round, the same for every seed, so
    a run's cost barely depends on the seed; the seed picks the issue
    models (distinct within a round, sequential issue always in the
    first), the memories and the order.
    """
    rng = random.Random(seed)
    names = list(PAPER_WORKLOAD_NAMES)
    lines = [line for line in scheduling_disciplines()
             if line[0] is Discipline.DYNAMIC]
    points: List[Tuple[str, MachineConfig]] = []
    while len(points) < count:
        round_index = len(points) // (2 * len(names))
        issues = rng.sample(PAPER_ISSUE_MODELS, len(names))
        if round_index == 0 and 1 not in issues:
            issues[0] = 1
        batch = []
        for index, (name, issue) in enumerate(zip(names, issues)):
            slot = index + len(names) * round_index
            discipline, window, mode = lines[slot % len(lines)]
            batch.append((name, MachineConfig(
                discipline, issue, rng.choice(PAPER_MEMORIES), mode,
                window_blocks=window)))
            axis, kind = SPEC_KINDS[slot % len(SPEC_KINDS)]
            spec_issue = rng.choice(SPEC_ISSUE_MODELS)
            spec_memory = rng.choice(SPEC_MEMORIES)
            if axis == "v":
                discipline, window, mode = rng.choice(SPEC_SWEEP_LINES)
                config = MachineConfig(discipline, spec_issue, spec_memory,
                                       mode, window_blocks=window,
                                       value_predictor=kind)
            else:
                config = MachineConfig(Discipline.DYNAMIC, spec_issue,
                                       spec_memory, BranchMode.ENLARGED,
                                       window_blocks=256, predictor=kind)
            batch.append((name, config))
        rng.shuffle(batch)
        points += batch
    return points[:count]


def static_points(seed: int, count: int) -> List[Tuple[str, MachineConfig]]:
    """``count`` distinct static paper-grid points, rounds of eight each.

    A round gives each benchmark all eight issue models, half of them on
    the single-block and half on the enlarged program, each with a
    memory not yet paired with that issue model and program; benchmarks
    interleave point by point.
    """
    rng = random.Random(seed)
    names = list(STATIC_BENCHMARKS)
    rng.shuffle(names)
    rounds = -(-count // (len(names) * len(PAPER_ISSUE_MODELS)))
    if rounds > 2 * len(PAPER_MEMORIES):
        raise ValueError(f"at most {2 * len(PAPER_MEMORIES)} static rounds")
    per: Dict[str, List[MachineConfig]] = {}
    for name in names:
        # Each (issue model, program) pair walks its own shuffled ladder
        # of memories, so no point repeats.
        ladders = {
            (issue, mode): rng.sample(PAPER_MEMORIES, len(PAPER_MEMORIES))
            for issue in PAPER_ISSUE_MODELS
            for mode in (BranchMode.SINGLE, BranchMode.ENLARGED)
        }
        per[name] = []
        for _ in range(rounds):
            issues = list(PAPER_ISSUE_MODELS)
            modes = [BranchMode.SINGLE, BranchMode.ENLARGED] * 4
            rng.shuffle(issues)
            rng.shuffle(modes)
            for issue, mode in zip(issues, modes):
                if not ladders[issue, mode]:
                    mode = (BranchMode.ENLARGED if mode is BranchMode.SINGLE
                            else BranchMode.SINGLE)
                per[name].append(MachineConfig(
                    Discipline.STATIC, issue, ladders[issue, mode].pop(),
                    mode))
    points = [(name, per[name][index])
              for index in range(len(per[names[0]])) for name in names]
    return points[:count]


def service_specs(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` job specs: shuffled cycles of :data:`SERVICE_MIX`."""
    rng = random.Random(seed)
    cycle = list(SERVICE_MIX)
    specs: List[Dict[str, Any]] = []
    while len(specs) < count:
        rng.shuffle(cycle)
        specs += [{"benchmarks": list(names), "grid": "smoke", "limit": limit}
                  for names, limit in cycle]
    return specs[:count]


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def result_counters(result: SimResult) -> Tuple[int, ...]:
    return tuple(getattr(result, name) for name in RESULT_FIELDS)


def check_points(results: Sequence[SimResult],
                 workloads: Dict[str, Any], cache_path: str,
                 ) -> List[Tuple[str, str]]:
    """Invariants against the functional trace, and the cache round trip.

    Returns ``(point, problem)`` pairs.
    """
    problems = []
    reread = ResultCache(cache_path)
    for result in results:
        point = f"{result.benchmark} {result.config}"
        trace = workloads[result.benchmark].trace_for(result.config.branch_mode)
        for finding in check_result(result,
                                    trace_retired=trace.retired_nodes):
            problems.append((point, f"{finding.rule}: {finding.message}"))
        stored = reread.get(result.benchmark, result.config, 1)
        if stored is None or result_counters(stored) != result_counters(result):
            problems.append((point, "stored in the result cache differently"))
    return problems


def check_outputs(names: Sequence[str]) -> List[str]:
    """Each prepared program's output against its workload's oracle."""
    problems = []
    for name in names:
        workload = prepared(WORKLOADS[name])
        inputs = WORKLOADS[name].make_inputs("eval", 1)
        expected = WORKLOADS[name].reference(inputs)
        for label, program in (("single", workload.single),
                               ("enlarged", workload.enlarged)):
            run = run_program(program, inputs=inputs, record_trace=False)
            if run.output != expected:
                problems.append(f"{name}/{label}: output differs from the"
                                " workload's reference oracle")
    return problems


def count_findings(results: Sequence[SimResult]) -> Dict[str, int]:
    """Oracle findings by rule (dominance is counted, never gated)."""
    counts: Dict[str, int] = {}
    for finding in run_oracle(results).findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


# ----------------------------------------------------------------------
# set-up and timed phase
# ----------------------------------------------------------------------
def _run(out: Pass, ops: Sequence[Any], reps: int,
         set_up: Callable[[int], None], run_op: Callable[[Any], Any],
         span: str, tracer: Optional[Tracer],
         tear_down: Callable[[], None] = lambda: None) -> List[Any]:
    """Time ``reps`` set-ups, each followed by its share of ``ops``.

    Interleaving spreads the set-ups over the run, so that their median
    sees the same host as the operations do.  Returns what ``run_op``
    returned for each operation, in order.
    """
    outputs = []
    out.speed.sample(force=1)
    for rep in range(reps):
        if rep:
            tear_down()
        gc.collect()
        with _span(tracer, "setup"):
            start = time.perf_counter()
            set_up(rep)
            out.setup_s.append(time.perf_counter() - start)
        out.speed.sample(force=1)
        with _span(tracer, "timed"):
            for op in ops[rep * len(ops) // reps:
                          (rep + 1) * len(ops) // reps]:
                out.attempted += 1
                with _span(tracer, span):
                    start = time.perf_counter()
                    outputs.append(run_op(op))
                    out.op_s.append(time.perf_counter() - start)
                out.speed.sample()
    out.speed.sample(force=1)
    return outputs


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
def _prepare(names: Sequence[str]) -> None:
    clear_prepared_cache()
    for name in names:
        prepared(WORKLOADS[name])


def _sweep(names: Sequence[str], points: Sequence[Tuple[str, MachineConfig]],
           reps: int, set_up: Callable[[int], None],
           tracer: Optional[Tracer]) -> Pass:
    """Set-ups interleaved with one cold serial sweep through ``run_point``.

    The result cache is the one ``REPRO_CACHE_DIR`` names, empty at the
    start; every set-up's points run on the programs it prepared.
    """
    out = Pass()
    runner = SweepRunner(list(names), scale=1)

    def run_op(point: Tuple[str, MachineConfig]) -> Optional[SimResult]:
        try:
            return runner.run_point(*point)
        except Exception as exc:  # noqa: BLE001 - count, go on
            out.failed += 1
            out.problems.append(f"{point[0]} {point[1]}: {exc!r}")
            return None

    results = _run(out, points, reps, set_up, run_op, "point", tracer)
    out.results = [result for result in results if result is not None]
    out.op_points = [int(result is not None) for result in results]
    out.op_nodes = [result.executed_nodes if result is not None else 0
                    for result in results]
    out.extra["rcache.entries_end"] = len(runner.cache)
    out.programs = list(names)

    def check() -> None:
        workloads = {name: prepared(WORKLOADS[name]) for name in names}
        problems = check_points(out.results, workloads, runner.cache.path)
        out.failed += len({point for point, _ in problems})
        out.problems += [f"{point}: {problem}" for point, problem in problems]
        out.findings = count_findings(out.results)

    out.check = check
    return out


def source_digest() -> str:
    """A hash of the program's sources (every module of ``repro``)."""
    package = os.path.dirname(os.path.abspath(repro.__file__))
    hasher = hashlib.sha256()
    for directory, subdirs, files in os.walk(package):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()[:16]


#: Prepares the named benchmarks into the artifact store at ``argv[1]``.
_ENSURE = """
import sys
from repro.harness.artifacts import ArtifactStore
from repro.workloads import WORKLOADS
store = ArtifactStore(sys.argv[1])
for name in sys.argv[2:]:
    store.ensure(WORKLOADS[name], 1)
"""


def shared_artifacts(shared: str, names: Sequence[str]) -> str:
    """The artifact store of this version of the program, made if missing.

    The directory is named by :func:`source_digest`, so artifacts an
    older version prepared are never loaded (older stores are removed).
    Preparation runs in a child process, outside every timing, so that
    this process's peak RSS only ever sees artifacts being loaded.
    """
    root = os.path.join(shared, "artifacts")
    directory = os.path.join(root, source_digest())
    store = ArtifactStore(directory)
    if not all(store.contains(WORKLOADS[name], 1) for name in names):
        shutil.rmtree(root, ignore_errors=True)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run([sys.executable, "-c", _ENSURE, directory, *names],
                       env=env, check=True)
    return directory


def sweep_dynamic(seed: int, seconds: float, work: str, shared: str,
                  reps: int, tracer: Optional[Tracer]) -> Pass:
    """Cold serial sweep of dynamic points over loaded artifacts."""
    names = list(PAPER_WORKLOAD_NAMES)
    _use_dirs(os.path.join(work, "results"), shared_artifacts(shared, names))
    points = dynamic_points(
        seed, sized("sweep-dynamic", seconds, 2 * len(names)))
    out = _sweep(names, points, reps, lambda rep: _prepare(names), tracer)
    sequential = sum(1 for _, config in points if config.issue.sequential)
    speculative = sum(1 for _, config in points
                      if config.value_predictor != "none")
    out.notes.append(f"{len(points)} points, {sequential} at sequential"
                     f" issue, {speculative} with a value predictor")
    return out


def sweep_static(seed: int, seconds: float, work: str, shared: str,
                 reps: int, tracer: Optional[Tracer]) -> Pass:
    """Cold preparations from source, then cold static sweeps."""
    del shared
    names = list(STATIC_BENCHMARKS)
    _use_dirs(os.path.join(work, "results"), os.path.join(work, "none"))

    def set_up(rep: int) -> None:
        os.environ["REPRO_ARTIFACT_DIR"] = os.path.join(
            work, f"artifacts-{rep}")
        _prepare(names)

    points = static_points(
        seed, sized("sweep-static", seconds,
                    len(names) * len(PAPER_ISSUE_MODELS)))
    out = _sweep(names, points, reps, set_up, tracer)
    out.notes.append(f"{len(points)} static points over {','.join(names)}")
    return out


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class _Daemon:
    """An in-process service: scheduler, HTTP front end and one client."""

    def __init__(self, root: str):
        _use_dirs(root, os.path.join(root, "workloads"))
        clear_prepared_cache()
        self.journal = os.path.join(root, "journal.jsonl")
        self.cache_path = os.path.join(root, "results.json")
        self.runner = SweepRunner(list(SERVICE_BENCHMARKS), scale=1,
                                  collector=MetricsCollector())
        self.scheduler = JobScheduler(self.runner, journal_path=self.journal,
                                      validate=True)
        self.scheduler.start()
        self.server = make_server(self.scheduler, port=0, quiet=True)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.server.server_address[1]}"
        )
        self.client.wait_ready()

    def fill(self) -> Dict[str, Any]:
        """Simulate the filled part of the smoke grid into the cache."""
        job = self.client.submit({"benchmarks": list(SERVICE_BENCHMARKS),
                                  "grid": "smoke", "limit": FILL_LIMIT})
        return self.client.wait(job["job_id"], poll_timeout_s=5.0)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.scheduler.stop()
        self.thread.join(30)

    def stored(self) -> Dict[Tuple[str, str], SimResult]:
        """Every smoke point in the daemon's result cache, by point."""
        cache = ResultCache(self.cache_path)
        stored = {}
        for name in SERVICE_BENCHMARKS:
            for config in smoke_configuration_space():
                hit = cache.get(name, config, 1)
                if hit is not None:
                    stored[(name, str(config))] = hit
        return stored


def _job_problems(final: Dict[str, Any],
                  stored: Dict[Tuple[str, str], SimResult]) -> List[str]:
    """Why one warm job is wrong: state, freshness, results, oracle."""
    problems = []
    job_id = final.get("job_id")
    points = final.get("points", {})
    if final.get("state") != "done":
        problems.append(f"job {job_id} ended {final.get('state')}")
    if points.get("fresh") or points.get("cached") != points.get("total"):
        problems.append(f"job {job_id} was not fully cached: {points}")
    for record in final.get("results", []):
        want = stored.get((record["benchmark"], record["config"]))
        if (want is None or record.get("status") != "cached"
                or record.get("cycles") != want.cycles
                or record.get("ipc") != want.retired_per_cycle):
            problems.append(f"job {job_id}: {record['benchmark']}"
                            f" {record['config']} differs from set-up")
    for finding in final.get("validation", {}).get("findings", []):
        if finding["rule"].startswith("invariant."):
            problems.append(f"job {job_id}: {finding['rule']}")
    return problems


def resubmit_warm(seed: int, seconds: float, work: str, shared: str,
                  reps: int, tracer: Optional[Tracer]) -> Pass:
    """Closed-loop resubmission of all-cached jobs to warm daemons.

    Each set-up starts a daemon on empty directories and fills its
    result cache; its share of the jobs then goes to that daemon.
    """
    del shared
    out = Pass()
    specs = service_specs(
        seed, sized("resubmit-warm", seconds, 4 * len(SERVICE_MIX)))
    daemons: List[_Daemon] = []

    def set_up(rep: int) -> None:
        daemons.append(_Daemon(os.path.join(work, f"daemon-{rep}")))
        filled = daemons[-1].fill()
        if filled["points"]["fresh"] != filled["points"]["total"]:
            out.problems.append(f"set-up {rep} was not simulated fresh")

    def run_op(spec: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        client = daemons[-1].client
        try:
            job = client.submit(spec)
            return client.wait(job["job_id"], poll_timeout_s=5.0)
        except ServiceError as exc:
            out.failed += 1
            out.problems.append(f"{spec}: {exc}")
            return None

    try:
        finals = _run(out, specs, reps, set_up, run_op, "job", tracer,
                      tear_down=lambda: daemons[-1].close())
    finally:
        if daemons:
            daemons[-1].close()
    out.extra["service.journal_bytes"] = os.path.getsize(daemons[-1].journal)
    out.programs = list(SERVICE_BENCHMARKS)

    def check() -> None:
        stores = [daemon.stored() for daemon in daemons]
        stored = stores[0]
        out.extra["rcache.entries_end"] = len(stored)
        counters = [{point: result_counters(result)
                     for point, result in each.items()} for each in stores]
        if any(other != counters[0] for other in counters):
            out.problems.append("set-ups stored different results")
        for final in finals:
            problems = _job_problems(final, stored) if final else []
            if problems:
                out.failed += 1
                out.problems += problems
            delivered = [stored.get((record["benchmark"], record["config"]))
                         for record in (final or {}).get("results", [])]
            delivered = [result for result in delivered if result is not None]
            out.results += delivered
            out.op_points.append(len(delivered))
            out.op_nodes.append(sum(r.executed_nodes for r in delivered))
            for finding in (final or {}).get("validation", {}).get(
                    "findings", []):
                out.findings[finding["rule"]] = (
                    out.findings.get(finding["rule"], 0) + 1)
        out.notes.append(f"{len(specs)} jobs from one closed-loop client,"
                         f" {out.points} cached points served")

    out.check = check
    return out


WORKLOAD_FUNCS: Dict[str, Callable[..., Pass]] = {
    "sweep-dynamic": sweep_dynamic,
    "sweep-static": sweep_static,
    "resubmit-warm": resubmit_warm,
}


# ----------------------------------------------------------------------
# exact counts
# ----------------------------------------------------------------------
def exact_block(results: Sequence[SimResult]) -> Dict[str, Any]:
    """Exact simulated totals and a digest of every delivered result."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(f"{result.benchmark}|{result.config}|".encode())
        hasher.update(repr(result_counters(result)).encode())
        hasher.update(b"\n")
    return {
        "points": len(results),
        "cycles": sum(r.cycles for r in results),
        "retired": sum(r.retired_nodes for r in results),
        "discarded": sum(r.discarded_nodes for r in results),
        "executed": sum(r.executed_nodes for r in results),
        "dcache_accesses": sum(r.cache_accesses for r in results),
        "dcache_misses": sum(r.cache_misses for r in results),
        "value_predictions": sum(r.value_predictions for r in results),
        "digest": hasher.hexdigest()[:32],
    }
