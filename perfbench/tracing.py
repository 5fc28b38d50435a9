"""Span tracing for the benchmark's traced run.

The program itself carries no spans for this: the tracer wraps the
public entry point of each layer from the outside (module functions and
class methods are swapped for timing wrappers while a traced pass runs,
then restored).  A span records its name, start, end, parent span and
run id; spans of one thread nest by call order, so a layer's self time
is its duration minus the part its child spans cover.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Collects spans and layer counts for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (name, start, end, parent index or -1, thread id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        #: layer count -> value (nodes, calls, bytes, hits, ...)
        self.counts: Dict[str, float] = {}
        #: layer sample series (per-call durations, findings, ...)
        self.samples: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append((name, time.perf_counter(), 0.0, parent,
                               threading.get_ident()))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            end = time.perf_counter()
            with self._lock:
                name_, start, _, parent_, thread = self.spans[index]
                self.spans[index] = (name_, start, end, parent_, thread)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str,
             observe: Optional[Callable[["Tracer", tuple, Any, float],
                                        None]] = None) -> None:
        """Swap ``owner.attr`` for a spanning wrapper until :meth:`restore`.

        ``observe(tracer, args, result, seconds)`` runs after each call
        to record the layer's counts where the work happened.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(layer):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                seconds = time.perf_counter() - start
            if observe is not None:
                observe(tracer, args, result, seconds)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:  # inherited: uncover the base class's again
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def window(self, root: str) -> Tuple[float, float]:
        """Start and end of the first span named ``root`` (0, 0 if none)."""
        for name, start, end, _, _ in self.spans:
            if name == root:
                return start, end
        return 0.0, 0.0

    def duration(self, root: str) -> float:
        start, end = self.window(root)
        return end - start

    def inside(self, root: str) -> List[int]:
        """Indices of the spans, on any thread, that start within ``root``."""
        start, end = self.window(root)
        return [index for index, span in enumerate(self.spans)
                if start <= span[1] <= end]

    def durations(self, root: str, name: str) -> List[float]:
        """Durations of the spans named ``name`` within ``root``."""
        return [self.spans[i][2] - self.spans[i][1]
                for i in self.inside(root) if self.spans[i][0] == name]

    def self_times(self, root: Optional[str] = None) -> Dict[str, float]:
        """Self seconds per span name, over every thread.

        A span's self time is its duration minus its child spans' (spans
        nest per thread).  With ``root``, only the spans that start
        within the first span of that name count.
        """
        child_s: Dict[int, float] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        indices = (range(len(self.spans)) if root is None
                   else self.inside(root))
        out: Dict[str, float] = {}
        for index in indices:
            name, start, end, _, _ = self.spans[index]
            own = (end - start) - child_s.get(index, 0.0)
            out[name] = out.get(name, 0.0) + own
        return out

    def to_records(self) -> List[Dict[str, Any]]:
        """Spans as JSON-ready records (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start_s": round(start - origin, 6),
             "end_s": round(end - origin, 6), "parent": parent,
             "run_id": self.run_id, "thread": thread}
            for name, start, end, parent, thread in self.spans
        ]


# ----------------------------------------------------------------------
# Layer wrapping: which public function of which module is each layer.
# ----------------------------------------------------------------------
def _interp(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    tracer.count("interp.nodes", result.executed_nodes)


def _engine(prefix: str) -> Callable[[Tracer, tuple, Any, float], None]:
    def observe(tracer: Tracer, args: tuple, result: Any,
                seconds: float) -> None:
        tracer.count(f"{prefix}.nodes", result.executed_nodes)
        tracer.count(f"{prefix}.retired", result.retired_nodes)
        tracer.count(f"{prefix}.sim_cycles", result.cycles)
        if result.config.value_predictor != "none":
            tracer.count(f"{prefix}.vp_nodes", result.executed_nodes)
            tracer.count(f"{prefix}.vp_s", seconds)
    return observe


def _sched(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    tracer.count("sched.calls")


def _artifact_load(tracer: Tracer, args: tuple, result: Any,
                   seconds: float) -> None:
    if result is None:
        return
    store, workload, scale = args
    directory = store.directory(workload, scale)
    tracer.count("artifacts.bytes", sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    ))


def _rcache_put(tracer: Tracer, args: tuple, result: Any,
                seconds: float) -> None:
    tracer.sample("rcache.put_s", seconds)


def _rcache_get(tracer: Tracer, args: tuple, result: Any,
                seconds: float) -> None:
    if result is not None:
        tracer.count("rcache.hits")


def _oracle(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    tracer.count("validate.findings", len(result.findings))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer a point or a job crosses.

    The names are patched where the caller looks them up: the simulator
    facade imports its layer functions by name, so those are swapped on
    :mod:`repro.machine.simulator`.  The service is wrapped on both
    sides: the client's three blocking calls give the per-job admission,
    wait and fetch figures, and the server's request handlers and the
    scheduler's job execution say where the server spent that time.
    """
    from repro.harness.artifacts import ArtifactStore
    from repro.harness.cache import ResultCache
    from repro.machine import simulator
    from repro.machine.dynamic import DynamicEngine
    from repro.machine.static_engine import StaticEngine
    from repro.service import http_api
    from repro.service.client import ServiceClient
    from repro.service.scheduler import JobScheduler
    from repro.workloads import base
    import repro.validate

    tracer.wrap(base, "compile_source", "lang")
    tracer.wrap(simulator, "run_program", "interp", _interp)
    tracer.wrap(simulator, "build_profile", "profiles")
    tracer.wrap(simulator, "annotate_static_hints", "profiles")
    tracer.wrap(simulator, "plan_enlargement", "enlarge")
    tracer.wrap(simulator, "apply_plan", "enlarge")
    tracer.wrap(ArtifactStore, "save", "artifacts.save")
    tracer.wrap(ArtifactStore, "load", "artifacts.load", _artifact_load)
    tracer.wrap(simulator, "build_templates", "templates")
    tracer.wrap(simulator, "schedule_program", "sched", _sched)
    tracer.wrap(StaticEngine, "run", "static_engine", _engine("static_engine"))
    tracer.wrap(DynamicEngine, "run", "dynamic", _engine("dynamic"))
    tracer.wrap(ResultCache, "put", "rcache.put", _rcache_put)
    tracer.wrap(ResultCache, "get", "rcache.get", _rcache_get)
    tracer.wrap(repro.validate, "run_oracle", "validate", _oracle)
    tracer.wrap(ServiceClient, "submit", "service.admit")
    tracer.wrap(ServiceClient, "events", "service.wait")
    tracer.wrap(ServiceClient, "job", "service.fetch")
    tracer.wrap(http_api._Handler, "handle_one_request", "service.http")
    tracer.wrap(JobScheduler, "wait_events", "service.longpoll")
    tracer.wrap(JobScheduler, "_execute", "service.execute")


#: Span names whose self time is work of a program layer.  Left out are
#: the benchmark's own structure (``setup``, ``timed``, ``point``,
#: ``job``) and the spans that mostly block: the client's three calls
#: (the server's spans cover what they wait for) and the server's
#: long-poll wait.
LAYER_SPANS = (
    "lang", "interp", "profiles", "enlarge", "artifacts.save",
    "artifacts.load", "templates", "sched", "static_engine", "dynamic",
    "rcache.put", "rcache.get", "validate", "service.http",
    "service.execute",
)
