"""The repository benchmark: one command, named workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-dynamic --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the untraced set-up and timed phase and prints the
end-to-end metrics; ``--trace 1`` runs the same work untraced and then
traced, and prints the per-layer metrics (plus ``trace.overhead_frac``,
the traced pass's loss of ``points_per_s`` against the untraced one).
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A per-run report (exact counts, digest, layer shares and, when traced,
every span) is written under ``.perfbench_work/reports/``.

The process exits 1 when any correctness check fails and 2 when the
program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("sweep-dynamic", "sweep-static", "resubmit-warm")

#: Share of the timed phase the named layers' self times must cover.  On
#: ``resubmit-warm`` the client's own HTTP work and the hand-offs between
#: threads are not covered: 2-8% of a full run, up to 10% of a small one.
MIN_COVERAGE = {"sweep-dynamic": 0.9, "sweep-static": 0.9,
                "resubmit-warm": 0.8}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload: str, seed: int, seconds: float, run_dir: str,
             reps: int, tracer: Any) -> Any:
    """Set-ups and timed phase in a fresh directory (removed after).

    The pass's correctness checks run once tracing has stopped.
    """
    from workloads import WORKLOAD_FUNCS

    work = os.path.join(run_dir, "traced" if tracer is not None else "plain")
    os.makedirs(work, exist_ok=True)
    try:
        try:
            result = WORKLOAD_FUNCS[workload](seed, seconds, work, WORK,
                                              reps, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        result.check()
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(result: Any, normalise: bool = True,
               ) -> Dict[str, Dict[str, Any]]:
    """The user-visible metrics of one untraced pass.

    Times are scaled to the reference host speed the whole pass saw,
    unless ``normalise`` is false (the raw figures are printed beside
    them).
    """
    scale = result.speed.normalise if normalise else (lambda s: s)
    timed_s = scale(result.timed_s)
    percentiles = statistics.quantiles(result.op_s, n=100, method="inclusive")
    return {
        "setup_s": {"value": scale(statistics.median(result.setup_s)),
                    "unit": "s"},
        "points_per_s": {"value": _ratio(result.points, timed_s),
                         "unit": "points/s"},
        "sim_nodes_per_s": {"value": _ratio(result.sim_nodes, timed_s),
                            "unit": "nodes/s"},
        "latency_ms_p50": {
            "value": 1000.0 * scale(statistics.median(result.op_s)),
            "unit": "ms"},
        "latency_ms_p75": {"value": 1000.0 * scale(percentiles[74]),
                           "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: Any, traced: Any, tracer: Any,
              ) -> Dict[str, Dict[str, Any]]:
    """Layer metrics of the traced pass (busy = self time, all threads)."""
    from tracing import LAYER_SPANS
    from workloads import exact_block

    busy = tracer.self_times()
    counts = tracer.counts
    samples = tracer.samples

    def b(name: str) -> float:
        return busy.get(name, 0.0)

    def c(name: str) -> float:
        return counts.get(name, 0)

    results = traced.results
    lookups = sum(r.branch_lookups for r in results)
    accesses = sum(r.cache_accesses for r in results)
    predictions = sum(r.value_predictions for r in results)
    timed_s = tracer.duration("timed")
    timed_self = tracer.self_times("timed")
    covered = sum(timed_self.get(name, 0.0) for name in LAYER_SPANS)
    # Service figures are per job of the timed phase (not the set-up fill);
    # coverage counts the layers' self time on every thread.
    admits = tracer.durations("timed", "service.admit")
    polls = tracer.durations("timed", "service.wait")
    jobs = max(1, len(admits))
    exact = exact_block(results)
    plain_pps, traced_pps = (end_to_end(result)["points_per_s"]["value"]
                             for result in (plain, traced))
    values = {
        "lang.compile_s": (b("lang"), "s"),
        "interp.busy_s": (b("interp"), "s"),
        "interp.nodes": (c("interp.nodes"), "count"),
        "interp.nodes_per_s": (_ratio(c("interp.nodes"), b("interp")),
                               "nodes/s"),
        "profiles.busy_s": (b("profiles"), "s"),
        "enlarge.busy_s": (b("enlarge"), "s"),
        "artifacts.save_s": (b("artifacts.save"), "s"),
        "artifacts.load_s": (b("artifacts.load"), "s"),
        "artifacts.bytes": (c("artifacts.bytes"), "bytes"),
        "templates.busy_s": (b("templates"), "s"),
        "sched.busy_s": (b("sched"), "s"),
        "sched.calls": (c("sched.calls"), "count"),
        "static_engine.busy_s": (b("static_engine"), "s"),
        "static_engine.nodes": (c("static_engine.nodes"), "count"),
        "static_engine.nodes_per_s": (
            _ratio(c("static_engine.nodes"), b("static_engine")), "nodes/s"),
        "static_engine.sim_cycles": (c("static_engine.sim_cycles"), "count"),
        "dynamic.busy_s": (b("dynamic"), "s"),
        "dynamic.nodes_executed": (c("dynamic.nodes"), "count"),
        "dynamic.nodes_per_s": (_ratio(c("dynamic.nodes"), b("dynamic")),
                                "nodes/s"),
        "dynamic.vp_nodes_per_s": (
            _ratio(c("dynamic.vp_nodes"), c("dynamic.vp_s")), "nodes/s"),
        "dynamic.sim_cycles": (c("dynamic.sim_cycles"), "count"),
        "dynamic.useful_ratio": (
            _ratio(c("dynamic.retired"), c("dynamic.nodes")), "ratio"),
        "value.predictions": (predictions, "count"),
        "value.confirmed_ratio": (
            _ratio(sum(r.value_confirmed for r in results), predictions),
            "ratio"),
        "dcache.accesses": (accesses, "count"),
        "dcache.hit_ratio": (
            _ratio(accesses - sum(r.cache_misses for r in results), accesses),
            "ratio"),
        "branch.accuracy": (
            _ratio(lookups - sum(r.mispredicts for r in results), lookups),
            "ratio"),
        "rcache.put_ms_p50": (
            1000.0 * statistics.median(samples.get("rcache.put_s", [0.0])),
            "ms"),
        "rcache.put_ms_max": (
            1000.0 * max(samples.get("rcache.put_s", [0.0])), "ms"),
        "rcache.entries_end": (traced.extra.get("rcache.entries_end", 0),
                               "count"),
        "rcache.get_s": (b("rcache.get"), "s"),
        "rcache.hits": (c("rcache.hits"), "count"),
        "validate.busy_s": (b("validate"), "s"),
        "validate.findings": (c("validate.findings"), "count"),
        "service.admit_ms": (1000.0 * statistics.median(admits or [0.0]),
                             "ms"),
        "service.wait_ms": (1000.0 * sum(polls) / jobs, "ms"),
        "service.polls_per_job": (len(polls) / jobs, "count"),
        "service.fetch_ms": (
            1000.0 * statistics.median(
                tracer.durations("timed", "service.fetch") or [0.0]), "ms"),
        "service.journal_bytes": (traced.extra.get("service.journal_bytes", 0),
                                  "bytes"),
        "sim.points": (exact["points"], "count"),
        "sim.cycles": (exact["cycles"], "count"),
        "sim.retired": (exact["retired"], "count"),
        "sim.discarded": (exact["discarded"], "count"),
        "sim.executed": (exact["executed"], "count"),
        "sim.dcache_accesses": (exact["dcache_accesses"], "count"),
        "sim.dcache_misses": (exact["dcache_misses"], "count"),
        "sim.value_predictions": (exact["value_predictions"], "count"),
        "trace.timed_s": (timed_s, "s"),
        "trace.coverage": (_ratio(covered, timed_s), "ratio"),
        "trace.overhead_frac": (
            _ratio(plain_pps - traced_pps, plain_pps), "ratio"),
        "host.calib_loops_per_s": (traced.speed.loops_per_s, "loops/s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def layer_shares(tracer: Any) -> Dict[str, float]:
    """Self time of each span in the timed phase, as a share of it.

    Spans of every thread count, so on ``resubmit-warm`` the client's
    blocking calls and the server's work overlap and the shares add up
    to more than 1.
    """
    timed_s = tracer.duration("timed")
    return {name: seconds / timed_s
            for name, seconds in sorted(tracer.self_times("timed").items())
            if timed_s > 0}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"fatal: the program's sources are missing ({SRC}/repro);"
              " run from a full checkout", file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    from tracing import Tracer, install_layers
    from workloads import SETUP_REPS, check_outputs, exact_block

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir = os.path.join(WORK, "runs", run_id)
    saved_env = {name: os.environ.get(name)
                 for name in ("REPRO_CACHE_DIR", "REPRO_ARTIFACT_DIR")}
    tracer = None
    try:
        reps = 1 if args.trace else SETUP_REPS[args.workload]
        plain = run_pass(args.workload, args.seed, args.seconds, run_dir,
                         reps, None)
        passes = [plain]
        if args.trace:
            tracer = Tracer(run_id)
            install_layers(tracer)
            traced = run_pass(args.workload, args.seed, args.seconds,
                              run_dir, 1, tracer)
            passes.append(traced)
            metrics = per_layer(plain, traced, tracer)
        else:
            metrics = end_to_end(plain)
        # Untimed and untraced: the prepared programs are still loaded.
        output_problems = check_outputs(passes[-1].programs)
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(run_dir, ignore_errors=True)

    problems: List[str] = list(output_problems)
    for result in passes:
        problems += result.problems
    exacts = [exact_block(result.results) for result in passes]
    if any(exact != exacts[0] for exact in exacts):
        problems.append("traced and untraced passes simulated different work")
    if tracer is not None:
        # The named layers' self times (not the benchmark's own loop,
        # the calibration slices or the client's waiting) must account
        # for most of the timed phase.
        shares = layer_shares(tracer)
        if metrics["trace.coverage"]["value"] < MIN_COVERAGE[args.workload]:
            problems.append("named layers cover only"
                            f" {metrics['trace.coverage']['value']:.3f} of"
                            " the timed phase")
    correct = not problems
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)

    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "problems": problems[:50],
        "exact": exacts[0], "findings": plain.findings,
        "host_loops_per_s": plain.speed.loops_per_s,
        "raw_setup_s": plain.setup_s, "raw_op_s": plain.op_s,
        "raw_metrics": end_to_end(plain, normalise=False),
        "metrics": metrics,
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for note in plain.notes:
        print(f"  {note}")
    print(f"  set-up: {len(plain.setup_s)} sample(s); timed: "
          f"{len(plain.op_s)} operation sample(s), {plain.timed_s:.2f} s raw;"
          f" host ran {plain.speed.loops_per_s / 1e6:.2f}M calibration"
          f" loops/s over {plain.speed.loops // plain.speed.SLICE_LOOPS}"
          " slices")
    print("  raw (not normalised): " + "  ".join(
        f"{name}={metric['value']:.6g}"
        for name, metric in report["raw_metrics"].items()))
    print("  exact: " + "  ".join(f"{k}={v}" for k, v in exacts[0].items()))
    print("  oracle findings (counted, not gated): "
          + (", ".join(f"{k}={v}" for k, v in sorted(plain.findings.items()))
             or "none"))
    if tracer is not None:
        report["timed_shares"] = shares
        report["spans"] = tracer.to_records()
        print("  timed-phase self time by span: " + "  ".join(
            f"{name}={share:.3f}" for name, share in
            sorted(shares.items(), key=lambda item: -item[1])))
        print("  named layers cover"
              f" {metrics['trace.coverage']['value']:.3f} of it")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")

    reports = os.path.join(WORK, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
