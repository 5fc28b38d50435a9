"""EXPERIMENTS.md assembly: paper expectation vs measured, per figure."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .figures import (
    figure2_data,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
    static_ratio_data,
    value_speculation_data,
)
from .plot import ascii_chart
from .runner import SweepRunner


def _md_table(columns: Sequence[str], rows: Dict[str, List[float]],
              fmt: str = "{:.3f}") -> str:
    header = "| line | " + " | ".join(str(c) for c in columns) + " |"
    rule = "|---" * (len(columns) + 1) + "|"
    lines = [header, rule]
    for label, values in rows.items():
        if label.startswith("_"):
            continue
        cells = " | ".join(fmt.format(v) for v in values)
        lines.append(f"| {label} | {cells} |")
    return "\n".join(lines)


def generate_report(runner: Optional[SweepRunner] = None,
                    issue_models: Sequence[int] = tuple(range(1, 9)),
                    ) -> str:
    """Build the full EXPERIMENTS.md body (runs any missing simulations)."""
    runner = runner or SweepRunner()
    sections: List[str] = []
    sections.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Reproduction of the evaluation of Melvin & Patt (ISCA 1991).\n"
        f"Benchmarks: {', '.join(runner.benchmarks)} (scale {runner.scale}).\n"
        "Absolute numbers are not expected to match the paper's VAX-derived\n"
        "traces; the claims below are about the *shape* of each result.\n"
    )

    ratios = static_ratio_data(runner)
    mean_ratio = sum(ratios.values()) / len(ratios)
    sections.append(
        "## §3.1 Static ALU:memory node ratio\n\n"
        "Paper: \"the static ratio of ALU to memory nodes was about 2.5 to "
        "one\".\n\n"
        + "\n".join(f"- {name}: {value:.2f}" for name, value in ratios.items())
        + f"\n- **mean: {mean_ratio:.2f}**\n"
    )

    fig2 = figure2_data(runner)
    rows2 = {"single": fig2["single"], "enlarged": fig2["enlarged"]}
    sections.append(
        "## Figure 2 — dynamic basic block size histograms\n\n"
        "Paper: original blocks are small and highly skewed (over half of\n"
        "executed blocks are 0-4 nodes); enlargement makes the curve much\n"
        "flatter.  Fractions of executed blocks per size bucket:\n\n"
        + _md_table(fig2["buckets"], rows2)
        + f"\n\nMeasured: {fig2['single'][0] * 100:.0f}% of single-mode blocks"
        f" are 0-4 nodes vs {fig2['enlarged'][0] * 100:.0f}% after"
        " enlargement.\n"
    )

    fig3 = figure3_data(runner, issue_models)
    sections.append(
        "## Figure 3 — retired nodes/cycle vs issue model (memory A)\n\n"
        "Paper: variation among schemes grows with word width; enlargement\n"
        "helps every discipline; dyn window 1 is close to static; window 4\n"
        "comes close to window 256; combining both mechanisms beats either\n"
        "alone; realistic wide machines reach speedups of three to six.\n\n"
        + _md_table([str(m) for m in fig3["_issue_models"]], fig3)
        + "\n\n```\n"
        + ascii_chart(fig3, [str(m) for m in fig3["_issue_models"]],
                      title="retired nodes/cycle vs issue model")
        + "\n```\n"
    )

    fig4 = figure4_data(runner)
    sections.append(
        "## Figure 4 — retired nodes/cycle vs memory config (issue model 8)\n\n"
        "Paper: line slopes are similar, so higher-performing machines lose\n"
        "a smaller *fraction* going to slower memory (latency tolerance\n"
        "correlates with performance); the fully pipelined memory keeps\n"
        "even 3-cycle memory from being catastrophic.\n\n"
        + _md_table(fig4["_memories"], fig4)
        + "\n"
    )

    fig5 = figure5_data(runner)
    sections.append(
        "## Figure 5 — per-benchmark variation (dyn window 4, enlarged)\n\n"
        "Paper: percentage variation among benchmarks is higher for wide\n"
        "multinodewords; several benchmarks dip from config 5B to 5D (1K\n"
        "cache with low locality is worse than constant 2-cycle memory).\n\n"
        + _md_table(fig5["_composites"], fig5)
        + "\n"
    )

    fig6 = figure6_data(runner, issue_models)
    sections.append(
        "## Figure 6 — operation redundancy vs issue model (memory A)\n\n"
        "Paper: ordering is the inverse of Figure 3 (higher-performing\n"
        "machines throw away more operations); dyn-256/enlarged discards\n"
        "nearly one of four executed nodes, while window 4 discards far\n"
        "fewer at nearly the same performance.\n\n"
        + _md_table([str(m) for m in fig6["_issue_models"]], fig6)
        + "\n"
    )

    sections.append(value_speculation_section(runner))
    sections.append(_verdicts(fig2, fig3, fig6))
    ablations = _ablation_section()
    if ablations:
        sections.append(ablations)
    partial = partial_grid_note(getattr(runner, "failures", []))
    if partial:
        sections.append(partial)
    return "\n".join(sections)


def _speculation_accuracy_line(runner: SweepRunner) -> str:
    """Aggregate branch/value accuracy at the widest spec-grid point."""
    from ..machine.config import BranchMode, Discipline, MachineConfig

    branch = {"lookups": 0, "mispredicts": 0}
    value: Dict[str, List[int]] = {}
    for kind in ("last", "stride", "context"):
        totals = [0, 0]  # delivered, confirmed
        for name in runner.benchmarks:
            result = runner.run_point(name, MachineConfig(
                discipline=Discipline.DYNAMIC, issue_model=8, memory="C",
                branch_mode=BranchMode.ENLARGED, window_blocks=256,
                value_predictor=kind,
            ))
            totals[0] += result.value_predictions
            totals[1] += result.value_confirmed
            if kind == "last":
                branch["lookups"] += result.branch_lookups
                branch["mispredicts"] += result.mispredicts
        value[kind] = totals
    branch_acc = (1.0 - branch["mispredicts"] / branch["lookups"]
                  if branch["lookups"] else 1.0)
    value_accs = ", ".join(
        f"{kind} {confirmed / delivered:.3f}" if delivered else f"{kind} n/a"
        for kind, (delivered, confirmed) in value.items()
    )
    return (
        f"Aggregate prediction accuracy at issue model 8 (memory C):"
        f" branch {branch_acc:.3f}; value — {value_accs}"
        " (confirmed / delivered; the confidence gate holds delivery"
        " back until a site has proven itself)."
    )


def value_speculation_section(runner: SweepRunner) -> str:
    """The beyond-the-paper value-speculation table and speedup note."""
    data = value_speculation_data(runner)
    models = [str(m) for m in data["_issue_models"]]
    branch_only = data["none"][-1]
    best_real = max(data["last"][-1], data["stride"][-1],
                    data["context"][-1])
    oracle = data["perfect"][-1]
    return (
        "## Value speculation (beyond the paper)\n\n"
        "Speculative operand delivery on the dyn-256/enlarged machine\n"
        "with 3-cycle loads (memory C): a confident load-value\n"
        "prediction lets dependents issue one cycle after the load, and\n"
        "verification squashes and replays the dependent subtree when\n"
        "the prediction was wrong.  Geometric-mean IPC per predictor\n"
        "kind over the issue models:\n\n"
        + _md_table(models, {k: v for k, v in data.items()
                             if not k.startswith("_")})
        + f"\n\nAt issue model {models[-1]}, the best realistic value"
        f" predictor reaches {best_real / branch_only:.2f}x the"
        f" branch-only machine ({best_real:.3f} vs {branch_only:.3f}"
        f" IPC); the perfect-value oracle shows"
        f" {oracle / branch_only:.2f}x headroom.  Branch speculation"
        " alone leaves this latency on the table: the two mechanisms"
        " compose.\n\n"
        + _speculation_accuracy_line(runner) + "\n"
    )


def partial_grid_note(failures) -> str:
    """A warning section for grids with failed (degraded) points.

    Fault-tolerant execution records failed points instead of aborting
    (see ``repro.harness.executor``); any figure built over a partial
    grid must say so, or a missing point silently skews every mean.
    """
    failures = list(failures)
    if not failures:
        return ""
    lines = [
        "## ⚠ Partial grid\n",
        f"{len(failures)} point(s) failed and are missing from the data"
        " above; means and verdicts over the affected series are"
        " degraded.\n",
        "| benchmark | configuration | kind | attempts | error |",
        "|---|---|---|---|---|",
    ]
    for failure in failures:
        message = failure.message.replace("|", "\\|")
        if len(message) > 100:
            message = message[:97] + "..."
        lines.append(
            f"| {failure.benchmark} | {failure.config} | {failure.kind} "
            f"| {failure.attempts} | {message} |"
        )
    return "\n".join(lines) + "\n"


def _ablation_section() -> str:
    """Fold in any ablation tables the benchmark suite has produced."""
    import glob
    import os

    pattern = os.path.join("benchmarks", "results", "ablation_*.txt")
    tables = []
    for path in sorted(glob.glob(pattern)):
        try:
            with open(path, encoding="utf-8") as handle:
                tables.append(handle.read().rstrip())
        except OSError:
            continue
    if not tables:
        return ""
    body = "\n\n".join(tables)
    return (
        "## Ablations (beyond the paper)\n\n"
        "Produced by `pytest benchmarks/test_ablations.py`;"
        " see DESIGN.md for what each studies.\n\n"
        "```\n" + body + "\n```\n"
    )


def _verdicts(fig2, fig3, fig6) -> str:
    """Computed paper-claim verdicts and known deviations."""
    wide = {k: v[-1] for k, v in fig3.items() if not k.startswith("_")}
    narrow = {k: v[1] for k, v in fig3.items() if not k.startswith("_")}
    redundancy = {k: v[-1] for k, v in fig6.items() if not k.startswith("_")}
    sequential = fig3["static/single"][0]
    speedup = wide["dyn256/enlarged"] / sequential

    def check(ok: bool) -> str:
        return "yes" if ok else "**NO**"

    lines = [
        "## Verdicts\n",
        "| Paper claim | Measured | Holds |",
        "|---|---|---|",
        f"| speedups of three to six on realistic processors | "
        f"{speedup:.2f}x (dyn256/enlarged vs sequential) | "
        f"{check(3.0 <= speedup <= 6.5)} |",
        f"| low variation among schemes at narrow words | "
        f"{max(narrow.values()) / min(narrow.values()):.2f}x spread at "
        f"model 2 vs {max(wide.values()) / min(wide.values()):.2f}x at "
        f"model 8 | {check(max(narrow.values()) / min(narrow.values()) < max(wide.values()) / min(wide.values()))} |",
        f"| enlargement benefits all disciplines (wide issue) | "
        f"static {wide['static/enlarged'] / wide['static/single']:.2f}x, "
        f"dyn4 {wide['dyn4/enlarged'] / wide['dyn4/single']:.2f}x, "
        f"dyn256 {wide['dyn256/enlarged'] / wide['dyn256/single']:.2f}x | "
        f"{check(wide['static/enlarged'] > wide['static/single'] and wide['dyn256/enlarged'] > wide['dyn256/single'])} |",
        f"| window 4 comes close to window 256 | "
        f"{wide['dyn4/enlarged'] / wide['dyn256/enlarged']:.0%} of the "
        f"window-256 performance | "
        f"{check(wide['dyn4/enlarged'] > 0.7 * wide['dyn256/enlarged'])} |",
        f"| enlarged/window-1 below single/window-4, but close | "
        f"{wide['dyn1/enlarged']:.2f} vs {wide['dyn4/single']:.2f} | "
        f"{check(wide['dyn1/enlarged'] < wide['dyn4/single'])} |",
        f"| window 256 + enlarged discards ~1 of 4 executed nodes | "
        f"{redundancy['dyn256/enlarged']:.1%} | "
        f"{check(0.15 <= redundancy['dyn256/enlarged'] <= 0.35)} |",
        f"| >half of executed blocks are 0-4 nodes; enlargement flattens | "
        f"{fig2['single'][0]:.0%} -> {fig2['enlarged'][0]:.0%} | "
        f"{check(fig2['single'][0] > 0.5 > fig2['enlarged'][0])} |",
        f"| headroom remains above window 256 (perfect prediction) | "
        f"perfect is {wide['dyn256/perfect'] / wide['dyn256/enlarged']:.2f}x "
        f"the realistic line | "
        f"{check(wide['dyn256/perfect'] >= wide['dyn256/enlarged'])} |",
        "",
        "### Known deviations\n",
        "* The paper places dynamic window 1 *slightly above* static "
        "scheduling; here it lands "
        f"{1 - wide['dyn1/single'] / wide['static/single']:.0%} below "
        f"({wide['dyn1/single']:.2f} vs {wide['static/single']:.2f}). Our "
        "static engine overlaps in-order issue across block boundaries "
        "(outstanding loads keep flowing), which a window of one "
        "structurally cannot, and the list scheduler packs each block "
        "by critical path, where window 1 issues a block in program "
        "order; the paper's static model appears weaker.",
        "* Enlarged-block redundancy at narrow issue is higher than the "
        "paper's Figure 6 suggests, because fault recovery re-executes "
        "the original path and repeated faults chain (the paper's "
        "'predict on faults' improvement is unimplemented there too).",
        "* Absolute retired-nodes/cycle values differ from the paper's "
        "(different ISA, compiler and inputs); all claims above are "
        "shape-level, as planned in DESIGN.md.",
    ]
    return "\n".join(lines)
