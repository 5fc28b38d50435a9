"""Cross-configuration dominance: layer two of the validation oracle.

The paper's argument is built from ordered comparisons across its
configuration grid: a strictly more capable machine must never lose.
Six partial orders are machine-checked over a sweep's result set, each
comparing ``retired_per_cycle`` (the paper's figure of merit) between
two points that differ in exactly one axis:

* ``dominance.window``  -- dynamic window 256 >= 4 >= 1 (same branch
  handling, issue model and memory);
* ``dominance.issue``   -- wider issue models >= narrower ones (the
  paper's models 1..8 are component-wise nested, as are the extension
  models 9 and 10);
* ``dominance.memory``  -- faster perfect memories win: A >= B >= C
  (1-, 2- and 3-cycle constant latency);
* ``dominance.branch``  -- perfect prediction >= realistic prediction
  on the same enlarged program (dyn4/dyn256), whichever realistic
  predictor scheme (2-bit, gshare, perceptron) produced the point;
* ``dominance.value``   -- more capable value predictors never lose at
  equal geometry: the oracle dominates everything, ``stride`` and
  ``context`` each dominate ``last``, and any predictor beats no
  speculation.  ``stride`` and ``context`` are deliberately *not*
  ordered against each other: arithmetic sequences favour the stride
  table, repeating non-arithmetic patterns favour the FCM, and measured
  grids show each winning on different workloads;
* ``dominance.sched``   -- the exact static scheduler never loses to
  the greedy list scheduler at equal configuration: the optimal
  schedule is seeded with the list schedule as its upper bound, so a
  loss would indicate a solver or engine bug, not a modelling choice.

Each rule is one row of :data:`_RULES`: the :class:`MachineConfig`
field it orders and that field's weakest-first chains.  One pass checks
every row with "this field ordered, all others fixed": results are
grouped by every coordinate except the rule's field, and adjacent
*present* members of each chain are compared, so a partial grid
(``--limit``, subsets) is compared as far as it goes.  A pair that two
chains share is reported once.

A violation emits one ``error`` finding naming both points; nothing is
raised, so findings flow into ``telemetry.json`` and the sweep's exit
code machinery.  ``rel_tol`` forgives losses smaller than the given
relative fraction -- the simulator is deterministic, so the default
tolerance is small, but second-order effects (a bigger window issuing
more wrong-path work into finite bandwidth) legitimately produce
sub-percent inversions on tiny inputs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from ..machine.config import BranchMode, MachineConfig
from ..stats.results import SimResult
from .findings import SEVERITY_ERROR, ValidationFinding, sort_findings

#: Default relative tolerance for ordered-pair comparisons.
DEFAULT_REL_TOL = 0.02

#: A result's coordinates are its benchmark, then every
#: :class:`MachineConfig` field; this maps each field to its position.
_POS = {
    field.name: pos
    for pos, field in enumerate(dataclasses.fields(MachineConfig), 1)
}

#: ``(rule, ordered field, weakest-first chains, label, fallback)``.
#: ``None`` chains order the field's present values naturally; ``value``
#: has two chains because ``stride`` and ``context`` are incomparable.
#: ``fallback`` is a ``(field, value)`` whose group fills a group's
#: missing members: perfect-branch points carry the default predictor
#: kind (the axis is inert under oracle prediction), so each realistic
#: scheme is compared against its own-kind perfect point when present,
#: else the default one.
_RULES = (
    ("dominance.window", "window_blocks", None, "window", None),
    ("dominance.issue", "issue_model", None, "issue model", None),
    ("dominance.memory", "memory", (("C", "B", "A"),), "memory", None),
    ("dominance.branch", "branch_mode",
     ((BranchMode.ENLARGED, BranchMode.PERFECT),), "branch handling",
     ("predictor", "twobit")),
    ("dominance.value", "value_predictor",
     (("none", "last", "stride", "perfect"),
      ("none", "last", "context", "perfect")), "value predictor", None),
    ("dominance.sched", "optimal_schedule", ((False, True),),
     "static scheduler", None),
)

#: The closed vocabulary of dominance rule identifiers.
DOMINANCE_RULES = tuple(row[0] for row in _RULES)

_Groups = Dict[tuple, Dict[object, SimResult]]


def _violation(rule: str, stronger: SimResult, weaker: SimResult,
               rel_tol: float, axis: str) -> ValidationFinding:
    return ValidationFinding(
        rule=rule,
        severity=SEVERITY_ERROR,
        benchmark=stronger.benchmark,
        config=str(stronger.config),
        reference=str(weaker.config),
        message=(
            f"the stronger {axis} lost: "
            f"{stronger.retired_per_cycle:.6f} < "
            f"{weaker.retired_per_cycle:.6f} IPC"
            f" (rel_tol {rel_tol:g})"
        ),
        measured=stronger.retired_per_cycle,
        expected=weaker.retired_per_cycle,
    )


def _replace(coord: tuple, pos: int, value: object) -> tuple:
    return coord[:pos] + (value,) + coord[pos + 1:]


def _groups(indexed: Dict[tuple, SimResult], pos: int) -> _Groups:
    """Results keyed by every coordinate except ``pos``, then by it."""
    groups: _Groups = {}
    for coord, result in indexed.items():
        groups.setdefault(_replace(coord, pos, None), {})[coord[pos]] = result
    return groups


def _pairs(members: Dict[object, SimResult],
           chains: Optional[Tuple[tuple, ...]],
           ) -> List[Tuple[SimResult, SimResult]]:
    """Adjacent present ``(weaker, stronger)`` pairs, each link once."""
    links: Dict[Tuple[object, object], None] = {}
    for chain in chains or (sorted(members),):
        present = [value for value in chain if value in members]
        links.update(dict.fromkeys(zip(present, present[1:])))
    return [(members[weaker], members[stronger]) for weaker, stronger in links]


def check_dominance(results: Iterable[SimResult],
                    rel_tol: Optional[float] = None,
                    ) -> List[ValidationFinding]:
    """Every violated partial order over one sweep's result set.

    Only pairs present in ``results`` are compared, so partial grids
    validate as far as their coverage allows; findings come sorted, so
    the order of ``results`` does not affect them (a later duplicate
    point replaces an earlier one).
    """
    tol = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    indexed = {
        (result.benchmark,)
        + tuple(getattr(result.config, field) for field in _POS): result
        for result in results
    }
    findings: List[ValidationFinding] = []
    for rule, field, chains, label, fallback in _RULES:
        groups = _groups(indexed, _POS[field])
        for key, members in groups.items():
            if fallback is not None:
                stand_in = _replace(key, _POS[fallback[0]], fallback[1])
                members = {**groups.get(stand_in, {}), **members}
            for weaker, stronger in _pairs(members, chains):
                if not (stronger.retired_per_cycle
                        >= weaker.retired_per_cycle * (1.0 - tol)):
                    findings.append(
                        _violation(rule, stronger, weaker, tol, label)
                    )
    return sort_findings(findings)
