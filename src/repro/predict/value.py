"""Value prediction: the data-speculation half of the speculation frontier.

The paper stops at control speculation; Mitrevski & Gušev (PAPERS.md)
study the performance potential of speculating on *data* too -- predict
a long-latency load's value, let its dependents issue early, and verify
when the real value arrives.  This module provides the predictor family
the dynamic engine draws from:

* ``last``    -- last-value prediction (Lipasti-style): a load site
  repeats its previous value.
* ``stride``  -- the site's values advance by a constant delta
  (induction variables, sequential pointers).
* ``context`` -- two-level finite-context-method (FCM): the site's
  recent value *history* selects the prediction, capturing repeating
  non-arithmetic sequences a stride cannot.
* ``perfect`` -- an oracle driven by the recorded functional trace (the
  engine supplies the actual value); the data-speculation analogue of
  the paper's perfect branch prediction.

Every realistic predictor sits behind a saturating-confidence estimator:
a site must predict correctly ``threshold`` times in a row (2-bit
saturating counter, reset on a miss) before the engine is allowed to
deliver its prediction speculatively, which keeps squash storms from
cold or chaotic sites out of the pipeline.

Tables are finite and direct-mapped: a site keys to a slot by
``zlib.crc32`` (deterministic across processes -- see the BTB's matching
fix in :mod:`repro.machine.predictor`) and a colliding site evicts the
previous occupant, tag and training state included.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

#: Names accepted by ``MachineConfig.value_predictor``.  ``none``
#: disables data speculation (the default, and the only value legal on
#: static machines); the rest are ordered weakest-first -- the chain the
#: ``dominance.value`` partial order checks.
VALUE_PREDICTOR_KINDS = ("none", "last", "stride", "context", "perfect")

#: Saturating-confidence geometry shared by the realistic predictors:
#: a 2-bit counter that must reach ``CONFIDENCE_THRESHOLD`` before a
#: prediction is delivered speculatively, and resets on any miss.
CONFIDENCE_MAX = 3
CONFIDENCE_THRESHOLD = 2

#: Default direct-mapped table capacity (slots), per predictor level.
DEFAULT_ENTRIES = 4096

#: Value-history length of the two-level context (FCM) predictor.
CONTEXT_HISTORY = 2


class ValuePredictor:
    """Protocol and shared machinery for load-value predictors.

    A *site* identifies one static load (block label + node index).  The
    engine drives the two-call protocol per dynamic load::

        predicted = vp.predict(site)      # None unless confident
        vp.update(site, actual, predicted)

    ``predict`` counts every lookup and returns a value only when the
    site's confidence counter has saturated past the threshold;
    ``update`` trains the table with the actual loaded value and settles
    the prediction's fate in the counters: ``confirmed`` when the
    delivered prediction matched, ``squashed`` when it did not.
    """

    kind = "base"
    #: True only on the trace-driven oracle (the engine special-cases it).
    perfect = False

    def __init__(self, entries: int = DEFAULT_ENTRIES,
                 threshold: int = CONFIDENCE_THRESHOLD,
                 maximum: int = CONFIDENCE_MAX):
        if entries <= 0:
            raise ValueError("value-predictor table needs at least one slot")
        if not 0 < threshold <= maximum:
            raise ValueError("confidence threshold must be in (0, maximum]")
        self.entries = entries
        self.threshold = threshold
        self.maximum = maximum
        self.lookups = 0
        self.predictions = 0
        self.confirmed = 0
        self.squashed = 0
        self._slot_cache: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _slot(self, site: str) -> int:
        slot = self._slot_cache.get(site)
        if slot is None:
            slot = zlib.crc32(site.encode()) % self.entries
            self._slot_cache[site] = slot
        return slot

    def predict(self, site: str) -> Optional[int]:
        """The confident predicted value for ``site``, else None."""
        raise NotImplementedError

    def update(self, site: str, actual: int,
               predicted: Optional[int]) -> None:
        """Train with the actual value; settle a delivered prediction."""
        raise NotImplementedError

    def _settle(self, actual: int, predicted: Optional[int]) -> None:
        if predicted is None:
            return
        self.predictions += 1
        if predicted == actual:
            self.confirmed += 1
        else:
            self.squashed += 1

    @property
    def accuracy(self) -> float:
        """Fraction of delivered predictions confirmed (1.0 when unused)."""
        if self.predictions == 0:
            return 1.0
        return self.confirmed / self.predictions


class LastValuePredictor(ValuePredictor):
    """Predict that a load site repeats its previous value."""

    kind = "last"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        #: slot -> (site tag, last value, confidence)
        self._table: Dict[int, Tuple[str, int, int]] = {}

    def predict(self, site: str) -> Optional[int]:
        self.lookups += 1
        entry = self._table.get(self._slot(site))
        if entry is None or entry[0] != site or entry[2] < self.threshold:
            return None
        return entry[1]

    def update(self, site: str, actual: int,
               predicted: Optional[int]) -> None:
        self._settle(actual, predicted)
        slot = self._slot(site)
        entry = self._table.get(slot)
        if entry is None or entry[0] != site:
            # Cold or evicting: a colliding site replaces the occupant.
            self._table[slot] = (site, actual, 0)
            return
        _, last, confidence = entry
        if actual == last:
            if confidence < self.maximum:
                confidence += 1
        else:
            confidence = 0
        self._table[slot] = (site, actual, confidence)


class StridePredictor(ValuePredictor):
    """Predict ``last + stride`` where the stride must have repeated."""

    kind = "stride"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        #: slot -> (site tag, last value, stride, confidence)
        self._table: Dict[int, Tuple[str, int, int, int]] = {}

    def predict(self, site: str) -> Optional[int]:
        self.lookups += 1
        entry = self._table.get(self._slot(site))
        if entry is None or entry[0] != site or entry[3] < self.threshold:
            return None
        return entry[1] + entry[2]

    def update(self, site: str, actual: int,
               predicted: Optional[int]) -> None:
        self._settle(actual, predicted)
        slot = self._slot(site)
        entry = self._table.get(slot)
        if entry is None or entry[0] != site:
            self._table[slot] = (site, actual, 0, 0)
            return
        _, last, stride, confidence = entry
        observed = actual - last
        if observed == stride:
            if confidence < self.maximum:
                confidence += 1
        else:
            stride = observed
            confidence = 0
        self._table[slot] = (site, actual, stride, confidence)


class ContextPredictor(ValuePredictor):
    """Two-level FCM: recent value history selects the prediction.

    Level one is a direct-mapped per-site table holding the last
    ``CONTEXT_HISTORY`` values seen at the site; level two maps
    (site, history) contexts to a predicted next value with its own
    confidence counter.  Both levels are finite and evict on collision.
    A degenerate one-entry history makes this a last-value predictor
    with an extra indirection, which is why the dominance chain places
    ``context`` above ``stride`` and ``last``: it can memorise any
    repeating sequence they can, plus sequences they cannot.
    """

    kind = "context"

    def __init__(self, history: int = CONTEXT_HISTORY, **kwargs):
        super().__init__(**kwargs)
        if history < 1:
            raise ValueError("context history must be at least 1")
        self.history = history
        #: slot -> (site tag, value-history tuple)
        self._level1: Dict[int, Tuple[str, Tuple[int, ...]]] = {}
        #: slot -> (context tag, predicted value, confidence)
        self._level2: Dict[int, Tuple[Tuple[str, Tuple[int, ...]], int, int]] = {}
        #: the last context hashed and its slot: ``update`` hashes the
        #: same (site, history) that ``predict`` just did
        self._last_context: Optional[Tuple[str, Tuple[int, ...]]] = None
        self._last_context_slot = 0

    def _context_slot(self, tag: Tuple[str, Tuple[int, ...]]) -> int:
        if tag == self._last_context:
            return self._last_context_slot
        site, history = tag
        mixed = zlib.crc32(site.encode())
        for value in history:
            mixed = zlib.crc32(
                (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"), mixed
            )
        slot = mixed % self.entries
        self._last_context = tag
        self._last_context_slot = slot
        return slot

    def predict(self, site: str) -> Optional[int]:
        self.lookups += 1
        first = self._level1.get(self._slot(site))
        if first is None or first[0] != site:
            return None
        history = first[1]
        if len(history) < self.history:
            return None  # still warming the context up
        tag = (site, history)
        entry = self._level2.get(self._context_slot(tag))
        if entry is None or entry[0] != tag or entry[2] < self.threshold:
            return None
        return entry[1]

    def update(self, site: str, actual: int,
               predicted: Optional[int]) -> None:
        self._settle(actual, predicted)
        slot = self._slot(site)
        first = self._level1.get(slot)
        if first is None or first[0] != site:
            self._level1[slot] = (site, (actual,))
            return
        history = first[1]
        if len(history) >= self.history:
            # Train the (site, history) -> actual mapping before shifting.
            tag = (site, history)
            cslot = self._context_slot(tag)
            entry = self._level2.get(cslot)
            if entry is None or entry[0] != tag:
                self._level2[cslot] = (tag, actual, 0)
            else:
                _, value, confidence = entry
                if value == actual:
                    if confidence < self.maximum:
                        confidence += 1
                    self._level2[cslot] = (tag, value, confidence)
                else:
                    self._level2[cslot] = (tag, actual, 0)
        new_history = (history + (actual,))[-self.history:]
        self._level1[slot] = (site, new_history)


class PerfectValuePredictor(ValuePredictor):
    """Trace-driven oracle: every load predicts its actual value.

    The engine short-circuits the table lookup (it already holds the
    actual value from the functional trace) and only routes the
    counters through here, so telemetry reads uniformly across kinds.
    """

    kind = "perfect"
    perfect = True

    def predict(self, site: str) -> Optional[int]:
        # Unreachable in the engine (which uses the trace value), kept
        # for protocol completeness: without the actual value in hand an
        # oracle cannot answer.
        self.lookups += 1
        return None

    def update(self, site: str, actual: int,
               predicted: Optional[int]) -> None:
        self._settle(actual, predicted)


def make_value_predictor(kind: str) -> ValuePredictor:
    """Build a value predictor by axis name (``none`` is the caller's
    job to gate: it means "no predictor object at all")."""
    if kind == "last":
        return LastValuePredictor()
    if kind == "stride":
        return StridePredictor()
    if kind == "context":
        return ContextPredictor()
    if kind == "perfect":
        return PerfectValuePredictor()
    raise ValueError(f"unknown value predictor kind {kind!r}")


def load_site(label: str, index: int) -> str:
    """The site identity of the load at node ``index`` of block ``label``."""
    return f"{label}#{index}"


__all__ = [
    "VALUE_PREDICTOR_KINDS",
    "CONFIDENCE_MAX",
    "CONFIDENCE_THRESHOLD",
    "CONTEXT_HISTORY",
    "DEFAULT_ENTRIES",
    "ValuePredictor",
    "LastValuePredictor",
    "StridePredictor",
    "ContextPredictor",
    "PerfectValuePredictor",
    "make_value_predictor",
    "load_site",
]
