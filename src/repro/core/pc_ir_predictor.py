"""Per-instruction (non-trace-based) instruction-removal predictor.

The paper's section 2.1.3 diagnoses two pathologies of trace-based
removal — unrelated unstable patterns dilute the single per-trace
confidence counter, and unstable traces never saturate it — and
sketches the mechanism the authors were "currently developing":

1. confidence is measured for instructions individually, so unrelated
   instructions do not dilute confidence;
2. traces are not used [for the removal decision], so trace stability
   is not an issue;
3. chains are not confined within a small region;
4. dependence chains tend to be removed together even though
   per-instruction confidence counters are used.

This module implements that mechanism: a PC-indexed table of resetting
confidence counters, trained from the IR-detector's per-instruction
verdicts.  An instruction's counter increments when its dynamic
instance was selected for removal (and, for branches, its predicted
outcome was also correct — otherwise per-instruction confidence would
happily saturate on *every* branch, since the detector selects all of
them); any non-selected or mispredicted instance resets the counter.

The risk the paper notes — removing a producer but not its consumer —
is real here: the per-PC counters of a chain usually saturate together
(point 4), but nothing *guarantees* it, so this mechanism trades a few
more IR-mispredictions for substantially more removal on benchmarks
with unstable traces (gcc is the paper's predicted beneficiary; the
``benchmarks/test_ext_pc_ir.py`` bench tests that prediction).

Select it with ``SlipstreamConfig(removal_mechanism="pc")``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict

from repro.core.removal import RemovalKind


class _PCEntry:
    __slots__ = ("confidence", "kind", "pinned")

    def __init__(self) -> None:
        self.confidence = 0
        self.kind = RemovalKind.NONE
        #: Statically-proven entries never reset (see :meth:`seed`).
        self.pinned = False


@dataclass(frozen=True)
class PCIRPredictorConfig:
    """Per-instruction mechanism knobs."""

    confidence_threshold: int = 32


class PCIRPredictor:
    """PC-indexed resetting confidence counters for removal decisions.

    The table is keyed by static PC; programs are finite, so no
    capacity management is needed (a hardware implementation would use
    a tagged, set-associative structure).
    """

    def __init__(self, config: PCIRPredictorConfig = PCIRPredictorConfig()):
        self.config = config
        self._table: Dict[int, _PCEntry] = {}
        self.trainings = 0
        self.resets = 0

    def fork(self) -> "PCIRPredictor":
        """An independent copy of the table and its tallies."""
        forked = copy.copy(self)
        table = forked._table = {}
        for pc, entry in self._table.items():
            twin = table[pc] = _PCEntry.__new__(_PCEntry)
            twin.confidence = entry.confidence
            twin.kind = entry.kind
            twin.pinned = entry.pinned
        return forked

    # ------------------------------------------------------------------
    # Front-end interface.
    # ------------------------------------------------------------------

    def removable(self, pc: int) -> bool:
        """True if this static instruction's removal is confident.

        An entry needs a removal kind as well: one trained only on
        unselected instances has none, and at threshold 0 its
        confidence alone would pass.
        """
        entry = self._table.get(pc)
        return (
            entry is not None
            and entry.kind != RemovalKind.NONE
            and entry.confidence >= self.config.confidence_threshold
        )

    def kind_of(self, pc: int) -> RemovalKind:
        entry = self._table.get(pc)
        return entry.kind if entry is not None else RemovalKind.NONE

    # ------------------------------------------------------------------
    # Training interface (per retired R-stream instruction).
    # ------------------------------------------------------------------

    def train(self, pc: int, selected: bool, kind: RemovalKind,
              branch_ok: bool = True) -> None:
        """Feed one dynamic instance's detector verdict.

        ``branch_ok`` is False when the instance is a branch whose
        predicted outcome was wrong — such instances must reset the
        counter even though the detector nominally selects every
        branch.
        """
        self.trainings += 1
        entry = self._table.get(pc)
        if entry is None:
            entry = _PCEntry()
            self._table[pc] = entry
        if selected and branch_ok:
            entry.confidence += 1
            if kind != RemovalKind.NONE:
                entry.kind = kind
        elif not entry.pinned:
            if entry.confidence:
                self.resets += 1
            entry.confidence = 0

    def seed(self, pc: int, kind: RemovalKind) -> None:
        """Pre-warm a PC from a statically-proven fact.

        The entry starts at the confidence threshold (confident from the
        first dynamic instance) and is *pinned*: a static proof holds in
        every execution, so dynamic non-selection — which for a sound
        detector can only be a detector limitation, never a
        counter-example — must not reset it.
        """
        entry = self._table.get(pc)
        if entry is None:
            entry = _PCEntry()
            self._table[pc] = entry
        entry.confidence = max(entry.confidence,
                               self.config.confidence_threshold)
        if kind != RemovalKind.NONE:
            entry.kind = kind
        entry.pinned = True

    # ------------------------------------------------------------------

    @property
    def seeded_pcs(self) -> int:
        return sum(1 for e in self._table.values() if e.pinned)

    @property
    def confident_pcs(self) -> int:
        threshold = self.config.confidence_threshold
        return sum(1 for e in self._table.values() if e.confidence >= threshold)
