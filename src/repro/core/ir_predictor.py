"""Instruction-removal predictor (paper, section 2.1.1).

The IR-predictor is the trace predictor with three pieces of
information added to each prediction-table entry:

1. an instruction-removal bit vector (ir-vec) naming the instructions
   of the predicted trace to skip in the A-stream;
2. intermediate program-counter values — in this model the A-stream
   front end derives chunk-skip points from the surviving instructions'
   PC contiguity, so the information is implicit rather than stored
   (see :meth:`repro.core.slipstream.SlipstreamProcessor._schedule_a_trace`);
3. a single resetting confidence counter: incremented when a newly
   computed {trace-id, ir-vec} pair from the IR-detector matches the
   pair stored at the entry being updated, reset to zero (and the new
   pair stored) otherwise.  Removal applies only at or above
   ``confidence_threshold``.

Keeping this state *on the predictor entries* (rather than in a
side-table keyed by trace id) is essential to the paper's safety story:
an entry whose path context is unstable keeps flipping its stored
{trace-id, ir-vec} pair, so its confidence never saturates and no
instructions are removed along unreliable paths.  Conversely it also
reproduces the paper's §2.1.3 pathology — unrelated unstable patterns
dilute the single per-trace counter.

Training timing: the detector's analysis of trace *n* arrives when the
trace leaves the 8-trace scope, several traces after the predictor's
path update for *n*.  The IR-predictor therefore queues the table
entries touched by each path update and trains removal state on them
when the matching analysis arrives (FIFO — analyses retire in feed
order).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, NamedTuple, Optional, Tuple

from repro.core.ir_detector import TraceAnalysis
from repro.core.removal import RemovalKind
from repro.trace.predictor import Entry, TracePredictor, TracePredictorConfig
from repro.trace.trace_id import TraceId


@dataclass(frozen=True)
class IRPredictorConfig:
    """Sizing and policy knobs (paper, Table 2)."""

    confidence_threshold: int = 32
    trace_predictor: TracePredictorConfig = field(default_factory=TracePredictorConfig)


class RemovalPrediction(NamedTuple):
    """A confident removal decision for one predicted trace."""

    ir_vec: Tuple[bool, ...]
    kinds: Tuple[RemovalKind, ...]


class Prediction(NamedTuple):
    """One front-end prediction: the next trace and its removal info."""

    trace_id: Optional[TraceId]
    removal: Optional[RemovalPrediction]


class IRPredictor:
    """Trace predictor + per-entry instruction-removal state."""

    def __init__(self, config: Optional[IRPredictorConfig] = None):
        self.config = config or IRPredictorConfig()
        self.trace_predictor = TracePredictor(self.config.trace_predictor)
        #: Entries touched by each path update, awaiting their
        #: detector analysis (FIFO, aligned with detector feed order).
        self._pending: Deque[Tuple[TraceId, Entry, Entry]] = deque()
        self.trainings = 0
        self.confidence_resets = 0
        #: Observability tallies (:mod:`repro.obs`): predictions issued,
        #: and how many carried a confident removal decision.
        self.predictions = 0
        self.removal_predictions = 0

    def fork(self) -> "IRPredictor":
        """An independent copy: both tables, the path history and the
        queued path updates, which point at the copied entries."""
        forked = copy.copy(self)
        twins: Dict[Entry, Entry] = {}
        forked.trace_predictor = self.trace_predictor.fork(twins)
        forked._pending = deque(
            (tid, twins[correlated], twins[simple])
            for tid, correlated, simple in self._pending
        )
        return forked

    # ------------------------------------------------------------------
    # Front-end interface (A-stream).
    # ------------------------------------------------------------------

    def predict(self) -> Prediction:
        """Predict the next trace id and its removal decision.

        The removal information comes from the *same table entry* that
        produced the trace prediction, and applies only when that
        entry's stored removal pair matches the predicted trace and has
        reached the confidence threshold.
        """
        self.predictions += 1
        lookup = self.trace_predictor.lookup()
        if lookup.trace_id is None or lookup.entry is None:
            return Prediction(None, None)
        entry = lookup.entry
        removal: Optional[RemovalPrediction] = None
        if (
            entry.removal_tid == lookup.trace_id
            and entry.ir_vec is not None
            and entry.confidence >= self.config.confidence_threshold
            and any(entry.ir_vec)
        ):
            removal = RemovalPrediction(entry.ir_vec, entry.kinds)
            self.removal_predictions += 1
        return Prediction(lookup.trace_id, removal)

    def update_path(self, actual: TraceId) -> None:
        """Shift the actual (verified) trace into the path history and
        queue the touched entries for removal training."""
        correlated, simple = self.trace_predictor.update(actual)
        self._pending.append((actual, correlated, simple))

    # ------------------------------------------------------------------
    # Training interface (IR-detector).
    # ------------------------------------------------------------------

    def train_removal(self, analysis: TraceAnalysis) -> None:
        """Feed one computed {trace-id, ir-vec} pair from the detector.

        Analyses arrive in feed order; each consumes the oldest queued
        path update, which must be for the same trace id.
        """
        self.trainings += 1
        if not self._pending:
            return
        tid, correlated, simple = self._pending.popleft()
        # Identity first: the queued id is usually the analysed object
        # itself, and the dataclass ``__eq__`` is comparatively slow.
        if tid is not analysis.trace_id and tid != analysis.trace_id:
            # Should not happen (FIFO alignment); drop defensively.
            return
        for entry in (correlated, simple):
            self._train_entry(entry, analysis)

    def _train_entry(self, entry: Entry, analysis: TraceAnalysis) -> None:
        tid = analysis.trace_id
        if (
            (entry.removal_tid is tid or entry.removal_tid == tid)
            and entry.ir_vec == analysis.ir_vec
        ):
            entry.confidence += 1
            return
        if entry.ir_vec is not None:
            self.confidence_resets += 1
        entry.removal_tid = tid
        entry.ir_vec = analysis.ir_vec
        entry.kinds = analysis.kinds
        entry.confidence = 0

    # ------------------------------------------------------------------
    # Recovery interface.
    # ------------------------------------------------------------------

    def history_snapshot(self):
        return self.trace_predictor.history_snapshot()

    def snapshot(self) -> dict:
        """Observability tallies (:mod:`repro.obs`)."""
        return {
            "predictions": self.predictions,
            "removal_predictions": self.removal_predictions,
            "trainings": self.trainings,
            "confidence_resets": self.confidence_resets,
        }

    def restore_history(self, snapshot) -> None:
        """Back the predictor up to a precise point (recovery)."""
        self.trace_predictor.restore_history(snapshot)
