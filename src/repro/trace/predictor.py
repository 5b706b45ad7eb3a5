"""Hybrid path-based trace predictor (paper, section 2.1.1; [13]).

Two tables predict the id of the *next* trace from the sequence of past
trace ids:

* **correlated table** — indexed by a hash of the last
  ``path_depth`` (default 8) trace ids, with a hash function that
  favours bits from more recent trace ids over less recent ones.  Each
  entry holds a predicted trace id and a 2-bit counter for replacement.
* **simple table** — indexed by the most recent trace id only.  It
  learns faster and suffers less aliasing pressure, and serves as the
  fallback when the correlated entry is missing or unproven.

Both tables are updated with the actual next trace at every trace
boundary: a correct entry increments its counter (saturating), an
incorrect entry decrements and is replaced when the counter reaches
zero.

To form the slipstream IR-predictor, three pieces of information are
added *to each table entry* (paper, section 2.1.1): the
instruction-removal bit vector, intermediate-PC information (implicit
in this model — see :mod:`repro.core.ir_predictor`), and a resetting
confidence counter.  Keeping removal state on the predictor entry is
load-bearing: when a path context is unstable (the entry's trace id
keeps flipping), the removal confidence resets with it, so instructions
are never removed along unreliable paths.  The
:class:`~repro.core.ir_predictor.IRPredictor` manages those fields; the
entry type here just carries them.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.trace.trace_id import TraceId
from repro.fingerprint import ConfigError, check_lower_bounds


#: Largest ``TracePredictorConfig.index_bits`` (about a million slots
#: per table).  The tables are sparse, so the cap bounds the index
#: space of a config, not the memory a predictor allocates up front.
MAX_INDEX_BITS = 20


@dataclass(frozen=True)
class TracePredictorConfig:
    """Sizing knobs; defaults follow the paper's Table 2.

    Frozen (hashable): configurations are part of experiment-cache keys
    (:mod:`repro.eval.jobs`), so they must be immutable value objects.
    """

    index_bits: int = 16
    path_depth: int = 8
    counter_max: int = 3

    def __post_init__(self) -> None:
        """Reject an out-of-range field with one
        :class:`~repro.fingerprint.ConfigError`."""
        check_lower_bounds(self, (("index_bits", 1), ("path_depth", 1),
                                  ("counter_max", 1)))
        if self.index_bits > MAX_INDEX_BITS:
            raise ConfigError(type(self).__name__, "index_bits",
                              self.index_bits,
                              f"must be an integer <= {MAX_INDEX_BITS}")

    @property
    def table_size(self) -> int:
        return 1 << self.index_bits


class Entry:
    """One prediction-table entry.

    ``trace_id``/``counter`` implement the conventional trace predictor.
    ``removal_tid``/``ir_vec``/``kinds``/``confidence`` are the
    IR-predictor extension (written by
    :class:`repro.core.ir_predictor.IRPredictor`).
    """

    __slots__ = ("trace_id", "counter", "removal_tid", "ir_vec", "kinds",
                 "confidence")

    def __init__(self) -> None:
        self.trace_id: Optional[TraceId] = None
        self.counter = 0
        self.removal_tid: Optional[TraceId] = None
        self.ir_vec: Optional[Tuple[bool, ...]] = None
        self.kinds = None
        self.confidence = 0

    def copy(self) -> "Entry":
        twin = Entry.__new__(Entry)
        twin.trace_id = self.trace_id
        twin.counter = self.counter
        twin.removal_tid = self.removal_tid
        twin.ir_vec = self.ir_vec
        twin.kinds = self.kinds
        twin.confidence = self.confidence
        return twin


class Lookup(NamedTuple):
    """A prediction plus the entry that produced it."""

    trace_id: Optional[TraceId]
    entry: Optional[Entry]


class _Table:
    """One prediction table with saturating replacement counters.

    Sparse: an index has an entry only once an update trained it, so
    the table costs memory per trained entry, not per slot."""

    def __init__(self, counter_max: int):
        self._entries: Dict[int, Entry] = {}
        self._counter_max = counter_max

    def fork(self, twins: Dict[Entry, Entry]) -> "_Table":
        """An independent copy; ``twins`` maps each entry to its copy."""
        forked = copy.copy(self)
        entries = forked._entries = {}
        for index, entry in self._entries.items():
            twins[entry] = entries[index] = entry.copy()
        return forked

    def lookup(self, index: int) -> Optional[Entry]:
        return self._entries.get(index)

    def update(self, index: int, actual: TraceId) -> Entry:
        entry = self._entries.get(index)
        if entry is None:
            entry = self._entries[index] = Entry()
        if entry.trace_id == actual:
            entry.counter = min(entry.counter + 1, self._counter_max)
        else:
            entry.counter -= 1
            if entry.counter <= 0 or entry.trace_id is None:
                entry.trace_id = actual
                entry.counter = 0
        return entry


class TracePredictor:
    """Predicts the next trace id from the path history of past traces."""

    def __init__(self, config: Optional[TracePredictorConfig] = None):
        self.config = config or TracePredictorConfig()
        self._correlated = _Table(self.config.counter_max)
        self._simple = _Table(self.config.counter_max)
        self._history: Deque[TraceId] = deque(maxlen=self.config.path_depth)
        #: ``mix()`` of each history id, computed once as it enters.
        self._digests: Deque[int] = deque(maxlen=self.config.path_depth)
        #: (correlated, simple) table indices of the current history;
        #: None once the history changes.
        self._indices: Optional[Tuple[int, int]] = None
        self.lookups = 0
        self.correlated_hits = 0

    def fork(self, twins: Dict[Entry, Entry]) -> "TracePredictor":
        """An independent copy of both tables and the path history;
        ``twins`` maps each table entry to its copy."""
        forked = copy.copy(self)
        forked._correlated = self._correlated.fork(twins)
        forked._simple = self._simple.fork(twins)
        forked._history = deque(self._history, maxlen=self.config.path_depth)
        forked._digests = deque(self._digests, maxlen=self.config.path_depth)
        return forked

    # ------------------------------------------------------------------
    # Indexing.
    # ------------------------------------------------------------------

    def _index_pair(self) -> Tuple[int, int]:
        """The (correlated, simple) table indices of the path history.

        The correlated index hashes the history, favouring recent trace
        ids: the most recent id contributes all of its bits; each older
        id is truncated harder and shifted, so recent path information
        dominates the index (as in the DOLC scheme of [13]).  The simple
        index is the most recent id alone.  Both are computed once per
        history (a lookup and the update that follows it share them).
        """
        indices = self._indices
        if indices is None:
            index_bits = self.config.index_bits
            mask = self.config.table_size - 1
            acc = simple = 0
            for age, digest in enumerate(reversed(self._digests)):
                if not age:
                    simple = digest & mask
                keep_bits = max(index_bits - 2 * age, 4)
                acc ^= (digest & ((1 << keep_bits) - 1)) << (age & 0x3)
            indices = self._indices = (acc & mask, simple)
        return indices

    # ------------------------------------------------------------------
    # Prediction / update.
    # ------------------------------------------------------------------

    def lookup(self) -> Lookup:
        """Predict the next trace id, returning the entry used.

        The correlated table wins when its entry has proven itself
        (counter > 0); otherwise the simple table's entry is used.
        Returns ``Lookup(None, None)`` when untrained.
        """
        self.lookups += 1
        correlated_index, simple_index = self._index_pair()
        correlated = self._correlated.lookup(correlated_index)
        if (
            correlated is not None
            and correlated.trace_id is not None
            and correlated.counter > 0
        ):
            self.correlated_hits += 1
            return Lookup(correlated.trace_id, correlated)
        simple = self._simple.lookup(simple_index)
        if simple is not None and simple.trace_id is not None:
            return Lookup(simple.trace_id, simple)
        return Lookup(None, None)

    def predict(self) -> Optional[TraceId]:
        """Predict the id of the next trace, or None if untrained."""
        return self.lookup().trace_id

    def update(self, actual: TraceId) -> Tuple[Entry, Entry]:
        """Train both tables with the actual next trace, then shift it
        into the path history.  Returns the (correlated, simple) entries
        updated — the IR-predictor trains removal state on them."""
        correlated_index, simple_index = self._index_pair()
        correlated = self._correlated.update(correlated_index, actual)
        simple = self._simple.update(simple_index, actual)
        self._history.append(actual)
        self._digests.append(actual.mix())
        self._indices = None
        return correlated, simple

    # ------------------------------------------------------------------
    # Recovery support.
    # ------------------------------------------------------------------

    def history_snapshot(self) -> List[TraceId]:
        return list(self._history)

    def restore_history(self, snapshot: List[TraceId]) -> None:
        """Back the predictor up to a precise point (IR-misprediction
        recovery re-synchronises the predictor to the R-stream's PC)."""
        self._history = deque(snapshot, maxlen=self.config.path_depth)
        self._digests = deque((tid.mix() for tid in snapshot),
                              maxlen=self.config.path_depth)
        self._indices = None
