"""Recovery controller (paper, sections 2 and 2.3, Figure 4).

Maintains the set of memory addresses at which the A-stream's context
may differ from the R-stream's, so that an IR-misprediction can be
repaired by copying only those locations (plus the whole register
file).  Two kinds of tracked stores:

* **undo** ("store 1") — a store retired by the A-stream whose
  companion has not yet retired in the R-stream.  If recovery strikes,
  the A-stream's store must be undone from the R-stream's value.
* **do** ("store 2") — a store skipped by the A-stream, tracked from
  its R-stream retirement until the IR-detector verifies the enclosing
  trace's ir-vec.  If recovery strikes first, the store must be done in
  the A-stream by copying from the R-stream.

Tracking is reference-counted per address (only unique addresses
matter, but multiple in-flight stores to one address must not untrack
it early).  The recovery latency model follows Table 2: 5 cycles of
pipeline start-up, then 4 register restores per cycle (all 64 general
registers), then 4 memory restores per cycle — a 21-cycle minimum.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set

RECOVERY_STARTUP_CYCLES = 5
REGISTER_COUNT_RESTORED = 64
RESTORES_PER_CYCLE = 4


@dataclass
class RecoveryCost:
    """Latency breakdown of one recovery/repair action.

    ``registers`` is the number of registers restored — the full
    64-entry file for the paper's A/R rollback, but N-stream repair
    policies (:mod:`repro.core.nstream`) may restore a different count.
    """

    memory_locations: int
    registers: int = REGISTER_COUNT_RESTORED

    @property
    def latency(self) -> int:
        register_cycles = -(-self.registers // RESTORES_PER_CYCLE)
        memory_cycles = -(-self.memory_locations // RESTORES_PER_CYCLE)
        return RECOVERY_STARTUP_CYCLES + register_cycles + memory_cycles


#: Minimum recovery latency: 5 + 64/4 = 21 cycles (paper, Table 2).
MIN_RECOVERY_LATENCY = RecoveryCost(0).latency


class RecoveryController:
    """Tracks potentially-divergent memory addresses."""

    def __init__(self) -> None:
        self._undo: Dict[int, int] = defaultdict(int)
        self._do: Dict[int, int] = defaultdict(int)
        #: do-tracked addresses grouped by the trace that skipped them,
        #: released when the IR-detector verifies that trace.
        self._do_by_trace: Dict[int, List[int]] = defaultdict(list)
        self.max_outstanding = 0
        self.recoveries = 0

    def fork(self) -> "RecoveryController":
        """An independent copy of the tracked address sets."""
        forked = copy.copy(self)
        forked._undo = defaultdict(int, self._undo)
        forked._do = defaultdict(int, self._do)
        forked._do_by_trace = defaultdict(
            list, {seq: list(addrs) for seq, addrs in self._do_by_trace.items()}
        )
        return forked

    # ------------------------------------------------------------------
    # Normal-operation bookkeeping.
    # ------------------------------------------------------------------

    def track_undo(self, addr: int) -> None:
        """A-stream retired a store (Figure 4, "add store 1")."""
        self._undo[addr] += 1
        self._note_size()

    def untrack_undo(self, addr: int) -> None:
        """R-stream retired the companion store ("remove store 1")."""
        count = self._undo.get(addr, 0)
        if count <= 1:
            self._undo.pop(addr, None)
        else:
            self._undo[addr] = count - 1

    def track_do(self, addr: int, trace_seq: int) -> None:
        """R-stream retired a store the A-stream skipped ("add store 2")."""
        self._do[addr] += 1
        self._do_by_trace[trace_seq].append(addr)
        self._note_size()

    def release_verified_trace(self, trace_seq: int) -> None:
        """IR-detector verified a trace's ir-vec ("remove store 2")."""
        for addr in self._do_by_trace.pop(trace_seq, ()):
            count = self._do.get(addr, 0)
            if count <= 1:
                self._do.pop(addr, None)
            else:
                self._do[addr] = count - 1

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def tracked_addresses(self) -> Set[int]:
        """All addresses that must be restored on an IR-misprediction."""
        return set(self._undo) | set(self._do)

    def recover(self) -> RecoveryCost:
        """Perform the accounting side of a recovery: returns the cost
        and clears all tracking (the contexts are equal afterwards)."""
        cost = RecoveryCost(memory_locations=len(self.tracked_addresses()))
        self._undo.clear()
        self._do.clear()
        self._do_by_trace.clear()
        self.recoveries += 1
        return cost

    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._undo) + len(self._do)

    def _note_size(self) -> None:
        size = self.outstanding
        if size > self.max_outstanding:
            self.max_outstanding = size

    def snapshot(self) -> Dict[str, int]:
        """Observability tallies (:mod:`repro.obs`)."""
        return {
            "recoveries": self.recoveries,
            "max_outstanding": self.max_outstanding,
            "outstanding": self.outstanding,
        }
