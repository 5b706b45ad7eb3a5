"""Delay buffer: the A-stream → R-stream outcome FIFO (paper, §2.2).

The buffer carries a complete control-flow history ({trace-id, ir-vec}
pairs) and a partial data-flow history (operand values and addresses of
the instructions the A-stream actually executed).  It is finite — 256
instruction entries in Table 2 — so a far-ahead A-stream stalls until
the R-stream consumes.

The co-simulation couples the two streams through *timestamps* instead
of a cycle-synchronous loop: a push records the A-stream cycle its
outcomes became available, and is delayed (backpressure) until enough
older entries have pop timestamps that free the required space.
Because a push only ever depends on strictly older pops, and the driver
interleaves trace-by-trace (push trace *i*, pop trace *i*, push trace
*i+1*, …), all timestamps resolve in one forward pass (DESIGN.md,
"Timestamp-coupled delay buffer").
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Deque, Dict, Optional


class DelayBufferError(Exception):
    """Protocol misuse (pop without push, oversized trace, ...)."""


class _Group:
    """One pushed outcome group: entry count plus its pop timestamp."""

    __slots__ = ("count", "pop_cycle")

    def __init__(self, count: int):
        self.count = count
        #: None until the R-stream consumes the group.
        self.pop_cycle: Optional[int] = None


class DelayBuffer:
    """Timestamp-coupled bounded FIFO of per-trace outcome groups."""

    def __init__(self, capacity: int = 256, transfer_latency: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.transfer_latency = transfer_latency
        self._groups: Deque[_Group] = deque()
        #: The not-yet-popped suffix of ``_groups``, oldest first.  Pops
        #: are marked FIFO and :meth:`push` only ever drops groups that
        #: are already popped, so the head of this deque is exactly the
        #: oldest unpopped group — an O(1) :meth:`mark_popped` instead of
        #: a linear scan over all outstanding groups.
        self._unpopped: Deque[_Group] = deque()
        self._occupancy = 0
        self.pushes = 0
        self.backpressure_events = 0
        self.max_occupancy = 0

    def fork(self) -> "DelayBuffer":
        """An independent copy; a group queued both as pushed and as
        unpopped stays one group in the copy."""
        forked = copy.copy(self)
        twins: Dict[_Group, _Group] = {}
        for group in (*self._groups, *self._unpopped):
            if group not in twins:
                twin = twins[group] = _Group(group.count)
                twin.pop_cycle = group.pop_cycle
        forked._groups = deque(twins[group] for group in self._groups)
        forked._unpopped = deque(twins[group] for group in self._unpopped)
        return forked

    @property
    def occupancy(self) -> int:
        return self._occupancy

    def push(self, entry_count: int, produce_cycle: int) -> int:
        """Push one trace's outcome group.

        ``entry_count`` is the number of instruction entries the group
        occupies (the A-stream's executed instructions; at least one
        slot for the control-flow record).  Returns the cycle at which
        the push completes — later than ``produce_cycle`` if the
        A-stream had to wait for the R-stream to drain.
        """
        if entry_count < 1:
            entry_count = 1
        if entry_count > self.capacity:
            raise DelayBufferError(
                f"group of {entry_count} exceeds capacity {self.capacity}"
            )
        cycle = produce_cycle
        stalled = False
        while self._occupancy + entry_count > self.capacity:
            group = self._groups[0]
            if group.pop_cycle is None:
                raise DelayBufferError(
                    "backpressure on a group the R-stream has not consumed; "
                    "the driver must interleave pushes and pops"
                )
            self._groups.popleft()
            self._occupancy -= group.count
            if group.pop_cycle > cycle:
                cycle = group.pop_cycle
                stalled = True
        if stalled:
            self.backpressure_events += 1
        group = _Group(entry_count)
        self._groups.append(group)
        self._unpopped.append(group)
        self._occupancy += entry_count
        if self._occupancy > self.max_occupancy:
            self.max_occupancy = self._occupancy
        self.pushes += 1
        return cycle

    def mark_popped(self, pop_cycle: int) -> None:
        """Record the R-stream's consumption of the oldest unpopped group."""
        if not self._unpopped:
            raise DelayBufferError("no unpopped group to mark")
        self._unpopped.popleft().pop_cycle = pop_cycle

    def flush(self) -> None:
        """Discard all contents (IR-misprediction recovery)."""
        self._groups.clear()
        self._unpopped.clear()
        self._occupancy = 0

    def snapshot(self) -> dict:
        """Observability tallies (:mod:`repro.obs`)."""
        return {
            "pushes": self.pushes,
            "backpressure_events": self.backpressure_events,
            "max_occupancy": self.max_occupancy,
        }
