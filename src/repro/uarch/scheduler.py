"""Table-scheduled out-of-order timing model.

One forward pass assigns every dynamic instruction its pipeline
timestamps.  The model enforces, per :class:`repro.uarch.config.CoreConfig`:

* **fetch**: one fetch block per cycle (callers mark block boundaries —
  taken branches, fetch-width limits, redirects); I-cache misses delay
  the block; redirects (branch mispredictions, recovery) floor the next
  block's cycle.
* **dispatch**: in order, ``dispatch_width`` per cycle,
  ``frontend_depth`` cycles after fetch, and only when the ROB has a
  free entry (entry freed by the retire of the instruction ``rob_size``
  earlier).
* **issue**: out of order once operands are ready, ``issue_width`` per
  cycle.  Loads additionally wait for the latest earlier store to the
  same address (store-to-load forwarding at the store's completion).
  Value-predicted operands (R-stream) override local readiness with the
  delay-buffer arrival time.
* **complete**: issue + FU latency (+ D-cache miss penalty for loads).
* **retire**: in order, ``retire_width`` per cycle, after completion.

The pass is O(n) in dynamic instructions, which is what makes a pure
Python reproduction of the paper's full benchmark sweep tractable; see
DESIGN.md for the fidelity argument.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.isa.instructions import REG_COUNT
from repro.uarch.config import CoreConfig


class Timestamps(NamedTuple):
    """Pipeline timestamps of one dynamic instruction."""

    fetch: int
    dispatch: int
    issue: int
    complete: int
    retire: int


class InstrTiming(NamedTuple):
    """Semantic metadata the scheduler needs about one instruction.

    ``ready_override``, when not None, is the cycle at which *all*
    source operands become available from the delay buffer (value
    prediction), replacing producer-completion readiness.
    """

    new_block: bool
    icache_penalty: int
    srcs: Tuple[int, ...]
    dest: Optional[int]
    latency: int
    is_load: bool = False
    is_store: bool = False
    mem_addr: Optional[int] = None
    dcache_penalty: int = 0
    ready_override: Optional[int] = None
    fetch_floor: int = 0
    #: The instruction consumes a delay-buffer data-flow entry at
    #: dispatch (slipstream R-stream); capped at ``merge_width``/cycle.
    merged: bool = False


class OoOScheduler:
    """Incremental timestamp assignment for one core's dynamic stream.

    ``block_overhead`` is an optional rational (numerator, denominator)
    adding extra front-end cycles per fetch block.  The slipstream
    R-stream uses (1, 2): merging delay-buffer outcome records (operand
    values, skip markers) with each fetched block before rename costs
    its front end an extra cycle every other block.  This is the single
    global fidelity knob that calibrates the R-stream's efficiency to
    the paper's (see DESIGN.md); conventional cores use (0, 1).
    """

    __slots__ = (
        "config",
        "_overhead_num",
        "_overhead_den",
        "_overhead_acc",
        "_dispatch_width",
        "_issue_width",
        "_retire_width",
        "_rob_size",
        "_frontend_depth",
        "_merge_width",
        "_reg_ready",
        "_store_ready",
        "_rob_retire",
        "_issue_count",
        "_next_block_cycle",
        "_cur_block_fetch",
        "_last_dispatch",
        "_dispatch_used",
        "_merge_cycle",
        "_merge_used",
        "_retire_cycle",
        "_retire_count",
        "retired",
        "redirects",
        "merge_stalls",
        "timing_block_hit",
        "timing_block_miss",
        "timing_fallback",
    )

    def __init__(
        self,
        config: CoreConfig,
        block_overhead: Tuple[int, int] = (0, 1),
        merge_width: Optional[int] = None,
    ):
        self.config = config
        self._overhead_num, self._overhead_den = block_overhead
        self._overhead_acc = 0
        # Config fields hoisted out of the per-instruction path.
        self._dispatch_width = config.dispatch_width
        self._issue_width = config.issue_width
        self._retire_width = config.retire_width
        self._rob_size = config.rob_size
        self._frontend_depth = config.frontend_depth
        #: Delay-buffer data-flow read ports: at most this many merged
        #: (value-predicted) instructions dispatch per cycle.
        self._merge_width = merge_width if merge_width is not None else config.dispatch_width
        self._reg_ready: List[int] = [0] * REG_COUNT
        self._store_ready: Dict[int, int] = {}
        self._rob_retire: Deque[int] = deque()
        self._issue_count: Dict[int, int] = {}
        self._next_block_cycle = 0
        self._cur_block_fetch = 0
        # Dispatch is in order, hence monotone non-decreasing: slot
        # occupancy needs only the current cycle's count, not a dict
        # keyed by cycle (issue is out of order and keeps the dict).
        self._last_dispatch = 0
        self._dispatch_used = 0
        self._merge_cycle = 0
        self._merge_used = 0
        self._retire_cycle = 0
        self._retire_count = 0
        self.retired = 0
        #: Observability tallies (:mod:`repro.obs`) — observers only;
        #: nothing in the timing model reads them back.
        self.redirects = 0
        #: Cycles an instruction's dispatch slipped because the delay-
        #: buffer merge ports (``merge_width``) were saturated — the
        #: R-stream merge stall the paper's §2.2 transfer path implies.
        self.merge_stalls = 0
        #: Compiled-timing engine tallies (:mod:`repro.uarch.compiled_timing`):
        #: traces replayed from a memoized delta, traces scheduled
        #: scalar-and-recorded, and traces that bypassed memoization
        #: entirely.  All zero when the engine is disabled
        #: (``REPRO_COMPILED_TIMING=0``) and on the slipstream streams'
        #: schedulers, which never use it.  Observers only.
        self.timing_block_hit = 0
        self.timing_block_miss = 0
        self.timing_fallback = 0

    def fork(self) -> "OoOScheduler":
        """An independent copy: scalars by value, the per-register,
        per-address, ROB and per-cycle containers copied.

        Only the live issue cycles are copied: every later instruction
        dispatches at or after ``_last_dispatch`` and issues at or after
        its dispatch, so a count below that cycle is never read again.
        """
        cls = type(self)
        forked = cls.__new__(cls)
        for name in OoOScheduler.__slots__:
            setattr(forked, name, getattr(self, name))
        forked._reg_ready = list(self._reg_ready)
        forked._store_ready = dict(self._store_ready)
        forked._rob_retire = deque(self._rob_retire)
        floor = self._last_dispatch
        forked._issue_count = {
            cycle: count for cycle, count in self._issue_count.items()
            if cycle >= floor
        }
        return forked

    # ------------------------------------------------------------------
    # External timing events.
    # ------------------------------------------------------------------

    def redirect(self, resolve_cycle: int) -> None:
        """A branch misprediction resolved at ``resolve_cycle``: the next
        fetch block cannot start before the redirect propagates."""
        floor = resolve_cycle + 1 + self.config.redirect_penalty
        if floor > self._next_block_cycle:
            self._next_block_cycle = floor
        self.redirects += 1

    def stall_fetch_until(self, cycle: int) -> None:
        """External fetch barrier (recovery completion, delay-buffer
        availability)."""
        if cycle > self._next_block_cycle:
            self._next_block_cycle = cycle

    # ------------------------------------------------------------------
    # The per-instruction pass.
    # ------------------------------------------------------------------

    def add(self, timing: InstrTiming) -> Timestamps:
        """Schedule one instruction; returns its pipeline timestamps."""
        return self.add_args(*timing)

    def add_args(
        self,
        new_block: bool,
        icache_penalty: int,
        srcs: Tuple[int, ...],
        dest: Optional[int],
        latency: int,
        is_load: bool = False,
        is_store: bool = False,
        mem_addr: Optional[int] = None,
        dcache_penalty: int = 0,
        override: Optional[int] = None,
        fetch_floor: int = 0,
        merged: bool = False,
    ) -> Timestamps:
        """Positional fast path of :meth:`add`, skipping the
        :class:`InstrTiming` allocation (one call per scheduled dynamic
        instruction).

        NOTE: the slipstream co-simulation's two fused loops,
        ``SlipstreamProcessor._schedule_a_trace`` (A-stream) and
        ``SlipstreamProcessor._r_phase`` (R-stream), inline this exact
        logic with the scalar state in locals, and
        ``TraceTimingEngine._scalar`` does too; keep them in sync when
        changing it (``tests/test_slipstream_timing_reference.py``
        checks the fused loops against this method).
        """
        # Fetch.
        if new_block:
            block = self._next_block_cycle
            if fetch_floor > block:
                block = fetch_floor
            fetch = block + icache_penalty
            self._cur_block_fetch = fetch
            gap = 1
            if self._overhead_num:
                self._overhead_acc += self._overhead_num
                if self._overhead_acc >= self._overhead_den:
                    self._overhead_acc -= self._overhead_den
                    gap += 1
            self._next_block_cycle = fetch + gap
        else:
            fetch = self._cur_block_fetch

        # Operand readiness (computed first: whether the delay-buffer
        # merge port is needed depends on whether the prediction
        # actually accelerates this instruction).
        ready = 0
        reg_ready = self._reg_ready
        for src in srcs:
            t = reg_ready[src]
            if t > ready:
                ready = t
        if is_load and mem_addr is not None:
            t = self._store_ready.get(mem_addr, 0)
            if t > ready:
                ready = t
        accelerated = override is not None and override < ready
        if accelerated:
            # Value-predicted operands (delay buffer): predictions only
            # ever *accelerate* readiness — the local bypass network
            # still supplies values at producer completion.
            local_ready = ready
            ready = override

        # Dispatch: in order, width-limited, ROB-limited.  Dispatch
        # cycles never decrease, so slot occupancy reduces to a count
        # at the current dispatch cycle: any later cycle is empty.
        last_dispatch = self._last_dispatch
        dispatch = fetch + self._frontend_depth
        if dispatch < last_dispatch:
            dispatch = last_dispatch
        rob_retire = self._rob_retire
        if len(rob_retire) >= self._rob_size:
            rob_free = rob_retire.popleft()
            if dispatch < rob_free:
                dispatch = rob_free
        if dispatch == last_dispatch and self._dispatch_used >= self._dispatch_width:
            dispatch += 1
        # Delay-buffer merge ports (slipstream R-stream): consumed only
        # when the prediction actually matters — the operand would not
        # have been locally available by dispatch time.  The same
        # monotonicity argument applies: advancing one cycle lands on
        # an empty cycle for both dispatch slots and merge ports.
        if merged and accelerated and local_ready > dispatch:
            if dispatch == self._merge_cycle and self._merge_used >= self._merge_width:
                dispatch += 1
                self.merge_stalls += 1
            if dispatch == self._merge_cycle:
                self._merge_used += 1
            else:
                self._merge_cycle = dispatch
                self._merge_used = 1
        if dispatch == last_dispatch:
            self._dispatch_used += 1
        else:
            self._last_dispatch = dispatch
            self._dispatch_used = 1

        # Issue: width-limited slot search.
        issue = dispatch if dispatch > ready else ready
        issue_width = self._issue_width
        counts = self._issue_count
        counts_get = counts.get
        while counts_get(issue, 0) >= issue_width:
            issue += 1
        counts[issue] = counts_get(issue, 0) + 1

        # Complete.
        complete = issue + latency
        if is_load:
            complete += dcache_penalty
        if dest is not None:
            reg_ready[dest] = complete
        if is_store and mem_addr is not None:
            self._store_ready[mem_addr] = complete

        # Retire: in order, width-limited.
        earliest = complete + 1
        if earliest > self._retire_cycle:
            self._retire_cycle = earliest
            self._retire_count = 1
        elif self._retire_count >= self._retire_width:
            self._retire_cycle += 1
            self._retire_count = 1
        else:
            self._retire_count += 1
        retire = self._retire_cycle

        rob_retire.append(retire)
        self.retired += 1
        return Timestamps(fetch, dispatch, issue, complete, retire)

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Cycles elapsed through the last retirement."""
        return self._retire_cycle

    @property
    def ipc(self) -> float:
        return self.retired / self._retire_cycle if self._retire_cycle else 0.0

    def snapshot(self) -> dict:
        """Observability tallies (:mod:`repro.obs`)."""
        return {
            "retired": self.retired,
            "cycles": self._retire_cycle,
            "redirects": self.redirects,
            "merge_stalls": self.merge_stalls,
            "timing_block_hit": self.timing_block_hit,
            "timing_block_miss": self.timing_block_miss,
            "timing_fallback": self.timing_fallback,
        }
