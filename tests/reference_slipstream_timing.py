"""Reference slipstream timing: the per-call formulation, kept as a test oracle.

:class:`repro.core.slipstream.SlipstreamProcessor` schedules both
streams through two hand-fused loops, ``_schedule_a_trace`` and
``_r_phase``, which inline :meth:`repro.uarch.cache.Cache.probe` and
:meth:`repro.uarch.scheduler.OoOScheduler.add_args` with all state
hoisted into locals.  :class:`ReferenceSlipstreamProcessor` overrides
exactly those two methods with the readable statement of the same
model:

* every scheduled instruction probes its I- and D-cache through
  ``Cache.probe``, forms fetch blocks through a
  :class:`repro.uarch.fetch.BlockFormer`, and is scheduled by one
  ``OoOScheduler.add_args`` call;
* the A-stream charges a conventional misprediction with
  ``OoOScheduler.redirect``;
* the R-stream runs in two passes.  The architectural pass executes,
  calls the fault hook, compares against the A-stream and tracks
  recovery state; none of that reads the timing model.  The scheduling
  pass then gives every redundantly executed slot its delay-buffer
  arrival as ``override=`` and ``merged=True``.

Everything else (A-stream execution, IR-detector, IR-predictor,
recovery) is inherited, so a differential against the fused loops
compares the timing paths and nothing else.  Nothing in ``src/``
imports this module; ``tests/test_slipstream_timing_reference.py``
holds the differentials.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.executor import DynInstr, execute_one
from repro.core.slipstream import SlipstreamProcessor
from repro.uarch.cache import Cache
from repro.uarch.config import CoreConfig
from repro.uarch.fetch import BlockFormer
from repro.uarch.latencies import latency_of
from repro.uarch.scheduler import OoOScheduler, Timestamps


def _schedule(
    sched: OoOScheduler,
    core: CoreConfig,
    icache: Cache,
    dcache: Cache,
    former: BlockFormer,
    dyn: DynInstr,
    override: Optional[int] = None,
) -> Timestamps:
    """Probe the caches for one instruction and schedule it."""
    instr = dyn.instr
    icache_penalty = 0
    if not icache.probe(dyn.pc):
        # An I-cache miss ends the fetch block.
        former.force_break()
        icache_penalty = core.icache.miss_penalty
    new_block = former.place(ends_block=instr.is_control and dyn.taken)
    dcache_penalty = 0
    if dyn.mem_addr is not None and not dcache.probe(dyn.mem_addr):
        dcache_penalty = core.dcache.miss_penalty
    return sched.add_args(
        new_block, icache_penalty, instr.srcs, dyn.dest_reg,
        latency_of(instr), instr.is_load, instr.is_store, dyn.mem_addr,
        dcache_penalty, override=override, merged=override is not None,
    )


def _former(fetch_width: int, count: int, pending: bool) -> BlockFormer:
    former = BlockFormer(fetch_width)
    former._count = count
    former._pending_break = pending
    return former


class ReferenceSlipstreamProcessor(SlipstreamProcessor):
    """Slipstream with both streams scheduled through the reference calls."""

    def _schedule_a_trace(self, steps) -> None:
        former = _former(self.a_core.fetch_width, self._a_block_count,
                         self._a_block_pending)
        for step in steps:
            if not step.executed:
                # Removed instructions take no fetch slot, but a
                # presumed-taken removed transfer still ends the block.
                if step.pred_taken and step.instr.is_control:
                    former.force_break()
                continue
            ts = _schedule(self.a_sched, self.a_core, self.a_icache,
                           self.a_dcache, former, step.dyn)
            step.a_retire = ts.retire
            self._a_last_complete = ts.complete
            self._a_last_retire = ts.retire
            if step.mispredicted:
                self.a_sched.redirect(ts.complete)
                former.force_break()
        self._a_block_count = former._count
        self._a_block_pending = former._pending_break

    def _r_phase(self, record) -> None:
        available = record.available_cycle
        self.r_sched.stall_fetch_until(available)

        # Architectural pass.
        executed: List[DynInstr] = []
        branch_ok: List[bool] = []
        dev_kind: Optional[str] = None
        funcs = self._step_funcs
        for step in record.steps:
            if self.r_state.halted:
                break
            if self.r_pc != step.pc:
                # Control deviation the A-stream did not know about.
                dev_kind = "control"
                break
            # Same execution engine as the fused loop: only timing differs.
            f = funcs.get(self.r_pc) if funcs is not None else None
            if f is not None:
                dyn = f(self.r_state, self._r_seq)
            else:
                dyn = execute_one(self.program, self.r_state, self.r_pc,
                                  seq=self._r_seq)
            self._r_seq += 1
            self.retired += 1
            if self.fault_hook is not None:
                dyn = self.fault_hook("R", dyn, self.r_state, step.executed)
            executed.append(dyn)
            instr = dyn.instr
            branch_ok.append(not instr.is_branch or dyn.taken == step.pred_taken)
            self.r_pc = dyn.next_pc
            if step.executed:
                a_dyn = step.dyn
                if (a_dyn.value != dyn.value
                        or a_dyn.mem_addr != dyn.mem_addr
                        or a_dyn.taken != dyn.taken
                        or a_dyn.next_pc != dyn.next_pc):
                    dev_kind = "value"
                    break
                if instr.is_store and a_dyn.mem_addr is not None:
                    self.recovery.untrack_undo(a_dyn.mem_addr)
            else:
                if instr.is_branch and dyn.taken != step.pred_taken:
                    # A removed branch whose presumed outcome was wrong.
                    dev_kind = "control"
                    break
                if instr.is_store and dyn.mem_addr is not None:
                    self.recovery.track_do(dyn.mem_addr, self._detector_seq)

        # Scheduling pass: slot i of ``executed`` is step i of the group.
        former = _former(self.r_core.fetch_width, self._r_block_count,
                         self._r_block_break)
        transfer_latency = self.config.transfer_latency
        last_complete = self.r_sched.total_cycles
        for dyn, step in zip(executed, record.steps):
            override = None
            if step.executed:
                override = max(step.a_retire + transfer_latency, available)
            ts = _schedule(self.r_sched, self.r_core, self.r_icache,
                           self.r_dcache, former, dyn, override)
            last_complete = ts.complete
        self._r_block_count = former._count
        self._r_block_break = former._pending_break

        deviation = (dev_kind, last_complete) if dev_kind is not None else None
        self._r_finish(record, executed, branch_ok, deviation, last_complete)
