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

Both overrides read the delay-buffer outcome group through
:func:`followed_steps`, which restates its columns as one
:class:`FollowedStep` per position and checks them against the
per-step definitions: each step's PC is its predecessor's successor
(:func:`next_pc_of`: the executed record's ``next_pc``, or a removed
instruction's static successor under its presumed outcome), the
followed trace id is the path's start PC plus its branch outcomes
(:func:`trace_id_of_steps`, presumed outcomes included), and the one
charged misprediction sits on an executed step.  A fault in the fused
A-phase's column bookkeeping therefore fails the differential too.

Everything else (A-stream execution, IR-detector, IR-predictor,
recovery) is inherited, so a differential against the fused loops
compares the timing paths and the outcome-group columns, nothing else.
Nothing in ``src/`` imports this module;
``tests/test_slipstream_timing_reference.py`` holds the differentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.arch.executor import DynInstr, execute_one
from repro.core.slipstream import SlipstreamProcessor
from repro.isa.instructions import InstrClass, Instruction, WORD
from repro.isa.program import Program
from repro.trace.trace_id import TraceId
from repro.uarch.cache import Cache
from repro.uarch.config import CoreConfig
from repro.uarch.fetch import BlockFormer
from repro.uarch.latencies import latency_of
from repro.uarch.scheduler import OoOScheduler, Timestamps


@dataclass
class FollowedStep:
    """One position of an outcome group, as a single object."""

    pc: int
    instr: Instruction
    dyn: Optional[DynInstr]  # None: removed
    pred_taken: bool
    mispredicted: bool

    @property
    def executed(self) -> bool:
        return self.dyn is not None


def next_pc_of(step: FollowedStep) -> int:
    """The PC the A-stream fetched after ``step``."""
    if step.dyn is not None:
        return step.dyn.next_pc
    if step.instr.is_branch:
        return step.instr.target if step.pred_taken else step.pc + WORD
    if step.instr.klass is InstrClass.JUMP:
        return step.instr.target
    return step.pc + WORD


def trace_id_of_steps(steps: List[FollowedStep], start_pc: int) -> TraceId:
    """Trace id of the followed path, presumed outcomes included."""
    outcomes = []
    for step in steps:
        if step.instr.is_branch:
            outcomes.append(step.dyn.taken if step.dyn is not None
                            else step.pred_taken)
    return TraceId(start_pc, tuple(outcomes))


def followed_steps(program: Program, record) -> List[FollowedStep]:
    """The outcome group's columns as steps, checked per step."""
    n = len(record.pcs)
    assert len(record.dyns) == len(record.pred_taken) == n
    steps = []
    for i, (pc, dyn, taken) in enumerate(
            zip(record.pcs, record.dyns, record.pred_taken)):
        if dyn is not None:
            assert dyn.pc == pc
            instr = dyn.instr
        else:
            instr = program.at(pc)
            assert record.kinds is not None and record.kinds[i]
            assert instr.klass not in (InstrClass.JUMP_INDIRECT,
                                       InstrClass.OUT, InstrClass.HALT)
        if steps:
            assert pc == next_pc_of(steps[-1]), (i, pc)
        steps.append(FollowedStep(pc, instr, dyn, taken,
                                  i == record.mispredicted))
    assert record.mispredicted == -1 or steps[record.mispredicted].executed
    start_pc = record.followed_tid.start_pc
    assert not steps or steps[0].pc == start_pc
    assert trace_id_of_steps(steps, start_pc) == record.followed_tid
    assert tuple(record.outcomes) == record.followed_tid.outcomes
    return steps


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

    def _schedule_a_trace(self, record) -> None:
        former = _former(self.a_core.fetch_width, self._a_block_count,
                         self._a_block_pending)
        record.a_retire = a_retire = [0] * len(record.pcs)
        for i, step in enumerate(followed_steps(self.program, record)):
            if not step.executed:
                # Removed instructions take no fetch slot, but a
                # presumed-taken removed transfer still ends the block.
                if step.pred_taken and step.instr.is_control:
                    former.force_break()
                continue
            ts = _schedule(self.a_sched, self.a_core, self.a_icache,
                           self.a_dcache, former, step.dyn)
            a_retire[i] = ts.retire
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
        steps = followed_steps(self.program, record)
        for step in steps:
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
        for dyn, step, a_retire in zip(executed, steps, record.a_retire):
            override = None
            if step.executed:
                override = max(a_retire + transfer_latency, available)
            ts = _schedule(self.r_sched, self.r_core, self.r_icache,
                           self.r_dcache, former, dyn, override)
            last_complete = ts.complete
        self._r_block_count = former._count
        self._r_block_break = former._pending_break

        deviation = (dev_kind, last_complete) if dev_kind is not None else None
        self._r_finish(record, executed, branch_ok, deviation, last_complete)
