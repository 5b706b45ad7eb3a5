"""Conventional superscalar processor model: SS(64x4) and SS(128x8).

A single copy of the program runs on one core.  As in the paper
(section 5), control-flow prediction comes from the *trace predictor*
(the same predictor that underlies the slipstream IR-predictor) so that
all three models are directly comparable.

The run is execution-driven: the functional simulator produces the true
dynamic stream, the trace machinery decides what the front end would
have predicted, and the table scheduler turns both into cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.executor import DynInstr
from repro.arch.functional import FunctionalSimulator
from repro.isa.program import Program
from repro.obs.session import Observability
from repro.trace.compare import Divergence, first_divergence
from repro.trace.predictor import TracePredictor, TracePredictorConfig
from repro.trace.selection import CompletedTrace, TraceSelector, TRACE_LENGTH
from repro.uarch.branch import BranchTargetBuffer, HybridPredictor
from repro.uarch.cache import Cache
from repro.uarch.compiled_timing import (
    TraceTimingEngine,
    compiled_timing_enabled,
    timing_meta_for,
)
from repro.uarch.config import CoreConfig
from repro.uarch.fetch import BlockFormer
from repro.uarch.latencies import latency_of
from repro.uarch.scheduler import ISSUE_COUNT_BOUND, InstrTiming, OoOScheduler


@dataclass
class CoreRunResult:
    """Performance results of one core run."""

    model: str
    benchmark: str
    retired: int
    cycles: int
    branch_mispredictions: int
    icache_misses: int
    dcache_misses: int
    icache_accesses: int
    dcache_accesses: int

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def mispredictions_per_1000(self) -> float:
        return 1000.0 * self.branch_mispredictions / self.retired if self.retired else 0.0


class SuperscalarCore:
    """One conventional out-of-order core running one program."""

    def __init__(
        self,
        config: CoreConfig,
        program: Program,
        predictor_config: Optional[TracePredictorConfig] = None,
        trace_length: int = TRACE_LENGTH,
        max_instructions: int = 50_000_000,
        control: str = "trace",
        obs: Optional[Observability] = None,
    ):
        """``control`` selects the control-flow predictor: "trace" (the
        paper's methodology — the same trace predictor that underlies
        the slipstream IR-predictor) or "hybrid" (a conventional
        bimodal/gshare hybrid plus a last-target BTB for indirect
        jumps, for the methodology ablation)."""
        if control not in ("trace", "hybrid"):
            raise ValueError(f"unknown control predictor {control!r}")
        self.config = config
        self.program = program
        self.control = control
        self.predictor = TracePredictor(predictor_config)
        self.branch_predictor = HybridPredictor()
        self.btb = BranchTargetBuffer()
        self.trace_length = trace_length
        self.max_instructions = max_instructions
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.scheduler = OoOScheduler(config)
        self._former = BlockFormer(config.fetch_width)
        self._mispredictions = 0
        self._last_complete = 0
        # Compiled-timing engine (repro.uarch.compiled_timing), bound
        # lazily at run(): timeline tracing may replace self.scheduler
        # with a recording proxy after construction.
        self._timing: Optional[TraceTimingEngine] = None
        self._timing_cb = None
        #: Observability handle (:mod:`repro.obs`); behavior-neutral.
        self._obs = obs

    # ------------------------------------------------------------------

    def run(self) -> CoreRunResult:
        """Run the program to completion; returns timing results."""
        if self.control == "hybrid":
            return self._run_conventional()
        self._ensure_timing()
        obs = self._obs
        if obs is not None:
            obs.emit("start", benchmark=self.program.name,
                     model=self.config.name,
                     trace_length=self.trace_length)
        sim = FunctionalSimulator(self.program, self.max_instructions)
        selector = TraceSelector(self.trace_length)
        upcoming = self.predictor.predict()
        seq = 0
        for trace in selector.chunk(sim.steps()):
            divergence = first_divergence(upcoming, trace)
            self._schedule_trace(trace, divergence)
            self.predictor.update(trace.trace_id)
            upcoming = self.predictor.predict()
            if obs is not None:
                if divergence is not None:
                    obs.emit("redirect", seq=seq, stream="S",
                             reason=divergence.kind)
                obs.emit("trace_retired", seq=seq,
                         retired=self.scheduler.retired,
                         cycle=self.scheduler.total_cycles)
            seq += 1
        result = CoreRunResult(
            model=self.config.name,
            benchmark=self.program.name,
            retired=self.scheduler.retired,
            cycles=self.scheduler.total_cycles,
            branch_mispredictions=self._mispredictions,
            icache_misses=self.icache.misses,
            dcache_misses=self.dcache.misses,
            icache_accesses=self.icache.accesses,
            dcache_accesses=self.dcache.accesses,
        )
        if obs is not None:
            self._finalize_obs(obs, traces=seq)
        return result

    def _finalize_obs(self, obs: Observability, traces: int) -> None:
        """Fold the core's tallies into the registry and close the trace
        (behavior-neutral; see :mod:`repro.obs`)."""
        registry = obs.registry
        registry.set_counters(self.scheduler.snapshot(), "sched.")
        registry.counter("core.traces").set(traces)
        registry.counter("core.branch_mispredictions").set(self._mispredictions)
        for name, cache in (("icache", self.icache), ("dcache", self.dcache)):
            registry.set_counters(cache.snapshot(), f"{name}.")
            obs.emit("cache", cache=name, accesses=cache.accesses,
                     hits=cache.hits, misses=cache.misses)
        obs.emit("summary", counters=registry.snapshot())

    def _run_conventional(self) -> CoreRunResult:
        """Per-branch prediction with the hybrid predictor and a BTB."""
        sim = FunctionalSimulator(self.program, self.max_instructions)
        from repro.isa.instructions import InstrClass

        for dyn in sim.steps():
            mispredicted = False
            if dyn.is_branch:
                mispredicted = self.branch_predictor.predict(dyn.pc) != dyn.taken
                self.branch_predictor.update(dyn.pc, dyn.taken)
            elif dyn.instr.klass is InstrClass.JUMP_INDIRECT:
                mispredicted = self.btb.predict(dyn.pc) != dyn.next_pc
                self.btb.update(dyn.pc, dyn.next_pc)
            ts = self.scheduler.add(self._timing_of(dyn))
            self._last_complete = ts.complete
            if mispredicted:
                self._mispredictions += 1
                self.scheduler.redirect(ts.complete)
                self._former.force_break()
        return CoreRunResult(
            model=f"{self.config.name}/hybrid",
            benchmark=self.program.name,
            retired=self.scheduler.retired,
            cycles=self.scheduler.total_cycles,
            branch_mispredictions=self._mispredictions,
            icache_misses=self.icache.misses,
            dcache_misses=self.dcache.misses,
            icache_accesses=self.icache.accesses,
            dcache_accesses=self.dcache.accesses,
        )

    # ------------------------------------------------------------------

    def _ensure_timing(self) -> None:
        """Bind the compiled-timing engine (if enabled) to the *real*
        scheduler, reaching through a timeline recording proxy when one
        was installed (its per-instruction callback keeps the captured
        timeline identical to the scalar path's)."""
        self._timing = None
        self._timing_cb = None
        if not compiled_timing_enabled():
            return
        sched = self.scheduler
        target = getattr(sched, "timing_target", None)
        if target is not None:
            self._timing_cb = sched.record_stamps
            sched = target
        self._timing = TraceTimingEngine(
            sched, self.icache, self.dcache,
            timing_meta_for(self.program), self.config,
        )

    def _schedule_trace(self, trace: CompletedTrace, divergence: Optional[Divergence]) -> None:
        if divergence is not None:
            self._mispredictions += 1
            if divergence.kind == "boundary":
                # Wrong next-trace start: redirect resolved by the
                # previous trace's last instruction.
                self.scheduler.redirect(self._last_complete)
                self._former.force_break()
        outcome_index = (
            divergence.index
            if divergence is not None and divergence.kind == "outcome"
            else -1
        )
        engine = self._timing
        if engine is not None:
            dyns = trace.instructions
            n = len(dyns)
            if n:
                former = self._former
                # The id + divergence point determine the whole static
                # schedule shape (indirect jumps terminate traces, so
                # the id walks to a unique PC sequence).
                last_c, count, pending, new_blocks = engine.schedule(
                    (trace.trace_id, outcome_index), dyns, n,
                    former._count, former._pending_break,
                    redirect_at=outcome_index, cb=self._timing_cb,
                )
                former._count = count
                former._pending_break = pending
                former.blocks += new_blocks
                self._last_complete = last_c
        else:
            sched_add = self.scheduler.add
            timing_of = self._timing_of
            for index, dyn in enumerate(trace.instructions):
                ts = sched_add(timing_of(dyn))
                self._last_complete = ts.complete
                if index == outcome_index:
                    self.scheduler.redirect(ts.complete)
                    self._former.force_break()
        if len(self.scheduler._issue_count) > ISSUE_COUNT_BOUND:
            self.scheduler.trim_issue_counts()

    def _timing_of(self, dyn: DynInstr) -> InstrTiming:
        instr = dyn.instr
        icache_penalty = 0
        if not self.icache.probe(dyn.pc):
            self._former.force_break()
            icache_penalty = self.config.icache.miss_penalty
        new_block = self._former.place(ends_block=instr.is_control and dyn.taken)
        mem_addr = dyn.mem_addr
        dcache_penalty = 0
        if mem_addr is not None:
            if not self.dcache.probe(mem_addr):
                dcache_penalty = self.config.dcache.miss_penalty
        return InstrTiming(
            new_block=new_block,
            icache_penalty=icache_penalty,
            srcs=instr.srcs,
            dest=dyn.dest_reg,
            latency=latency_of(instr),
            is_load=instr.is_load,
            is_store=instr.is_store,
            mem_addr=mem_addr,
            dcache_penalty=dcache_penalty,
        )
