"""The slipstream processor: A-stream / R-stream co-simulation.

Implements the CMP(2x64x4) model of Figure 1: two conventional cores,
the leading **A-stream** running the speculatively-reduced program and
the trailing **R-stream** running the full program, connected by the
delay buffer, IR-predictor, IR-detector and recovery controller.

Co-simulation proceeds trace by trace:

1.  **A-phase** — the IR-predictor predicts the next trace (the trace
    predictor supplies the id; the removal table supplies a confident
    ir-vec, if any).  The A-stream fetches along the predicted path,
    skipping removed instructions, executing the rest against its own
    architectural context, and detecting *conventional* mispredictions
    at branches it executes.  Executed instructions are scheduled on
    the A-core's timing model with chunk-skipping fetch; outcomes are
    pushed into the delay buffer (with capacity backpressure).

2.  **R-phase** — the R-stream pops the outcome group and executes its
    own, architecturally-correct path, using the A-stream's branch
    outcomes to direct fetch and its operand values as value
    predictions (delay-buffer arrival replaces producer-completion in
    the timing model).  Every redundantly-executed instruction is
    compared; every removed branch's presumed outcome is checked; any
    mismatch is an **IR-misprediction** (or a transient fault — the
    two are indistinguishable, section 3).  Retired R-stream traces
    feed the IR-detector, whose retiring analyses train the
    IR-predictor, verify predicted ir-vecs (early IR-misprediction
    detection) and release recovery-controller store tracking.

3.  **Recovery** — on an IR-misprediction the R-core flushes (a
    redirect), the A-stream's register file is copied from the
    R-stream's and the tracked memory locations restored, the delay
    buffer is flushed, and the A-stream restarts at the R-stream's PC
    after the paper's recovery latency (21-cycle minimum).

The model is honest about corruption: an erroneous removal really does
corrupt the A-stream's context, which then really does run down wrong
paths until the R-stream's redundant computation exposes it.  A
recovery *audit* (enabled by default) verifies the paper's claim that
the recovery controller's tracked address set suffices to repair the
A-stream's memory; any shortfall is repaired (keeping the simulation
sound) and counted, and tests assert the count is zero.

IPC is retired R-stream instructions (the full program, counted once)
divided by the cycles for **both** streams to complete (section 5).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, cast

from repro.arch.compiled import compiled_for, resolve_engine
from repro.arch.executor import DynInstr, ExecutionError, execute_one
from repro.arch.state import ArchState
from repro.fingerprint import ConfigError, check_lower_bounds
from repro.fingerprint import fingerprint as _config_fingerprint
from repro.core.delay_buffer import DelayBuffer
from repro.core.ir_detector import IRDetector, TraceAnalysis
from repro.core.ir_predictor import IRPredictor, IRPredictorConfig, RemovalPrediction
from repro.core.pc_ir_predictor import PCIRPredictor, PCIRPredictorConfig
from repro.core.recovery import RecoveryController
from repro.core.removal import CATEGORY_OF, RemovalKind
from repro.isa.instructions import InstrClass
from repro.isa.program import Program
from repro.obs.session import Observability
from repro.trace.predictor import TracePredictorConfig
from repro.trace.selection import (
    CompletedTrace,
    PredictedStep,
    StaticTraceWalker,
    TraceExpansionError,
    TRACE_LENGTH,
    trace_id_of,
)
from repro.trace.trace_id import TraceId
from repro.uarch.cache import Cache
from repro.uarch.compiled_timing import timing_meta_for
from repro.uarch.config import CoreConfig, SS_64x4
from repro.uarch.latencies import latency_of
from repro.uarch.scheduler import ISSUE_COUNT_BOUND, OoOScheduler

#: Fault-injection hook: called for every retired instruction of either
#: stream.  ``stream`` is "A" or "R"; ``compared`` tells whether the
#: R-stream instruction is redundantly executed (validated against the
#: A-stream).  May mutate ``state`` (architectural fault) and/or return
#: a replacement record (fault visible to the comparison hardware).
FaultHook = Callable[[str, DynInstr, ArchState, bool], DynInstr]

_NEVER_REMOVED = (InstrClass.JUMP_INDIRECT, InstrClass.OUT, InstrClass.HALT)


class SimulationError(Exception):
    """The co-simulation failed to make forward progress."""


def trap_note(trap: Optional[Exception]) -> str:
    """The architectural trap behind a :class:`SimulationError`, as a
    suffix for its message (empty when there is none)."""
    if trap is None:
        return ""
    return f" ({type(trap).__name__}: {trap})"


_REMOVAL_MECHANISMS = ("trace", "pc")
_REMOVAL_TRIGGERS = ("BR", "WW", "SV")

#: (field, least valid value) of every integer field with a lower bound.
_LOWER_BOUNDS = (
    # The run loop and the fault timeline's fork-boundary rule rely on
    # every trace retiring at least one instruction.
    ("trace_length", 1),
    ("ir_scope_traces", 1),
    ("confidence_threshold", 0),
    ("delay_buffer_capacity", 1),
    ("transfer_latency", 0),
    # Zero read ports cannot dispatch a merged instruction at all; the
    # scheduler would silently behave as if it had one.
    ("delay_merge_width", 1),
    ("max_instructions", 1),
)


@dataclass(frozen=True)
class SlipstreamConfig:
    """Configuration of the full slipstream CMP (paper, Table 2)."""

    core: CoreConfig = SS_64x4
    #: Optional per-stream core overrides.  The default (None) gives
    #: both streams a full ``core`` each — the paper's CMP(2x64x4).
    #: Setting them to complementary slices of one big core models the
    #: SMT implementation the paper leaves as future work (section 5):
    #: a statically-partitioned 8-wide SMT, e.g. a 3-wide A-stream
    #: partition and a 5-wide R-stream partition sharing a 128-entry
    #: ROB (see ``repro.core.smt``).
    a_core: Optional[CoreConfig] = None
    r_core: Optional[CoreConfig] = None
    trace_length: int = TRACE_LENGTH
    ir_scope_traces: int = 8
    confidence_threshold: int = 32
    delay_buffer_capacity: int = 256
    transfer_latency: int = 1
    removal_triggers: Tuple[str, ...] = ("BR", "WW", "SV")
    #: Removal decision mechanism: "trace" (the paper's design —
    #: per-trace ir-vecs with a single confidence counter on the
    #: predictor entry) or "pc" (the paper's sketched future-work
    #: mechanism: per-instruction confidence, no trace confinement of
    #: the decision; see repro.core.pc_ir_predictor).
    removal_mechanism: str = "trace"
    #: Front-end overhead of merging delay-buffer records in the
    #: R-stream: extra cycles per fetch block as a rational
    #: (numerator, denominator).  See OoOScheduler.
    rstream_merge_overhead: Tuple[int, int] = (1, 2)
    #: Delay-buffer data-flow read ports: at most this many merged
    #: (value-predicted) instructions dispatch per cycle in the R-stream.
    delay_merge_width: int = 3
    #: Seed the per-PC removal table with the abstract interpreter's
    #: proven facts (:mod:`repro.analysis.ceiling`) before execution:
    #: proven-dead writes/stores arrive pinned at the confidence
    #: threshold as WW, proven-silent stores as SV, and proven-direction
    #: branches as BR (gated on ``removal_triggers``).  Statically
    #: proven facts hold in *every* execution, so hint-removed
    #: instructions skip the detector's ir-vec verification and the
    #: pinned entries never reset.  Off by default: the golden suite is
    #: bit-identical with this flag off.
    static_hints: bool = False
    #: DME-style structurally decorrelated contexts: the A- and
    #: R-stream use shifted data address spaces and rotated register
    #: assignments, undone by translation at delay-buffer/comparison
    #: boundaries.  Clean-run behaviour is identical (the translation is
    #: a bijection the comparison undoes), so the co-simulation itself
    #: is unchanged; the flag is consumed by the fault model
    #: (:class:`repro.fault.injector.FaultInjector`), where a
    #: layout-correlated strike flips *different logical bits* in the
    #: two contexts instead of silently agreeing.  The translation cost
    #: is modelled by the mode's +1 ``transfer_latency``
    #: (:func:`repro.core.modes.decorrelated_config`).
    decorrelated: bool = False
    predictor: TracePredictorConfig = field(default_factory=TracePredictorConfig)
    max_instructions: int = 50_000_000

    def __post_init__(self) -> None:
        """Reject an out-of-range field with one :class:`ConfigError`."""
        check_lower_bounds(self, _LOWER_BOUNDS)
        if self.removal_mechanism not in _REMOVAL_MECHANISMS:
            raise ConfigError(
                "SlipstreamConfig", "removal_mechanism",
                self.removal_mechanism,
                "unknown removal mechanism; must be one of "
                + ", ".join(_REMOVAL_MECHANISMS),
            )
        unknown = [t for t in self.removal_triggers if t not in _REMOVAL_TRIGGERS]
        if unknown:
            raise ConfigError(
                "SlipstreamConfig", "removal_triggers", self.removal_triggers,
                "must be a subset of " + ", ".join(_REMOVAL_TRIGGERS),
            )

    def fingerprint(self) -> str:
        """Stable content hash, used in experiment-cache keys.

        Two configurations fingerprint equal iff they compare equal, so
        runs under a caller-supplied config are cacheable
        (:mod:`repro.eval.models`)."""
        return _config_fingerprint(self)


@dataclass
class SlipstreamResult:
    """Results of one slipstream run."""

    benchmark: str
    retired: int
    a_cycles: int
    r_cycles: int
    a_executed: int
    a_removed: int
    removed_by_category: Dict[str, int]
    branch_mispredictions: int
    ir_mispredictions: int
    ir_penalty_total: int
    #: One entry per IR-misprediction recovery, in detection order:
    #: ``(retired_at_detection, latency_cycles)``.  Fault studies use
    #: this to measure detection latency (retired instructions between a
    #: strike and the deviation being flagged) and per-event recovery
    #: penalties; IR-misps are rare (paper: <0.05/1000), so the log
    #: stays small.
    recoveries: List[Tuple[int, int]]
    detections: Dict[str, int]
    recovery_max_outstanding: int
    recovery_audit_shortfalls: int
    delay_buffer_backpressure: int
    output: List[int]

    @property
    def cycles(self) -> int:
        """Total execution time: both streams must complete."""
        return max(self.a_cycles, self.r_cycles)

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def removal_fraction(self) -> float:
        return self.a_removed / self.retired if self.retired else 0.0

    @property
    def mispredictions_per_1000(self) -> float:
        return 1000.0 * self.branch_mispredictions / self.retired if self.retired else 0.0

    @property
    def ir_mispredictions_per_1000(self) -> float:
        return 1000.0 * self.ir_mispredictions / self.retired if self.retired else 0.0

    @property
    def avg_ir_penalty(self) -> float:
        if not self.ir_mispredictions:
            return 0.0
        return self.ir_penalty_total / self.ir_mispredictions


class _StaticTrace:
    """The removal-invariant columns of one predicted trace id, built
    once per id (``_expand`` caches them): per position the PC,
    predicted taken-ness and next PC, whether it is a conditional branch,
    and whether it may be removed at all (not ``_NEVER_REMOVED``)."""

    __slots__ = ("pcs", "taken", "next_pcs", "branch", "removable")

    def __init__(self, steps: List[PredictedStep]):
        self.pcs = [st.pc for st in steps]
        self.taken = [st.taken for st in steps]
        # Read only at removable positions, so never an indirect jump's
        # unknown (None) successor.
        self.next_pcs = cast(List[int], [st.next_pc for st in steps])
        self.branch = [st.instr.is_branch for st in steps]
        self.removable = [st.instr.klass not in _NEVER_REMOVED for st in steps]


class _ATraceRecord:
    """One delay-buffer outcome group: an A-stream trace's outcomes, as
    per-position columns along the path the A-stream followed.

    ``dyns[i]`` is None for a removed instruction; ``pred_taken[i]`` is
    the predicted (removed: presumed) taken-ness; ``a_retire[i]`` the
    A-core retire cycle (0 if removed).  ``mispredicted`` is the position
    of the trace's one charged misprediction, or -1.  ``outcomes`` are
    the followed path's branch outcomes, presumed ones included.
    ``kinds`` is the applied removal's kinds (None if none), indexed by
    position: removal only happens while the prediction holds."""

    __slots__ = ("pcs", "dyns", "pred_taken", "a_retire", "mispredicted",
                 "outcomes", "kinds", "followed_tid", "available_cycle",
                 "a_halted", "pushed")

    def __init__(self, start_pc: int, kinds=None, a_halted=False):
        self.pcs: List[int] = []
        self.dyns: List[Optional[DynInstr]] = []
        self.pred_taken: List[bool] = []
        self.a_retire: List[int] = []
        self.mispredicted = -1
        self.outcomes: List[bool] = []
        self.kinds: Optional[Tuple[RemovalKind, ...]] = kinds
        self.followed_tid = TraceId(start_pc, ())
        self.available_cycle = 0
        self.a_halted = a_halted
        self.pushed = False


class SlipstreamProcessor:
    """Co-simulates the two streams of a slipstream CMP."""

    def __init__(
        self,
        program: Program,
        config: Optional[SlipstreamConfig] = None,
        fault_hook: Optional[FaultHook] = None,
        obs: Optional[Observability] = None,
        engine: Optional[str] = None,
    ):
        self.program = program
        self.config = config or SlipstreamConfig()
        self.fault_hook = fault_hook
        #: Execution engine ("compiled" | "interpreted").  Both produce
        #: bit-identical results, so the choice is a constructor/env
        #: concern (REPRO_COMPILED), never part of SlipstreamConfig —
        #: config fingerprints and eval cache keys must not depend on it.
        self.engine = resolve_engine(engine)
        self._step_funcs = (
            compiled_for(program).step_funcs if self.engine == "compiled" else None
        )
        # Static per-PC scheduling metadata, precomputed once regardless
        # of engine (it is a pure function of the static instruction):
        # (srcs, latency, is_load, is_store, is_control, is_branch).
        # Replaces the latency_of dict probe + attribute chain per
        # scheduled instruction in both streams.  Shared per program
        # object across processor instances (id-keyed weakref memo, like
        # repro.arch.compiled.compiled_for).
        self._sched_meta: Dict[int, Tuple] = timing_meta_for(program)
        #: Observability handle (:mod:`repro.obs`); None disables all
        #: instrumentation at the cost of one pointer test per trace.
        #: Instrumentation is behavior-neutral: results are bit-identical
        #: with it on or off (tests/test_obs.py).
        self._obs = obs

        cfg = self.config
        self.ir_predictor = IRPredictor(
            IRPredictorConfig(
                confidence_threshold=cfg.confidence_threshold,
                trace_predictor=cfg.predictor,
            )
        )
        self.pc_ir = PCIRPredictor(
            PCIRPredictorConfig(confidence_threshold=cfg.confidence_threshold)
        )
        #: Static-hint state (empty when ``static_hints`` is off, so the
        #: hot paths below degrade to no-ops without a mode test).
        #: ``_hint_branch_taken`` maps a proven branch PC to its proven
        #: direction; ``_hint_pcs`` holds every seeded PC (their removal
        #: is exempt from ir-vec verification — a static proof cannot be
        #: contradicted by a sound detector, only missed by it).
        self._hint_branch_taken: Dict[int, bool] = {}
        self._hint_pcs: frozenset = frozenset()
        if cfg.static_hints:
            self._seed_static_hints()
        self.detector = IRDetector(cfg.ir_scope_traces, cfg.removal_triggers)
        self.delay_buffer = DelayBuffer(cfg.delay_buffer_capacity, cfg.transfer_latency)
        self.recovery = RecoveryController()
        self.walker = StaticTraceWalker(program, cfg.trace_length)
        self._expansion_cache: Dict[TraceId, _StaticTrace] = {}

        # Two cores (or two SMT partitions) with private caches and
        # schedulers.
        self.a_core = cfg.a_core or cfg.core
        self.r_core = cfg.r_core or cfg.core
        self.a_sched = OoOScheduler(self.a_core)
        self.r_sched = OoOScheduler(
            self.r_core,
            block_overhead=cfg.rstream_merge_overhead,
            merge_width=min(cfg.delay_merge_width, self.r_core.dispatch_width),
        )
        self.a_icache = Cache(self.a_core.icache)
        self.a_dcache = Cache(self.a_core.dcache)
        self.r_icache = Cache(self.r_core.icache)
        self.r_dcache = Cache(self.r_core.dcache)

        # Architectural contexts: the OS instantiates the program twice.
        initial = ArchState(image=program.data)
        self.a_state = initial
        self.r_state = initial.fork()
        self.a_pc = program.entry
        self.r_pc = program.entry

        # Per-stream fetch-block state (blocks persist across traces).
        self._a_block_count = 0
        self._a_block_pending = True
        self._r_block_count = 0
        self._r_block_break = True

        # Statistics.
        self.retired = 0
        self.a_executed = 0
        self.a_removed = 0
        self.removed_by_category: Dict[str, int] = {}
        self.branch_mispredictions = 0
        self.ir_mispredictions = 0
        self.ir_penalty_total = 0
        #: (retired_at_detection, latency_cycles) per recovery event.
        self.recovery_log: List[Tuple[int, int]] = []
        self.detections: Dict[str, int] = {"value": 0, "control": 0, "ir_detector": 0}
        self.audit_shortfalls = 0

        self._a_seq = 0
        self._r_seq = 0
        self._a_last_complete = 0
        self._a_last_retire = 0
        #: detector trace seq -> applied removal bits, for the predicted
        #: vs computed ir-vec verification.
        self._pending_vec_checks: Dict[int, List[bool]] = {}
        #: per fed trace, whether each instruction's branch outcome
        #: matched the A-stream's prediction (FIFO aligned with the
        #: detector's analyses; trains the per-instruction mechanism,
        #: so it is queued only under ``removal_mechanism="pc"``).
        self._pending_branch_ok: List[List[bool]] = []
        self._detector_seq = 0
        #: Co-simulation iteration index, used only to tag trace events.
        self._obs_seq = 0
        #: Consecutive iterations that retired nothing (the watchdog in
        #: :meth:`step`).
        self._idle = 0

    def _seed_static_hints(self) -> None:
        """Pre-warm the per-PC removal table from statically-proven
        facts, gated on the configured removal triggers.  Imported
        lazily: the core layer depends on the analysis layer only under
        this opt-in mode."""
        from repro.analysis.ceiling import static_removal_report_for

        report = static_removal_report_for(self.program)
        triggers = self.config.removal_triggers
        seeded = set()
        if "WW" in triggers:
            for pc in report.dead_write_pcs + report.dead_store_pcs:
                self.pc_ir.seed(pc, RemovalKind.WW)
                seeded.add(pc)
        if "SV" in triggers:
            # Seeded after WW so a dead *and* silent store reports SV
            # (the paper's priority, repro.core.removal).
            for pc in report.silent_store_pcs:
                self.pc_ir.seed(pc, RemovalKind.SV)
                seeded.add(pc)
        if "BR" in triggers:
            for pc in report.branch_always_pcs:
                self.pc_ir.seed(pc, RemovalKind.BR)
                self._hint_branch_taken[pc] = True
                seeded.add(pc)
            for pc in report.branch_never_pcs:
                self.pc_ir.seed(pc, RemovalKind.BR)
                self._hint_branch_taken[pc] = False
                seeded.add(pc)
        self._hint_pcs = frozenset(seeded)

    def _apply_hints(
        self,
        static: _StaticTrace,
        removal: Optional[RemovalPrediction],
    ) -> Optional[RemovalPrediction]:
        """OR statically-proven removal bits into a trace prediction.

        A proven branch is only removed when the predicted path agrees
        with the proven direction — a contradicting path is already a
        guaranteed deviation, and presuming the wrong outcome would turn
        it into a recovery the static proof says is avoidable."""
        pc_ir = self.pc_ir
        directions = self._hint_branch_taken
        vec = kinds = None
        n_vec = len(removal.ir_vec) if removal is not None else 0
        for i, (pc, taken) in enumerate(zip(static.pcs, static.taken)):
            if i < n_vec and removal.ir_vec[i]:
                continue
            if pc not in self._hint_pcs or not pc_ir.removable(pc):
                continue
            direction = directions.get(pc)
            if direction is not None and taken != direction:
                continue
            if vec is None:
                n = len(static.pcs)
                vec = [False] * n
                kinds = [RemovalKind.NONE] * n
                for j in range(min(n_vec, n)):
                    vec[j] = removal.ir_vec[j]
                    kinds[j] = removal.kinds[j]
            vec[i] = True
            kinds[i] = pc_ir.kind_of(pc)
        if vec is None:
            return removal
        return RemovalPrediction(tuple(vec), tuple(kinds))

    # ==================================================================
    # Top level.
    # ==================================================================

    def run(self) -> SlipstreamResult:
        """Run the program to completion under slipstream execution."""
        obs = self._obs
        if obs is not None:
            obs.emit(
                "start",
                benchmark=self.program.name,
                model="cmp",
                trace_length=self.config.trace_length,
                delay_buffer_capacity=self.config.delay_buffer_capacity,
                confidence_threshold=self.config.confidence_threshold,
                removal_triggers=list(self.config.removal_triggers),
            )
        while not self.r_state.halted:
            self.step()
        # Final detector drain: train with the remaining traces.
        for analysis in self.detector.drain():
            self._handle_analysis(analysis)
        result = SlipstreamResult(
            benchmark=self.program.name,
            retired=self.retired,
            a_cycles=self.a_sched.total_cycles,
            r_cycles=self.r_sched.total_cycles,
            a_executed=self.a_executed,
            a_removed=self.a_removed,
            removed_by_category=dict(self.removed_by_category),
            branch_mispredictions=self.branch_mispredictions,
            ir_mispredictions=self.ir_mispredictions,
            ir_penalty_total=self.ir_penalty_total,
            recoveries=list(self.recovery_log),
            detections=dict(self.detections),
            recovery_max_outstanding=self.recovery.max_outstanding,
            recovery_audit_shortfalls=self.audit_shortfalls,
            delay_buffer_backpressure=self.delay_buffer.backpressure_events,
            output=list(self.r_state.output),
        )
        if obs is not None:
            self._finalize_obs(obs)
        return result

    def _trap_at_r_pc(self) -> str:
        """The architectural trap of the instruction at the R-stream's
        PC, for the watchdog's message (empty when it does not trap).
        Probed on a fork, so the machine's own state is untouched."""
        try:
            execute_one(self.program, self.r_state.fork(), self.r_pc,
                        seq=self._r_seq)
        except (ExecutionError, ValueError, IndexError) as exc:
            return trap_note(exc)
        return ""

    def step(self) -> None:
        """Co-simulate one trace: the A-phase, then the R-phase that
        consumes its outcome group.  Call only while the R-stream has
        not halted; the machine is between two traces before and after.

        Each stream executes at most ``trace_length`` instructions per
        step (the fault timeline's fork-boundary rule relies on it).
        """
        before = self.retired
        record = self._a_phase()
        self._r_phase(record)
        self._obs_seq += 1
        # No-progress watchdog.  An iteration that retires nothing always
        # ends in a recovery, which leaves the A-stream's context equal
        # to the R-stream's; a second idle iteration in a row therefore
        # starts from the same state and repeats forever.
        self._idle = self._idle + 1 if self.retired == before else 0
        if self._idle == 2:
            raise SimulationError(
                f"{self.program.name}: no forward progress at "
                f"r_pc={self.r_pc:#x}, r_seq={self._r_seq}"
                + self._trap_at_r_pc()
            )
        limit = self.config.max_instructions
        if self.retired > limit:
            raise SimulationError(
                f"{self.program.name}: exceeded {limit} retired instructions"
            )

    def fork(self) -> "SlipstreamProcessor":
        """An independent copy of this machine, taken between two traces.

        The copy and this machine then run on without affecting each
        other: both contexts, both schedulers, the four caches, the
        IR-predictor and trace-predictor tables, the per-PC removal
        table, the detector's scope and rename table, the delay buffer,
        recovery tracking, the statistics and the pending queues are
        copied.  What no run mutates is shared: the program, the step
        functions, the scheduling metadata, the trace walker, the
        static-hint tables, the expanded :class:`_StaticTrace` columns
        and the config.  The copy keeps this machine's fault hook and
        has no observability handle.
        """
        forked = copy.copy(self)
        forked._obs = None
        forked.ir_predictor = self.ir_predictor.fork()
        forked.pc_ir = self.pc_ir.fork()
        forked.detector = self.detector.fork()
        forked.delay_buffer = self.delay_buffer.fork()
        forked.recovery = self.recovery.fork()
        forked._expansion_cache = dict(self._expansion_cache)
        forked.a_sched = self.a_sched.fork()
        forked.r_sched = self.r_sched.fork()
        forked.a_icache = self.a_icache.fork()
        forked.a_dcache = self.a_dcache.fork()
        forked.r_icache = self.r_icache.fork()
        forked.r_dcache = self.r_dcache.fork()
        forked.a_state = self.a_state.fork()
        forked.r_state = self.r_state.fork()
        forked.removed_by_category = dict(self.removed_by_category)
        forked.recovery_log = list(self.recovery_log)
        forked.detections = dict(self.detections)
        # The queued values are never mutated once queued.
        forked._pending_vec_checks = dict(self._pending_vec_checks)
        forked._pending_branch_ok = list(self._pending_branch_ok)
        return forked

    # ==================================================================
    # A-phase: fetch/execute one trace in the A-stream.
    # ==================================================================

    def _a_phase(self) -> _ATraceRecord:
        if self.a_state.halted:
            # Defensive: the A-stream believes the program is over while
            # the R-stream is still running; emit an empty group so the
            # R-phase can expose the deviation.
            record = _ATraceRecord(self.a_pc, a_halted=True)
            record.available_cycle = self._a_last_retire + self.config.transfer_latency
            return record

        prediction = self.ir_predictor.predict()
        static: Optional[_StaticTrace] = None
        removal: Optional[RemovalPrediction] = None
        charged = False
        if prediction.trace_id is not None:
            if prediction.trace_id.start_pc == self.a_pc:
                static = self._expand(prediction.trace_id)
                if static is not None:
                    if self.config.removal_mechanism == "pc":
                        directions = self._hint_branch_taken
                        vec = tuple(
                            self.pc_ir.removable(pc)
                            and directions.get(pc, taken) == taken
                            for pc, taken in zip(static.pcs, static.taken)
                        )
                        if any(vec):
                            removal = RemovalPrediction(
                                vec,
                                tuple(self.pc_ir.kind_of(pc) for pc in static.pcs),
                            )
                    else:
                        removal = prediction.removal
                        if self._hint_pcs:
                            removal = self._apply_hints(static, removal)
            else:
                # Wrong next-trace start PC: a boundary misprediction,
                # resolved when the previous trace's last instruction
                # completes.
                self.branch_mispredictions += 1
                self.a_sched.redirect(self._a_last_complete)
                charged = True
                if self._obs is not None:
                    self._obs.emit("redirect", seq=self._obs_seq,
                                   stream="A", reason="boundary")

        record, next_pc, executed_count = self._follow(static, removal,
                                                       charged)
        dyns = record.dyns

        obs = self._obs
        if obs is not None:
            obs.emit("predict", seq=self._obs_seq, pc=self.a_pc,
                     predicted=prediction.trace_id is not None,
                     removal=removal is not None)
            by_kind: Dict[str, int] = {}
            for dyn, kind in zip(dyns, record.kinds or ()):
                if dyn is None and kind:
                    category = CATEGORY_OF[kind]
                    by_kind[category] = by_kind.get(category, 0) + 1
            if by_kind:
                obs.emit("removal", seq=self._obs_seq,
                         removed=sum(by_kind.values()), by_kind=by_kind)

        self._schedule_a_trace(record)
        self.a_pc = next_pc

        # Push outcomes into the delay buffer; backpressure stalls the
        # A-stream's subsequent fetch until the R-stream drains.
        # Entries stream into the FIFO as the A-stream retires them, so
        # the R-stream may start on the group as soon as its *first*
        # entry arrives (per-instruction availability comes from each
        # position's ``a_retire``); a backpressured push delays the
        # whole group conservatively.
        push_cycle = self.delay_buffer.push(max(executed_count, 1), self._a_last_retire)
        record.pushed = True
        first_retire = next(
            (r for d, r in zip(dyns, record.a_retire) if d is not None),
            self._a_last_retire,
        )
        if push_cycle > self._a_last_retire:
            if obs is not None:
                obs.emit("backpressure", seq=self._obs_seq,
                         occupancy=self.delay_buffer.occupancy,
                         stall_cycles=push_cycle - self._a_last_retire)
            self.a_sched.stall_fetch_until(push_cycle)
            first_retire = push_cycle
        record.available_cycle = first_retire + self.config.transfer_latency
        return record

    def _expand(self, tid: TraceId) -> Optional[_StaticTrace]:
        static = self._expansion_cache.get(tid)
        if static is not None:
            return static
        try:
            static = _StaticTrace(self.walker.expand(tid))
        except TraceExpansionError:
            return None
        if len(self._expansion_cache) > (1 << 16):
            self._expansion_cache.clear()
        self._expansion_cache[tid] = static
        return static

    def _follow(
        self,
        static: Optional[_StaticTrace],
        removal: Optional[RemovalPrediction],
        charged: bool,
    ) -> Tuple[_ATraceRecord, int, int]:
        """Fetch/execute one *canonical* A-stream trace; returns its
        outcome group, the PC that follows it and how many of its
        instructions the A-stream executed (not removed).

        The trace always runs to the static selection policy's boundary
        (``trace_length`` instructions, or an indirect jump / halt), so
        the A-stream's trace stream stays aligned with the detector's
        and the predictor's — a conventional misprediction redirects
        fetch (one charge per trace) but does not shorten the trace.

        While the prediction holds, removed instructions are skipped
        and removed branches' outcomes presumed.  After the first
        divergence (or with no prediction at all) the A-stream executes
        directly with sequential/BTB fetch, charging at most one
        misprediction at the first point such fetch would lose.
        """
        start_pc = pc = self.a_pc
        record = _ATraceRecord(start_pc,
                               removal.kinds if removal is not None else None)
        pcs_append = record.pcs.append
        dyns_append = record.dyns.append
        pred_append = record.pred_taken.append
        outcomes_append = record.outcomes.append
        live = 0  # the prediction holds at positions below ``live``
        if static is not None:
            s_pcs, s_taken, s_next = static.pcs, static.taken, static.next_pcs
            s_branch, s_removable = static.branch, static.removable
            live = len(s_pcs)
        ir_vec, kinds = removal if removal is not None else ((), ())
        n_vec = len(ir_vec)
        # Execution is inlined with stream state hoisted into locals:
        # this loop runs once per A-stream instruction, second only to
        # ``_r_phase``.
        a_state = self.a_state
        funcs = self._step_funcs
        funcs_get = funcs.get if funcs is not None else None
        program = self.program
        a_seq = self._a_seq
        a_removed = 0
        fault_hook = self.fault_hook
        track_undo = self.recovery.track_undo
        category_of = CATEGORY_OF
        removed_by_category = self.removed_by_category
        for index in range(self.config.trace_length):
            predicted = index < live
            if predicted and index < n_vec and ir_vec[index] \
                    and s_removable[index]:
                pcs_append(s_pcs[index])
                dyns_append(None)
                taken = s_taken[index]
                pred_append(taken)
                if s_branch[index]:
                    outcomes_append(taken)
                a_removed += 1
                category = category_of[kinds[index]]
                removed_by_category[category] = (
                    removed_by_category.get(category, 0) + 1
                )
                pc = s_next[index]
                continue
            # Execute one instruction in the A-stream's context; a fault
            # means corrupt state drove the A-stream onto an invalid
            # path, and it idles until the R-stream exposes the
            # deviation and recovery restarts it.
            try:
                if funcs_get is not None:
                    f = funcs_get(pc)
                    dyn = (f(a_state, a_seq) if f is not None
                           else execute_one(program, a_state, pc, seq=a_seq))
                else:
                    dyn = execute_one(program, a_state, pc, seq=a_seq)
            except (ExecutionError, ValueError, IndexError):
                break
            a_seq += 1
            if fault_hook is not None:
                dyn = fault_hook("A", dyn, a_state, True)
            instr = dyn.instr
            if instr.is_store and dyn.mem_addr is not None:
                track_undo(dyn.mem_addr)
            taken = dyn.taken
            pcs_append(pc)
            dyns_append(dyn)
            pred_append(s_taken[index] if predicted else taken)
            if instr.is_branch:
                outcomes_append(taken)
            pc = dyn.next_pc
            if a_state.halted:
                record.a_halted = True
                break
            if predicted:
                # A conventional misprediction, detected by the A-stream:
                # fetch redirects; the trace continues to its canonical
                # boundary without the prediction.
                lost = instr.is_branch and taken != s_taken[index]
                if lost:
                    live = 0
            else:
                lost = ((instr.is_branch and taken)
                        or instr.klass is InstrClass.JUMP_INDIRECT)
            if lost and not charged:
                record.mispredicted = index
                self.branch_mispredictions += 1
                charged = True
                if self._obs is not None:
                    self._obs.emit("redirect", seq=self._obs_seq, stream="A",
                                   reason="outcome" if predicted else "unpredicted")
            if instr.klass in (InstrClass.JUMP_INDIRECT, InstrClass.HALT):
                break
        executed = a_seq - self._a_seq
        self.a_executed += executed
        self._a_seq = a_seq
        self.a_removed += a_removed
        record.followed_tid = TraceId(start_pc, tuple(record.outcomes))
        return record, pc, executed

    def _schedule_a_trace(self, record: _ATraceRecord) -> None:
        """Schedule the A-stream's executed instructions with
        chunk-skipping fetch: blocks break at taken control transfers
        (executed or presumed) and at the fetch width, and continue
        across trace boundaries; removed instructions consume no fetch
        slots (the stored intermediate PCs let the front end skip the
        removed chunks entirely, Figure 2).

        This and :meth:`_r_phase` are the only slipstream timing paths;
        ``tests/reference_slipstream_timing.py`` restates both through
        ``Cache.probe`` and ``OoOScheduler.add_args`` as their oracle."""
        cfg = self.a_core
        icache_miss = cfg.icache.miss_penalty
        dcache_miss = cfg.dcache.miss_penalty
        fetch_width = cfg.fetch_width
        block_pending = self._a_block_pending
        block_count = self._a_block_count
        sched_meta = self._sched_meta
        # Scheduler pass inlined (same logic as OoOScheduler.add_args,
        # specialized: the A-stream never merges delay-buffer values and
        # never passes a fetch floor); scalar state in locals, written
        # back after the loop, as in _r_phase.
        asc = self.a_sched
        as_overhead_num, as_overhead_den = asc._overhead_num, asc._overhead_den
        as_overhead_acc = asc._overhead_acc
        as_dispatch_width = asc._dispatch_width
        as_issue_width = asc._issue_width
        as_retire_width = asc._retire_width
        as_rob_size = asc._rob_size
        as_frontend_depth = asc._frontend_depth
        as_reg_ready = asc._reg_ready
        as_store_ready = asc._store_ready
        as_store_get = as_store_ready.get
        as_rob = asc._rob_retire
        as_rob_append = as_rob.append
        as_rob_popleft = as_rob.popleft
        as_issue_count = asc._issue_count
        as_issue_get = as_issue_count.get
        as_next_block_cycle = asc._next_block_cycle
        as_cur_block_fetch = asc._cur_block_fetch
        as_last_dispatch = asc._last_dispatch
        as_dispatch_used = asc._dispatch_used
        as_retire_cycle = asc._retire_cycle
        as_retire_count = asc._retire_count
        as_retired = asc.retired
        as_redirects = asc.redirects
        redirect_penalty = asc.config.redirect_penalty
        a_last_complete = self._a_last_complete
        a_last_retire = self._a_last_retire
        # Cache probes inlined as in _r_phase; counters written back
        # after the loop.
        aic = self.a_icache
        aic_sets, aic_lb = aic._sets, aic._line_bytes
        aic_ns, aic_assoc = aic._num_sets, aic._assoc
        aic_stamp, aic_acc, aic_misses = aic._stamp, 0, 0
        adc = self.a_dcache
        adc_sets, adc_lb = adc._sets, adc._line_bytes
        adc_ns, adc_assoc = adc._num_sets, adc._assoc
        adc_stamp, adc_acc, adc_misses = adc._stamp, 0, 0
        dyns = record.dyns
        pred_taken = record.pred_taken
        mispredicted = record.mispredicted
        record.a_retire = a_retire = [0] * len(dyns)
        for i, dyn in enumerate(dyns):
            if dyn is not None:
                pc = dyn.pc
                meta = sched_meta.get(pc)
                if meta is None:
                    instr = dyn.instr
                    meta = (instr.srcs, latency_of(instr), instr.is_load,
                            instr.is_store, instr.is_control, instr.is_branch)
                srcs, latency, is_load, is_store, _, _ = meta
                icache_penalty = 0
                aic_acc += 1
                aic_stamp += 1
                line = pc // aic_lb
                cset = aic_sets[line % aic_ns]
                if line in cset:
                    cset[line] = aic_stamp
                else:
                    aic_misses += 1
                    if len(cset) >= aic_assoc:
                        del cset[min(cset, key=cset.get)]
                    cset[line] = aic_stamp
                    icache_penalty = icache_miss
                    block_pending = True
                new_block = block_pending or block_count >= fetch_width
                if new_block:
                    block_count = 0
                    block_pending = False
                block_count += 1
                mem_addr = dyn.mem_addr
                dcache_penalty = 0
                if mem_addr is not None:
                    adc_acc += 1
                    adc_stamp += 1
                    line = mem_addr // adc_lb
                    cset = adc_sets[line % adc_ns]
                    if line in cset:
                        cset[line] = adc_stamp
                    else:
                        adc_misses += 1
                        if len(cset) >= adc_assoc:
                            del cset[min(cset, key=cset.get)]
                        cset[line] = adc_stamp
                        dcache_penalty = dcache_miss
                # --- inlined OoOScheduler.add_args (A-stream) ---
                # Fetch.
                if new_block:
                    fetch = as_next_block_cycle + icache_penalty
                    as_cur_block_fetch = fetch
                    gap = 1
                    if as_overhead_num:
                        as_overhead_acc += as_overhead_num
                        if as_overhead_acc >= as_overhead_den:
                            as_overhead_acc -= as_overhead_den
                            gap += 1
                    as_next_block_cycle = fetch + gap
                else:
                    fetch = as_cur_block_fetch
                # Operand readiness.
                ready = 0
                for src in srcs:
                    t = as_reg_ready[src]
                    if t > ready:
                        ready = t
                if is_load and mem_addr is not None:
                    t = as_store_get(mem_addr, 0)
                    if t > ready:
                        ready = t
                # Dispatch: in order, width-limited, ROB-limited.
                dispatch = fetch + as_frontend_depth
                if dispatch < as_last_dispatch:
                    dispatch = as_last_dispatch
                if len(as_rob) >= as_rob_size:
                    rob_free = as_rob_popleft()
                    if dispatch < rob_free:
                        dispatch = rob_free
                if dispatch == as_last_dispatch \
                        and as_dispatch_used >= as_dispatch_width:
                    dispatch += 1
                if dispatch == as_last_dispatch:
                    as_dispatch_used += 1
                else:
                    as_last_dispatch = dispatch
                    as_dispatch_used = 1
                # Issue: width-limited slot search.
                issue = dispatch if dispatch > ready else ready
                used = as_issue_get(issue, 0)
                while used >= as_issue_width:
                    issue += 1
                    used = as_issue_get(issue, 0)
                as_issue_count[issue] = used + 1
                # Complete.
                complete = issue + latency
                if is_load:
                    complete += dcache_penalty
                dest = dyn.dest_reg
                if dest is not None:
                    as_reg_ready[dest] = complete
                if is_store and mem_addr is not None:
                    as_store_ready[mem_addr] = complete
                # Retire: in order, width-limited.
                earliest = complete + 1
                if earliest > as_retire_cycle:
                    as_retire_cycle = earliest
                    as_retire_count = 1
                elif as_retire_count >= as_retire_width:
                    as_retire_cycle += 1
                    as_retire_count = 1
                else:
                    as_retire_count += 1
                as_rob_append(as_retire_cycle)
                as_retired += 1
                # --- end inlined scheduler ---
                a_last_complete = complete
                a_last_retire = as_retire_cycle
                a_retire[i] = as_retire_cycle
                if i == mispredicted:
                    # Inlined OoOScheduler.redirect.
                    floor = complete + 1 + redirect_penalty
                    if floor > as_next_block_cycle:
                        as_next_block_cycle = floor
                    as_redirects += 1
                    block_pending = True
                taken = dyn.taken
            else:
                # Only a control transfer is ever predicted taken.
                taken = pred_taken[i]
            if taken:
                block_pending = True
        self._a_block_pending = block_pending
        self._a_block_count = block_count
        asc._overhead_acc = as_overhead_acc
        asc._next_block_cycle = as_next_block_cycle
        asc._cur_block_fetch = as_cur_block_fetch
        asc._last_dispatch = as_last_dispatch
        asc._dispatch_used = as_dispatch_used
        asc._retire_cycle = as_retire_cycle
        asc._retire_count = as_retire_count
        asc.retired = as_retired
        asc.redirects = as_redirects
        if len(as_issue_count) > ISSUE_COUNT_BOUND:
            asc.trim_issue_counts()
        self._a_last_complete = a_last_complete
        self._a_last_retire = a_last_retire
        aic._stamp = aic_stamp
        aic.accesses += aic_acc
        aic.misses += aic_misses
        adc._stamp = adc_stamp
        adc.accesses += adc_acc
        adc.misses += adc_misses

    # ==================================================================
    # R-phase: consume one delay-buffer group in the R-stream.
    # ==================================================================

    def _r_phase(self, record: _ATraceRecord) -> None:
        available = record.available_cycle
        self.r_sched.stall_fetch_until(available)

        executed: List[DynInstr] = []
        deviation: Optional[Tuple[str, int]] = None  # (kind, detect_cycle)
        last_complete = self.r_sched.total_cycles

        # Execute + schedule, fused and fully hoisted: this loop retires
        # every R-stream (architectural) instruction, making it the
        # single hottest region of the co-simulation.  Stream state is
        # kept in locals and written back after the loop.
        r_state = self.r_state
        r_pc = self.r_pc
        r_seq = self._r_seq
        retired = self.retired
        fault_hook = self.fault_hook
        funcs = self._step_funcs
        funcs_get = funcs.get if funcs is not None else None
        program = self.program
        sched_meta_get = self._sched_meta.get
        # Scheduler pass inlined (same logic as OoOScheduler.add_args,
        # which documents it, specialized: fetch_floor is always 0 and
        # merged means the A-stream executed the position).  Mutable
        # containers are shared in place; scalar state lives in locals
        # until the writeback after the loop.
        rsc = self.r_sched
        rs_overhead_num, rs_overhead_den = rsc._overhead_num, rsc._overhead_den
        rs_overhead_acc = rsc._overhead_acc
        rs_dispatch_width = rsc._dispatch_width
        rs_issue_width = rsc._issue_width
        rs_retire_width = rsc._retire_width
        rs_rob_size = rsc._rob_size
        rs_frontend_depth = rsc._frontend_depth
        rs_merge_width = rsc._merge_width
        rs_reg_ready = rsc._reg_ready
        rs_store_ready = rsc._store_ready
        rs_store_get = rs_store_ready.get
        rs_rob = rsc._rob_retire
        rs_rob_append = rs_rob.append
        rs_rob_popleft = rs_rob.popleft
        rs_issue_count = rsc._issue_count
        rs_issue_get = rs_issue_count.get
        rs_next_block_cycle = rsc._next_block_cycle
        rs_cur_block_fetch = rsc._cur_block_fetch
        rs_last_dispatch = rsc._last_dispatch
        rs_dispatch_used = rsc._dispatch_used
        rs_merge_cycle = rsc._merge_cycle
        rs_merge_used = rsc._merge_used
        rs_retire_cycle = rsc._retire_cycle
        rs_retire_count = rsc._retire_count
        rs_retired = rsc.retired
        rs_merge_stalls = rsc.merge_stalls
        # Cache probes are inlined below (same hit/miss/LRU logic as
        # Cache.probe); counters accumulate in locals and are written
        # back right after the loop.
        ric = self.r_icache
        ric_sets, ric_lb = ric._sets, ric._line_bytes
        ric_ns, ric_assoc = ric._num_sets, ric._assoc
        ric_stamp, ric_acc, ric_misses = ric._stamp, 0, 0
        rdc = self.r_dcache
        rdc_sets, rdc_lb = rdc._sets, rdc._line_bytes
        rdc_ns, rdc_assoc = rdc._num_sets, rdc._assoc
        rdc_stamp, rdc_acc, rdc_misses = rdc._stamp, 0, 0
        cfg = self.r_core
        icache_miss = cfg.icache.miss_penalty
        dcache_miss = cfg.dcache.miss_penalty
        fetch_width = cfg.fetch_width
        block_break = self._r_block_break
        block_count = self._r_block_count
        transfer_latency = self.config.transfer_latency
        recovery = self.recovery
        detector_seq = self._detector_seq
        executed_append = executed.append

        for step_pc, a_dyn, pred_taken, a_retire in zip(
                record.pcs, record.dyns, record.pred_taken, record.a_retire):
            if r_state.halted:
                break
            if r_pc != step_pc:
                # Control deviation the A-stream did not know about
                # (removed mispredicted branch, or corrupt A context).
                deviation = ("control", last_complete)
                break
            # Execute one architectural instruction (inlined _r_execute).
            if funcs_get is not None and (f := funcs_get(r_pc)) is not None:
                dyn = f(r_state, r_seq)
            else:
                dyn = execute_one(program, r_state, r_pc, seq=r_seq)
            r_seq += 1
            retired += 1
            step_executed = a_dyn is not None
            if fault_hook is not None:
                dyn = fault_hook("R", dyn, r_state, step_executed)

            # Schedule it (inlined _schedule_r_instr); the fault hook
            # never alters pc/instr, so static metadata stays valid.
            pc = dyn.pc
            meta = sched_meta_get(pc)
            if meta is None:
                instr = dyn.instr
                meta = (instr.srcs, latency_of(instr), instr.is_load,
                        instr.is_store, instr.is_control, instr.is_branch)
            srcs, latency, is_load, is_store, is_control, is_branch = meta
            icache_penalty = 0
            ric_acc += 1
            ric_stamp += 1
            line = pc // ric_lb
            cset = ric_sets[line % ric_ns]
            if line in cset:
                cset[line] = ric_stamp
            else:
                ric_misses += 1
                if len(cset) >= ric_assoc:
                    del cset[min(cset, key=cset.get)]
                cset[line] = ric_stamp
                icache_penalty = icache_miss
                block_break = True
            new_block = block_break or block_count >= fetch_width
            if new_block:
                block_count = 0
                block_break = False
            block_count += 1
            taken = dyn.taken
            if is_control and taken:
                block_break = True
            mem_addr = dyn.mem_addr
            dcache_penalty = 0
            if mem_addr is not None:
                rdc_acc += 1
                rdc_stamp += 1
                line = mem_addr // rdc_lb
                cset = rdc_sets[line % rdc_ns]
                if line in cset:
                    cset[line] = rdc_stamp
                else:
                    rdc_misses += 1
                    if len(cset) >= rdc_assoc:
                        del cset[min(cset, key=cset.get)]
                    cset[line] = rdc_stamp
                    dcache_penalty = dcache_miss
            # --- inlined OoOScheduler.add_args (R-stream) ---
            # Fetch.
            if new_block:
                fetch = rs_next_block_cycle + icache_penalty
                rs_cur_block_fetch = fetch
                gap = 1
                if rs_overhead_num:
                    rs_overhead_acc += rs_overhead_num
                    if rs_overhead_acc >= rs_overhead_den:
                        rs_overhead_acc -= rs_overhead_den
                        gap += 1
                rs_next_block_cycle = fetch + gap
            else:
                fetch = rs_cur_block_fetch
            # Operand readiness (delay-buffer override for redundantly
            # executed instructions only).
            ready = 0
            for src in srcs:
                t = rs_reg_ready[src]
                if t > ready:
                    ready = t
            if is_load and mem_addr is not None:
                t = rs_store_get(mem_addr, 0)
                if t > ready:
                    ready = t
            if step_executed:
                override = a_retire + transfer_latency
                if override < available:
                    override = available
                accelerated = override < ready
            else:
                accelerated = False
            if accelerated:
                local_ready = ready
                ready = override
            # Dispatch: in order, width-limited, ROB-limited.
            dispatch = fetch + rs_frontend_depth
            if dispatch < rs_last_dispatch:
                dispatch = rs_last_dispatch
            if len(rs_rob) >= rs_rob_size:
                rob_free = rs_rob_popleft()
                if dispatch < rob_free:
                    dispatch = rob_free
            if dispatch == rs_last_dispatch \
                    and rs_dispatch_used >= rs_dispatch_width:
                dispatch += 1
            if accelerated and local_ready > dispatch:
                if dispatch == rs_merge_cycle \
                        and rs_merge_used >= rs_merge_width:
                    dispatch += 1
                    rs_merge_stalls += 1
                if dispatch == rs_merge_cycle:
                    rs_merge_used += 1
                else:
                    rs_merge_cycle = dispatch
                    rs_merge_used = 1
            if dispatch == rs_last_dispatch:
                rs_dispatch_used += 1
            else:
                rs_last_dispatch = dispatch
                rs_dispatch_used = 1
            # Issue: width-limited slot search.
            issue = dispatch if dispatch > ready else ready
            used = rs_issue_get(issue, 0)
            while used >= rs_issue_width:
                issue += 1
                used = rs_issue_get(issue, 0)
            rs_issue_count[issue] = used + 1
            # Complete.
            complete = issue + latency
            if is_load:
                complete += dcache_penalty
            dest = dyn.dest_reg
            if dest is not None:
                rs_reg_ready[dest] = complete
            if is_store and mem_addr is not None:
                rs_store_ready[mem_addr] = complete
            # Retire: in order, width-limited.
            earliest = complete + 1
            if earliest > rs_retire_cycle:
                rs_retire_cycle = earliest
                rs_retire_count = 1
            elif rs_retire_count >= rs_retire_width:
                rs_retire_cycle += 1
                rs_retire_count = 1
            else:
                rs_retire_count += 1
            rs_rob_append(rs_retire_cycle)
            rs_retired += 1
            # --- end inlined scheduler ---
            last_complete = complete
            executed_append(dyn)

            if a_dyn is not None:
                # Redundant-instruction comparison, inlined _mismatch.
                if (a_dyn.value != dyn.value
                        or a_dyn.mem_addr != mem_addr
                        or a_dyn.taken != taken
                        or a_dyn.next_pc != dyn.next_pc):
                    deviation = ("value", last_complete)
                    r_pc = dyn.next_pc
                    break
                if is_store and a_dyn.mem_addr is not None:
                    recovery.untrack_undo(a_dyn.mem_addr)
            else:
                if is_branch and taken != pred_taken:
                    # A removed branch whose presumed outcome was wrong.
                    deviation = ("control", last_complete)
                    r_pc = dyn.next_pc
                    break
                if is_store and mem_addr is not None:
                    recovery.track_do(mem_addr, detector_seq)
            r_pc = dyn.next_pc

        self.r_pc = r_pc
        self._r_seq = r_seq
        self.retired = retired
        self._r_block_break = block_break
        self._r_block_count = block_count
        rsc._overhead_acc = rs_overhead_acc
        rsc._next_block_cycle = rs_next_block_cycle
        rsc._cur_block_fetch = rs_cur_block_fetch
        rsc._last_dispatch = rs_last_dispatch
        rsc._dispatch_used = rs_dispatch_used
        rsc._merge_cycle = rs_merge_cycle
        rsc._merge_used = rs_merge_used
        rsc._retire_cycle = rs_retire_cycle
        rsc._retire_count = rs_retire_count
        rsc.retired = rs_retired
        rsc.merge_stalls = rs_merge_stalls
        if len(rs_issue_count) > ISSUE_COUNT_BOUND:
            rsc.trim_issue_counts()
        ric._stamp = ric_stamp
        ric.accesses += ric_acc
        ric.misses += ric_misses
        rdc._stamp = rdc_stamp
        rdc.accesses += rdc_acc
        rdc.misses += rdc_misses
        self._r_finish(record, executed, None, deviation, last_complete)

    def _r_finish(
        self,
        record: _ATraceRecord,
        executed: List[DynInstr],
        branch_ok: Optional[List[bool]],
        deviation: Optional[Tuple[str, int]],
        last_complete: int,
    ) -> None:
        """Post-schedule R-phase tail: detector feeding, predictor
        training, ir-vec bookkeeping, deviation resolution and
        recovery.

        ``branch_ok`` says per retired instruction whether its branch
        outcome matched the A-stream's prediction; only the ``pc``
        removal mechanism reads it, and when it is None it is derived
        from ``executed`` (the records after the fault hook) and the
        followed path's predictions."""
        # Feed the IR-detector with what the R-stream actually retired,
        # train the IR-predictor, and verify outstanding ir-vecs.
        if executed:
            if deviation is None and len(executed) == len(record.pcs):
                # Every followed step retired with no PC, value or
                # removed-branch mismatch, so the retired path is the
                # followed one: same start PC, same branch outcomes.
                actual_tid = record.followed_tid
            else:
                actual_tid = trace_id_of(executed)
            self.ir_predictor.update_path(actual_tid)
            if record.kinds is not None and deviation is None:
                # Hint-removed instructions are exempt from the ir-vec
                # verification: the dynamic detector can *miss* a
                # statically-proven fact (bounded scope), never refute
                # it, and a removed branch's presumed outcome is still
                # checked architecturally in the R-phase.
                hint_pcs = self._hint_pcs
                self._pending_vec_checks[self._detector_seq] = [
                    d is None and pc not in hint_pcs
                    for d, pc in zip(record.dyns, record.pcs)
                ]
            analyses = self.detector.feed_trace(CompletedTrace(executed, actual_tid))
            self._detector_seq += 1
            if self.config.removal_mechanism == "pc":
                if branch_ok is None:
                    branch_ok = [
                        not d.instr.is_branch or d.taken == taken
                        for d, taken in zip(executed, record.pred_taken)
                    ]
                self._pending_branch_ok.append(branch_ok)
            for analysis in analyses:
                if self._handle_analysis(analysis) and deviation is None:
                    deviation = ("ir_detector", last_complete)

        if deviation is None and not self.r_state.halted:
            if record.a_halted or not record.pcs:
                # The A-stream halted or stalled on a wrong path.
                deviation = ("control", last_complete)

        if deviation is not None:
            self._recover(deviation[0], deviation[1])
        elif record.pushed:
            self.delay_buffer.mark_popped(self.r_sched.total_cycles)

        obs = self._obs
        if obs is not None:
            obs.histogram("slip.db_occupancy").observe(self.delay_buffer.occupancy)
            obs.emit("trace_retired", seq=self._obs_seq,
                     retired=self.retired,
                     a_cycle=self.a_sched.total_cycles,
                     r_cycle=self.r_sched.total_cycles,
                     occupancy=self.delay_buffer.occupancy,
                     merge_stalls=self.r_sched.merge_stalls)

    # ==================================================================
    # IR-detector analysis handling and recovery.
    # ==================================================================

    def _handle_analysis(self, analysis: TraceAnalysis) -> bool:
        """Train the predictor and verify the predicted ir-vec.

        Returns True if verification exposed an IR-misprediction: an
        instruction was removed that the detector's exact re-analysis
        says was not removable this time.
        """
        self.ir_predictor.train_removal(analysis)
        if self.config.removal_mechanism == "pc":
            oks = self._pending_branch_ok.pop(0) if self._pending_branch_ok else []
            for pc, selected, kind, ok in zip(
                analysis.pcs, analysis.ir_vec, analysis.kinds,
                oks or [True] * len(analysis.pcs),
            ):
                self.pc_ir.train(pc, selected, kind, ok)
        predicted = self._pending_vec_checks.pop(analysis.trace_seq, None)
        if predicted is not None:
            for removed, computed in zip(predicted, analysis.ir_vec):
                if removed and not computed:
                    return True
        self.recovery.release_verified_trace(analysis.trace_seq)
        return False

    def _recover(self, kind: str, detect_cycle: int) -> None:
        """IR-misprediction (or fault) recovery, section 2.3."""
        self.ir_mispredictions += 1
        self.detections[kind] = self.detections.get(kind, 0) + 1

        # The R-stream's ROB is flushed: timing redirect.
        self.r_sched.redirect(detect_cycle)
        self._r_block_break = True

        # Restore the A-stream context from the R-stream context: the
        # full register file, then the tracked memory locations.
        tracked = self.recovery.tracked_addresses()
        cost = self.recovery.recover()
        self.a_state.regs.copy_from(self.r_state.regs)
        self.a_state.halted = self.r_state.halted
        for addr in tracked:
            self.a_state.mem.write(addr, self.r_state.mem.read(addr))

        # Audit the sufficiency claim; repair (and count) any shortfall.
        remaining = self.a_state.mem.differing_addresses(self.r_state.mem)
        if remaining:
            self.audit_shortfalls += len(remaining)
            for addr in remaining:
                self.a_state.mem.write(addr, self.r_state.mem.read(addr))

        self.ir_penalty_total += cost.latency
        self.recovery_log.append((self.retired, cost.latency))
        resume = detect_cycle + cost.latency
        if self._obs is not None:
            self._obs.emit("recovery", seq=self._obs_seq, kind=kind,
                           detect_cycle=detect_cycle, latency=cost.latency,
                           resume_cycle=resume,
                           mem_restored=cost.memory_locations,
                           shortfall=len(remaining))
            self._obs.histogram("slip.recovery_latency").observe(cost.latency)
        self.a_sched.stall_fetch_until(resume)
        if resume > self._a_last_retire:
            self._a_last_retire = resume
        if resume > self._a_last_complete:
            self._a_last_complete = resume

        # Flush the delay buffer; restart the A-stream at the precise
        # R-stream point.  The predictor's history already reflects only
        # verified traces (it is trained on the R-stream's retirements).
        self.delay_buffer.flush()
        self.a_pc = self.r_pc
        self._a_block_pending = True
        self._pending_vec_checks.clear()

    # ==================================================================
    # Observability (behavior-neutral; see repro.obs).
    # ==================================================================

    def _finalize_obs(self, obs: Observability) -> None:
        """Fold every component's tallies into the metrics registry and
        close out the event trace with cache summaries and the final
        counter snapshot."""
        registry = obs.registry
        registry.set_counters(self.delay_buffer.snapshot(), "delay_buffer.")
        registry.set_counters(self.recovery.snapshot(), "recovery.")
        registry.set_counters(self.ir_predictor.snapshot(), "ir_predictor.")
        registry.set_counters(self.detector.snapshot(), "ir_detector.")
        registry.set_counters(self.a_sched.snapshot(), "a_sched.")
        registry.set_counters(self.r_sched.snapshot(), "r_sched.")
        registry.counter("slip.traces").set(self._obs_seq)
        for name, cache in (
            ("a_icache", self.a_icache), ("a_dcache", self.a_dcache),
            ("r_icache", self.r_icache), ("r_dcache", self.r_dcache),
        ):
            registry.set_counters(cache.snapshot(), f"{name}.")
            obs.emit("cache", cache=name, accesses=cache.accesses,
                     hits=cache.hits, misses=cache.misses)
        obs.emit("summary", counters=registry.snapshot())
