"""N-stream redundancy engines beyond the paper's A/R pair.

The slipstream A/R pair is one point in the redundancy design space.
This module implements two other points over the same ISA/arch
substrate, both driven through the declarative
:class:`repro.core.modes.RedundancyMode` framework and the existing
fault campaign:

* :class:`TMRProcessor` — Elzar-style triple modular redundancy.
  ``n_streams`` full architectural contexts execute the program in
  lockstep; at each retirement the streams' results are majority-voted
  on ``(value, mem_addr, taken, next_pc, output)``.  A minority stream
  is *repaired in place* from a majority stream (register file copy +
  differing memory words), so a single-stream strike is masked at the
  voter without any rollback or re-execution — the defining TMR
  property the campaign classifies as ``MASKED_BY_VOTE``.

* :class:`ReplayWindowProcessor` — RepTFD-style replay checking.  A
  single primary stream runs at full speed, recording retired
  instructions per fixed-size window.  A detector keeps a *shadow
  context* one window behind; suspected windows (every
  ``scrub_interval``-th window, plus any window that traps) are
  re-executed from the shadow and compared instruction-by-instruction.
  A mismatch rolls the primary back to the replayed (clean)
  continuation; windows that are not replayed fast-forward the shadow
  by applying the recorded writes — which is exactly how a fault in an
  unchecked window *escapes*.  Replay drain and rollback latencies are
  charged on top of the baseline core's cycle count, giving the
  detection-latency/IPC-cost trade-off against the delay-buffer
  design.

Both engines accept the same ``fault_hook`` protocol as
:class:`repro.core.slipstream.SlipstreamProcessor` (the hook is only
ever offered stream label ``"R"``, on the first/primary stream — the
campaign's single-fault model strikes one replica).

Both also take the same ``engine`` argument as ``SlipstreamProcessor``
(resolved by :func:`repro.arch.compiled.resolve_engine`, so
``REPRO_COMPILED=0`` opts out): on the default compiled engine every
replica, primary and replay step dispatches to the program's record
closure for its PC, and a PC with no closure (a wild PC after a struck
jump) falls back to ``execute_one``, which raises the interpreter's
error — how a replica traps.  The interpreter is the same loop with an
empty closure map.  When all TMR signatures agree (every retirement of
a clean run), the voter takes stream 0 without building a tally; any
disagreement or trap goes through the full majority count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.arch.compiled import StepFn, compiled_for, resolve_engine
from repro.arch.executor import DynInstr, ExecutionError, execute_one
from repro.arch.state import ArchState
from repro.core.recovery import RecoveryCost
from repro.core.slipstream import FaultHook, SimulationError
from repro.isa.program import Program

#: Matches SlipstreamConfig.max_instructions' default budget.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

#: Cycles to drain/compare one replayed window (RepTFD's checker drain).
REPLAY_WINDOW_DRAIN = 8

#: Default replay-checking window geometry: 64-instruction windows,
#: every 4th window scrubbed (25% replay duty cycle).
REPLAY_WINDOW_LENGTH = 64
REPLAY_SCRUB_INTERVAL = 4

#: Sentinel vote signature for a stream whose execution trapped.
_TRAP = ("trap",)


@dataclass
class NStreamResult:
    """Outcome of one N-stream (TMR or replay-window) run.

    ``detections`` counts vote disagreements (TMR) or replay mismatches
    (replay-window); ``recoveries`` logs ``(retired_at, latency)`` per
    repair/rollback, in the same shape as
    :class:`repro.core.slipstream.SlipstreamResult` so the campaign's
    detection-latency accounting applies unchanged.
    """

    mode: str
    n_streams: int
    retired: int
    cycles: int
    output: List[int] = field(default_factory=list)
    detections: int = 0
    recoveries: List[Tuple[int, int]] = field(default_factory=list)
    #: Replay-window accounting (zero for TMR).
    windows: int = 0
    replayed_windows: int = 0
    replayed_instructions: int = 0

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


def _signature(dyn: DynInstr) -> tuple:
    return (dyn.value, dyn.mem_addr, dyn.taken, dyn.next_pc, dyn.output)


def _step_lookup(
    program: Program, engine: str
) -> Callable[[int], Optional[StepFn]]:
    """PC -> record closure, or None where ``execute_one`` must run
    (every PC on the interpreter; wild PCs on the compiled engine)."""
    if engine == "compiled":
        return compiled_for(program).step_funcs.get
    return {}.get


def _repair_state(broken: ArchState, good: ArchState) -> int:
    """Overwrite ``broken`` from ``good``; returns the number of
    differing memory words (the repair's memory-restore cost)."""
    differing = broken.mem.differing_addresses(good.mem)
    broken.regs.copy_from(good.regs)
    for addr in differing:
        broken.mem.write(addr, good.mem.read(addr))
    broken.output[:] = good.output
    broken.halted = good.halted
    return len(differing)


class TMRProcessor:
    """Lockstep N-modular redundancy with majority voting at retirement.

    ``base_cycles`` anchors the timing model: the voted machine retires
    at the baseline superscalar core's rate (all replicas run the same
    schedule in lockstep), plus the latency of each minority repair.
    When omitted, one cycle per retirement is charged (functional-only
    callers).
    """

    def __init__(
        self,
        program: Program,
        n_streams: int = 3,
        fault_hook: Optional[FaultHook] = None,
        base_cycles: Optional[int] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        engine: Optional[str] = None,
    ):
        if n_streams < 3 or n_streams % 2 == 0:
            raise ValueError("TMR needs an odd stream count of at least 3")
        self.program = program
        self.n_streams = n_streams
        self.fault_hook = fault_hook
        self.base_cycles = base_cycles
        self.max_instructions = max_instructions
        #: "compiled" | "interpreted"; bit-identical, so never a config knob.
        self.engine = resolve_engine(engine)

    def run(self) -> NStreamResult:
        program = self.program
        hook = self.fault_hook
        n_streams = self.n_streams
        majority_needed = n_streams // 2 + 1
        step_get = _step_lookup(program, self.engine)
        states = [ArchState(image=program.data) for _ in range(n_streams)]
        pc = program.entry
        retired = 0
        detections = 0
        recoveries: List[Tuple[int, int]] = []
        extra_cycles = 0
        output: List[int] = []
        halted = False
        while not halted:
            if retired >= self.max_instructions:
                raise SimulationError(
                    f"TMR run exceeded {self.max_instructions} instructions"
                )
            step = step_get(pc)
            signatures: List[tuple] = []
            for index, state in enumerate(states):
                try:
                    if step is not None:
                        dyn = step(state, retired)
                    else:
                        dyn = execute_one(program, state, pc, seq=retired)
                except (ExecutionError, ValueError, IndexError):
                    signatures.append(_TRAP)
                    continue
                if index == 0 and hook is not None:
                    # The campaign's single-fault model strikes one
                    # replica; the voter sees every replica's result
                    # (compared=True) before retirement commits.
                    dyn = hook("R", dyn, state, True)
                signatures.append(_signature(dyn))
            voted_sig = signatures[0]
            retired += 1
            if voted_sig is not _TRAP \
                    and signatures.count(voted_sig) == n_streams:
                # Unanimous: stream 0 wins and nothing needs repair.
                voted_state = states[0]
            else:
                tally: dict = {}
                for sig in signatures:
                    tally[sig] = tally.get(sig, 0) + 1
                voted_sig, votes = max(tally.items(), key=lambda item: item[1])
                if votes < majority_needed or voted_sig is _TRAP:
                    raise SimulationError(
                        f"no majority among {n_streams} streams at pc {pc:#x}"
                    )
                voted_state = states[signatures.index(voted_sig)]
                # Not unanimous, so the minority is never empty.
                detections += 1
                for index, sig in enumerate(signatures):
                    if sig != voted_sig:
                        differing = _repair_state(states[index], voted_state)
                        latency = RecoveryCost(
                            memory_locations=differing
                        ).latency
                        recoveries.append((retired, latency))
                        extra_cycles += latency
            if voted_sig[4] is not None:
                output.append(voted_sig[4])
            pc = voted_sig[3]
            halted = voted_state.halted
        base = self.base_cycles if self.base_cycles is not None else retired
        return NStreamResult(
            mode="tmr",
            n_streams=self.n_streams,
            retired=retired,
            cycles=base + extra_cycles,
            output=output,
            detections=detections,
            recoveries=recoveries,
        )


class ReplayWindowProcessor:
    """Single primary stream + replay-window detector (RepTFD).

    The primary executes windows of ``window_len`` instructions,
    recording each retirement.  A shadow context trails one window
    behind.  Every ``scrub_interval``-th window — and any window whose
    primary execution traps — is *replayed* from the shadow and
    compared against the recording; a mismatch is a detection, and the
    primary rolls back to the replay's (clean) continuation.  Windows
    that are not replayed fast-forward the shadow by applying the
    recorded architectural writes, corrupted or not — the coverage hole
    this mode trades for its low steady-state cost.
    """

    def __init__(
        self,
        program: Program,
        window_len: int = REPLAY_WINDOW_LENGTH,
        scrub_interval: int = REPLAY_SCRUB_INTERVAL,
        fault_hook: Optional[FaultHook] = None,
        base_cycles: Optional[int] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        engine: Optional[str] = None,
    ):
        if window_len < 1:
            raise ValueError("window_len must be positive")
        if scrub_interval < 1:
            raise ValueError("scrub_interval must be positive")
        self.program = program
        self.window_len = window_len
        self.scrub_interval = scrub_interval
        self.fault_hook = fault_hook
        self.base_cycles = base_cycles
        self.max_instructions = max_instructions
        #: "compiled" | "interpreted"; bit-identical, so never a config knob.
        self.engine = resolve_engine(engine)

    def run(self) -> NStreamResult:
        program = self.program
        hook = self.fault_hook
        step_get = _step_lookup(program, self.engine)
        primary = ArchState(image=program.data)
        shadow = primary.fork()
        pc = program.entry
        retired = 0
        seq = 0
        detections = 0
        recoveries: List[Tuple[int, int]] = []
        windows = 0
        replayed_windows = 0
        replayed_instructions = 0
        extra_cycles = 0
        last_trap: Optional[Tuple[int, int]] = None
        while not primary.halted:
            window_start_pc = pc
            recorded: List[DynInstr] = []
            trapped = False
            while len(recorded) < self.window_len and not primary.halted:
                if retired >= self.max_instructions:
                    raise SimulationError(
                        f"replay run exceeded {self.max_instructions} "
                        "instructions"
                    )
                try:
                    step = step_get(pc)
                    if step is not None:
                        dyn = step(primary, seq)
                    else:
                        dyn = execute_one(program, primary, pc, seq=seq)
                except (ExecutionError, ValueError, IndexError):
                    trapped = True
                    break
                seq += 1
                retired += 1
                if hook is not None:
                    # compared=False: the primary retires unvalidated;
                    # only a later replay can catch the corruption.
                    dyn = hook("R", dyn, primary, False)
                recorded.append(dyn)
                pc = dyn.next_pc
            if trapped:
                # A trap with no retirement progress since the last trap
                # means the replayed continuation traps too: the machine
                # is wedged (possible only with an injected fault).
                if last_trap == (retired, pc):
                    raise SimulationError(
                        f"replay machine wedged at pc {pc:#x}"
                    )
                last_trap = (retired, pc)
            windows += 1
            replay_this = trapped or (windows - 1) % self.scrub_interval == 0
            if replay_this:
                replayed_windows += 1
                rstate, rpc, mismatch, executed = self._replay(
                    recorded, window_start_pc, shadow, step_get
                )
                replayed_instructions += executed
                if mismatch or trapped:
                    detections += 1
                    differing = primary.mem.differing_addresses(rstate.mem)
                    latency = (
                        RecoveryCost(memory_locations=len(differing)).latency
                        + REPLAY_WINDOW_DRAIN
                    )
                    recoveries.append((retired, latency))
                    extra_cycles += latency
                    primary = rstate
                    pc = rpc
                else:
                    extra_cycles += REPLAY_WINDOW_DRAIN
                shadow = primary.fork()
            elif recorded:
                self._fast_forward(shadow, recorded)
        base = self.base_cycles if self.base_cycles is not None else retired
        return NStreamResult(
            mode="replay",
            n_streams=1,
            retired=retired,
            cycles=base + extra_cycles,
            output=list(primary.output),
            detections=detections,
            recoveries=recoveries,
            windows=windows,
            replayed_windows=replayed_windows,
            replayed_instructions=replayed_instructions,
        )

    def _replay(
        self,
        recorded: List[DynInstr],
        start_pc: int,
        shadow: ArchState,
        step_get: Callable[[int], Optional[StepFn]],
    ) -> Tuple[ArchState, int, bool, int]:
        """Re-execute one window from the shadow context.

        Compares each re-executed instruction against the recording
        until the first mismatch; after a divergence the replay simply
        follows its own (correct) path for the remaining instruction
        budget so the caller gets a clean continuation state.
        """
        rstate = shadow.fork()
        rpc = start_pc
        mismatch = False
        executed = 0
        for dyn in recorded:
            if rstate.halted:
                break
            try:
                step = step_get(rpc)
                if step is not None:
                    rdyn = step(rstate, dyn.seq)
                else:
                    rdyn = execute_one(self.program, rstate, rpc, seq=dyn.seq)
            except (ExecutionError, ValueError, IndexError):
                # The clean context cannot trap on a clean program; a
                # trap here means the recording led us astray.
                mismatch = True
                break
            executed += 1
            if not mismatch and _signature(rdyn) != _signature(dyn):
                mismatch = True
            rpc = rdyn.next_pc
        return rstate, rpc, mismatch, executed

    @staticmethod
    def _fast_forward(shadow: ArchState, recorded: List[DynInstr]) -> None:
        """Advance the shadow by applying the recorded writes verbatim
        (corrupted values included — unchecked windows are trusted)."""
        for dyn in recorded:
            if dyn.is_store and dyn.mem_addr is not None and dyn.value is not None:
                shadow.mem.write(dyn.mem_addr, dyn.value)
            elif dyn.dest_reg is not None and dyn.value is not None:
                shadow.regs.write(dyn.dest_reg, dyn.value)
            if dyn.output is not None:
                shadow.output.append(dyn.output)
            if dyn.next_pc == dyn.pc and not dyn.is_branch:
                shadow.halted = True
