"""N-stream redundancy engines beyond the paper's A/R pair.

The slipstream A/R pair is one point in the redundancy design space.
This module implements two other points over the same ISA/arch
substrate, both run by the fault campaign (:mod:`repro.fault.campaign`,
whose ``MODE_FACTS`` table gives each mode's stream count and fault
sites):

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

A struck run simulates only what the strike can change.  A hook with a
``quiet_until`` attribute (:class:`repro.fault.injector.FaultInjector`)
alters no retirement before that seq, so both engines run the prefix
with :func:`repro.arch.advance` on one fault-free state: TMR forks it
into the replicas, and replay starts at the last window boundary before
the strike with the clean run's window counters, which follow from the
boundary alone, and a fork of the state as its shadow.  A run with no
hook is quiet to its budget: TMR runs the whole program with
``advance``, and replay all of it but the window that halts.  A TMR
hook that also reports ``spent`` hands the rest of the run to
``advance`` once the replicas are equal again after the strike (right
after the repairing vote, or at once when the strike wrote nothing):
replicas 1..N-1 are never struck and a repair writes only the
minority, so every later vote would be unanimous on the fault-free
path.  Results are bit-identical to offering the hook every
retirement; DESIGN.md §7.13 states the rules.
A run that stops because the program traps names the trap in its
``SimulationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.arch.compiled import StepFn, compiled_for, resolve_engine
from repro.arch.executor import DynInstr, ExecutionError, execute_one
from repro.arch.functional import advance
from repro.arch.state import ArchState
from repro.core.recovery import RecoveryCost
from repro.core.slipstream import FaultHook, SimulationError, trap_note
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


def _same_state(a: ArchState, b: ArchState) -> bool:
    """Equal registers, memory contents, output and halt flag."""
    return (a.regs == b.regs and a.output == b.output
            and a.halted == b.halted
            and not a.mem.differing_addresses(b.mem))


def _quiet_until(hook: Optional[FaultHook], budget: int) -> int:
    """The first seq ``hook`` may alter: 0 unless it says so, and the
    whole ``budget`` when there is no hook (a clean run is quiet to the
    end)."""
    if hook is None:
        return budget
    return getattr(hook, "quiet_until", 0)


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
        quiet = _quiet_until(hook, self.max_instructions)
        states, pc, retired = self._clean_prefix(quiet)
        output = list(states[0].output)
        halted = states[0].halted
        # The repaired tail (see the module docstring) needs a hook that
        # says when it has done all it will do.
        watch = hook is not None and hasattr(hook, "spent")
        spent = False
        detections = 0
        recoveries: List[Tuple[int, int]] = []
        extra_cycles = 0
        while not halted:
            if retired >= self.max_instructions:
                raise SimulationError(
                    f"TMR run exceeded {self.max_instructions} instructions"
                )
            step = step_get(pc)
            signatures: List[tuple] = []
            trap: Optional[Exception] = None
            for index, state in enumerate(states):
                try:
                    if step is not None:
                        dyn = step(state, retired)
                    else:
                        dyn = execute_one(program, state, pc, seq=retired)
                except (ExecutionError, ValueError, IndexError) as exc:
                    signatures.append(_TRAP)
                    trap = exc
                    continue
                if index == 0 and hook is not None:
                    # The campaign's single-fault model strikes one
                    # replica; the voter sees every replica's result
                    # (compared=True) before retirement commits.
                    dyn = hook("R", dyn, state, True)
                signatures.append(_signature(dyn))
            voted_sig = signatures[0]
            retired += 1
            repaired = False
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
                        + (trap_note(trap) if voted_sig is _TRAP else "")
                    )
                voted_state = states[signatures.index(voted_sig)]
                # Not unanimous, so the minority is never empty.
                detections += 1
                repaired = True
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
            if watch and not halted and retired > quiet:
                # Replica 0 is clean again right after a repair, or at
                # once when the spent strike left it equal to the rest.
                clean = repaired
                if not spent and getattr(hook, "spent"):
                    spent = True
                    clean = clean or _same_state(states[0], states[1])
                if spent and clean:
                    tail = self._clean_tail(states, pc, retired, output)
                    if tail is not None:
                        retired = tail
                        break
                    watch = False
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

    def _clean_prefix(self, quiet: int) -> Tuple[List[ArchState], int, int]:
        """The replicas, PC and retired count after the first ``quiet``
        retirements, which no strike touches: one fault-free run forked
        ``n_streams`` ways.  A clean program that traps in that prefix
        starts from the entry instead, so the voter reports the trap."""
        program = self.program
        if quiet > 0:
            state = ArchState(image=program.data)
            try:
                retired, pc = advance(
                    program, state, program.entry,
                    min(quiet, self.max_instructions), self.engine,
                )
            except (ExecutionError, ValueError, IndexError):
                pass
            else:
                forks = [state.fork() for _ in range(self.n_streams - 1)]
                return [state] + forks, pc, retired
        states = [ArchState(image=program.data) for _ in range(self.n_streams)]
        return states, program.entry, 0

    def _clean_tail(
        self, states: List[ArchState], pc: int, retired: int,
        output: List[int],
    ) -> Optional[int]:
        """Finish a run whose replicas are all clean again on the
        functional engine; returns the final retired count.

        Every later vote would be unanimous on the fault-free path, so
        the rest of the run is the functional run from replica 0's state
        within the remaining budget, and it overruns exactly when the
        lockstep loop would.  A clean continuation that traps returns
        None with replica 0 reset from replica 1, so the caller's loop
        reaches the trap and reports it as before.
        """
        tail = states[0]
        before = len(tail.output)
        try:
            executed, _pc = advance(
                self.program, tail, pc, self.max_instructions - retired,
                self.engine,
            )
        except (ExecutionError, ValueError, IndexError):
            states[0] = states[1].fork()
            return None
        if not tail.halted:
            raise SimulationError(
                f"TMR run exceeded {self.max_instructions} instructions"
            )
        output.extend(tail.output[before:])
        return retired + executed


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
        primary, pc, windows = self._clean_prefix(
            _quiet_until(hook, self.max_instructions))
        shadow = primary.fork()
        retired = seq = windows * self.window_len
        replayed_windows = -(-windows // self.scrub_interval)
        replayed_instructions = replayed_windows * self.window_len
        extra_cycles = replayed_windows * REPLAY_WINDOW_DRAIN
        detections = 0
        recoveries: List[Tuple[int, int]] = []
        last_trap: Optional[Tuple[int, int]] = None
        while not primary.halted:
            window_start_pc = pc
            recorded: List[DynInstr] = []
            trap: Optional[Exception] = None
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
                except (ExecutionError, ValueError, IndexError) as exc:
                    trap = exc
                    break
                seq += 1
                retired += 1
                if hook is not None:
                    # compared=False: the primary retires unvalidated;
                    # only a later replay can catch the corruption.
                    dyn = hook("R", dyn, primary, False)
                recorded.append(dyn)
                pc = dyn.next_pc
            trapped = trap is not None
            if trapped:
                # A trap with no retirement progress since the last trap
                # means the replayed continuation traps too: the machine
                # is wedged (possible only with an injected fault).
                if last_trap == (retired, pc):
                    raise SimulationError(
                        f"replay machine wedged at pc {pc:#x}"
                        + trap_note(trap)
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

    def _clean_prefix(self, quiet: int) -> Tuple[ArchState, int, int]:
        """The primary, PC and window count at the last window boundary
        at or before seq ``quiet``, which no strike reaches.

        A clean run's counters at boundary ``w * window_len`` follow
        from ``w`` alone (every ``scrub_interval``-th window, the first
        included, replays all ``window_len`` of its instructions and
        matches), and its shadow equals the primary there in content,
        so a fork of the fault-free state stands in for it.  A prefix
        that halts after ``executed`` instructions (a clean run, or a
        strike that never fires) starts instead at the boundary of the
        window that halts, ``(executed - 1) // window_len`` windows in,
        and runs that window in the loop; one that traps starts from the
        entry, exactly as without the hook.
        """
        program = self.program
        length = self.window_len
        windows = min(quiet, self.max_instructions) // length
        while windows:
            state = ArchState(image=program.data)
            try:
                executed, pc = advance(
                    program, state, program.entry, windows * length,
                    self.engine,
                )
            except (ExecutionError, ValueError, IndexError):
                break
            if not state.halted:
                return state, pc, windows
            windows = (executed - 1) // length
        return ArchState(image=program.data), program.entry, 0

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
