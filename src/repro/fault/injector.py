"""Deterministic single-fault injection.

A fault strikes one dynamic instruction (identified by its per-stream
retirement sequence number) and flips one bit of its result value.
Four sites model the paper's analysis (section 3) plus the
layout-correlation class the DME-style decorrelated mode targets:

* ``A_RESULT`` — a fault in the A-stream's pipeline or context.  The
  A-stream retires the corrupted value into its architectural state.
  Expected behaviour: the R-stream's redundant computation disagrees,
  the deviation is handled exactly like an IR-misprediction, and the
  A-stream context is repaired from the R-stream — transparent
  recovery.

* ``R_TRANSIENT`` — a fault in the R-stream's pipeline.  For a
  *redundantly executed* instruction the corrupted value reaches the
  comparison hardware, the mismatch triggers a flush, and re-execution
  retires the correct value (scenario #1: transparently recoverable).
  For an instruction the A-stream *skipped* there is nothing to
  compare against: the corrupted value retires into the R-stream's
  architectural state (scenario #2: undetectable).

* ``R_ARCH`` — a direct bit flip in the R-stream's architectural state
  (register file / data cache) after writeback.  The comparison saw
  the correct computed value, so the fault is invisible at the faulted
  instruction; later deviations may be *detected* but recovery copies
  the corrupted R-stream state — detectable at best, unrecoverable
  (the paper's motivation for ECC on the R-stream's register file and
  data cache).

* ``CORRELATED`` — one physical disturbance (a particle strike on a
  shared structure, a voltage droplet) hitting the *same physical
  location* in both contexts.  With correlated layouts (the default
  slipstream machine: both streams use identical data address spaces
  and register assignments) the same logical bit of the same logical
  value flips in both streams, the comparison hardware sees two
  identically-wrong values agree, and the corruption retires silently.
  Under the **decorrelated** mode (``SlipstreamConfig.decorrelated``,
  DME-style shifted address spaces and rotated register assignments,
  undone at comparison time) the same physical location maps to
  *different* logical bits in the two contexts, the corruptions
  disagree, and the comparison catches the strike like any
  IR-misprediction.  The injector models the layout rotation as a bit
  rotation of the flipped position in the R-stream's copy of the
  strike.

A struck run that will overrun its instruction budget (a ``HANG``) is
decided early, on the functional engine: see
:meth:`FaultInjector._prove_hang`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.arch.executor import DynInstr, ExecutionError, wrap32
from repro.arch.functional import FunctionalSimulator, InstructionLimitExceeded
from repro.arch.state import ArchState
from repro.core.slipstream import SimulationError, SlipstreamConfig
from repro.isa.program import Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fault.ecc import ECCModel


class FaultSite(enum.Enum):
    A_RESULT = "a_result"
    R_TRANSIENT = "r_transient"
    R_ARCH = "r_arch"
    CORRELATED = "correlated"


_CORRELATED = FaultSite.CORRELATED

#: The sites that strike the R-stream alone (the only ones the N-stream
#: modes offer: there is no A-stream there).
R_SITES = (FaultSite.R_TRANSIENT, FaultSite.R_ARCH)

#: Sites whose ``target_seq`` counts A-stream executions; the others
#: count R-stream retirements.  A ``CORRELATED`` strike lands on the
#: A-stream first; its R-stream companion is located by pc + value.
A_NUMBERED_SITES = (FaultSite.A_RESULT, FaultSite.CORRELATED)

#: Logical-bit rotation the decorrelated layout applies between the two
#: contexts: the physical location that holds bit ``b`` of a value in
#: the A-stream's context holds bit ``(b + 13) % 32`` of the same value
#: in the R-stream's context (13 is coprime to 32, so every bit moves).
DECORRELATION_ROTATION = 13


@dataclass(frozen=True)
class TransientFault:
    """One fault: strike stream instruction ``target_seq``, flip ``bit``."""

    site: FaultSite
    target_seq: int
    bit: int = 7

    def __post_init__(self) -> None:
        if not 0 <= self.bit < 32:
            raise ValueError("bit must be in 0..31")
        if self.target_seq < 0:
            raise ValueError("target_seq must be non-negative")


def _flip(value: int, bit: int) -> int:
    return wrap32(value ^ (1 << bit))


@dataclass
class FaultReport:
    """What the injector actually did.

    ``seq`` is the struck dynamic instruction's per-stream sequence
    number (the strike point, in the faulted stream's retirement
    numbering); ``ecc_corrected`` is set when an
    :class:`~repro.fault.ecc.ECCModel` absorbed an architectural strike
    before it could land.  For ``CORRELATED`` strikes,
    ``companion_struck`` records whether the R-stream's copy of the
    physical disturbance also landed, and ``companion_agreed`` whether
    the two corrupted values agreed at the comparison hardware (the
    silent-agreement case the decorrelated layout prevents).
    """

    fired: bool = False
    struck_compared: Optional[bool] = None
    original_value: Optional[int] = None
    corrupted_value: Optional[int] = None
    pc: Optional[int] = None
    seq: Optional[int] = None
    ecc_corrected: bool = False
    companion_struck: bool = False
    companion_agreed: bool = False


class HangProven(SimulationError):
    """The struck R-stream's architectural tail overruns the budget.

    Raised by :class:`FaultInjector` from inside the co-simulation; a
    :class:`~repro.core.slipstream.SimulationError`, so callers classify
    it exactly like the budget overrun it predicts.
    """


class FaultInjector:
    """A :data:`repro.core.slipstream.FaultHook` injecting one fault.

    ``ecc`` optionally models ECC on the R-stream's architectural state
    (:mod:`repro.fault.ecc`): a protected site's strike is counted and
    corrected instead of corrupting the state.

    ``decorrelated`` tells the injector whether the machine runs the
    DME-style decorrelated layouts (``SlipstreamConfig.decorrelated``):
    a ``CORRELATED`` strike then flips a *rotated* bit in the R-stream's
    context, so the two corrupted values cannot silently agree.

    ``program``, ``clean_retired`` and ``config`` (slipstream machines
    only: the program, the fault-free run's retirement count and the
    struck run's config) arm the hang probe: the injector stops a run
    that provably overruns ``config.max_instructions`` by raising
    :class:`HangProven` (see :meth:`_prove_hang`).  The probe is taken
    at most once, and ``proven_at`` records the R-stream seq it proved
    the hang at.  TMR and replay take no probe: voting and rollback
    mean a single replica's tail is not the architectural one.

    Two read-only properties tell a machine which retirements the
    injector can alter: it alters none before seq :attr:`quiet_until`,
    and none at all once :attr:`spent`.  The N-stream machines
    (:mod:`repro.core.nstream`) read them to run the fault-free prefix
    (and TMR's repaired tail) on the functional engine instead of
    offering each of those retirements to the hook.
    """

    def __init__(self, fault: TransientFault, ecc: Optional["ECCModel"] = None,
                 decorrelated: bool = False, *,
                 program: Optional[Program] = None,
                 clean_retired: int = -1,
                 config: Optional[SlipstreamConfig] = None):
        self.fault = fault
        self.ecc = ecc
        self.decorrelated = decorrelated
        self.report = FaultReport()
        #: CORRELATED bookkeeping: the A-side strike's (pc, original
        #: value, corrupted value), awaiting the R-stream companion.
        self._companion_pc: Optional[int] = None
        self._companion_value: Optional[int] = None
        self._companion_corrupt: Optional[int] = None
        self._program = program
        self._config = config
        #: The R seq the probe is taken at; -1 (no seq) once taken or
        #: when there is no probe.
        self._probe_seq = clean_retired if program is not None else -1
        self.proven_at: Optional[int] = None

    @property
    def quiet_until(self) -> int:
        """The first seq this injector may alter: ``target_seq`` for
        the R-stream sites, whose strike lands on exactly that R seq,
        and 0 for the A-numbered sites (their seqs count another
        stream).  An armed hang probe needs no lower value: before the
        strike has fired it only disarms itself."""
        if self.fault.site in R_SITES:
            return self.fault.target_seq
        return 0

    @property
    def spent(self) -> bool:
        """True once the injector will alter no later retirement: the
        strike has fired, no ``CORRELATED`` companion is pending and no
        hang probe is still armed."""
        return (self.report.fired and self._companion_pc is None
                and self._probe_seq == -1)

    def __call__(
        self, stream: str, dyn: DynInstr, state: ArchState, compared: bool
    ) -> DynInstr:
        fault = self.fault
        if dyn.seq == self._probe_seq and stream == "R":
            self._prove_hang(dyn, state)
        # The hook runs on every retirement and strikes at most one: the
        # seq tests come first.  Every non-CORRELATED early return below
        # hands back ``dyn`` untouched, so testing it first is exact.
        if dyn.seq != fault.target_seq and fault.site is not _CORRELATED:
            return dyn
        if fault.site is _CORRELATED:
            return self._correlated(stream, dyn, state, compared)
        if self.report.fired:
            return dyn
        if fault.site is FaultSite.A_RESULT and stream != "A":
            return dyn
        if fault.site in R_SITES and stream != "R":
            return dyn
        if dyn.value is None:
            # The targeted instruction produces no value (branch, nop);
            # the fault is architecturally masked by construction.
            self.report = FaultReport(fired=True, struck_compared=compared,
                                      pc=dyn.pc, seq=dyn.seq)
            return dyn
        corrupted = _flip(dyn.value, fault.bit)
        self.report = FaultReport(
            fired=True,
            struck_compared=compared,
            original_value=dyn.value,
            corrupted_value=corrupted,
            pc=dyn.pc,
            seq=dyn.seq,
        )
        if self.ecc is not None and self.ecc.protects(fault.site):
            # The strike lands in ECC-protected storage: the single-bit
            # error is corrected before the value is next consumed, so
            # architectural state is never observed corrupted.
            self.ecc.correct()
            self.report.ecc_corrected = True
            return dyn
        if fault.site is FaultSite.A_RESULT:
            # The A-stream retires the corrupted value into its context.
            self._write_back(dyn, state, corrupted)
            return self._replace(dyn, corrupted)
        if fault.site is FaultSite.R_TRANSIENT:
            if compared:
                # The comparison sees the corrupted value; the flush
                # re-executes, so architectural state stays correct.
                return self._replace(dyn, corrupted)
            # Unvalidated instruction: the wrong value retires.
            self._write_back(dyn, state, corrupted)
            return self._replace(dyn, corrupted)
        # R_ARCH: corrupt the architectural state *after* writeback;
        # the comparison still sees the correctly computed value.
        self._write_back(dyn, state, corrupted)
        return dyn

    def _prove_hang(self, dyn: DynInstr, state: ArchState) -> None:
        """Decide a slipstream ``HANG`` on the functional engine.

        Called at the first R-stream retirement past the clean run's
        length (R seq ``clean_retired``, i.e. ``retired ==
        clean_retired + 1``).  Only the R-stream commits architectural
        state, and once the strike has landed nothing but the
        R-stream's own execution writes it: from then on it retires
        exactly the functional trajectory of its current state.  The
        co-simulation raises ``SimulationError`` when ``retired >
        max_instructions`` at a trace boundary, and one trace retires
        at most ``trace_length`` instructions, so a tail that neither
        halts nor traps within ``max_instructions - retired +
        trace_length`` instructions makes it overrun (or trip its
        no-progress watchdog, also a ``SimulationError``) for certain:
        raise :class:`HangProven` instead of simulating the rest.  A
        tail that halts or traps in that window, a strike that has not
        fired yet, or a ``CORRELATED`` strike whose R-stream companion
        is still pending decides nothing, and the co-simulation runs on
        exactly as without the probe.
        """
        self._probe_seq = -1
        if (not self.report.fired or self._companion_pc is not None
                or state.halted):
            return
        program, config = self._program, self._config
        assert program is not None and config is not None
        left = config.max_instructions - (dyn.seq + 1)
        tail = FunctionalSimulator(program, max(left, 0) + config.trace_length)
        try:
            tail.run(state.fork(), dyn.next_pc)
        except InstructionLimitExceeded:
            self.proven_at = dyn.seq
            raise HangProven(
                f"{program.name}: the R-stream's tail from seq {dyn.seq} "
                f"overruns {config.max_instructions} retired instructions"
            ) from None
        except (ExecutionError, ValueError, IndexError):
            return

    # ------------------------------------------------------------------
    # The CORRELATED site: one physical disturbance, two contexts.
    # ------------------------------------------------------------------

    def _correlated(
        self, stream: str, dyn: DynInstr, state: ArchState, compared: bool
    ) -> DynInstr:
        fault = self.fault
        if not self.report.fired:
            # Waiting for the A-side strike (A-stream seq numbering).
            if stream != "A" or dyn.seq != fault.target_seq:
                return dyn
            if dyn.value is None:
                self.report = FaultReport(fired=True, struck_compared=compared,
                                          pc=dyn.pc, seq=dyn.seq)
                return dyn
            corrupted = _flip(dyn.value, fault.bit)
            self.report = FaultReport(
                fired=True,
                struck_compared=compared,
                original_value=dyn.value,
                corrupted_value=corrupted,
                pc=dyn.pc,
                seq=dyn.seq,
            )
            self._companion_pc = dyn.pc
            self._companion_value = dyn.value
            self._companion_corrupt = corrupted
            self._write_back(dyn, state, corrupted)
            return self._replace(dyn, corrupted)
        if self._companion_pc is None or stream != "R":
            return dyn
        # The companion is the R-stream's redundant execution of the
        # same dynamic instance: same PC, same (uncorrupted) computed
        # value — the redundant computation reproduces it by
        # construction, since the strike corrupted the A-stream's
        # *result*, not its inputs.
        if dyn.pc != self._companion_pc or dyn.value != self._companion_value:
            return dyn
        r_bit = fault.bit
        if self.decorrelated:
            r_bit = (fault.bit + DECORRELATION_ROTATION) % 32
        corrupted_r = _flip(dyn.value, r_bit)
        self._companion_pc = None
        self.report.companion_struck = True
        agreed = corrupted_r == self._companion_corrupt
        self.report.companion_agreed = agreed
        if compared and not agreed:
            # The comparison hardware sees two different wrong values:
            # the mismatch is flagged before retirement and the flush
            # re-executes, so the R-stream's state stays correct (and
            # the recovery it triggers repairs the A-stream's).
            return self._replace(dyn, corrupted_r)
        # Identically-wrong values agree (correlated layouts), or the
        # instruction was never compared: the corruption retires.
        self._write_back(dyn, state, corrupted_r)
        return self._replace(dyn, corrupted_r)

    @staticmethod
    def _write_back(dyn: DynInstr, state: ArchState, corrupted: int) -> None:
        if dyn.is_store and dyn.mem_addr is not None:
            state.mem.write(dyn.mem_addr, corrupted)
        elif dyn.dest_reg is not None:
            state.regs.write(dyn.dest_reg, corrupted)

    @staticmethod
    def _replace(dyn: DynInstr, corrupted: int) -> DynInstr:
        return DynInstr(
            seq=dyn.seq,
            pc=dyn.pc,
            instr=dyn.instr,
            next_pc=dyn.next_pc,
            taken=dyn.taken,
            src_values=dyn.src_values,
            dest_reg=dyn.dest_reg,
            value=corrupted,
            mem_addr=dyn.mem_addr,
            output=dyn.output,
        )
