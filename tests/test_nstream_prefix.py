"""Struck TMR and replay runs start at the strike.

A struck N-stream run does not offer the fault-free prefix to its hook:
it runs the first ``injector.quiet_until`` retirements on the
functional engine (:func:`repro.arch.advance`), and a TMR run whose
replicas are all clean again after the strike finishes there too.
Every case here is checked against the same processor driven by a hook
that declares neither ``quiet_until`` nor ``spent``, which offers it
every retirement from the program's entry: the oracle.  CI also runs
this file under ``REPRO_COMPILED=0``, so both engines are covered.
"""

import pytest

from repro import assemble
from repro.arch import ArchState, FunctionalSimulator, advance, execute_one
from repro.core.nstream import (
    REPLAY_WINDOW_LENGTH,
    ReplayWindowProcessor,
    TMRProcessor,
)
from repro.core.slipstream import SimulationError
from repro.fault import coverage
from repro.fault.coverage import inject_one_nstream
from repro.fault.injector import FaultInjector, FaultSite, TransientFault
from repro.workloads.suite import get_benchmark

PROCESSORS = {"tmr": TMRProcessor, "replay": ReplayWindowProcessor}
SITES = (FaultSite.R_TRANSIENT, FaultSite.R_ARCH)
L = REPLAY_WINDOW_LENGTH


class OpaqueInjector(FaultInjector):
    """The oracle's hook: the same injector, but it declares neither
    ``quiet_until`` nor ``spent``, so a machine offers it every
    retirement from the entry."""

    @property
    def quiet_until(self):
        raise AttributeError("quiet_until")

    @property
    def spent(self):
        raise AttributeError("spent")


class CountingInjector(FaultInjector):
    """Counts the retirements the machine offers it."""

    calls = 0

    def __call__(self, *args):
        self.calls += 1
        return super().__call__(*args)


#: A loop that then loads from an unaligned address: the clean run
#: traps at its end, so a repaired TMR run's tail traps and the voter
#: must still report it.
TRAP_AT_END = """
main:
    addi r1, r0, 200
    addi r2, r0, 0
loop:
    add  r2, r2, r1
    sw   r2, 256(r0)
    addi r1, r1, -1
    bne  r1, r0, loop
    lw   r3, 3(r0)
    out  r2
    halt
"""

#: A call/return loop: a strike on ``jal``'s link (seq 2 + 6k) sends
#: the struck stream to a wild PC three retirements later.
CALLS = """
main:
    addi r5, r0, 200
    addi r4, r0, 0
loop:
    jal  r31, body
    addi r5, r5, -1
    bne  r5, r0, loop
    out  r4
    halt
body:
    add  r4, r4, r5
    sw   r4, 512(r0)
    jalr r0, r31
"""


@pytest.fixture(scope="module")
def jpeg():
    program = get_benchmark("jpeg").program(1)
    retired = TMRProcessor(program).run().retired
    return program, retired


def _run(mode, program, injector, **kwargs):
    """The processor's result, or the (type, message) it raised."""
    try:
        return PROCESSORS[mode](program, fault_hook=injector, **kwargs).run()
    except SimulationError as exc:
        return type(exc), str(exc)


def _check_against_oracle(mode, program, fault, budget=None):
    """Fast and oracle runs agree on ``NStreamResult``, ``FaultReport``
    and ``InjectionResult``; returns the fast run and its injector."""
    kwargs = {} if budget is None else {"max_instructions": budget}
    fast_hook = CountingInjector(fault)
    fast = _run(mode, program, fast_hook, **kwargs)
    oracle_hook = OpaqueInjector(fault)
    oracle = _run(mode, program, oracle_hook, **kwargs)
    assert fast == oracle
    assert fast_hook.report == oracle_hook.report
    reference = _reference(program)
    assert _inject(program, fault, mode, budget, reference, FaultInjector) \
        == _inject(program, fault, mode, budget, reference, OpaqueInjector)
    return fast, fast_hook


def _reference(program):
    """The clean run's output (empty for a program that traps)."""
    try:
        return FunctionalSimulator(program).run().output
    except ValueError:
        return []


def _inject(program, fault, mode, budget, reference, injector_class):
    """``inject_one_nstream`` with ``injector_class`` as its hook, or
    the (type, message) it raised (a run out of budget before its
    strike is a simulator error, not a result)."""
    original = coverage.FaultInjector
    coverage.FaultInjector = injector_class
    try:
        return inject_one_nstream(program, fault, mode,
                                  reference_output=reference,
                                  baseline_detections=0,
                                  max_instructions=budget)
    except SimulationError as exc:
        return type(exc), str(exc)
    finally:
        coverage.FaultInjector = original


def _valued_seq(program, start):
    """The first seq at or after ``start`` whose instruction writes a
    value."""
    for dyn in FunctionalSimulator(program).steps():
        if dyn.seq >= start and dyn.value is not None:
            return dyn.seq
    raise AssertionError("no valued instruction")


def _targets(retired):
    boundary = (retired // 2) // L * L
    return {
        "first": 0,
        "boundary-1": boundary - 1,
        "boundary": boundary,
        "boundary+1": boundary + 1,
        "last": retired - 1,
        "past-end": retired + 10,
    }


TARGET_IDS = ("first", "boundary-1", "boundary", "boundary+1", "last",
              "past-end")


@pytest.mark.parametrize("bit", [0, 12])
@pytest.mark.parametrize("target", TARGET_IDS)
@pytest.mark.parametrize("site", SITES, ids=lambda s: s.value)
@pytest.mark.parametrize("mode", sorted(PROCESSORS))
def test_struck_run_matches_oracle(jpeg, mode, site, target, bit):
    program, retired = jpeg
    seq = _targets(retired)[target]
    fault = TransientFault(site, target_seq=seq, bit=bit)
    fast, hook = _check_against_oracle(mode, program, fault)
    assert hook.report.fired == (seq < retired)
    # The machine never offered the hook the prefix it skipped.
    skipped = seq if mode == "tmr" else seq // L * L
    if seq >= retired:
        skipped = 0  # the run halts before the strike: from the entry
    assert hook.calls <= fast.retired - skipped


@pytest.mark.parametrize("site", SITES, ids=lambda s: s.value)
@pytest.mark.parametrize("mode", sorted(PROCESSORS))
def test_small_budget_hangs_like_the_oracle(jpeg, mode, site):
    """A budget below the clean run's length: a strike inside it fires
    and the run overruns (HANG); one past it never fires and the
    overrun propagates.  TMR's repaired tail must overrun exactly as
    the lockstep loop would."""
    program, retired = jpeg
    budget = retired - 500
    for seq in (budget // 3, budget + 5):
        fault = TransientFault(site, target_seq=seq, bit=12)
        fast, hook = _check_against_oracle(mode, program, fault, budget)
        assert fast[0] is SimulationError
        assert hook.report.fired == (seq < budget)


@pytest.mark.parametrize("slack", [-1, 0], ids=["one-short", "exact"])
@pytest.mark.parametrize("site", SITES, ids=lambda s: s.value)
@pytest.mark.parametrize("mode", sorted(PROCESSORS))
def test_budget_edge_matches_oracle(jpeg, mode, site, slack):
    """A budget of exactly the clean run's length suffices; one less
    overruns, in the repaired tail as in the lockstep loop."""
    program, retired = jpeg
    seq = _valued_seq(program, retired // 4)
    fault = TransientFault(site, target_seq=seq, bit=12)
    fast, hook = _check_against_oracle(mode, program, fault,
                                       retired + slack)
    assert hook.report.fired


def test_repaired_tmr_run_finishes_on_the_functional_engine(jpeg):
    """A strike the voter repairs hands the rest of the run to the
    functional engine: the hook is offered the strike and nothing
    after the repair's vote."""
    program, retired = jpeg
    seq = _valued_seq(program, retired // 2)
    fault = TransientFault(FaultSite.R_TRANSIENT, target_seq=seq, bit=12)
    fast, hook = _check_against_oracle("tmr", program, fault)
    assert fast.detections == 1
    assert hook.calls == 1


def test_unvalued_strike_goes_to_the_tail_at_once():
    """A strike on an instruction with no value writes nothing, so the
    replicas are clean at once and no vote is ever taken after it."""
    program = assemble(CALLS, name="nstream-calls")
    # Seq 7 is the first ``bne``.
    fault = TransientFault(FaultSite.R_ARCH, target_seq=7, bit=3)
    fast, hook = _check_against_oracle("tmr", program, fault)
    assert hook.report.fired and hook.report.original_value is None
    assert fast.detections == 0 and hook.calls == 1


@pytest.mark.parametrize("bit", [1, 20], ids=["misaligned", "past-text"])
@pytest.mark.parametrize("seq", [2, 2 + 6 * 13, 2 + 6 * 40])
@pytest.mark.parametrize("site", SITES, ids=lambda s: s.value)
@pytest.mark.parametrize("mode", sorted(PROCESSORS))
def test_wild_pc_strike_matches_oracle(mode, site, seq, bit):
    """A struck return address: the struck replica (or the replay
    primary) jumps to a PC with no instruction and traps."""
    program = assemble(CALLS, name="nstream-calls")
    fault = TransientFault(site, target_seq=seq, bit=bit)
    _check_against_oracle(mode, program, fault)


@pytest.mark.parametrize("seq", [5, 300, 10_000])
@pytest.mark.parametrize("site", SITES, ids=lambda s: s.value)
@pytest.mark.parametrize("mode", sorted(PROCESSORS))
def test_trapping_program_matches_oracle(mode, site, seq):
    """The clean run itself traps at its end: a repaired TMR tail
    reaches the trap and the voter reports it; a prefix that would run
    past the trap starts from the entry, and the strike never fires."""
    program = assemble(TRAP_AT_END, name="trap-at-end")
    fault = TransientFault(site, target_seq=seq, bit=12)
    fast, hook = _check_against_oracle(mode, program, fault)
    assert fast[0] is SimulationError
    assert "unaligned memory access" in fast[1]


class TestAdvance:
    """``advance`` stops where single-stepping ``execute_one`` does."""

    SOURCE = """
    main:
        addi r1, r0, 6
        addi r2, r0, 0
    loop:
        add  r2, r2, r1
        sw   r2, 64(r0)
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r2
        halt
    """

    @staticmethod
    def _stepped(program, count):
        state = ArchState(image=program.data)
        pc = program.entry
        executed = 0
        while executed < count:
            dyn = execute_one(program, state, pc, seq=executed)
            executed += 1
            if state.halted:
                break
            pc = dyn.next_pc
        return state, executed, pc

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    @pytest.mark.parametrize("count", [
        0,    # nothing
        1,    # inside the entry block
        6,    # the entry block ends at the first ``bne`` (seq 5)
        9,    # inside the loop body
        10,   # on the loop's back edge
        26,   # the end of the last loop block
        28,   # exactly the whole run, ending on ``halt``
        500,  # past the end: stops at ``halt``
    ])
    def test_matches_single_stepping(self, engine, count):
        program = assemble(self.SOURCE, name="advance")
        want, want_executed, want_pc = self._stepped(program, count)
        state = ArchState(image=program.data)
        executed, pc = advance(program, state, program.entry, count, engine)
        assert (executed, pc) == (want_executed, want_pc)
        assert state.regs == want.regs
        assert state.mem.writes == want.mem.writes
        assert (state.output, state.halted) == (want.output, want.halted)

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_resumes_where_it_stopped(self, engine):
        program = assemble(self.SOURCE, name="advance")
        state = ArchState(image=program.data)
        pc = program.entry
        total = 0
        for count in (3, 4, 1, 7, 100):
            executed, pc = advance(program, state, pc, count, engine)
            total += executed
        want, want_executed, want_pc = self._stepped(program, 1000)
        assert (total, pc) == (want_executed, want_pc)
        assert state.regs == want.regs and state.halted
