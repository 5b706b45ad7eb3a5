"""The functional hang probe (``FaultInjector._prove_hang``).

A slipstream injection whose R-stream retires past the clean run's
length is decided on the functional engine: a tail that overruns the
budget stops the co-simulation at once with ``HANG``.  The probe must
be exact, so every case here is checked against a reference injection
that co-simulates to the budget with no probe, under both execution
engines.
"""

from dataclasses import replace

import pytest

from repro import assemble
from repro.arch.compiled import ENGINE_ENV
from repro.arch.executor import DynInstr
from repro.arch.functional import FunctionalSimulator, InstructionLimitExceeded
from repro.arch.state import ArchState
from repro.core.modes import decorrelated_config
from repro.core.slipstream import (
    SimulationError,
    SlipstreamConfig,
    SlipstreamProcessor,
)
from repro.fault import coverage
from repro.fault import injector as injector_mod
from repro.fault.campaign import CampaignConfig, sample_points
from repro.fault.coverage import (
    FaultOutcome,
    InjectionResult,
    _detection_span,
    classify_run,
    hang_budget,
    inject_one,
)
from repro.fault.ecc import ECCModel
from repro.fault.injector import (
    FaultInjector,
    FaultSite,
    HangProven,
    TransientFault,
)
from repro.workloads.suite import get_benchmark
from tests.test_fault_campaign import _countdown_program


def _trapping_countdown_program():
    """The countdown loop followed by a load from the iteration count:
    a strike that makes the count a non-multiple of four turns it into
    an unaligned load, so the struck tail traps."""
    return assemble(
        """
main:
    addi r1, r0, 40
    addi r2, r0, 0
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne  r1, r0, loop
    lw   r3, 0(r2)
    out  r2
    halt
""",
        name="countdown-trap",
    )


def reference_inject(program, fault, config=None, ecc=False):
    """``inject_one`` with no hang probe: co-simulate until the run
    halts or overruns :func:`hang_budget`."""
    clean = SlipstreamProcessor(program, config).run()
    run_config = replace(config or SlipstreamConfig(),
                         max_instructions=hang_budget(clean.retired))
    injector = FaultInjector(fault, ecc=ECCModel() if ecc else None,
                             decorrelated=run_config.decorrelated)
    try:
        run = SlipstreamProcessor(program, run_config,
                                  fault_hook=injector).run()
    except SimulationError:
        assert injector.report.fired
        return InjectionResult(
            fault=fault,
            outcome=FaultOutcome.HANG,
            struck_compared=injector.report.struck_compared,
            detections=0,
            ecc_corrected=injector.report.ecc_corrected,
        )
    outcome = classify_run(clean.output, injector, run.output,
                           clean.ir_mispredictions, run.ir_mispredictions)
    detect_latency = recovery_penalty = None
    if outcome in (FaultOutcome.DETECTED_RECOVERED,
                   FaultOutcome.DETECTED_UNRECOVERABLE):
        detect_latency, recovery_penalty = _detection_span(
            run, injector.report)
    return InjectionResult(
        fault=fault,
        outcome=outcome,
        struck_compared=injector.report.struck_compared,
        detections=run.ir_mispredictions,
        detect_latency=detect_latency,
        recovery_penalty=recovery_penalty,
        ecc_corrected=injector.report.ecc_corrected,
    )


def _settle(fn):
    """The result of ``fn()``, or the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc).__name__, str(exc))


#: (program builder, site, config builder, ecc, targets, bits).
_GRID = [
    # Bit 20 of the loop counter: a runaway loop, HANG.  Bit 8 and
    # bit 11 lengthen the loop but halt inside the budget, so the probe
    # runs and declines; bit 12 overruns the budget by a little.
    (_countdown_program, FaultSite.R_ARCH, None, False, range(9),
     (8, 11, 12, 20)),
    (_countdown_program, FaultSite.R_TRANSIENT, None, False, range(9),
     (8, 20)),
    (_countdown_program, FaultSite.A_RESULT, None, False, range(9), (20,)),
    (_countdown_program, FaultSite.CORRELATED, decorrelated_config, False,
     range(9), (8, 20)),
    (_countdown_program, FaultSite.R_ARCH, None, True, range(9), (20,)),
    # Bit 1 of the counter makes 42 iterations: the load after the loop
    # is unaligned and traps in the struck tail.  Bit 0 traps before
    # the R-stream outlives the clean run, so no probe is taken.
    (_trapping_countdown_program, FaultSite.R_ARCH, None, False, range(5),
     (0, 1, 2, 20)),
]


@pytest.fixture(params=["compiled", "interpreted"])
def engine(request, monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "1" if request.param == "compiled" else "0")
    return request.param


@pytest.fixture
def tails(monkeypatch):
    """Record every probe tail run: 'halt', 'run' (budget exhausted)
    or 'trap'."""
    seen = []

    class Recording(FunctionalSimulator):
        def run(self, state=None, pc=None):
            try:
                result = super().run(state, pc)
            except InstructionLimitExceeded:
                seen.append("run")
                raise
            except Exception:
                seen.append("trap")
                raise
            seen.append("halt")
            return result

    monkeypatch.setattr(injector_mod, "FunctionalSimulator", Recording)
    return seen


class TestProbeExactness:
    def test_grid_matches_full_cosimulation(self, engine, tails):
        checked = 0
        for build, site, make_config, ecc, targets, bits in _GRID:
            program = build()
            config = make_config() if make_config is not None else None
            for bit in bits:
                for seq in targets:
                    fault = TransientFault(site=site, target_seq=seq, bit=bit)
                    before = len(tails)
                    got = _settle(lambda: inject_one(program, fault, config,
                                                     ecc=ecc))
                    assert len(tails) - before <= 1, "probe taken twice"
                    want = _settle(lambda: reference_inject(program, fault,
                                                            config, ecc=ecc))
                    assert got == want, (site, seq, bit, ecc)
                    checked += 1
        assert checked == sum(len(g[4]) * len(g[5]) for g in _GRID)
        # The grid reaches every branch of the probe: proven hangs,
        # tails that halt in time (the probe declines) and tails that
        # trap (the probe declines).
        assert {"run", "halt", "trap"} <= set(tails)

    def test_runaway_hang_is_proven_at_the_clean_length(self):
        program = _countdown_program()
        clean = SlipstreamProcessor(program).run()
        budget = hang_budget(clean.retired)
        config = SlipstreamConfig(max_instructions=budget)
        injector = FaultInjector(
            TransientFault(site=FaultSite.R_ARCH, target_seq=0, bit=20),
            program=program, clean_retired=clean.retired, config=config,
        )
        with pytest.raises(HangProven):
            SlipstreamProcessor(program, config, fault_hook=injector).run()
        assert injector.proven_at == clean.retired

    def test_pending_companion_declines(self, tails):
        """A CORRELATED strike whose R-stream companion has not landed
        decides nothing, and the probe is not taken again."""
        program = _countdown_program()
        injector = FaultInjector(
            TransientFault(site=FaultSite.CORRELATED, target_seq=0, bit=20),
            decorrelated=True, program=program, clean_retired=5,
            config=SlipstreamConfig(max_instructions=10, trace_length=4),
        )
        state = ArchState()

        def dyn(seq, pc):
            return DynInstr(seq=seq, pc=pc, instr=program.instructions[0],
                            next_pc=pc + 4, taken=False, src_values=(),
                            dest_reg=1, value=40, mem_addr=None, output=None)

        injector("A", dyn(0, program.entry), state, True)
        assert injector.report.fired
        assert injector._companion_pc is not None
        # R seq 5 at another PC: the companion is still pending.
        injector("R", dyn(5, program.entry + 8), state, True)
        injector("R", dyn(5, program.entry + 8), state, True)
        assert tails == []
        assert injector.proven_at is None


class TestFaultSliceHangPoint:
    def test_jpeg_decorrelated_r_arch_point(self, monkeypatch):
        """The HANG point of the seed-2000 jpeg campaign (decorrelated,
        R_ARCH, target 32658) stops within one trace of the clean run's
        length instead of co-simulating to the 4x budget."""
        program = get_benchmark("jpeg").program(1)
        config = decorrelated_config()
        clean = SlipstreamProcessor(program, config).run()
        campaign = CampaignConfig(benchmarks=("jpeg",),
                                  points_per_benchmark=3, seed=2000,
                                  modes=("decorrelated",))
        lengths = {"decorrelated": {"jpeg": {
            "R": clean.retired, "A": clean.retired - clean.a_removed}}}
        (point,) = [p for p in sample_points(campaign, lengths)
                    if p.fault.site is FaultSite.R_ARCH]
        assert point.fault.target_seq == 32658

        injectors, processors = [], []

        class RecordingInjector(FaultInjector):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                injectors.append(self)

        class RecordingProcessor(SlipstreamProcessor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                processors.append(self)

        monkeypatch.setattr(coverage, "FaultInjector", RecordingInjector)
        monkeypatch.setattr(coverage, "SlipstreamProcessor",
                            RecordingProcessor)
        result = inject_one(
            program, point.fault, config,
            reference_output=clean.output,
            baseline_detections=clean.ir_mispredictions,
            max_instructions=hang_budget(clean.retired),
            reference_retired=clean.retired,
        )
        assert result.outcome is FaultOutcome.HANG
        assert result.detections == 0
        assert not hasattr(result, "proven_at")
        (injector,) = injectors
        (processor,) = processors
        assert injector.proven_at == clean.retired
        # ``retired`` is written back at trace boundaries: the last one
        # lies within one trace of the proving retirement.
        stopped = clean.retired + 1
        assert stopped - config.trace_length <= processor.retired <= stopped
