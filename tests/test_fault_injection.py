"""Tests for transient-fault injection and the paper's section 3 claims."""

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.arch.state import ArchState
from repro.core.slipstream import SlipstreamConfig, SlipstreamProcessor
from repro.fault.coverage import (
    CampaignResult,
    FaultOutcome,
    classify_run,
    hang_budget,
    inject_one,
)
from repro.fault.injector import (
    FaultInjector,
    FaultReport,
    FaultSite,
    TransientFault,
)
from repro.fault.scenarios import SCENARIOS, find_target_seq, run_scenario
from repro.isa.assembler import assemble

# A small removal-heavy loop (same shape as the slipstream tests but
# shorter, since every injection is a full co-simulation run).
WORKLOAD = """
main:
    addi r1, r0, 1500
    addi r10, r0, 0x100000
loop:
    addi r2, r0, 7
    sw   r2, 0(r10)
    addi r3, r0, 1
    addi r3, r0, 2
    add  r4, r4, r3
    xor  r5, r4, r1
    add  r6, r5, r4
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r4
    out  r6
    halt
"""


@pytest.fixture(scope="module")
def program():
    return assemble(WORKLOAD, name="fault-workload")


@pytest.fixture(scope="module")
def reference(program):
    return FunctionalSimulator(program).run()


class TestTransientFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransientFault(FaultSite.A_RESULT, target_seq=0, bit=32)
        with pytest.raises(ValueError):
            TransientFault(FaultSite.A_RESULT, target_seq=-1)

    def test_injector_fires_once(self, program):
        seq = find_target_seq(program, compared=True, after_seq=100)
        injector = FaultInjector(TransientFault(FaultSite.R_TRANSIENT, seq, bit=3))
        SlipstreamProcessor(program, fault_hook=injector).run()
        assert injector.report.fired
        assert injector.report.corrupted_value != injector.report.original_value

    @pytest.mark.parametrize("site", [
        s for s in FaultSite if s is not FaultSite.CORRELATED
    ], ids=lambda s: s.value)
    def test_non_target_seq_is_a_no_op(self, program, site):
        """The seq test comes first: off the target, every stream and
        comparison flag gets the same ``dyn`` object back, and neither
        the report nor the state changes."""
        injector = FaultInjector(TransientFault(site, target_seq=5, bit=3))
        before = injector.report
        state = ArchState(image=program.data)
        for dyn in FunctionalSimulator(program).steps(state):
            if dyn.seq == 40:
                break
            if dyn.seq == 5:
                continue
            regs = list(state.regs.regs)
            writes = dict(state.mem.writes)
            for stream in ("A", "R"):
                for compared in (True, False):
                    assert injector(stream, dyn, state, compared) is dyn
            assert injector.report is before
            assert state.regs.regs == regs and state.mem.writes == writes
        assert injector.report == FaultReport()

    def test_correlated_site_sees_every_seq(self, program):
        injector = FaultInjector(
            TransientFault(FaultSite.CORRELATED, target_seq=5, bit=3)
        )
        seen = []

        def correlated(stream, dyn, state, compared):
            seen.append(dyn.seq)
            return dyn

        injector._correlated = correlated
        state = ArchState(image=program.data)
        for dyn in FunctionalSimulator(program).steps(state):
            if dyn.seq == 12:
                break
            assert injector("R", dyn, state, True) is dyn
        assert seen == list(range(12))

    def test_injector_does_not_fire_past_stream_end(self, program):
        injector = FaultInjector(
            TransientFault(FaultSite.R_TRANSIENT, 10**9, bit=3)
        )
        SlipstreamProcessor(program, fault_hook=injector).run()
        assert not injector.report.fired


class TestScenarios:
    def test_scenario_redundant_recovers(self, program):
        result = run_scenario(SCENARIOS["redundant"], program, after_seq=5000)
        assert result.outcome in SCENARIOS["redundant"].expected
        # The paper's central claim: a fault on a redundantly-executed
        # instruction must never silently corrupt the program.
        assert result.outcome is not FaultOutcome.SILENT_CORRUPTION

    def test_scenario_bypassed_escapes(self, program):
        result = run_scenario(SCENARIOS["bypassed"], program, after_seq=5000)
        assert result.outcome in SCENARIOS["bypassed"].expected
        assert result.struck_compared is False

    def test_bypassed_fault_on_consumed_location_corrupts(self):
        """Scenario 2's harmful form: the faulted skipped store's
        location is read later by a live load, so the corrupted value
        propagates into the R-stream's (authoritative) output.  The
        deviation may be detected, but recovery copies the already
        corrupted R-stream state: the output is wrong either way."""
        source = '''
        main:
            addi r1, r0, 1500
            addi r10, r0, 0x100000
        loop:
            addi r2, r0, 7
            sw   r2, 0(r10)          # silent store (removable)
            lw   r3, 0(r10)          # live read of the same location
            add  r4, r4, r3
            addi r1, r1, -1
            bne  r1, r0, loop
            out  r4
            halt
        '''
        program = assemble(source, name="consumed-location")
        seq = find_target_seq(program, compared=False, after_seq=4000)
        if seq is None:
            pytest.skip("removal never engaged on this run")
        result = inject_one(
            program, TransientFault(FaultSite.R_TRANSIENT, seq, bit=3)
        )
        assert result.outcome in (
            FaultOutcome.SILENT_CORRUPTION,
            FaultOutcome.DETECTED_UNRECOVERABLE,
        )

    def test_scenario_astream_recovers(self, program):
        result = run_scenario(SCENARIOS["astream"], program, after_seq=5000)
        assert result.outcome in SCENARIOS["astream"].expected
        assert result.outcome is not FaultOutcome.SILENT_CORRUPTION

    def test_find_target_distinguishes_compared(self, program):
        compared = find_target_seq(program, compared=True, after_seq=5000)
        skipped = find_target_seq(program, compared=False, after_seq=5000)
        assert compared is not None and skipped is not None
        assert compared != skipped


class TestRArchFaults:
    def test_arch_fault_never_recovers_silently_wrong(self, program, reference):
        """An architectural R-stream hit may be detected but cannot be
        recovered (recovery copies the corrupted state) — or it may be
        masked; it must never classify as detected+recovered with a
        wrong output."""
        seq = find_target_seq(program, compared=True, after_seq=5000)
        result = inject_one(
            program, TransientFault(FaultSite.R_ARCH, seq, bit=2)
        )
        if result.outcome is FaultOutcome.DETECTED_RECOVERED:
            # Only legitimate if the flipped bit truly did not matter.
            pytest.skip("fault was architecturally masked before use")
        assert result.outcome in (
            FaultOutcome.MASKED,
            FaultOutcome.SILENT_CORRUPTION,
            FaultOutcome.DETECTED_UNRECOVERABLE,
        )


class TestClassification:
    def test_classify_matrix(self):
        injector = FaultInjector(TransientFault(FaultSite.A_RESULT, 0))
        injector.report.fired = True
        ref = [1, 2]
        assert classify_run(ref, injector, [1, 2], 0, 1) is FaultOutcome.DETECTED_RECOVERED
        assert classify_run(ref, injector, [1, 2], 0, 0) is FaultOutcome.MASKED
        assert classify_run(ref, injector, [9, 2], 0, 0) is FaultOutcome.SILENT_CORRUPTION
        assert classify_run(ref, injector, [9, 2], 0, 1) is FaultOutcome.DETECTED_UNRECOVERABLE

    def test_not_fired(self):
        injector = FaultInjector(TransientFault(FaultSite.A_RESULT, 10**9))
        assert classify_run([1], injector, [1], 0, 0) is FaultOutcome.NOT_FIRED


def _strikes(program, sites, seqs):
    """One ``inject_one`` per (site, target), all classified against one
    clean reference and its hang budget."""
    clean = SlipstreamProcessor(program).run()
    return CampaignResult(results=[
        inject_one(
            program, TransientFault(site=site, target_seq=seq),
            reference_output=clean.output,
            baseline_detections=clean.ir_mispredictions,
            max_instructions=hang_budget(clean.retired),
            reference_retired=clean.retired,
        )
        for site in sites
        for seq in seqs
    ])


class TestCampaign:
    def test_small_campaign_aggregates(self, program):
        campaign = _strikes(program, [FaultSite.A_RESULT, FaultSite.R_TRANSIENT],
                            [6000, 9001])
        assert len(campaign.results) == 4
        counts = campaign.counts()
        assert sum(counts.values()) == 4
        assert set(campaign.by_site()) <= {FaultSite.A_RESULT, FaultSite.R_TRANSIENT}
        # Coverage is None when no harmful fault fired (never a vacuous
        # 1.0); otherwise it is a proper fraction of harmful faults.
        if campaign.harmful:
            assert campaign.coverage is not None
            assert 0.0 <= campaign.coverage <= 1.0
        else:
            assert campaign.coverage is None

    def test_a_stream_faults_always_safe(self, program):
        """Faults confined to the A-stream are always transparently
        handled: the R-stream independently recomputes everything."""
        campaign = _strikes(program, [FaultSite.A_RESULT], [5000, 7003, 9001])
        for result in campaign.results:
            assert result.outcome in (
                FaultOutcome.DETECTED_RECOVERED,
                FaultOutcome.MASKED,
                FaultOutcome.NOT_FIRED,
            )
