"""The N-stream redundancy engines (DESIGN.md §7.12): TMR majority
voting masks single-stream strikes in place with no rollback and no ECC
involvement; the replay-window detector catches strikes in replayed
windows and lets un-scrubbed windows escape; decorrelated contexts turn
layout-correlated silent agreement into detection."""

import dataclasses

import pytest

import repro.core.nstream as nstream
from repro.arch.functional import FunctionalSimulator
from repro.arch.state import ArchState
from repro.core.modes import (
    CAMPAIGN_MODES,
    ModeError,
    OperatingMode,
    REDUNDANCY_MODES,
    decorrelated_config,
    resolve_mode,
    run_mode,
)
from repro.core.nstream import (
    REPLAY_SCRUB_INTERVAL,
    REPLAY_WINDOW_LENGTH,
    NStreamResult,
    ReplayWindowProcessor,
    TMRProcessor,
)
from repro.core.recovery import MIN_RECOVERY_LATENCY, RecoveryCost
from repro.core.slipstream import SimulationError
from repro.fault.coverage import (
    HANDLED_OUTCOMES,
    HARMFUL_OUTCOMES,
    FaultOutcome,
    inject_one,
    inject_one_nstream,
)
from repro.fault.injector import (
    DECORRELATION_ROTATION,
    FaultInjector,
    FaultSite,
    TransientFault,
)
from repro.isa.assembler import assemble

#: Accumulator loop: every ``add`` result feeds the final OUT, so a
#: strike on an ``add`` (seq 2 + 3k) always matters.  ~184 retirements
#: = 3 replay windows, of which only window 0 is scrubbed.
ACC = """
main:
    addi r1, r0, 60
    addi r4, r0, 0
loop:
    add  r4, r4, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r4
    halt
"""

#: ``add`` retirements by replay window (window length 64):
#: seq 11 lands in window 0 (scrubbed), 65 in window 1, 131 in
#: window 2 (both fast-forwarded: the escape path).
SCRUBBED_ADD = 11
ESCAPED_ADDS = (65, 131)


#: The unaligned load at seq 1 traps on every engine and replica.
TRAPPING_LOAD = "addi r5, r0, 3\nlw r6, 0(r5)\nout r6\nhalt"


def program():
    return assemble(ACC, name="nstream-acc")


def reference():
    return FunctionalSimulator(program()).run()


class TestTMRFaultFree:
    def test_matches_functional_simulator(self):
        ref = reference()
        result = TMRProcessor(program()).run()
        assert isinstance(result, NStreamResult)
        assert result.output == ref.output
        assert result.retired == ref.instruction_count
        assert result.detections == 0
        assert result.recoveries == []

    def test_stream_count_validated(self):
        with pytest.raises(ValueError):
            TMRProcessor(program(), n_streams=2)
        with pytest.raises(ValueError):
            TMRProcessor(program(), n_streams=4)
        with pytest.raises(ValueError):
            TMRProcessor(program(), n_streams=1)

    def test_five_streams_agree(self):
        result = TMRProcessor(program(), n_streams=5).run()
        assert result.output == reference().output
        assert result.n_streams == 5

    def test_base_cycles_anchor_the_timing(self):
        anchored = TMRProcessor(program(), base_cycles=999).run()
        assert anchored.cycles == 999  # no repairs on a clean run


class TestTMRVoting:
    def test_transient_strike_is_outvoted(self):
        """A pipeline transient corrupts one replica's result signature;
        the other two outvote it at retirement and the architectural
        state never sees the flip."""
        fault = TransientFault(FaultSite.R_TRANSIENT, target_seq=SCRUBBED_ADD,
                               bit=3)
        result = inject_one_nstream(program(), fault, "tmr")
        assert result.outcome is FaultOutcome.MASKED_BY_VOTE
        assert result.mode == "tmr"
        assert result.detections == 1
        assert result.detect_latency == 0  # claimed at the same retirement

    def test_arch_strike_is_repaired_in_place(self):
        """An architectural strike survives its own retirement (the
        voter compares results, not whole contexts) and is caught when a
        dependent instruction disagrees — then the minority context is
        repaired from the voted majority."""
        fault = TransientFault(FaultSite.R_ARCH, target_seq=SCRUBBED_ADD,
                               bit=3)
        result = inject_one_nstream(program(), fault, "tmr")
        assert result.outcome is FaultOutcome.MASKED_BY_VOTE
        assert result.detections == 1
        assert result.detect_latency is not None and result.detect_latency > 0
        assert result.recovery_penalty >= MIN_RECOVERY_LATENCY

    def test_masked_by_vote_counts_as_handled_harm(self):
        assert FaultOutcome.MASKED_BY_VOTE in HARMFUL_OUTCOMES
        assert FaultOutcome.MASKED_BY_VOTE in HANDLED_OUTCOMES

    def test_vote_claims_strike_before_ecc(self):
        """Satellite: a single-bit R_ARCH strike under TMR must be
        outvoted *before* any ECC correction is attempted — classified
        ``MASKED_BY_VOTE``, never ``ECC_CORRECTED``, even when the
        campaign enables ECC."""
        fault = TransientFault(FaultSite.R_ARCH, target_seq=SCRUBBED_ADD,
                               bit=3)
        voted = inject_one_nstream(program(), fault, "tmr", ecc=True)
        assert voted.outcome is FaultOutcome.MASKED_BY_VOTE
        assert not voted.ecc_corrected
        # The identical strike through the slipstream pair *is* an ECC
        # correction — the contrast that pins the ordering.
        scrubbed = inject_one(program(), fault, ecc=True)
        assert scrubbed.outcome is FaultOutcome.ECC_CORRECTED
        assert scrubbed.ecc_corrected

    def test_five_streams_still_outvote_one(self):
        fault = TransientFault(FaultSite.R_TRANSIENT, target_seq=SCRUBBED_ADD,
                               bit=3)
        result = inject_one_nstream(program(), fault, "tmr", n_streams=5)
        assert result.outcome is FaultOutcome.MASKED_BY_VOTE


class TestVoteEdges:
    """The unanimous-vote fast path must leave every non-unanimous
    retirement to the full majority count, on both engines."""

    #: A store then a load of the stored word: an architectural strike
    #: on the store corrupts one replica's memory, which the load
    #: exposes one retirement later.
    STORE_LOAD = """
    main:
        addi r1, r0, 5
        addi r2, r0, 256
        sw   r1, 0(r2)
        lw   r3, 0(r2)
        out  r3
        halt
    """

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    @pytest.mark.parametrize("source,pc", [
        # A clean program's jump to a misaligned PC: no closure exists,
        # so every replica traps in the execute_one fallback.
        ("main:\n addi r1, r0, 2\n jalr r0, r1\n halt\n", 0x2),
        # An unaligned load traps inside every replica's closure.
        ("main:\n lw r2, 1(r0)\n halt\n", 0x1000),
    ], ids=["wild-pc", "unaligned-load"])
    def test_every_replica_trapping_has_no_majority(self, engine, source, pc):
        tmr = TMRProcessor(assemble(source, name="trap-all"), engine=engine)
        with pytest.raises(SimulationError,
                           match=f"no majority among 3 streams at pc {pc:#x}"):
            tmr.run()

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_no_majority_names_the_trap(self, engine):
        """The functional simulator's trap, appended to the voter's
        message; still a ``SimulationError``."""
        program = assemble(TRAPPING_LOAD, name="trap")
        with pytest.raises(ValueError) as functional:
            FunctionalSimulator(program).run()
        with pytest.raises(SimulationError) as info:
            TMRProcessor(program, engine=engine).run()
        assert str(info.value) == (
            f"no majority among 3 streams at pc {program.entry + 4:#x} "
            f"(ValueError: {functional.value})")

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_two_of_three_repairs_the_minority(self, engine):
        injector = FaultInjector(
            TransientFault(FaultSite.R_ARCH, target_seq=2, bit=3)
        )
        result = TMRProcessor(
            assemble(self.STORE_LOAD, name="store-load"),
            fault_hook=injector, engine=engine,
        ).run()
        assert injector.report.fired
        assert result.output == [5]
        assert result.detections == 1
        # Caught at the load (retirement 4); the repair restores the
        # one differing memory word plus the register file.
        latency = RecoveryCost(memory_locations=1).latency
        assert latency > MIN_RECOVERY_LATENCY
        assert result.recoveries == [(4, latency)]
        assert result.cycles == result.retired + latency

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_minority_off_stream_zero_is_repaired(self, monkeypatch, engine):
        """Stream 0 in the majority is no reason to skip the count:
        replica 1 starts with one wrong memory word, is outvoted at the
        load that reads it, and is repaired.  The pass-through hook
        keeps the run in the lockstep loop: a run with no hook is quiet
        to the end and never votes."""
        made = []

        def replica(image=None):
            state = ArchState(image=image)
            made.append(state)
            if len(made) == 2:
                state.mem.write(256, 99)
            return state

        monkeypatch.setattr(nstream, "ArchState", replica)
        source = "main:\n lw r3, 256(r0)\n out r3\n halt\n"
        result = TMRProcessor(
            assemble(source, name="bad-replica"), engine=engine,
            fault_hook=lambda stream, dyn, state, compared: dyn,
        ).run()
        assert result.output == [0]
        assert result.detections == 1
        assert result.recoveries == [
            (1, RecoveryCost(memory_locations=1).latency)
        ]
        assert made[1].mem.read(256) == 0

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_five_streams_count_each_disagreeing_retirement(self, engine):
        struck = {11, 14, 20}  # three add retirements

        def hook(stream, dyn, state, compared):
            if dyn.seq in struck:
                return dataclasses.replace(dyn, value=dyn.value ^ 8)
            return dyn

        result = TMRProcessor(program(), n_streams=5, fault_hook=hook,
                              engine=engine).run()
        assert result.output == reference().output
        assert result.detections == len(struck)
        assert result.recoveries == [
            (seq + 1, MIN_RECOVERY_LATENCY) for seq in sorted(struck)
        ]


class TestReplayWindows:
    def test_fault_free_parity_and_accounting(self):
        ref = reference()
        result = ReplayWindowProcessor(program()).run()
        assert result.output == ref.output
        assert result.retired == ref.instruction_count
        assert result.detections == 0
        expected_windows = -(-result.retired // REPLAY_WINDOW_LENGTH)
        assert result.windows == expected_windows
        assert result.replayed_windows == -(
            -result.windows // REPLAY_SCRUB_INTERVAL
        )
        assert 0 < result.replayed_instructions <= result.retired

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            ReplayWindowProcessor(program(), window_len=0)
        with pytest.raises(ValueError):
            ReplayWindowProcessor(program(), scrub_interval=0)

    def test_strike_in_scrubbed_window_is_detected(self):
        """Window 0 is replayed: the recording carries the corrupted
        downstream values, the clean shadow re-execution disagrees, the
        primary rolls back to the replay's continuation."""
        fault = TransientFault(FaultSite.R_ARCH, target_seq=SCRUBBED_ADD,
                               bit=3)
        result = inject_one_nstream(program(), fault, "replay")
        assert result.outcome is FaultOutcome.DETECTED_RECOVERED
        assert result.detections == 1
        # Detection waits for the window boundary: latency spans the
        # rest of the 64-instruction window.
        assert 0 < result.detect_latency <= REPLAY_WINDOW_LENGTH
        assert result.recovery_penalty > MIN_RECOVERY_LATENCY

    @pytest.mark.parametrize("seq", ESCAPED_ADDS)
    def test_strike_in_unscrubbed_window_escapes(self, seq):
        """Windows 1 and 2 are fast-forwarded, not replayed: the shadow
        adopts the corrupted recorded writes and the strike escapes as
        silent corruption — the mode's deliberate coverage hole."""
        fault = TransientFault(FaultSite.R_ARCH, target_seq=seq, bit=3)
        result = inject_one_nstream(program(), fault, "replay")
        assert result.outcome is FaultOutcome.SILENT_CORRUPTION
        assert result.detections == 0

    def test_every_window_scrubbed_closes_the_hole(self):
        """scrub_interval=1 replays every window: the same escaped
        strikes become detections."""
        for seq in ESCAPED_ADDS:
            injector = FaultInjector(
                TransientFault(FaultSite.R_ARCH, target_seq=seq, bit=3)
            )
            run = ReplayWindowProcessor(
                program(), scrub_interval=1, fault_hook=injector
            ).run()
            assert injector.report.fired
            assert run.detections == 1
            assert run.output == reference().output

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_wedged_machine_names_the_trap(self, engine):
        """The functional simulator's trap, appended to the wedge
        message; still a ``SimulationError``."""
        program = assemble(TRAPPING_LOAD, name="trap")
        with pytest.raises(ValueError) as functional:
            FunctionalSimulator(program).run()
        with pytest.raises(SimulationError) as info:
            ReplayWindowProcessor(program, engine=engine).run()
        assert str(info.value) == (
            f"replay machine wedged at pc {program.entry + 4:#x} "
            f"(ValueError: {functional.value})")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            inject_one_nstream(
                program(),
                TransientFault(FaultSite.R_ARCH, target_seq=1, bit=3),
                "quadruple",
            )


class TestDecorrelatedStreams:
    FAULT = TransientFault(FaultSite.CORRELATED, target_seq=20, bit=3)

    def test_correlated_strike_silently_agrees_when_correlated(self):
        """Identical layouts: the A-side strike and its R-side companion
        flip the same bit of the same value, the comparison agrees, and
        the corruption is architectural in both contexts."""
        result = inject_one(program(), self.FAULT)
        assert result.outcome is FaultOutcome.SILENT_CORRUPTION
        assert result.detections == 0

    def test_decorrelation_breaks_the_agreement(self):
        """Shifted layouts: the companion strike lands on a rotated bit,
        the streams disagree at comparison, and the pair detects and
        recovers — the failure mode DME removes."""
        result = inject_one(program(), self.FAULT,
                            config=decorrelated_config())
        assert result.outcome is FaultOutcome.DETECTED_RECOVERED
        assert result.detections >= 1

    def test_companion_report_fields(self):
        injector = FaultInjector(self.FAULT, decorrelated=True)
        from repro.core.slipstream import SlipstreamProcessor

        SlipstreamProcessor(
            program(), decorrelated_config(), fault_hook=injector
        ).run()
        assert injector.report.fired
        assert injector.report.companion_struck
        assert not injector.report.companion_agreed

    def test_rotation_is_a_bijection_on_bit_indices(self):
        rotated = {(bit + DECORRELATION_ROTATION) % 32 for bit in range(32)}
        assert rotated == set(range(32))
        assert all(
            (bit + DECORRELATION_ROTATION) % 32 != bit for bit in range(32)
        )

    def test_decorrelated_config_is_clean_run_equivalent(self):
        """Decorrelation is undone at comparison time: a clean run's
        output is identical, only the transfer latency grows."""
        plain = run_mode(OperatingMode.SLIPSTREAM, [program()])
        deco = run_mode(OperatingMode.DECORRELATED, [program()])
        assert deco.core_results[0].output == plain.core_results[0].output
        assert deco.cycles >= plain.cycles


class TestRunModeDispatch:
    def test_registry_covers_the_campaign_modes(self):
        assert set(CAMPAIGN_MODES) <= set(REDUNDANCY_MODES)
        assert REDUNDANCY_MODES["tmr"].n_streams == 3
        assert REDUNDANCY_MODES["decorrelated"].campaign_sites[-1] == \
            "correlated"

    def test_tmr_mode_runs_and_prices_redundancy(self):
        result = run_mode("tmr", [program()])
        assert result.mode is OperatingMode.TMR
        assert result.redundancy == 2.0
        assert result.core_results[1].output == reference().output

    def test_tmr_accepts_odd_stream_override(self):
        result = run_mode("tmr", [program()], n_streams=5)
        assert result.redundancy == 4.0

    def test_replay_mode_reports_partial_redundancy(self):
        result = run_mode("replay", [program()])
        assert result.mode is OperatingMode.REPLAY
        assert 0.0 < result.redundancy < 1.0
        assert result.core_results[1].output == reference().output

    def test_unknown_mode_is_structured(self):
        with pytest.raises(ModeError) as err:
            run_mode("bogus", [program()])
        assert err.value.mode == "bogus"
        assert "known modes" in err.value.hint
        assert isinstance(err.value, ValueError)  # back-compat

    def test_arity_error_is_structured(self):
        with pytest.raises(ModeError) as err:
            run_mode("tmr", [program(), program()])
        assert err.value.mode == "tmr"
        assert err.value.n_programs == 2
        assert "exactly one program" in err.value.hint

    def test_override_rejected_where_not_allowed(self):
        with pytest.raises(ModeError) as err:
            run_mode("slipstream", [program()], n_streams=5)
        assert "override" in err.value.hint

    def test_even_override_rejected(self):
        with pytest.raises(ModeError) as err:
            run_mode("tmr", [program()], n_streams=4)
        assert "odd" in err.value.hint

    def test_resolve_mode_accepts_enum_and_string(self):
        assert resolve_mode(OperatingMode.TMR).name == "tmr"
        assert resolve_mode("tmr") is resolve_mode(OperatingMode.TMR)
