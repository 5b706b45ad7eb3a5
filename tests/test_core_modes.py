"""Tests for the chip's operating modes (throughput / slipstream / reliable)."""

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.core.modes import (
    ModeError,
    ModeResult,
    OperatingMode,
    reliable_config,
    run_mode,
)
from repro.core.slipstream import SlipstreamProcessor
from repro.fault.coverage import FaultOutcome, inject_one
from repro.fault.injector import FaultSite, TransientFault
from repro.isa.assembler import assemble

LOOP = """
main:
    addi r1, r0, 2000
    addi r10, r0, 0x100000
loop:
    addi r2, r0, 7
    sw   r2, 0(r10)
    addi r3, r0, 1
    addi r3, r0, 2
    add  r4, r4, r3
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r4
    halt
"""

OTHER = """
main:
    addi r1, r0, 1500
loop:
    xor  r4, r4, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r4
    halt
"""


def program(source=LOOP, name="mode-test"):
    return assemble(source, name=name)


class TestThroughputMode:
    def test_two_programs_run_concurrently(self):
        result = run_mode(
            OperatingMode.THROUGHPUT, [program(), program(OTHER, "other")]
        )
        a, b = result.core_results
        assert result.useful_instructions == a.retired + b.retired
        assert result.cycles == max(a.cycles, b.cycles)
        assert result.redundancy == 0.0

    def test_throughput_beats_serial_execution(self):
        both = run_mode(
            OperatingMode.THROUGHPUT, [program(), program(OTHER, "other")]
        )
        serial_cycles = sum(r.cycles for r in both.core_results)
        assert both.cycles < serial_cycles

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            run_mode(OperatingMode.THROUGHPUT, [])
        with pytest.raises(ValueError):
            run_mode(OperatingMode.THROUGHPUT, [program()] * 3)


class TestSlipstreamMode:
    def test_partial_redundancy(self):
        result = run_mode(OperatingMode.SLIPSTREAM, [program()])
        assert 0.0 < result.redundancy < 1.0
        assert result.core_results[0].a_removed > 0

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            run_mode(OperatingMode.SLIPSTREAM, [program(), program()])


class TestReliableMode:
    def test_full_redundancy_no_removal(self):
        result = run_mode(OperatingMode.RELIABLE, [program()])
        slip = result.core_results[0]
        assert slip.a_removed == 0
        assert result.redundancy == 1.0

    def test_output_correct(self):
        reference = FunctionalSimulator(program()).run()
        result = run_mode(OperatingMode.RELIABLE, [program()])
        assert result.core_results[0].output == reference.output

    def test_every_transient_fault_is_safe(self):
        """With removal disabled every instruction is compared: an
        R-stream pipeline transient can never silently corrupt."""
        config = reliable_config()
        # Strike several spread-out points.
        for seq in (3000, 7001, 11002):
            result = inject_one(
                program(),
                TransientFault(FaultSite.R_TRANSIENT, seq, bit=5),
                config=config,
            )
            assert result.outcome in (
                FaultOutcome.DETECTED_RECOVERED,
                FaultOutcome.MASKED,
            ), f"seq {seq}: {result.outcome}"

    def test_overhead_over_slipstream_is_bounded(self):
        """AR-SMT costs the slipstream speedup but not much more: the
        R-stream still rides the delay buffer's predictions."""
        slip = run_mode(OperatingMode.SLIPSTREAM, [program()])
        reliable = run_mode(OperatingMode.RELIABLE, [program()])
        assert reliable.cycles <= slip.cycles * 1.6


class TestModeErrors:
    @pytest.mark.parametrize("name", ["bogus", "tmr", "replay",
                                      "decorrelated"])
    def test_unknown_mode_is_structured(self, name):
        """The chip runs the paper's three modes; the campaign's other
        redundancy modes run only through :mod:`repro.fault.campaign`."""
        with pytest.raises(ModeError) as err:
            run_mode(name, [program()])
        assert err.value.mode == name
        assert "known modes" in err.value.hint
        assert isinstance(err.value, ValueError)

    def test_arity_error_is_structured(self):
        with pytest.raises(ModeError) as err:
            run_mode("reliable", [program(), program()])
        assert err.value.mode == "reliable"
        assert err.value.n_programs == 2
        assert "exactly one program" in err.value.hint

    def test_string_and_enum_names_agree(self):
        by_name = run_mode("reliable", [program()])
        assert by_name.mode is OperatingMode.RELIABLE
        assert by_name == run_mode(OperatingMode.RELIABLE, [program()])
