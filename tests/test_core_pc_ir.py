"""Unit tests for the per-instruction (non-trace-based) IR mechanism."""

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.core.pc_ir_predictor import PCIRPredictor, PCIRPredictorConfig
from repro.core.removal import RemovalKind
from repro.core.slipstream import SlipstreamConfig, SlipstreamProcessor
from repro.isa.assembler import assemble
from repro.workloads.suite import get_benchmark


class TestPCIRPredictor:
    def test_unknown_pc_not_removable(self):
        assert not PCIRPredictor().removable(0x1000)

    def test_confidence_saturates(self):
        pred = PCIRPredictor(PCIRPredictorConfig(confidence_threshold=4))
        for _ in range(4):
            pred.train(0x1000, selected=True, kind=RemovalKind.SV)
        assert pred.removable(0x1000)
        assert pred.kind_of(0x1000) == RemovalKind.SV

    def test_nonselected_instance_resets(self):
        pred = PCIRPredictor(PCIRPredictorConfig(confidence_threshold=4))
        for _ in range(3):
            pred.train(0x1000, True, RemovalKind.WW)
        pred.train(0x1000, False, RemovalKind.NONE)
        for _ in range(3):
            pred.train(0x1000, True, RemovalKind.WW)
        assert not pred.removable(0x1000)
        assert pred.resets == 1

    def test_mispredicted_branch_resets(self):
        pred = PCIRPredictor(PCIRPredictorConfig(confidence_threshold=2))
        pred.train(0x2000, True, RemovalKind.BR)
        pred.train(0x2000, True, RemovalKind.BR, branch_ok=False)
        pred.train(0x2000, True, RemovalKind.BR)
        assert not pred.removable(0x2000)

    def test_independent_pcs(self):
        pred = PCIRPredictor(PCIRPredictorConfig(confidence_threshold=1))
        pred.train(0x1000, True, RemovalKind.SV)
        pred.train(0x1004, False, RemovalKind.NONE)
        assert pred.removable(0x1000)
        assert not pred.removable(0x1004)
        assert pred.confident_pcs == 1

    def test_entry_without_kind_not_removable_at_threshold_zero(self):
        """An entry only ever trained unselected has no removal kind; a
        zero threshold must not make it removable."""
        pred = PCIRPredictor(PCIRPredictorConfig(confidence_threshold=0))
        pred.train(0x1000, False, RemovalKind.NONE)
        pred.train(0x1004, True, RemovalKind.WW)
        assert not pred.removable(0x1000)
        assert pred.removable(0x1004)


class TestPCMechanismEndToEnd:
    SOURCE = """
    main:
        addi r1, r0, 2500
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

    def test_output_matches_reference(self):
        program = assemble(self.SOURCE, name="pc-mode")
        reference = FunctionalSimulator(program).run()
        result = SlipstreamProcessor(
            assemble(self.SOURCE, name="pc-mode"),
            SlipstreamConfig(removal_mechanism="pc"),
        ).run()
        assert result.output == reference.output
        assert result.recovery_audit_shortfalls == 0

    def test_removal_engages(self):
        result = SlipstreamProcessor(
            assemble(self.SOURCE, name="pc-mode"),
            SlipstreamConfig(removal_mechanism="pc"),
        ).run()
        assert result.removal_fraction > 0.2

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="removal mechanism"):
            SlipstreamProcessor(
                assemble(self.SOURCE, name="pc-mode"),
                SlipstreamConfig(removal_mechanism="bogus"),
            )


@pytest.mark.parametrize("name", ["jpeg", "li"])
def test_zero_threshold_runs_to_the_functional_output(name):
    program = get_benchmark(name).program(1)
    reference = FunctionalSimulator(program).run()
    result = SlipstreamProcessor(
        program,
        SlipstreamConfig(removal_mechanism="pc", confidence_threshold=0),
    ).run()
    assert result.output == reference.output
    assert result.retired == reference.instruction_count
