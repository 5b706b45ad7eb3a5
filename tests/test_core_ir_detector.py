"""Unit tests for the IR-detector: triggers, back-propagation, scope."""

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.core.ir_detector import IRDetector, TraceAnalysis
from repro.core.removal import RemovalKind, removal_category
from repro.isa.assembler import assemble
from repro.isa.program import DATA_BASE
from repro.trace.selection import TraceSelector


def analyses_of(source, trace_length=32, scope=8, triggers=("BR", "WW", "SV")):
    """Run a program, feed all retired traces to a detector, drain it."""
    program = assemble(source)
    sim = FunctionalSimulator(program)
    detector = IRDetector(scope_traces=scope, triggers=triggers)
    analyses = []
    for trace in TraceSelector(trace_length).chunk(sim.steps()):
        analyses.extend(detector.feed_trace(trace))
    analyses.extend(detector.drain())
    return program, analyses


def flat_kinds(program, analyses):
    """Map text-PC index -> (selected, kind) from per-trace analyses.

    Only meaningful for straight-line test programs where each static
    instruction executes once.
    """
    result = {}
    sim = FunctionalSimulator(program)
    stream = list(sim.steps())
    pos = 0
    for analysis in analyses:
        for selected, kind in zip(analysis.ir_vec, analysis.kinds):
            result[stream[pos].pc] = (selected, kind)
            pos += 1
    return result


class TestTriggers:
    def test_branch_selected(self):
        source = "addi r1, r0, 1\nbeq r1, r0, done\ndone: halt"
        program, analyses = analyses_of(source)
        kinds = [k for a in analyses for k in a.kinds]
        assert RemovalKind.BR in kinds

    def test_unreferenced_write_selected(self):
        # r2 written twice with no intervening use: first write is WW.
        source = (
            "addi r2, r0, 5\n"      # WW victim
            "addi r2, r0, 6\n"
            "out r2\nhalt"
        )
        program, analyses = analyses_of(source)
        vec = analyses[0].ir_vec
        kinds = analyses[0].kinds
        assert vec[0] and kinds[0] == RemovalKind.WW
        assert not vec[1]

    def test_referenced_write_not_ww(self):
        source = (
            "addi r2, r0, 5\n"
            "add r3, r2, r0\n"      # reference
            "addi r2, r0, 6\n"
            "out r2\nout r3\nhalt"
        )
        _, analyses = analyses_of(source)
        assert not analyses[0].ir_vec[0]

    def test_silent_store_selected_sv(self):
        source = (
            f"addi r1, r0, {DATA_BASE}\n"
            "addi r2, r0, 7\n"
            "sw r2, 0(r1)\n"
            "sw r2, 0(r1)\n"        # same value: SV
            "lw r3, 0(r1)\nout r3\nhalt"
        )
        _, analyses = analyses_of(source)
        vec, kinds = analyses[0].ir_vec, analyses[0].kinds
        assert not vec[2]
        assert vec[3] and kinds[3] == RemovalKind.SV

    def test_silent_register_write_selected_sv(self):
        source = (
            "addi r2, r0, 7\n"
            "addi r2, r0, 7\n"      # same value into r2: SV
            "out r2\nhalt"
        )
        _, analyses = analyses_of(source)
        assert analyses[0].ir_vec[1]
        assert analyses[0].kinds[1] == RemovalKind.SV

    def test_out_and_halt_never_selected(self):
        source = "addi r1, r0, 1\nout r1\nhalt"
        _, analyses = analyses_of(source)
        vec = [v for a in analyses for v in a.ir_vec]
        # out and halt are the last two instructions.
        assert not vec[-1] and not vec[-2]

    def test_jalr_never_selected(self):
        source = "main: jal r31, f\nhalt\nf: jalr r0, r31"
        _, analyses = analyses_of(source)
        all_pairs = [
            (d, k) for a in analyses for d, k in zip(a.ir_vec, a.kinds)
        ]
        # jalr is instruction index 2 in retirement order: jal, jalr, halt.
        assert not all_pairs[1][0]


class TestBackPropagation:
    def test_chain_feeding_dead_write_removed(self):
        # r3 = r1 + r2 feeds only r4, r4 is overwritten unused: the
        # whole chain dies as P: WW.
        source = (
            "addi r1, r0, 1\n"
            "addi r2, r0, 2\n"
            "add r3, r1, r2\n"      # feeds only r4 computation
            "add r4, r3, r3\n"      # killed unreferenced -> WW
            "addi r4, r0, 9\n"
            "addi r3, r0, 8\n"      # kill r3 so its propagation resolves
            "out r4\nout r3\nhalt"
        )
        program, analyses = analyses_of(source)
        vec, kinds = analyses[0].ir_vec, analyses[0].kinds
        assert vec[3] and kinds[3] == RemovalKind.WW
        assert vec[2]
        assert kinds[2] == (RemovalKind.PROPAGATED | RemovalKind.WW)
        assert removal_category(kinds[2]) == "P: WW"

    def test_chain_feeding_branch_removed(self):
        # r5 feeds only the branch; once killed it back-propagates P: BR.
        source = (
            "addi r5, r0, 0\n"
            "beq r5, r0, next\n"
            "next: addi r5, r0, 3\n"   # kills first write of r5
            "out r5\nhalt"
        )
        _, analyses = analyses_of(source)
        vec, kinds = analyses[0].ir_vec, analyses[0].kinds
        assert vec[1] and kinds[1] == RemovalKind.BR
        assert vec[0] and kinds[0] == (RemovalKind.PROPAGATED | RemovalKind.BR)

    def test_chain_with_live_consumer_not_removed(self):
        source = (
            "addi r5, r0, 0\n"
            "beq r5, r0, next\n"
            "next: out r5\n"           # live use of r5
            "addi r5, r0, 3\n"
            "out r5\nhalt"
        )
        _, analyses = analyses_of(source)
        vec = analyses[0].ir_vec
        assert vec[1]       # the branch itself
        assert not vec[0]   # but not its producer (out consumes it)

    def test_propagation_confined_to_trace(self):
        # Producer in trace 1, branch consumer in trace 2: even though
        # both are selected/killed, the producer must not propagate.
        source = (
            "addi r5, r0, 0\n"         # trace 1 (trace_length=2)
            "nop\n"
            "beq r5, r0, next\n"       # trace 2
            "next: addi r5, r0, 3\n"
            "out r5\nhalt"
        )
        _, analyses = analyses_of(source, trace_length=2)
        first_trace = analyses[0]
        assert not first_trace.ir_vec[0]

    def test_cross_trace_kill_still_triggers_ww(self):
        # The kill may come from a later trace within the scope.
        source = (
            "addi r2, r0, 5\n"         # trace 1
            "nop\n"
            "addi r2, r0, 6\n"         # trace 2 kills r2
            "out r2\nhalt"
        )
        _, analyses = analyses_of(source, trace_length=2)
        assert analyses[0].ir_vec[0]
        assert analyses[0].kinds[0] == RemovalKind.WW

    def test_cross_trace_kill_propagates_in_older_trace(self):
        # Trace 1 (length 4) holds a two-instruction chain feeding a
        # selected branch.  Trace 2 kills r2, whose producer sits in
        # trace 1: the kill propagates there and cascades to r1's
        # producer (killed earlier, inside trace 1).
        source = (
            "addi r1, r0, 1\n"        # trace 1
            "add r2, r1, r1\n"
            "beq r2, r0, next\n"
            "next: addi r1, r0, 7\n"  # kills r1: its consumer is unselected
            "addi r2, r0, 9\n"        # trace 2 kills r2 in trace 1
            "out r1\nout r2\nhalt"
        )
        _, analyses = analyses_of(source, trace_length=4)
        first = analyses[0]
        p_br = RemovalKind.PROPAGATED | RemovalKind.BR
        assert first.ir_vec[:3] == (True, True, True)
        assert first.kinds[:3] == (p_br, p_br, RemovalKind.BR)
        assert not first.ir_vec[3]

    def test_silent_write_keeps_older_producer_live(self):
        # The second write of 7 into r2 is SV: the rename table keeps
        # the first write as r2's producer, so the branch links to it,
        # and the later kill propagates P: BR to it (were the branch
        # linked to the SV write instead, the first write would have
        # been killed unreferenced: WW).
        source = (
            "addi r2, r0, 7\n"
            "addi r2, r0, 7\n"        # SV
            "beq r2, r0, next\n"
            "next: addi r2, r0, 1\n"  # kills the first write
            "out r2\nhalt"
        )
        _, analyses = analyses_of(source)
        kinds = analyses[0].kinds
        assert kinds[0] == RemovalKind.PROPAGATED | RemovalKind.BR
        assert kinds[1] == RemovalKind.SV
        assert kinds[2] == RemovalKind.BR

    def test_kill_outside_scope_does_not_select(self):
        # With a scope of 1 trace, the killing write arrives after the
        # victim's trace has retired: no WW selection.
        source = (
            "addi r2, r0, 5\n"
            "nop\n"
            "nop\n"
            "nop\n"
            "addi r2, r0, 6\n"
            "out r2\nhalt"
        )
        _, analyses = analyses_of(source, trace_length=2, scope=1)
        assert not analyses[0].ir_vec[0]


class TestTriggerModes:
    SOURCE = (
        "addi r2, r0, 5\n"
        "addi r2, r0, 5\n"       # SV
        "addi r3, r0, 1\n"
        "addi r3, r0, 2\n"       # kills an unreferenced write: WW
        "beq r0, r0, next\n"     # BR
        "next: out r2\nout r3\nhalt"
    )

    def test_branch_only_mode_excludes_writes(self):
        _, analyses = analyses_of(self.SOURCE, triggers=("BR",))
        kinds = [k for a in analyses for k in a.kinds if k != RemovalKind.NONE]
        assert all(
            k & (RemovalKind.WW | RemovalKind.SV) == RemovalKind.NONE for k in kinds
        )
        assert any(k & RemovalKind.BR for k in kinds)

    def test_full_mode_includes_all(self):
        _, analyses = analyses_of(self.SOURCE)
        cats = {
            removal_category(k)
            for a in analyses
            for k in a.kinds
            if k != RemovalKind.NONE
        }
        assert {"SV", "WW", "BR"} <= cats

    def test_unknown_trigger_rejected(self):
        with pytest.raises(ValueError):
            IRDetector(triggers=("XX",))

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            IRDetector(scope_traces=0)


class TestScopeMechanics:
    def test_analyses_cover_every_trace(self):
        source = "addi r1, r0, 50\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt"
        program, analyses = analyses_of(source, trace_length=8)
        sim = FunctionalSimulator(program)
        expected = len(list(TraceSelector(8).chunk(sim.steps())))
        assert len(analyses) == expected

    def test_ir_vec_length_matches_trace(self):
        source = "addi r1, r0, 10\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt"
        _, analyses = analyses_of(source, trace_length=8)
        for analysis in analyses:
            assert len(analysis.ir_vec) == len(analysis.kinds)

    def test_retirement_order_is_fifo(self):
        source = "addi r1, r0, 40\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt"
        _, analyses = analyses_of(source, trace_length=4)
        seqs = [a.trace_seq for a in analyses]
        assert seqs == sorted(seqs)
