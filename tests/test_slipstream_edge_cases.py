"""Edge-case and stress tests for the slipstream co-simulation."""

import time

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.core.slipstream import (
    ConfigError,
    SimulationError,
    SlipstreamConfig,
    SlipstreamProcessor,
)
from repro.isa.assembler import assemble
from repro.trace.predictor import TracePredictorConfig
from repro.uarch.config import CacheConfig, CoreConfig


def check(source, **config_kwargs):
    program = assemble(source, name="edge")
    reference = FunctionalSimulator(program).run()
    config = SlipstreamConfig(**config_kwargs) if config_kwargs else None
    result = SlipstreamProcessor(assemble(source, name="edge"), config).run()
    assert result.output == reference.output
    assert result.retired == reference.instruction_count
    assert result.recovery_audit_shortfalls == 0
    return result


class TestControlFlowShapes:
    def test_trivial_program(self):
        check("out r0\nhalt")

    def test_single_instruction(self):
        check("halt")

    def test_call_return_through_jalr(self):
        check(
            """
            main:
                addi r1, r0, 300
            loop:
                jal  r31, work
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            work:
                addi r4, r4, 3
                jalr r0, r31
            """
        )

    def test_nested_calls(self):
        check(
            """
            main:
                addi r1, r0, 200
            loop:
                jal  r31, outer
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            outer:
                add  r20, r31, r0      # save link
                jal  r31, inner
                add  r31, r20, r0      # restore link
                jalr r0, r31
            inner:
                addi r4, r4, 1
                jalr r0, r31
            """
        )

    def test_computed_dispatch_via_jalr(self):
        # A jump table: jalr targets alternate between two handlers.
        check(
            """
            main:
                addi r1, r0, 400
                addi r10, r0, ha
                addi r11, r0, hb
            loop:
                andi r2, r1, 1
                beq  r2, r0, even
                add  r12, r10, r0
                j    dispatch
            even:
                add  r12, r11, r0
            dispatch:
                jal  r31, trampoline
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            trampoline:
                jalr r0, r12
            ha:
                addi r4, r4, 1
                jalr r0, r31
            hb:
                addi r4, r4, 2
                jalr r0, r31
            """
        )

    def test_deeply_nested_loops(self):
        check(
            """
            main:
                addi r1, r0, 40
            outer:
                addi r2, r0, 40
            inner:
                add  r4, r4, r2
                addi r2, r2, -1
                bne  r2, r0, inner
                addi r1, r1, -1
                bne  r1, r0, outer
                out  r4
                halt
            """
        )


class TestRemovalUnderStress:
    def test_tiny_trace_length(self):
        check(
            """
            main:
                addi r1, r0, 600
            loop:
                addi r2, r0, 5
                add  r4, r4, r2
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            """,
            trace_length=4,
        )

    def test_scope_of_one_trace(self):
        check(
            """
            main:
                addi r1, r0, 600
                addi r10, r0, 0x100000
            loop:
                addi r2, r0, 7
                sw   r2, 0(r10)
                add  r4, r4, r2
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            """,
            ir_scope_traces=1,
        )

    def test_zero_confidence_threshold_is_aggressive_but_correct(self):
        result = check(
            """
            main:
                addi r1, r0, 1200
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
            """,
            confidence_threshold=0,
        )
        assert result.a_removed > 0

    def test_phase_change_causes_recovery(self):
        # A branch stable for thousands of iterations flips near the
        # end: by then the branch is removed, so the flip is an
        # IR-misprediction (removed mispredicted branch).
        result = check(
            """
            main:
                addi r1, r0, 4000
            loop:
                slti r5, r1, 200
                beq  r5, r0, skip
                addi r6, r6, 1
            skip:
                add  r4, r4, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                out  r6
                halt
            """,
            confidence_threshold=8,
        )
        assert result.ir_mispredictions >= 1
        assert result.avg_ir_penalty >= 21

    def test_memory_aliasing_between_silent_and_live_stores(self):
        # The same address receives a silent store and, rarely, a live
        # store through a different static instruction.
        check(
            """
            main:
                addi r1, r0, 2000
                addi r10, r0, 0x100000
            loop:
                addi r2, r0, 7
                sw   r2, 0(r10)          # silent most of the time
                andi r5, r1, 255
                bne  r5, r0, no_touch
                sw   r1, 0(r10)          # rare live overwrite
            no_touch:
                lw   r3, 0(r10)
                add  r4, r4, r3
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            """
        )


class TestBufferAndTransfer:
    @pytest.mark.parametrize("capacity", [32, 64, 1024])
    def test_capacity_sweep_preserves_correctness(self, capacity):
        check(
            """
            main:
                addi r1, r0, 800
            loop:
                add  r4, r4, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            """,
            delay_buffer_capacity=capacity,
        )

    def test_large_transfer_latency(self):
        result = check(
            """
            main:
                addi r1, r0, 800
            loop:
                add  r4, r4, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                out  r4
                halt
            """,
            transfer_latency=20,
        )
        assert result.r_cycles >= result.a_cycles


TRAPPING = "addi r5, r0, 3\nlw r6, 0(r5)\nout r6\nhalt"


class TestNoProgressWatchdog:
    """A run that retires nothing twice in a row is livelocked; it must
    raise promptly instead of spinning."""

    def _raises_quickly(self, program, config=None):
        start = time.monotonic()
        with pytest.raises(SimulationError, match="no forward progress") as info:
            SlipstreamProcessor(program, config).run()
        assert time.monotonic() - start < 1.0
        return str(info.value)

    def test_trapping_load(self):
        # The functional simulator traps on the unaligned load at once.
        with pytest.raises(ValueError, match="unaligned"):
            FunctionalSimulator(assemble(TRAPPING, name="stuck")).run()
        program = assemble(TRAPPING, name="stuck")
        message = self._raises_quickly(program)
        # The addi retired; the R-stream is parked on the load, and the
        # message names the load's trap.
        assert message == (f"stuck: no forward progress at "
                           f"r_pc={program.entry + 4:#x}, r_seq=1 "
                           f"(ValueError: unaligned memory access at 0x3)")

    def test_zero_trace_length(self):
        # A trace length below one is now a config error at construction
        # (TestConfigRanges); the watchdog itself stays covered by the
        # trapping program above.
        with pytest.raises(ConfigError, match="trace_length"):
            SlipstreamConfig(trace_length=0)


#: A valid value of every field of the configs with required fields.
_VALID = {
    CacheConfig: {"size_bytes": 1024, "assoc": 2, "line_bytes": 64,
                  "miss_penalty": 3},
}


class TestConfigRanges:
    """Every out-of-range ``SlipstreamConfig`` field fails fast with one
    structured :class:`ConfigError` naming the field."""

    @pytest.mark.parametrize("field, value", [
        ("trace_length", 0),
        ("trace_length", -3),
        ("ir_scope_traces", 0),
        ("delay_buffer_capacity", 0),
        ("confidence_threshold", -1),
        ("transfer_latency", -5),
        ("delay_merge_width", 0),
        ("max_instructions", 0),
        ("trace_length", 2.5),
        ("removal_mechanism", "bogus"),
        ("removal_triggers", ("BR", "XX")),
    ])
    def test_out_of_range_field_raises(self, field, value):
        start = time.monotonic()
        with pytest.raises(ConfigError) as info:
            SlipstreamConfig(**{field: value})
        assert time.monotonic() - start < 1.0
        error = info.value
        assert isinstance(error, ValueError)
        assert (error.field, error.value) == (field, value)
        assert field in str(error) and error.valid in str(error)

    @pytest.mark.parametrize("field, value", [
        ("confidence_threshold", 0),
        ("transfer_latency", 0),
        ("removal_triggers", ()),
        ("removal_mechanism", "pc"),
    ])
    def test_boundary_values_are_valid(self, field, value):
        assert getattr(SlipstreamConfig(**{field: value}), field) == value

    @pytest.mark.parametrize("config_class, field, value", [
        (CoreConfig, "fetch_width", 0),
        (CoreConfig, "dispatch_width", 0),
        (CoreConfig, "issue_width", -1),
        (CoreConfig, "retire_width", 0),
        (CoreConfig, "rob_size", 0),
        (CoreConfig, "frontend_depth", 0),
        (CoreConfig, "redirect_penalty", -1),
        (CoreConfig, "rob_size", 64.0),
        (TracePredictorConfig, "index_bits", 0),
        (TracePredictorConfig, "path_depth", 0),
        (TracePredictorConfig, "counter_max", 0),
        (TracePredictorConfig, "index_bits", "16"),
        (TracePredictorConfig, "index_bits", 21),
        (TracePredictorConfig, "index_bits", 40),
        (CacheConfig, "size_bytes", 0),
        (CacheConfig, "assoc", 0),
        (CacheConfig, "line_bytes", 0),
        (CacheConfig, "miss_penalty", -5),
        (CacheConfig, "size_bytes", 1000),
    ])
    def test_nested_config_out_of_range_raises(self, config_class, field,
                                               value):
        """The core and trace-predictor configs a ``SlipstreamConfig``
        nests fail the same way, naming their own class."""
        start = time.monotonic()
        with pytest.raises(ConfigError) as info:
            config_class(**{**_VALID.get(config_class, {}), field: value})
        assert time.monotonic() - start < 1.0
        error = info.value
        assert (error.config, error.field, error.value) == (
            config_class.__name__, field, value)
        assert f"{config_class.__name__}.{field}" in str(error)

    @pytest.mark.parametrize("config_class, field, value", [
        (CoreConfig, "redirect_penalty", 0),
        (CoreConfig, "frontend_depth", 1),
        (CoreConfig, "rob_size", 1),
        (TracePredictorConfig, "index_bits", 1),
        (TracePredictorConfig, "path_depth", 1),
        (TracePredictorConfig, "counter_max", 1),
        (TracePredictorConfig, "index_bits", 20),
        (CacheConfig, "miss_penalty", 0),
        (CacheConfig, "assoc", 1),
        (CacheConfig, "line_bytes", 1),
    ])
    def test_nested_boundary_values_are_valid(self, config_class, field,
                                              value):
        # Construction only: no predictor is built, so the largest
        # index_bits allocates no table.
        config = config_class(**{**_VALID.get(config_class, {}),
                                 field: value})
        assert getattr(config, field) == value

    def test_derived_core_is_checked(self):
        with pytest.raises(ConfigError, match="rob_size"):
            CoreConfig().scaled("bad", rob_size=0, width=4)
