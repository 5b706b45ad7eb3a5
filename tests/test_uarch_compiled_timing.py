"""Tests for the memoized timing engine (:mod:`repro.uarch.compiled_timing`).

The engine replays per-trace timing deltas with integer adds; its whole
contract is *bit-identity* with the scalar :class:`OoOScheduler` path.
These tests check that contract three ways: property-based over random
programs (superscalar timestamps), through the timeline recorder
(tracing must compose with, not bypass, the engine), and through
observability (instrumentation stays neutral while the hit/miss/fallback
counters surface in snapshots and RunReports).  The engine serves the
superscalar cores only; the slipstream co-simulation schedules through
its fused loops whatever ``REPRO_COMPILED_TIMING`` says, and
``tests/test_slipstream_timing_reference.py`` checks those loops.
"""

import os
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.core.slipstream import SlipstreamProcessor
from repro.isa.assembler import assemble
from repro.obs import Observability
from repro.obs.report import build_report
from repro.uarch.compiled_timing import TIMING_ENV, compiled_timing_enabled
from repro.uarch.config import SS_64x4
from repro.uarch.core import SuperscalarCore
from repro.uarch.timeline import trace_core_timeline


@contextmanager
def _timing_mode(flag):
    """Force the compiled-timing mode for the enclosed construction."""
    old = os.environ.get(TIMING_ENV)
    os.environ[TIMING_ENV] = flag
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(TIMING_ENV, None)
        else:
            os.environ[TIMING_ENV] = old


# A loop long enough that trace signatures recur, so the engine records
# deltas (second sight) and replays them — without hits these tests
# would only exercise the scalar fallback.
REPLAY_LOOP = """
main:
    addi r1, r0, 600
    addi r5, r0, 12345
    addi r20, r0, 512
loop:
    lui  r6, 0x41c6
    ori  r6, r6, 0x4e6d
    mul  r5, r5, r6
    addi r5, r5, 12345
    srli r7, r5, 27
    andi r7, r7, 1
    andi r21, r5, 252
    add  r21, r21, r20
    lw   r8, 0(r21)
    add  r8, r8, r7
    sw   r8, 0(r21)
    beq  r7, r0, skip
    addi r2, r2, 1
skip:
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r2
    halt
"""


@st.composite
def _program_text(draw):
    """Random looped program mixing ALU ops, long-latency multiplies,
    masked (always aligned, non-negative) loads/stores, and
    LCG-driven data-dependent branches — enough entropy to exercise
    redirects, i/d-cache penalties and store-forwarding mixes, enough
    repetition that the memoized engine actually gets hits."""
    lines = [
        "main:",
        "    addi r20, r0, 512",
        f"    addi r5, r0, {draw(st.integers(1, 60000))}",
        f"    addi r1, r0, {draw(st.integers(30, 120))}",
        "loop:",
    ]
    for i in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(
            ["alu", "alu", "mul", "load", "store", "branch"]))
        d = draw(st.sampled_from([2, 3, 4, 8]))
        a = draw(st.sampled_from([2, 3, 4, 5, 8]))
        b = draw(st.sampled_from([2, 3, 4, 5, 8]))
        if kind == "alu":
            op = draw(st.sampled_from(["add", "xor"]))
            lines.append(f"    {op} r{d}, r{a}, r{b}")
        elif kind == "mul":
            lines.append(f"    mul r{d}, r{a}, r{b}")
        elif kind == "load":
            lines += ["    andi r21, r5, 252",
                      "    add  r21, r21, r20",
                      f"    lw   r{d}, 0(r21)"]
        elif kind == "store":
            lines += ["    andi r21, r5, 252",
                      "    add  r21, r21, r20",
                      f"    sw   r{a}, 0(r21)"]
        else:
            lines += ["    lui  r6, 0x41c6",
                      "    ori  r6, r6, 0x4e6d",
                      "    mul  r5, r5, r6",
                      "    addi r5, r5, 12345",
                      f"    srli r7, r5, {draw(st.integers(20, 28))}",
                      "    andi r7, r7, 1",
                      f"    beq  r7, r0, skip{i}",
                      f"    addi r{d}, r{d}, 1",
                      f"skip{i}:"]
    lines += ["    addi r1, r1, -1",
              "    bne  r1, r0, loop",
              "    out  r2",
              "    halt"]
    return "\n".join(lines)


class TestTimestampIdentity:
    """The engine's output is the scalar scheduler's, bit for bit."""

    @given(_program_text())
    @settings(max_examples=25, deadline=None)
    def test_superscalar_timestamps_match_scalar_scheduler(self, source):
        """Every pipeline stamp of every instruction is identical
        whether the core schedules through memoized deltas or through
        per-instruction ``OoOScheduler.add`` calls."""
        program = assemble(source, name="prop")
        stamps = {}
        results = {}
        for flag in ("1", "0"):
            with _timing_mode(flag):
                core = SuperscalarCore(SS_64x4, program)
                timeline = trace_core_timeline(core, limit=1 << 30)
                results[flag] = core.run()
                stamps[flag] = [e.stamps for e in timeline.entries]
        assert stamps["1"] == stamps["0"]
        assert results["1"] == results["0"]

    def test_env_opt_out(self):
        with _timing_mode("0"):
            assert not compiled_timing_enabled()
        with _timing_mode("1"):
            assert compiled_timing_enabled()


class TestTimelineComposition:
    """trace_core_timeline must compose with the engine, not bypass it."""

    def test_traced_equals_untraced_with_engine(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("1"):
            plain = SuperscalarCore(SS_64x4, program).run()
            core = SuperscalarCore(SS_64x4, program)
            timeline = trace_core_timeline(core, limit=1 << 30)
            traced = core.run()
        assert traced == plain
        assert len(timeline.entries) == plain.retired
        # The recorder wraps the scheduler; the engine must have bound
        # to the real one underneath and kept replaying blocks.
        assert core.scheduler.timing_block_hit > 0

    def test_traced_stamps_match_scalar_traced_stamps(self):
        program = assemble(REPLAY_LOOP, name="replay")
        stamps = {}
        for flag in ("1", "0"):
            with _timing_mode(flag):
                core = SuperscalarCore(SS_64x4, program)
                timeline = trace_core_timeline(core, limit=1 << 30)
                core.run()
                stamps[flag] = [e.stamps for e in timeline.entries]
        assert stamps["1"] == stamps["0"]

    def test_recording_limit_still_respected(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("1"):
            core = SuperscalarCore(SS_64x4, program)
            timeline = trace_core_timeline(core, limit=16)
            core.run()
        assert len(timeline.entries) == 16


class TestObservability:
    """Hit/miss/fallback tallies are visible, and observing is free."""

    def test_scheduler_snapshot_has_timing_counters(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("1"):
            core = SuperscalarCore(SS_64x4, program)
            core.run()
        snap = core.scheduler.snapshot()
        for name in ("timing_block_hit", "timing_block_miss",
                     "timing_fallback"):
            assert name in snap
        assert snap["timing_block_hit"] > 0
        assert snap["timing_block_miss"] > 0

    def test_obs_on_off_bit_identity_and_report_rows(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("1"):
            plain = SlipstreamProcessor(program).run()
            obs = Observability()
            observed = SlipstreamProcessor(program, obs=obs).run()
        assert observed == plain
        report = build_report("cmp/replay@1", "cmp", "replay", observed, obs)
        # The rows stay in the report schema; slipstream never runs the
        # engine, so they read zero.
        for prefix in ("a_sched.", "r_sched."):
            for name in ("timing_block_hit", "timing_block_miss",
                         "timing_fallback"):
                assert report.counters[prefix + name] == 0

    def test_slipstream_ignores_the_timing_flag(self):
        """``REPRO_COMPILED_TIMING`` selects the superscalar cores'
        scheduler only: cmp results and both scheduler snapshots are
        the same under either setting."""
        program = assemble(REPLAY_LOOP, name="replay")
        runs = {}
        for flag in ("1", "0"):
            with _timing_mode(flag):
                proc = SlipstreamProcessor(program)
                runs[flag] = (proc.run(), proc.a_sched.snapshot(),
                              proc.r_sched.snapshot())
        assert runs["1"] == runs["0"]

    def test_scalar_mode_counts_nothing(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("0"):
            core = SuperscalarCore(SS_64x4, program)
            core.run()
        snap = core.scheduler.snapshot()
        assert snap["timing_block_hit"] == 0
        assert snap["timing_block_miss"] == 0
        assert snap["timing_fallback"] == 0
