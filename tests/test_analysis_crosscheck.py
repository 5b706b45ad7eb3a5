"""Tests for the static/dynamic ineffectuality cross-check
(repro.analysis.ineffectual) and its eval wiring."""

import pickle

import pytest

from repro.analysis import ceiling as ceiling_module
from repro.analysis.ceiling import ceiling_report, static_removal_report_for
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import analyze
from repro.analysis.ineffectual import analyze_static, cross_check
from repro.isa.assembler import assemble
from repro.workloads.suite import benchmark_suite


def _program(source, name="t"):
    return assemble(source, name=name)


class TestStaticSummary:
    def test_pcs_partition(self):
        program = _program(
            """
            main:
                addi r1, r0, 1      # dead
                addi r1, r0, 2      # must-live
                out  r1
                halt
            """
        )
        summary = analyze_static(program)
        assert summary.dead_pcs == (program.pc_of(0),)
        assert program.pc_of(1) in summary.must_live_pcs
        assert summary.indirect_exact


class TestCrossCheck:
    #: A loop with one dead write per iteration (r5, overwritten next
    #: iteration unread) and one must-live write (r2, always read).
    LOOP = """
        main:
            addi r1, r0, 200
        loop:
            addi r2, r1, 7          # must-live: read right below
            add  r3, r3, r2
            add  r5, r3, r1         # dead: overwritten next iteration unread
            addi r1, r1, -1
            bne  r1, r0, loop
            out  r3
            halt
    """

    def test_loop_dead_write_detected_and_sound(self):
        program = _program(self.LOOP)
        result = cross_check(program)
        assert result.sound
        assert result.static_unsound_pcs == ()
        assert result.detector_contradiction_pcs == ()
        # The dead write executes once per iteration...
        assert result.dead_instances_executed == 200
        # ...and nearly all instances are classified ineffectual (the
        # final iterations' kills can fall outside the detector scope).
        assert result.instance_agreement > 0.9
        assert result.pc_coverage == 1.0

    def test_static_dead_never_referenced(self):
        program = _program(self.LOOP)
        result = cross_check(program)
        for stat in result.dead_pc_stats:
            assert stat.referenced == 0

    def test_truncated_run_reports_flag(self):
        result = cross_check(_program(self.LOOP), max_instructions=50)
        assert result.truncated
        assert result.sound  # partial observation may not contradict

    def test_result_is_picklable(self):
        result = cross_check(_program(self.LOOP))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.sound and clone.retired == result.retired
        assert clone.instance_agreement == result.instance_agreement

    def test_dead_store_cross_checked(self):
        program = _program(
            """
            main:
                addi r1, r0, 100
            loop:
                sw   r1, slot(r0)   # dead store: overwritten unread
                sw   r0, slot(r0)
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            .data
            slot: .word 0
            """
        )
        assert analyze(build_cfg(program)).dead_stores  # both qualify
        result = cross_check(program)
        assert result.sound
        assert result.dead_instances_executed > 0
        assert result.instance_agreement > 0.9


class TestAbsintCrossCheck:
    """The interval-layer extension: proven silent stores and pinned
    branch directions are checked against the dynamic run too."""

    SOURCE = """
        main:
            addi r1, r0, 150
            addi r2, r0, 7
        loop:
            sw   r2, slot(r0)   # provably silent: cell holds 7
            addi r1, r1, -1
            bne  r1, r0, loop
            out  r2
            halt
        .data
        slot: .word 7
    """

    def test_silent_stores_tracked_and_sound(self):
        result = cross_check(_program(self.SOURCE))
        assert result.removal_report.silent_store_pcs
        assert result.silent_instances_executed == 150
        assert result.silent_violation_pcs == ()
        assert 0.0 <= result.silent_agreement <= 1.0
        assert result.sound

    def test_pinned_branches_tracked_and_sound(self):
        # bne exits once and loops 149 times: mixed, so only provably
        # single-direction branches count as pinned.
        program = _program(
            """
            main:
                addi r1, r0, 3
                bne  r1, r0, skip   # always taken: pinned
                out  r1
            skip:
                halt
            """
        )
        result = cross_check(program)
        assert result.removal_report.branch_always_pcs
        assert result.pinned_branch_instances >= 1
        assert result.branch_violation_pcs == ()
        assert result.sound

    def test_memoized_report_reused(self):
        """The cross-check reads the program's memoized report, so it
        shares one fixpoint with the ceiling and the static hints."""
        program = _program(self.SOURCE)
        report = static_removal_report_for(program)
        result = cross_check(program)
        assert result.removal_report is report
        assert ceiling_report(program).static is report
        assert result.sound


class TestFullSuite:
    @pytest.mark.parametrize(
        "bench", benchmark_suite(), ids=lambda b: b.name
    )
    def test_suite_cross_check_green(self, bench):
        """Acceptance: zero soundness contradictions on every bundled
        workload, and the detector confirms the lion's share of the
        statically-dead instances that execute."""
        result = cross_check(bench.program(scale=1))
        assert not result.truncated
        assert result.static_unsound_pcs == ()
        assert result.detector_contradiction_pcs == ()
        assert result.instance_agreement > 0.9


class TestEvalWiring:
    def test_crosscheck_rows(self):
        from repro.eval import models
        from repro.eval.experiments import ineffectuality_crosscheck

        models.configure_disk_cache(enabled=False)
        try:
            rows = ineffectuality_crosscheck(benchmarks=["m88ksim"])
        finally:
            models.clear_cache()
            models.configure_disk_cache(enabled=True)
        (row,) = rows
        assert row["sound"] and row["contradictions"] == 0
        assert row["static_dead_pcs"] == 6
        assert 0.9 < row["instance_agreement"] <= 1.0


class TestStaticJob:
    """One ``static`` job per workload returns the cross-check and the
    ceiling report, and everything on one program object shares one
    static removal report."""

    @pytest.fixture
    def jobs(self, monkeypatch):
        """repro.eval.jobs with an empty program memo: program objects
        built by earlier tests carry memoized reports."""
        from repro.eval import jobs

        monkeypatch.setattr(jobs, "_PROGRAM_MEMO", {})
        return jobs

    def test_one_fixpoint_per_program_object(self, jobs, monkeypatch):
        from repro.core.slipstream import SlipstreamConfig
        from repro.workloads.suite import get_benchmark

        calls = []
        real_refine = ceiling_module.refine_cfg

        def counting_refine(program, result):
            # static_removal_report refines the CFG exactly once.
            calls.append(program)
            return real_refine(program, result)

        monkeypatch.setattr(ceiling_module, "refine_cfg", counting_refine)
        jobs.simulate(jobs.static_spec("jpeg"))
        jobs.simulate(jobs.slipstream_spec(
            "jpeg", config=SlipstreamConfig(static_hints=True)))
        program = jobs.benchmark_program("jpeg")
        assert len(calls) == 1 and calls[0] is program
        fresh = get_benchmark("jpeg").program(1)
        assert static_removal_report_for(fresh) is not \
            static_removal_report_for(program)
        assert len(calls) == 2 and calls[1] is fresh

    @pytest.mark.parametrize("name", ["jpeg", "compress"])
    def test_static_job_matches_direct_analyses(self, jobs, name):
        from repro.workloads.suite import get_benchmark

        xcheck, ceiling = jobs.simulate(jobs.static_spec(name))
        program = get_benchmark(name).program(1)
        assert xcheck == cross_check(program)
        assert ceiling == ceiling_report(program)
        assert xcheck.sound
