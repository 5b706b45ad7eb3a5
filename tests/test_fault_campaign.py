"""Scaled fault campaigns and the ECC model: seeded-sampling
determinism (same seed ⇒ byte-identical BENCH_fault.json, parallel
bit-identical to inline), ECC reclassification of R-stream
architectural strikes, and the coverage accounting fixes (no vacuous
1.0, NOT_FIRED excluded from denominators)."""

import json
from dataclasses import replace

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.core.modes import CAMPAIGN_MODES
from repro.eval import jobs, models
from repro.eval.jobs import reference_spec
from repro.fault.campaign import (
    MODE_FACTS,
    CampaignConfig,
    CampaignPoint,
    ScaledCampaignResult,
    format_coverage_table,
    format_frontier_table,
    mode_sites,
    mode_stream_lengths,
    run_scaled_campaign,
    sample_points,
    strike_order,
    write_fault_bench,
)
from repro import assemble
from repro.core.slipstream import SlipstreamProcessor
from repro.fault.coverage import (
    HANDLED_OUTCOMES,
    HARMFUL_OUTCOMES,
    CampaignResult,
    FaultOutcome,
    InjectionResult,
    hang_budget,
    inject_one,
    inject_one_nstream,
    reset_timeline_tally,
    timeline_snapshot,
)
from repro.fault.ecc import PROTECTED_SITES, ECCModel
from repro.fault.injector import FaultSite, TransientFault
from repro.workloads.suite import get_benchmark

BENCH = "jpeg"  # cheapest workload; zero removal, so all R strikes compared


@pytest.fixture
def fresh_caches(tmp_path):
    saved = (models._DISK, models._DISK_ENABLED)
    models.clear_cache()
    jobs.reset_simulation_count()
    models.configure_disk_cache(enabled=True, cache_dir=str(tmp_path / "cache"))
    yield tmp_path / "cache"
    models.clear_cache()
    models._DISK, models._DISK_ENABLED = saved


#: A small, site-diverse campaign on the cheapest workload.  Seed 7 is
#: chosen (and pinned by the byte-identity tests) because it produces
#: harmful R_ARCH strikes on jpeg: detected-unrecoverable without ECC.
SMALL = dict(benchmarks=(BENCH,), points_per_benchmark=6, seed=7)


class TestECCModel:
    def test_protects_only_r_arch_by_default(self):
        ecc = ECCModel()
        assert PROTECTED_SITES == frozenset({FaultSite.R_ARCH})
        assert ecc.protects(FaultSite.R_ARCH)
        assert not ecc.protects(FaultSite.R_TRANSIENT)
        assert not ecc.protects(FaultSite.A_RESULT)

    def test_counts_corrections(self):
        ecc = ECCModel()
        assert ecc.corrections == 0
        ecc.correct()
        ecc.correct()
        assert ecc.corrections == 2

    def test_inject_one_with_ecc_corrects_r_arch(self):
        program = get_benchmark(BENCH).program(1)
        fault = TransientFault(site=FaultSite.R_ARCH, target_seq=4000, bit=7)
        plain = inject_one(program, fault)
        protected = inject_one(program, fault, ecc=True)
        assert plain.outcome is not FaultOutcome.ECC_CORRECTED
        assert not plain.ecc_corrected
        assert protected.outcome is FaultOutcome.ECC_CORRECTED
        assert protected.ecc_corrected

    def test_ecc_does_not_mask_transient_faults(self):
        """ECC encodes whatever value is written — a corrupted *computed*
        value is stored with a valid code.  Scenario #2 stays open."""
        program = get_benchmark(BENCH).program(1)
        fault = TransientFault(site=FaultSite.R_TRANSIENT, target_seq=4000)
        plain = inject_one(program, fault)
        protected = inject_one(program, fault, ecc=True)
        assert protected.outcome is plain.outcome
        assert not protected.ecc_corrected


class TestSampling:
    LENGTHS = {"slipstream": {BENCH: {"A": 8000, "R": 10000},
                              "li": {"A": 5000, "R": 9000}}}

    def test_same_seed_same_points(self):
        config = CampaignConfig(benchmarks=(BENCH, "li"),
                                points_per_benchmark=9, seed=42)
        assert sample_points(config, self.LENGTHS) == \
            sample_points(config, self.LENGTHS)

    def test_different_seed_different_points(self):
        a = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=9, seed=1)
        b = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=9, seed=2)
        assert sample_points(a, self.LENGTHS) != sample_points(b, self.LENGTHS)

    def test_per_benchmark_streams_are_independent(self):
        """Adding a benchmark must not perturb another's points."""
        solo = CampaignConfig(benchmarks=("li",), points_per_benchmark=6,
                              seed=42)
        both = CampaignConfig(benchmarks=(BENCH, "li"),
                              points_per_benchmark=6, seed=42)
        li_solo = [p for p in sample_points(solo, self.LENGTHS)]
        li_both = [p for p in sample_points(both, self.LENGTHS)
                   if p.benchmark == "li"]
        assert li_solo == li_both

    def test_sites_rotate_round_robin(self):
        config = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=6,
                                seed=0)
        points = sample_points(config, self.LENGTHS)
        sites = [p.fault.site for p in points]
        assert sites == 2 * list(config.sites)

    def test_points_respect_warmup_and_stream_bounds(self):
        config = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=30,
                                seed=3, warmup_fraction=0.25)
        for point in sample_points(config, self.LENGTHS):
            n = self.LENGTHS["slipstream"][BENCH][
                "A" if point.fault.site is FaultSite.A_RESULT else "R"]
            assert int(0.25 * n) <= point.fault.target_seq < n
            assert 0 <= point.fault.bit < 32

    @pytest.mark.parametrize("kwargs", [
        {"benchmarks": ()},
        {"sites": ()},
        {"points_per_benchmark": 0},
        {"warmup_fraction": 1.0},
        {"warmup_fraction": -0.1},
        {"scale": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs)


def _synthetic(outcome, site=FaultSite.R_TRANSIENT, compared=True):
    return InjectionResult(
        fault=TransientFault(site=site, target_seq=1),
        outcome=outcome, struck_compared=compared, detections=0,
    )


class TestCoverageAccounting:
    def test_no_harmful_faults_means_no_coverage_claim(self):
        """The satellite fix: all-masked / never-fired campaigns used to
        report a vacuous 1.0."""
        campaign = CampaignResult(results=[
            _synthetic(FaultOutcome.MASKED),
            _synthetic(FaultOutcome.NOT_FIRED),
        ])
        assert campaign.coverage is None
        assert campaign.harmful == 0
        assert campaign.fired == 1  # NOT_FIRED excluded explicitly

    def test_not_fired_excluded_from_denominator(self):
        campaign = CampaignResult(results=[
            _synthetic(FaultOutcome.DETECTED_RECOVERED),
            _synthetic(FaultOutcome.SILENT_CORRUPTION),
            _synthetic(FaultOutcome.NOT_FIRED),
            _synthetic(FaultOutcome.NOT_FIRED),
        ])
        assert campaign.harmful == 2
        assert campaign.coverage == 0.5

    def test_redundant_coverage_restricted_to_compared_strikes(self):
        result = ScaledCampaignResult(config=CampaignConfig(**SMALL))
        result.per_benchmark[BENCH] = CampaignResult(results=[
            _synthetic(FaultOutcome.DETECTED_RECOVERED, compared=True),
            _synthetic(FaultOutcome.SILENT_CORRUPTION, compared=False),
        ])
        assert result.coverage == 0.5
        assert result.redundant_coverage == 1.0

    def test_empty_scaled_result_has_no_coverage(self):
        result = ScaledCampaignResult(config=CampaignConfig(**SMALL))
        assert result.coverage is None
        assert result.redundant_coverage is None
        assert "no completed" in format_coverage_table(result)


def _countdown_program():
    """A tight countdown loop: an R_ARCH strike flipping a high bit of
    the loop counter makes the run retire ~1M extra instructions —
    far past :func:`hang_budget` — so the injection must classify as
    ``HANG`` instead of running (effectively) forever."""
    return assemble(
        """
main:
    addi r1, r0, 40
    addi r2, r0, 0
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r2
    halt
""",
        name="countdown",
    )


def _countdown_strikes(site, seqs, bit, ecc=False):
    """One ``inject_one`` per target on the countdown program, all
    classified against one clean reference and its hang budget."""
    program = _countdown_program()
    clean = SlipstreamProcessor(program).run()
    return CampaignResult(results=[
        inject_one(
            program, TransientFault(site=site, target_seq=seq, bit=bit),
            reference_output=clean.output,
            baseline_detections=clean.ir_mispredictions,
            ecc=ecc,
            max_instructions=hang_budget(clean.retired),
            reference_retired=clean.retired,
        )
        for seq in seqs
    ])


class TestHangBudget:
    def test_budget_is_deterministic_and_generous(self):
        assert hang_budget(1000) == 14_000
        assert hang_budget(0) == 10_000
        assert hang_budget(1000) == hang_budget(1000)

    def test_runaway_strike_classifies_as_hang(self):
        """Strike the loop counter's high bit in R-stream architectural
        state: recovery copies the corrupted counter into the A-stream
        and both streams loop ~2^20 more iterations."""
        campaign = _countdown_strikes(FaultSite.R_ARCH, range(9), bit=20)
        counts = campaign.counts()
        assert counts.get(FaultOutcome.HANG, 0) > 0
        hangs = [r for r in campaign.results
                 if r.outcome is FaultOutcome.HANG]
        for result in hangs:
            assert result.detect_latency is None
            assert result.recovery_penalty is None
            assert not result.ecc_corrected

    def test_hang_is_harmful_and_unhandled(self):
        assert FaultOutcome.HANG in HARMFUL_OUTCOMES
        assert FaultOutcome.HANG not in HANDLED_OUTCOMES
        campaign = CampaignResult(results=[
            _synthetic(FaultOutcome.HANG),
            _synthetic(FaultOutcome.DETECTED_RECOVERED),
        ])
        assert campaign.harmful == 2
        assert campaign.coverage == 0.5

    def test_ecc_prevents_the_hang(self):
        """The same strikes under ECC are corrected before the corrupted
        counter can drive the loop: no hangs, only corrections."""
        campaign = _countdown_strikes(FaultSite.R_ARCH, range(9), bit=20,
                                      ecc=True)
        counts = campaign.counts()
        assert counts.get(FaultOutcome.HANG, 0) == 0
        assert counts.get(FaultOutcome.ECC_CORRECTED, 0) > 0

    def test_clean_length_strike_does_not_hang(self):
        """A NOT_FIRED point (target beyond the stream) completes within
        the budget — the bound never misfires on well-behaved runs."""
        program = _countdown_program()
        result = inject_one(
            program,
            TransientFault(site=FaultSite.R_ARCH, target_seq=10**6, bit=20),
        )
        assert result.outcome is FaultOutcome.NOT_FIRED

    def test_nstream_default_budget_is_the_hang_budget(self):
        """Without a reference, ``inject_one_nstream`` bounds the struck
        run by the functional run's hang budget, as ``inject_one`` does,
        so the same point classifies the same whichever entry point
        runs it."""
        program = _countdown_program()
        fault = TransientFault(site=FaultSite.R_ARCH, target_seq=66, bit=20)
        clean = FunctionalSimulator(program).run()
        budgeted = inject_one_nstream(
            program, fault, "replay", reference_output=clean.output,
            baseline_detections=0,
            max_instructions=hang_budget(clean.instruction_count),
        )
        assert budgeted.outcome is FaultOutcome.HANG
        assert inject_one_nstream(program, fault, "replay") == budgeted


class TestScaledCampaign:
    def test_campaign_without_ecc_exposes_the_hole(self, fresh_caches):
        result, stats = run_scaled_campaign(CampaignConfig(**SMALL))
        assert not result.failed_points
        assert len(result.results) == 6
        outcomes = {r.outcome for r in result.results}
        # Seed 7 on jpeg produces at least one unhandled harmful strike
        # (R_ARCH: detection happens, recovery uses corrupted state).
        assert FaultOutcome.DETECTED_UNRECOVERABLE in outcomes
        assert result.coverage is not None and result.coverage < 1.0

    def test_ecc_closes_the_hole_same_seed(self, fresh_caches):
        """Acceptance: with ECC, the same seed's R_ARCH strikes classify
        as corrected and redundant-instruction coverage reaches 100%."""
        result, stats = run_scaled_campaign(
            CampaignConfig(ecc=True, **SMALL))
        assert not result.failed_points
        outcomes = {r.outcome for r in result.results}
        assert FaultOutcome.DETECTED_UNRECOVERABLE not in outcomes
        assert FaultOutcome.SILENT_CORRUPTION not in outcomes
        assert FaultOutcome.ECC_CORRECTED in outcomes
        assert result.coverage == 1.0
        assert result.redundant_coverage == 1.0
        assert result.ecc_corrections > 0

    def test_bench_fault_json_is_byte_deterministic(self, fresh_caches,
                                                    tmp_path):
        config = CampaignConfig(**SMALL)
        result1, _ = run_scaled_campaign(config)
        path1 = write_fault_bench(result1, tmp_path / "a.json")

        # Rerun in the same process (warm caches: zero simulations).
        jobs.reset_simulation_count()
        result2, stats2 = run_scaled_campaign(config)
        path2 = write_fault_bench(result2, tmp_path / "b.json")
        assert jobs.simulation_count() == 0
        assert stats2.simulated == 0
        assert path1.read_bytes() == path2.read_bytes()

        payload = json.loads(path1.read_text())
        assert payload["points"] == 6
        assert payload["config"]["seed"] == 7
        assert BENCH in payload["table"]
        assert "metrics" in payload

    def test_parallel_campaign_matches_inline(self, fresh_caches, tmp_path):
        config = CampaignConfig(**SMALL)
        inline, _ = run_scaled_campaign(config, jobs=1)
        inline_path = write_fault_bench(inline, tmp_path / "inline.json")

        # Cold parallel run: separate disk cache, dropped memory cache.
        models.clear_cache()
        models.configure_disk_cache(enabled=True,
                                    cache_dir=str(tmp_path / "cache-par"))
        parallel, stats = run_scaled_campaign(config, jobs=2)
        assert stats.simulated == len(parallel.points)
        parallel_path = write_fault_bench(parallel, tmp_path / "par.json")
        assert inline_path.read_bytes() == parallel_path.read_bytes()

    def test_rerun_on_a_stale_cache_root_keeps_the_timeline_order(
            self, fresh_caches, tmp_path):
        """A campaign re-run on the same cache root after its results
        went stale (any code edit) submits its points in the same
        order, so its clean timeline starts as often as on a fresh
        root."""
        config = CampaignConfig(benchmarks=(BENCH,),
                                modes=("slipstream", "decorrelated"),
                                points_per_benchmark=3, seed=2000)

        def starts_of_one_pass():
            models.clear_cache()
            reset_timeline_tally()
            result, _ = run_scaled_campaign(config, jobs=1)
            write_fault_bench(result, tmp_path / "bench.json")
            return (timeline_snapshot()["starts"],
                    (tmp_path / "bench.json").read_bytes())

        first = starts_of_one_pass()
        for entry in fresh_caches.glob("**/*.pkl"):
            entry.unlink()
        assert starts_of_one_pass() == first

    def test_detection_latency_metrics_populated(self, fresh_caches):
        result, _ = run_scaled_campaign(CampaignConfig(**SMALL))
        snapshot = result.metrics().snapshot()
        # Seed 7's campaign detects faults; latency/penalty histograms
        # carry those observations.
        assert snapshot["fault.detect_latency.count"] > 0
        assert snapshot["fault.recovery_penalty.count"] > 0
        assert snapshot["fault.recovery_penalty.mean"] > 0
        detected = [r for r in result.results
                    if r.outcome is FaultOutcome.DETECTED_RECOVERED]
        assert all(r.detect_latency is not None for r in detected)
        assert all(r.recovery_penalty is not None for r in detected)


class TestModeSites:
    SITES = (FaultSite.A_RESULT, FaultSite.R_TRANSIENT, FaultSite.R_ARCH)

    def test_slipstream_keeps_configured_sites_verbatim(self):
        assert mode_sites("slipstream", self.SITES) == self.SITES

    def test_tmr_drops_a_stream_sites(self):
        sites = mode_sites("tmr", self.SITES)
        assert FaultSite.A_RESULT not in sites
        assert set(sites) == {FaultSite.R_TRANSIENT, FaultSite.R_ARCH}

    def test_decorrelated_appends_correlated(self):
        sites = mode_sites("decorrelated", self.SITES)
        assert sites[-1] is FaultSite.CORRELATED
        assert set(self.SITES) <= set(sites)

    def test_empty_intersection_falls_back_to_spec(self):
        sites = mode_sites("tmr", (FaultSite.A_RESULT,))
        assert sites  # never an empty campaign
        assert FaultSite.A_RESULT not in sites


class TestModeFacts:
    def test_one_row_per_campaign_mode_in_order(self):
        assert tuple(MODE_FACTS) == CAMPAIGN_MODES

    def test_stream_counts(self):
        assert {mode: facts.n_streams for mode, facts in MODE_FACTS.items()} \
            == {"slipstream": 2, "tmr": 3, "replay": 1, "decorrelated": 2}


class TestStrikeOrder:
    LENGTHS = {"slipstream": {BENCH: {"A": 500, "R": 1000}},
               "tmr": {BENCH: {"A": 1000, "R": 1000}}}

    def point(self, site, seq, mode="slipstream"):
        return CampaignPoint(BENCH, TransientFault(site, seq), mode)

    def test_orders_by_fraction_of_own_stream(self):
        """A-site seq 300 is 60% into the A-stream, R-site seq 400 only
        40% into the R-stream: the R-site point goes first."""
        points = [self.point(FaultSite.A_RESULT, 300),
                  self.point(FaultSite.R_TRANSIENT, 400),
                  self.point(FaultSite.R_ARCH, 100)]
        assert strike_order(points, self.LENGTHS) == [2, 1, 0]

    def test_groups_by_mode_then_benchmark(self):
        points = [self.point(FaultSite.R_ARCH, 900),
                  self.point(FaultSite.R_ARCH, 10, mode="tmr"),
                  self.point(FaultSite.R_ARCH, 20)]
        assert strike_order(points, self.LENGTHS) == [2, 0, 1]


class TestMultiModeSampling:
    #: Every mode with the same stream lengths.
    SAME = {mode: {BENCH: {"A": 8000, "R": 10000}} for mode in CAMPAIGN_MODES}
    BY_MODE = {
        "slipstream": {BENCH: {"A": 8000, "R": 10000}},
        "tmr": {BENCH: {"A": 9000, "R": 9000}},
    }

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(benchmarks=(BENCH,), modes=("reliable",))
        with pytest.raises(ValueError):
            CampaignConfig(benchmarks=(BENCH,), modes=("nonsense",))

    def test_slipstream_stream_unchanged_by_extra_modes(self):
        """Back-compat: a multi-mode campaign's slipstream points are
        identical to the slipstream-only campaign's (the new modes draw
        from their own seeded RNG streams)."""
        solo = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=6,
                              seed=7)
        multi = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=6,
                               seed=7, modes=CAMPAIGN_MODES)
        solo_points = sample_points(solo, self.SAME)
        multi_points = [p for p in sample_points(multi, self.SAME)
                        if p.mode == "slipstream"]
        assert [(p.benchmark, p.fault) for p in solo_points] == \
            [(p.benchmark, p.fault) for p in multi_points]

    def test_modes_draw_distinct_strike_points(self):
        config = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=6,
                                seed=7, modes=("slipstream", "replay"))
        points = sample_points(config, self.SAME)
        slip = [p.fault.target_seq for p in points if p.mode == "slipstream"]
        repl = [p.fault.target_seq for p in points if p.mode == "replay"]
        assert len(slip) == len(repl) == 6
        assert slip != repl

    def test_nested_lengths_keyed_by_mode(self):
        config = CampaignConfig(benchmarks=(BENCH,), points_per_benchmark=30,
                                seed=3, modes=("slipstream", "tmr"))
        for point in sample_points(config, self.BY_MODE):
            lengths = self.BY_MODE[point.mode][BENCH]
            n = lengths["A" if point.fault.site is FaultSite.A_RESULT
                        else "R"]
            assert point.fault.target_seq < n


class TestMultiModeCampaign:
    MULTI = dict(benchmarks=(BENCH,), points_per_benchmark=4, seed=11,
                 modes=CAMPAIGN_MODES)

    def test_per_mode_rounds_sample_the_whole_config_s_points(self):
        """The campaign samples one mode at a time; with two benchmarks
        and every mode, the rounds' points concatenate to the whole
        config's, in the same order."""
        config = CampaignConfig(benchmarks=(BENCH, "li"),
                                points_per_benchmark=5, seed=3,
                                modes=CAMPAIGN_MODES)
        lengths = {
            mode: {BENCH: {"A": 8000 + i, "R": 10000 + i},
                   "li": {"A": 20000 - i, "R": 25000 - i}}
            for i, mode in enumerate(CAMPAIGN_MODES)
        }
        rounds = []
        for mode in config.modes:
            rounds += sample_points(replace(config, modes=(mode,)),
                                    {mode: lengths[mode]})
        assert rounds == sample_points(config, lengths)

    def test_campaign_points_are_sample_points_of_its_references(
            self, fresh_caches):
        config = CampaignConfig(**self.MULTI)
        result, stats = run_scaled_campaign(config)
        references = {
            mode: {BENCH: models.run_cached(reference_spec(BENCH, mode))}
            for mode in CAMPAIGN_MODES
        }
        lengths = mode_stream_lengths(references)
        assert result.points == sample_points(config, lengths)
        # The returned stats fold every mode's strike pass.
        assert stats.simulated == len(result.points)
        assert len(stats.records) == len(result.points)

    def test_cli_reports_every_strike_point_simulated(self, fresh_caches,
                                                      capsys):
        from repro.fault.__main__ import main

        status = main(["--benchmarks", BENCH, "--modes", "all",
                       "--points", "3", "--no-cache", "--bench-out", "-"])
        assert status == 0
        out = capsys.readouterr().out
        points = 3 * len(CAMPAIGN_MODES)
        assert f"runner: {points} simulated, 0 cache hits, 0 failed" in out

    def test_every_mode_contributes_points(self, fresh_caches):
        result, _ = run_scaled_campaign(CampaignConfig(**self.MULTI))
        assert not result.failed_points
        by_mode = {mode: result.for_mode(mode) for mode in CAMPAIGN_MODES}
        for mode, sub in by_mode.items():
            assert len(sub.results) == 4, mode
            assert all(r.mode == mode for r in sub.results)

    def test_frontier_rows_complete(self, fresh_caches):
        result, _ = run_scaled_campaign(CampaignConfig(**self.MULTI))
        rows = result.frontier()
        assert [r["mode"] for r in rows] == list(CAMPAIGN_MODES)
        for row in rows:
            assert row["throughput_ipc"] is not None
            assert row["relative_ipc"] is not None
        frontier = {r["mode"]: r for r in rows}
        assert frontier["tmr"]["n_streams"] == 3
        # The throughput axis prices redundancy per context: TMR burns
        # three contexts on one useful stream, replay keeps most of one.
        assert frontier["tmr"]["relative_ipc"] < \
            frontier["slipstream"]["relative_ipc"] < \
            frontier["replay"]["relative_ipc"]
        table = format_frontier_table(result)
        for mode in CAMPAIGN_MODES:
            assert mode in table

    def test_payload_carries_per_mode_breakdown(self, fresh_caches,
                                                tmp_path):
        result, _ = run_scaled_campaign(CampaignConfig(**self.MULTI))
        payload = json.loads(
            write_fault_bench(result, tmp_path / "m.json").read_text())
        assert payload["modes"] == list(CAMPAIGN_MODES)
        assert set(payload["per_mode"]) == set(CAMPAIGN_MODES)
        assert [r["mode"] for r in payload["frontier"]] == \
            list(CAMPAIGN_MODES)
        for mode, entry in payload["per_mode"].items():
            assert entry["fired"] >= 0
            assert "outcomes" in entry

    def test_multi_mode_artifact_byte_deterministic(self, fresh_caches,
                                                    tmp_path):
        config = CampaignConfig(**self.MULTI)
        first, _ = run_scaled_campaign(config)
        path1 = write_fault_bench(first, tmp_path / "a.json")
        second, stats = run_scaled_campaign(config)
        path2 = write_fault_bench(second, tmp_path / "b.json")
        assert stats.simulated == 0  # warm rerun
        assert path1.read_bytes() == path2.read_bytes()

    def test_per_mode_metrics_registered(self, fresh_caches):
        result, _ = run_scaled_campaign(CampaignConfig(**self.MULTI))
        snapshot = result.metrics().snapshot()
        fired_modes = {r.mode for r in result.results
                       if r.outcome is not FaultOutcome.NOT_FIRED}
        for mode in fired_modes:
            keys = [k for k in snapshot
                    if k.startswith(f"fault.mode.{mode}.")]
            assert keys, f"no per-mode metrics for {mode}"

    def test_single_mode_payload_keeps_slipstream_shape(self, fresh_caches,
                                                        tmp_path):
        """The default campaign still reports mode slipstream only, and
        every pre-framework payload key survives."""
        result, _ = run_scaled_campaign(CampaignConfig(**SMALL))
        payload = json.loads(
            write_fault_bench(result, tmp_path / "s.json").read_text())
        assert payload["modes"] == ["slipstream"]
        for key in ("completed", "config", "coverage", "ecc_corrections",
                    "fired", "harmful", "metrics", "outcomes",
                    "per_benchmark", "points", "redundant_coverage",
                    "table"):
            assert key in payload, key


class TestFaultCLI:
    def test_cli_json_and_artifact(self, fresh_caches, tmp_path, capsys):
        from repro.fault.__main__ import main

        out = tmp_path / "BENCH_fault.json"
        code = main(["--benchmarks", BENCH, "--points", "3", "--seed", "7",
                     "--bench-out", str(out), "--format", "json"])
        assert code == 0
        assert out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out.read_text())
        assert payload["config"]["benchmarks"] == [BENCH]

    def test_cli_table_with_ecc(self, fresh_caches, tmp_path, capsys):
        from repro.fault.__main__ import main

        code = main(["--benchmarks", BENCH, "--points", "3", "--seed", "7",
                     "--ecc", "--bench-out", "-"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "coverage" in captured
        assert "ECC corrections" in captured

    @pytest.mark.parametrize("flag", [
        ["--scale", "0"],
        ["--points", "0"],
        ["--jobs", "0"],
        ["--timeout", "-1"],
        ["--timeout", "0"],
    ])
    def test_cli_rejects_bad_number_before_simulating(self, fresh_caches,
                                                       capsys, flag):
        from repro.fault.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--benchmarks", BENCH, "--bench-out", "-", *flag])
        assert excinfo.value.code == 2
        assert "must be" in capsys.readouterr().err
        assert jobs.simulation_count() == 0

    @pytest.mark.parametrize("flag,message", [
        (["--sites", "nonsense"], "unknown fault site 'nonsense'"),
        (["--sites", "r_arch", "bogus"], "unknown fault site 'bogus'"),
        (["--modes", "bogus"], "unknown redundancy mode(s) ['bogus']"),
        (["--modes", "slipstream,quintuple"],
         "unknown redundancy mode(s) ['quintuple']"),
        (["--modes", ","], "unknown redundancy mode(s) [',']"),
    ])
    def test_cli_rejects_bad_name_with_usage_error(self, fresh_caches,
                                                   capsys, flag, message):
        """Exit status 1 means "the campaign had failed points"; a bad
        site or mode name is a usage error (2), like a bad number."""
        from repro.fault.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--benchmarks", BENCH, "--bench-out", "-", *flag])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert message in err
        assert jobs.simulation_count() == 0

    def test_cli_modes_all_prints_frontier(self, fresh_caches, tmp_path,
                                           capsys):
        from repro.fault.__main__ import main

        out = tmp_path / "modes.json"
        code = main(["--benchmarks", BENCH, "--modes", "all",
                     "--points", "2", "--seed", "11",
                     "--bench-out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "frontier" in captured
        payload = json.loads(out.read_text())
        assert payload["modes"] == list(CAMPAIGN_MODES)

    def test_cli_modes_comma_list(self, fresh_caches, capsys):
        from repro.fault.__main__ import main

        code = main(["--benchmarks", BENCH, "--modes", "slipstream,tmr",
                     "--points", "2", "--seed", "11", "--bench-out", "-",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modes"] == ["slipstream", "tmr"]
