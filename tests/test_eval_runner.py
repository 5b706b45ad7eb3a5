"""The parallel experiment runner: dedup, parallel==sequential identity,
warm-cache runs performing zero simulations, submission in the caller's
order, and failure handling (one bad job must not lose the pass)."""

import os
import warnings

import pytest

from repro.eval import jobs, models
from repro.eval.jobs import (
    JobKey,
    JobSpec,
    baseline_spec,
    count_spec,
    enumerate_artifact_jobs,
    slipstream_spec,
)
from repro.eval.profiling import stats_payload
from repro.eval.runner import ExperimentRunner, RunnerError, run_artifact_jobs
from repro.obs.session import ENV_TRACE_DIR

BENCH = "jpeg"  # the cheapest workload in the suite


@pytest.fixture
def fresh_caches(tmp_path):
    """Point the disk cache at a temp dir; leave no global state behind."""
    saved = (models._DISK, models._DISK_ENABLED)
    models.clear_cache()
    jobs.reset_simulation_count()
    models.configure_disk_cache(enabled=True, cache_dir=str(tmp_path / "cache"))
    yield tmp_path / "cache"
    models.clear_cache()
    models._DISK, models._DISK_ENABLED = saved


def small_specs():
    return [count_spec(BENCH), baseline_spec(BENCH), slipstream_spec(BENCH)]


class TestDedup:
    def test_duplicate_specs_run_once(self, fresh_caches):
        specs = small_specs() * 3
        stats = ExperimentRunner(jobs=1).run(specs)
        assert stats.requested == 9
        assert stats.deduplicated == 3
        assert stats.simulated == 3

    def test_artifact_enumeration_is_deduplicated(self):
        from repro.core.slipstream import SlipstreamConfig

        specs = enumerate_artifact_jobs(1)
        keys = [s.key for s in specs]
        assert len(keys) == len(set(keys))
        # Figure 6/8/Table 3 share one default CMP job per benchmark.
        default_fp = SlipstreamConfig().fingerprint()
        default_cmp = [k for k in keys
                       if k.model == "cmp"
                       and k.config_fingerprint == default_fp
                       and k.benchmark == "li"]
        assert len(default_cmp) == 1

    def test_rejects_bad_job_count(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)


class TestParallelIdentity:
    def test_parallel_matches_sequential(self, fresh_caches, tmp_path):
        specs = small_specs()

        stats_seq = ExperimentRunner(jobs=1).run(specs)
        assert stats_seq.simulated == len(specs)
        seq_count = models.run_instruction_count(BENCH)
        seq_base = models.run_baseline(BENCH)
        seq_slip = models.run_slipstream_model(BENCH)

        # Fresh memory + a separate disk dir: force the pool to simulate.
        models.clear_cache()
        models.configure_disk_cache(enabled=True,
                                    cache_dir=str(tmp_path / "cache-par"))
        stats_par = ExperimentRunner(jobs=4).run(specs)
        assert stats_par.simulated == len(specs)
        par_count = models.run_instruction_count(BENCH)
        par_base = models.run_baseline(BENCH)
        par_slip = models.run_slipstream_model(BENCH)

        assert par_count == seq_count
        assert par_base.ipc == seq_base.ipc
        assert par_base.cycles == seq_base.cycles
        assert par_base.branch_mispredictions == seq_base.branch_mispredictions
        assert par_slip.ipc == seq_slip.ipc
        assert par_slip.removal_fraction == seq_slip.removal_fraction
        assert par_slip.removed_by_category == seq_slip.removed_by_category
        assert (par_slip.ir_mispredictions_per_1000
                == seq_slip.ir_mispredictions_per_1000)

    def test_pool_workers_do_not_inflate_parent_counter(self, fresh_caches):
        jobs.reset_simulation_count()
        ExperimentRunner(jobs=2).run(small_specs())
        # Simulations happened in worker processes, not this one.
        assert jobs.simulation_count() == 0


def bogus_spec():
    """A spec whose model no simulation path knows: the worker raises."""
    return JobSpec(JobKey("bogus", BENCH))


class TestFailureHandling:
    @pytest.mark.parametrize("n_jobs", [1, 2], ids=["inline", "pool"])
    def test_failed_job_does_not_lose_the_pass(self, fresh_caches, n_jobs):
        specs = [*small_specs(), bogus_spec()]
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=n_jobs).run(specs)
        err = excinfo.value

        # The error aggregates the casualties and names them.
        assert len(err.failures) == 1
        assert err.failures[0][0] == bogus_spec().key
        assert f"bogus/{BENCH}@1" in str(err)
        assert "ValueError" in str(err)

        # Stats are fully populated despite the raise.
        stats = err.stats
        assert stats.failed == 1
        assert stats.simulated == len(small_specs())
        assert stats.wall_seconds > 0

        # The casualty has a "failed" record carrying the error string.
        failed = [r for r in stats.records if r.source == "failed"]
        assert len(failed) == 1
        assert failed[0].key == bogus_spec().key
        assert "ValueError" in failed[0].error

        # Surviving results were absorbed: readable without resimulating.
        jobs.reset_simulation_count()
        assert models.run_baseline(BENCH).retired > 0
        assert jobs.simulation_count() == 0

    def test_failed_payload_shape(self, fresh_caches):
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=1).run([count_spec(BENCH), bogus_spec()])
        payload = stats_payload(excinfo.value.stats, scale=1)
        assert payload["failed"] == 1
        failed = [r for r in payload["per_job"] if r["source"] == "failed"]
        assert len(failed) == 1
        assert "ValueError" in failed[0]["error"]

    def test_many_failures_are_summarized(self, fresh_caches):
        specs = [JobSpec(JobKey("bogus", b))
                 for b in ("a", "b", "c", "d", "e")]
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=1).run(specs)
        assert len(excinfo.value.failures) == 5
        assert "(+2 more)" in str(excinfo.value)


class TestTracingIdentity:
    def test_parallel_matches_sequential_with_tracing(
            self, fresh_caches, tmp_path, monkeypatch):
        """The ISSUE's bit-identity check: tracing enabled (workers
        inherit the env), parallel results == sequential results."""
        monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path / "tr-seq"))
        specs = small_specs()
        stats_seq = ExperimentRunner(jobs=1).run(specs)
        assert stats_seq.simulated == len(specs)
        seq_base = models.run_baseline(BENCH)
        seq_slip = models.run_slipstream_model(BENCH)

        models.clear_cache()
        models.configure_disk_cache(enabled=True,
                                    cache_dir=str(tmp_path / "cache-par"))
        monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path / "tr-par"))
        stats_par = ExperimentRunner(jobs=3).run(specs)
        assert stats_par.simulated == len(specs)

        # Bit-identical architectural results.
        assert models.run_baseline(BENCH) == seq_base
        assert models.run_slipstream_model(BENCH) == seq_slip

        # Both passes carried reports; their counters agree too.
        reports_seq = {r.job: r for r in stats_seq.reports}
        reports_par = {r.job: r for r in stats_par.reports}
        assert set(reports_seq) == set(reports_par) != set()
        for label, report in reports_seq.items():
            assert report.counters == reports_par[label].counters

        # Pool workers wrote byte-identical traces to the inline path
        # (count jobs are uninstrumented and carry no trace).
        from repro.obs import validate_trace
        traced = {label: r for label, r in reports_seq.items()
                  if r.trace_path is not None}
        assert traced
        for label, report in traced.items():
            par_trace = reports_par[label].trace_path
            assert validate_trace(report.trace_path) == \
                validate_trace(par_trace)
            with open(report.trace_path, "rb") as a, \
                    open(par_trace, "rb") as b:
                assert a.read() == b.read()


class TestWarmCache:
    def test_warm_memory_cache_performs_zero_simulations(self, fresh_caches):
        specs = small_specs()
        ExperimentRunner(jobs=1).run(specs)
        jobs.reset_simulation_count()

        stats = ExperimentRunner(jobs=4).run(specs)
        assert stats.simulated == 0
        assert stats.memory_hits == len(specs)
        assert jobs.simulation_count() == 0

    def test_warm_disk_cache_performs_zero_simulations(self, fresh_caches):
        specs = small_specs()
        ExperimentRunner(jobs=1).run(specs)

        models.clear_cache()  # drop memory; disk survives
        jobs.reset_simulation_count()
        stats = ExperimentRunner(jobs=1).run(specs)
        assert stats.simulated == 0
        assert stats.disk_hits == len(specs)
        assert jobs.simulation_count() == 0

        # Disk-loaded results are the same values the report reads.
        warm = models.run_baseline(BENCH)
        assert warm.retired > 0
        assert jobs.simulation_count() == 0

    def test_disk_cache_disabled_resimulates(self, fresh_caches):
        specs = small_specs()
        run_artifact_jobs(specs, jobs=1, use_disk_cache=False)
        models.clear_cache()
        jobs.reset_simulation_count()
        stats = run_artifact_jobs(specs, jobs=1, use_disk_cache=False)
        assert stats.simulated == len(specs)
        assert jobs.simulation_count() == len(specs)


class TestStats:
    def test_bench_payload_shape(self, fresh_caches):
        stats = ExperimentRunner(jobs=1).run(small_specs())
        payload = stats_payload(stats, scale=1, report_seconds=0.5)
        assert payload["unique_jobs"] == 3
        assert payload["simulated"] == 3
        assert payload["warm"] is False
        assert payload["wall_clock_seconds"] > 0
        assert payload["report_render_seconds"] == 0.5
        labels = {r["job"] for r in payload["per_job"]}
        assert f"count/{BENCH}@1" in labels
        assert any(label.startswith(f"cmp/{BENCH}@1[BR,WW,SV]#")
                   for label in labels)
        for record in payload["per_job"]:
            assert record["source"] == "simulated"

    def test_warm_payload_flags_warm(self, fresh_caches):
        ExperimentRunner(jobs=1).run(small_specs())
        stats = ExperimentRunner(jobs=1).run(small_specs())
        payload = stats_payload(stats, scale=1)
        assert payload["warm"] is True
        assert payload["simulated"] == 0


class TestSchedulingOverhaul:
    def test_parallelism_context_and_queue_seconds(self, fresh_caches):
        stats = ExperimentRunner(jobs=2).run(small_specs())
        assert stats.cpu_count >= 1
        assert stats.workers == 2  # min(jobs=2, 3 cold jobs)
        simulated = [r for r in stats.records if r.source == "simulated"]
        assert simulated
        for record in simulated:
            assert record.queue_seconds >= 0.0
        payload = stats_payload(stats, scale=1)
        assert payload["cpu_count"] == stats.cpu_count
        assert payload["workers"] == 2
        for row in payload["per_job"]:
            assert row["queue_seconds"] >= 0.0

    def test_speedup_is_null_on_warm_pass(self, fresh_caches):
        specs = small_specs()
        cold = ExperimentRunner(jobs=1).run(specs)
        assert cold.speedup_vs_sequential is not None
        assert cold.speedup_vs_sequential > 0.0
        warm = ExperimentRunner(jobs=1).run(specs)
        assert warm.speedup_vs_sequential is None
        payload = stats_payload(warm, scale=1)
        assert payload["speedup_vs_sequential"] is None


class TestOrder:
    def test_cold_jobs_run_once_in_the_given_order(self, fresh_caches,
                                                   monkeypatch):
        """The runner neither reorders nor retries: a cheap job given
        first runs first, and a failing job runs once."""
        calls = []

        def simulate(spec, obs=None):
            calls.append(spec.key.model)
            if spec.key.model == "bogus":
                raise ValueError("bogus job")
            return 0

        monkeypatch.setattr(jobs, "simulate", simulate)
        with pytest.raises(RunnerError):
            ExperimentRunner(jobs=1).run(
                [count_spec(BENCH), slipstream_spec(BENCH), bogus_spec(),
                 baseline_spec(BENCH)])
        assert calls == ["count", "cmp", "bogus", "ss64"]


class TestOversubscription:
    def test_warns_when_jobs_exceed_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match=r"jobs=2 exceeds os.cpu_count\(\)=1"):
            ExperimentRunner(jobs=2)

    def test_silent_within_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentRunner(jobs=4)
            ExperimentRunner(jobs=1)
