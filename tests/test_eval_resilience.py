"""The resilient execution layer: per-job timeouts, bounded retries
with deterministic backoff, pool-crash recovery with correct blame
attribution (poison quarantine vs. innocent requeue vs. abort), and
checkpoint/resume through the persistent cache.

Chaos jobs (:mod:`repro.eval.resilience`) script the failures — raise,
sleep past the timeout, ``os._exit`` the worker, fail N times then
succeed — as first-class job specs, so the scripted behaviour crosses
the process boundary like any real job."""

import time

import pytest

from repro.eval import jobs, models
from repro.eval.jobs import chaos_spec, count_spec, run_attempt
from repro.eval.profiling import stats_payload
from repro.eval.resilience import (
    AttemptRecord,
    ChaosError,
    ChaosPlan,
    JobTimeout,
    RetryPolicy,
    execute_chaos,
)
from repro.eval.runner import ExperimentRunner, RunnerError

BENCH = "jpeg"  # the cheapest workload in the suite

#: Fast backoff for tests: semantics identical, no multi-second sleeps.
FAST = dict(backoff_base_seconds=0.01, backoff_cap_seconds=0.05)


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


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base_seconds=0.25, backoff_cap_seconds=2.0)
        assert policy.backoff_seconds(1) == 0.25
        assert policy.backoff_seconds(2) == 0.5
        assert policy.backoff_seconds(3) == 1.0
        assert policy.backoff_seconds(4) == 2.0
        assert policy.backoff_seconds(10) == 2.0  # capped

    def test_hard_deadline_follows_timeout(self):
        assert RetryPolicy().hard_deadline_seconds is None
        policy = RetryPolicy(timeout_seconds=2.0, hard_timeout_factor=4.0)
        assert policy.hard_deadline_seconds == 8.0

    @pytest.mark.parametrize("kwargs", [
        {"timeout_seconds": 0.0},
        {"timeout_seconds": -1.0},
        {"max_retries": -1},
        {"poison_threshold": 0},
        {"backoff_base_seconds": -0.1},
        {"hard_timeout_factor": 0.5},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestChaosPlans:
    def test_flaky_needs_state_file(self):
        with pytest.raises(ValueError):
            ChaosPlan(behavior="flaky", fail_times=1)

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(behavior="explode")

    def test_flaky_counts_attempts_across_calls(self, tmp_path):
        plan = ChaosPlan(behavior="flaky", fail_times=2,
                         state_file=str(tmp_path / "flaky"))
        for _ in range(2):
            with pytest.raises(ChaosError):
                execute_chaos(plan)
        assert execute_chaos(plan) == "ok"

    def test_chaos_jobs_are_cacheable_specs(self):
        plan = ChaosPlan(behavior="ok")
        assert chaos_spec("a", plan).key == chaos_spec("a", plan).key
        assert chaos_spec("a", plan).key != chaos_spec("b", plan).key


class TestAttemptTimeout:
    def test_run_attempt_times_out_in_process(self):
        spec = chaos_spec("sleepy", ChaosPlan(behavior="sleep", seconds=30))
        t0 = time.perf_counter()
        with pytest.raises(JobTimeout):
            run_attempt(spec, timeout_seconds=0.2)
        assert time.perf_counter() - t0 < 5.0

    def test_inline_timeout_kills_the_job_not_the_pass(self, fresh_caches):
        # 3s: far below the 30s sleep, far above the count job even on
        # a heavily loaded single-core machine.
        policy = RetryPolicy(timeout_seconds=3.0, max_retries=1, **FAST)
        specs = [chaos_spec("sleepy", ChaosPlan(behavior="sleep", seconds=30)),
                 count_spec(BENCH)]
        t0 = time.perf_counter()
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=1, policy=policy).run(specs)
        assert time.perf_counter() - t0 < 20.0  # not 2 x 30s
        stats = excinfo.value.stats
        assert stats.timeouts == 2  # first attempt + one retry
        assert stats.retried == 1
        assert stats.simulated == 1  # the count job survived
        failed = [r for r in stats.records if r.source == "failed"][0]
        assert [a.outcome for a in failed.attempts] == ["timeout", "timeout"]
        assert "JobTimeout" in failed.error

    def test_pool_timeout_kills_the_worker_not_the_pool(self, fresh_caches):
        policy = RetryPolicy(timeout_seconds=3.0, max_retries=1, **FAST)
        specs = [chaos_spec("sleepy", ChaosPlan(behavior="sleep", seconds=30)),
                 count_spec(BENCH)]
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=2, policy=policy).run(specs)
        stats = excinfo.value.stats
        assert stats.timeouts == 2
        assert stats.pool_rebuilds == 0  # SIGALRM, not a crash
        assert stats.simulated == 1
        sources = {r.key.model: r.source for r in stats.records}
        assert sources == {"chaos": "failed", "count": "simulated"}


class TestRetries:
    @pytest.mark.parametrize("n_jobs", [1, 2], ids=["inline", "pool"])
    def test_flaky_job_retries_then_succeeds(self, fresh_caches, tmp_path,
                                             n_jobs):
        plan = ChaosPlan(behavior="flaky", fail_times=2,
                         state_file=str(tmp_path / "state"))
        policy = RetryPolicy(max_retries=2, **FAST)
        stats = ExperimentRunner(jobs=n_jobs, policy=policy).run(
            [chaos_spec("flaky", plan), count_spec(BENCH)])
        assert stats.simulated == 2
        assert stats.failed == 0
        assert stats.retried == 2
        record = [r for r in stats.records if r.key.model == "chaos"][0]
        assert record.source == "simulated"
        assert [a.outcome for a in record.attempts] == ["error", "error", "ok"]

    def test_retries_exhausted_fails_with_attempt_trail(self, fresh_caches,
                                                        tmp_path):
        plan = ChaosPlan(behavior="flaky", fail_times=5,
                         state_file=str(tmp_path / "state"))
        policy = RetryPolicy(max_retries=2, **FAST)
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=1, policy=policy).run(
                [chaos_spec("flaky", plan)])
        record = excinfo.value.stats.records[0]
        assert record.source == "failed"
        assert [a.outcome for a in record.attempts] == 3 * ["error"]
        assert all("ChaosError" in a.error for a in record.attempts)

    def test_zero_retries_fails_immediately(self, fresh_caches, tmp_path):
        plan = ChaosPlan(behavior="flaky", fail_times=1,
                         state_file=str(tmp_path / "state"))
        policy = RetryPolicy(max_retries=0)
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=1, policy=policy).run(
                [chaos_spec("flaky", plan)])
        assert excinfo.value.stats.retried == 0
        assert len(excinfo.value.stats.records[0].attempts) == 1


class TestPoolCrashRecovery:
    def test_worker_crash_rebuilds_pool_and_quarantines_poison(
            self, fresh_caches):
        """An ``os._exit`` worker sinks the pool twice; the job is
        quarantined as poison, the pool rebuilt, and every innocent job
        still completes."""
        specs = [
            chaos_spec("boom", ChaosPlan(behavior="exit", seconds=0.2)),
            count_spec(BENCH),
            count_spec("li"),
        ]
        policy = RetryPolicy(poison_threshold=2, **FAST)
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=2, policy=policy).run(specs)
        err = excinfo.value
        stats = err.stats

        assert stats.pool_rebuilds == 2  # one per consecutive crash
        assert stats.poisoned == 1
        assert stats.simulated == 2  # innocents requeued and completed
        assert [k.model for k, _ in err.failures] == ["chaos"]
        assert "poison" in str(err.failures[0][1])
        poisoned = [r for r in stats.records if r.source == "failed"][0]
        assert poisoned.key.model == "chaos"
        assert [a.outcome for a in poisoned.attempts] == ["crash", "crash"]

        # Innocent results were absorbed and are readable.
        jobs.reset_simulation_count()
        assert models.run_instruction_count(BENCH) > 0
        assert models.run_instruction_count("li") > 0
        assert jobs.simulation_count() == 0

    def test_abort_tags_pending_victims_not_failures(self, fresh_caches):
        """With the rebuild budget exhausted, crash suspects are
        ``"failed"`` (candidate culprits) while never-submitted jobs are
        ``"aborted"`` — distinct provenance, correct blame."""
        specs = [
            chaos_spec("boom", ChaosPlan(behavior="exit")),
            count_spec("compress"),
            count_spec("go"),
            count_spec("perl"),
            count_spec("m88ksim"),
        ]
        policy = RetryPolicy(poison_threshold=99, max_pool_rebuilds=0, **FAST)
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=2, policy=policy).run(specs)
        err = excinfo.value
        stats = err.stats

        assert stats.aborted > 0
        assert stats.aborted == len(err.aborted)
        assert "aborted" in str(err)
        by_source = {}
        for record in stats.records:
            by_source.setdefault(record.source, []).append(record)
        # The crashing chaos job is always a failed suspect, never an
        # aborted victim; aborted records carry no blame.
        assert "chaos" in {r.key.model for r in by_source["failed"]}
        assert all(r.key.model == "count" for r in by_source["aborted"])
        for record in by_source["aborted"]:
            assert "aborted" in record.error
            assert record.key in err.aborted

    def test_hard_deadline_kills_wedged_worker(self, fresh_caches):
        """A job that blocks ``SIGALRM`` outlives its per-attempt itimer;
        the driver kills its worker at the hard deadline, blames that
        job alone, and the innocent jobs still complete."""
        wedge_seconds = 30.0
        specs = [
            chaos_spec("wedge", ChaosPlan(behavior="wedge",
                                          seconds=wedge_seconds)),
            count_spec(BENCH),
            count_spec("go"),
        ]
        policy = RetryPolicy(timeout_seconds=0.3, hard_timeout_factor=2,
                             poison_threshold=1, **FAST)
        t0 = time.monotonic()
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=2, policy=policy).run(specs)
        assert time.monotonic() - t0 < wedge_seconds / 3
        stats = excinfo.value.stats

        assert stats.poisoned == 1
        assert stats.simulated == 2
        [wedged] = [r for r in stats.records if r.source == "failed"]
        assert wedged.key.model == "chaos"
        [attempt] = wedged.attempts
        assert attempt.outcome == "timeout"
        assert "hard deadline" in attempt.error
        assert "worker killed" in attempt.error
        assert {r.key.benchmark for r in stats.records
                if r.source == "simulated"} == {BENCH, "go"}

    def test_payload_carries_resilience_counters(self, fresh_caches,
                                                 tmp_path):
        plan = ChaosPlan(behavior="flaky", fail_times=1,
                         state_file=str(tmp_path / "state"))
        policy = RetryPolicy(max_retries=1, **FAST)
        stats = ExperimentRunner(jobs=1, policy=policy).run(
            [chaos_spec("flaky", plan)])
        payload = stats_payload(stats, scale=1)
        assert payload["retried"] == 1
        assert payload["pool_rebuilds"] == 0
        assert payload["poisoned"] == 0
        assert payload["aborted"] == 0
        [row] = [r for r in payload["per_job"] if r["job"].startswith("chaos")]
        assert [a["outcome"] for a in row["attempts"]] == ["error", "ok"]


class TestCheckpointResume:
    def test_interrupted_pass_resumes_from_disk(self, fresh_caches):
        """Jobs absorbed before an interrupt are never re-simulated:
        the disk cache is the checkpoint."""
        interrupting = chaos_spec("ctrl-c", ChaosPlan(behavior="interrupt"))
        # Weight ordering runs the real jobs before the weight-1 chaos
        # job, so the interrupt fires after they were absorbed.
        specs = [count_spec(BENCH), count_spec("li"), interrupting]
        with pytest.raises(KeyboardInterrupt):
            ExperimentRunner(jobs=1).run(specs)

        # Resume in a cold process (memory cache dropped): completed
        # jobs are disk hits, only the unfinished job simulates.
        models.clear_cache()
        jobs.reset_simulation_count()
        resumed = [count_spec(BENCH), count_spec("li"),
                   chaos_spec("ok-now", ChaosPlan(behavior="ok"))]
        stats = ExperimentRunner(jobs=1).run(resumed)
        assert stats.disk_hits == 2
        assert stats.simulated == 1
        assert jobs.simulation_count() == 1

    def test_warm_rerun_after_failure_is_pure_hits(self, fresh_caches,
                                                   tmp_path):
        plan = ChaosPlan(behavior="flaky", fail_times=99,
                         state_file=str(tmp_path / "state"))
        specs = [count_spec(BENCH), chaos_spec("bad", plan)]
        policy = RetryPolicy(max_retries=0)
        with pytest.raises(RunnerError):
            ExperimentRunner(jobs=1, policy=policy).run(specs)
        models.clear_cache()
        jobs.reset_simulation_count()
        stats = ExperimentRunner(jobs=1, policy=policy).run(
            [count_spec(BENCH)])
        assert stats.disk_hits == 1
        assert jobs.simulation_count() == 0


class TestAttemptRecord:
    def test_json_round_trip_shape(self):
        record = AttemptRecord(0, "timeout", 1.23456, error="JobTimeout: x")
        assert record.to_json() == {
            "index": 0, "outcome": "timeout", "seconds": 1.2346,
            "error": "JobTimeout: x",
        }
        ok = AttemptRecord(1, "ok", 0.5)
        assert "error" not in ok.to_json()
