"""How the runner fails: a per-job timeout, a dying worker, and
checkpoint/resume through the persistent cache.

Each test monkeypatches :func:`repro.eval.jobs.simulate` so a scripted
job sleeps, kills its worker or raises ``KeyboardInterrupt``.  Pool
workers are forked, so they inherit the patch; every other job runs
the real simulation."""

import os
import time

import pytest

from repro.eval import jobs, models
from repro.eval.jobs import JobKey, JobSpec, count_spec, run_attempt
from repro.eval.profiling import stats_payload
from repro.eval.resilience import JobTimeout
from repro.eval.runner import ExperimentRunner, RunnerError

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


def scripted(name: str) -> JobSpec:
    """A job the patched :func:`jobs.simulate` acts out by ``name``."""
    return JobSpec(JobKey("scripted", name))


@pytest.fixture
def script(monkeypatch):
    """Patch ``jobs.simulate``: ``scripted`` jobs run the behaviour
    registered under their name, every other job simulates."""
    behaviours = {}
    real = jobs.simulate

    def simulate(spec, obs=None):
        if spec.key.model == "scripted":
            return behaviours[spec.key.benchmark]()
        return real(spec, obs)

    monkeypatch.setattr(jobs, "simulate", simulate)
    return behaviours


def sleep_for(seconds):
    def behaviour():
        time.sleep(seconds)
        return "ok"
    return behaviour


def exit_worker():
    os._exit(1)


def interrupt():
    raise KeyboardInterrupt("scripted interrupt")


class TestAttemptTimeout:
    def test_run_attempt_times_out_in_process(self, script):
        script["sleepy"] = sleep_for(30)
        t0 = time.perf_counter()
        with pytest.raises(JobTimeout):
            run_attempt(scripted("sleepy"), timeout_seconds=0.2)
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_rejects_bad_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            ExperimentRunner(timeout=timeout)

    def test_inline_timeout_kills_the_job_not_the_pass(self, fresh_caches,
                                                       script):
        # 3s: far below the 30s sleep, far above the count job even on
        # a heavily loaded single-core machine.
        script["sleepy"] = sleep_for(30)
        specs = [scripted("sleepy"), count_spec(BENCH)]
        t0 = time.perf_counter()
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=1, timeout=3.0).run(specs)
        assert time.perf_counter() - t0 < 20.0
        stats = excinfo.value.stats
        assert stats.timeouts == 1  # one attempt, no retry
        assert stats.simulated == 1  # the count job survived
        [failed] = [r for r in stats.records if r.source == "failed"]
        assert failed.key == scripted("sleepy").key
        assert "JobTimeout" in failed.error

    def test_pool_timeout_kills_the_worker_not_the_pool(self, fresh_caches,
                                                        script):
        script["sleepy"] = sleep_for(30)
        specs = [scripted("sleepy"), count_spec(BENCH)]
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=2, timeout=3.0).run(specs)
        stats = excinfo.value.stats
        assert stats.timeouts == 1
        assert stats.pool_rebuilds == 0  # SIGALRM, not a crash
        assert stats.simulated == 1
        sources = {r.key.model: r.source for r in stats.records}
        assert sources == {"scripted": "failed", "count": "simulated"}


class TestRetries:
    def test_zero_retries_fails_immediately(self, fresh_caches, script,
                                            tmp_path):
        """A job is a deterministic function of its key and the code, so
        a failing job runs once, inline or in the pool: a retry would
        only repeat it."""
        tally = tmp_path / "runs"

        def fail_and_count():
            with open(tally, "a", encoding="utf-8") as handle:
                handle.write("run\n")
            raise RuntimeError("scripted failure")

        script["bad"] = fail_and_count
        for n_jobs in (1, 2):
            models.clear_cache()
            tally.write_text("", encoding="utf-8")
            with pytest.raises(RunnerError) as excinfo:
                ExperimentRunner(jobs=n_jobs, use_disk_cache=False).run(
                    [scripted("bad"), count_spec(BENCH)])
            assert tally.read_text(encoding="utf-8") == "run\n"
            stats = excinfo.value.stats
            assert (stats.failed, stats.simulated) == (1, 1)


class TestPoolCrashRecovery:
    def test_worker_crash_fails_its_job_and_rebuilds_pool(
            self, fresh_caches, script):
        """A worker that dies after the other jobs finished fails its
        own job alone; the pass ends with every other job absorbed."""
        others = [count_spec(BENCH), count_spec("li")]
        disk = models.disk_cache()

        def exit_when_others_stored():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and any(
                    disk.load(spec.key) is jobs.MISS for spec in others):
                time.sleep(0.05)
            os._exit(1)

        script["boom"] = exit_when_others_stored
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=2).run([scripted("boom"), *others])
        err = excinfo.value
        stats = err.stats
        assert stats.pool_rebuilds == 1
        assert stats.simulated == 2
        assert [key for key, _ in err.failures] == [scripted("boom").key]
        assert "BrokenProcessPool" in str(err)

        # The other results were absorbed and are readable.
        jobs.reset_simulation_count()
        assert models.run_instruction_count(BENCH) > 0
        assert models.run_instruction_count("li") > 0
        assert jobs.simulation_count() == 0

    def test_crash_fails_jobs_in_flight_and_the_queue_goes_on(
            self, fresh_caches, script):
        """The job sharing the pool with a dying worker fails with it;
        the queued job runs on the rebuilt pool."""
        script["boom"] = exit_worker
        script["bystander"] = sleep_for(30)
        specs = [scripted("bystander"), scripted("boom"), count_spec(BENCH)]
        t0 = time.monotonic()
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=2).run(specs)
        assert time.monotonic() - t0 < 20.0
        stats = excinfo.value.stats
        assert stats.pool_rebuilds == 1
        sources = {r.key: r.source for r in stats.records}
        assert sources == {
            scripted("bystander").key: "failed",
            scripted("boom").key: "failed",
            count_spec(BENCH).key: "simulated",
        }
        for record in stats.records:
            if record.source == "failed":
                assert "BrokenProcessPool" in record.error \
                    or "BrokenExecutor" in record.error

    def test_pool_broken_at_submit_requeues_the_job(self, fresh_caches,
                                                     monkeypatch):
        """A pool that broke between two waits refuses the next
        submission; that job has not run, so it goes to the new pool."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.eval import runner

        pools = []

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)
                self.submits = 0

            def submit(self, *args, **kwargs):
                self.submits += 1
                if self is pools[0] and self.submits == 2:
                    raise BrokenProcessPool("broken between waits")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        specs = [count_spec(BENCH), count_spec("li"), count_spec("go")]
        stats = ExperimentRunner(jobs=2).run(specs)
        assert (stats.simulated, stats.failed) == (3, 0)
        assert stats.pool_rebuilds == 1 and len(pools) == 2

    def test_payload_carries_resilience_counters(self, fresh_caches, script):
        script["sleepy"] = sleep_for(30)
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner(jobs=1, timeout=3.0).run(
                [scripted("sleepy"), count_spec(BENCH)])
        payload = stats_payload(excinfo.value.stats, scale=1)
        assert payload["failed"] == 1
        assert payload["timeouts"] == 1
        assert payload["pool_rebuilds"] == 0
        [row] = [r for r in payload["per_job"] if r["source"] == "failed"]
        assert "JobTimeout" in row["error"]


class TestCheckpointResume:
    def test_interrupted_pass_resumes_from_disk(self, fresh_caches, script):
        """Jobs absorbed before an interrupt are never re-simulated:
        the disk cache is the checkpoint."""
        script["ctrl-c"] = interrupt
        # The runner keeps the caller's order, so the interrupt fires
        # after the two real jobs were absorbed.
        specs = [count_spec(BENCH), count_spec("li"), scripted("ctrl-c")]
        with pytest.raises(KeyboardInterrupt):
            ExperimentRunner(jobs=1).run(specs)

        # Resume in a cold process (memory cache dropped): completed
        # jobs are disk hits, only the unfinished job simulates.
        models.clear_cache()
        jobs.reset_simulation_count()
        resumed = [count_spec(BENCH), count_spec("li"), count_spec("go")]
        stats = ExperimentRunner(jobs=1).run(resumed)
        assert stats.disk_hits == 2
        assert stats.simulated == 1
        assert jobs.simulation_count() == 1

    def test_warm_rerun_after_failure_is_pure_hits(self, fresh_caches):
        specs = [count_spec(BENCH), JobSpec(JobKey("bogus", BENCH))]
        with pytest.raises(RunnerError):
            ExperimentRunner(jobs=1).run(specs)
        models.clear_cache()
        jobs.reset_simulation_count()
        stats = ExperimentRunner(jobs=1).run([count_spec(BENCH)])
        assert stats.disk_hits == 1
        assert jobs.simulation_count() == 0
