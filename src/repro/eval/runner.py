"""Parallel experiment runner: fan simulation jobs out over processes.

The artifact suite's jobs (:func:`repro.eval.jobs.enumerate_artifact_jobs`)
are embarrassingly parallel, so the runner:

1. deduplicates the requested specs by :class:`~repro.eval.jobs.JobKey`;
2. satisfies what it can from the in-process and persistent caches;
3. fans the remaining cold jobs out over a
   ``concurrent.futures.ProcessPoolExecutor`` (``--jobs N``), longest
   expected jobs first so the pool drains evenly — expected durations
   come from the :class:`~repro.eval.oracle.DurationOracle`, which
   learns each job's measured CPU seconds across passes (static
   per-model weights bootstrap the first sweep);
4. stores every fresh result in both caches, making the subsequent
   report rendering (and the next cold start) pure cache hits.

``jobs=1`` runs inline — no pool, no pickling — and is the reference
the parallel path is tested against: results must be bit-identical.

The runner is **resilient** (:mod:`repro.eval.resilience`): each job
attempt runs under the :class:`~repro.eval.resilience.RetryPolicy`'s
wall-clock timeout (a ``SIGALRM`` itimer inside the executing process,
so a stuck job dies without taking its worker along), a worker wedged
beyond ``SIGALRM``'s reach is killed at the driver-side hard deadline,
failed attempts are retried with deterministic exponential backoff, a
crashed pool (worker OOM-killed or segfaulted: ``BrokenExecutor``) is
rebuilt and the innocent in-flight jobs requeued, and a job in flight
across ``poison_threshold`` consecutive crashes is quarantined as
poison instead of sinking the pass.  Because every completed job is absorbed
into the persistent :class:`~repro.eval.jobs.DiskCache` *as it
finishes*, an interrupted pass checkpoints itself: rerunning the same
specs resumes from the last absorbed job with zero re-simulation.

Per-job wall-clock, cache provenance and per-attempt outcomes are
recorded in a :class:`RunnerStats`, which :mod:`repro.eval.profiling`
turns into ``BENCH_runner.json``.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.eval import models
from repro.eval.jobs import (
    MISS,
    JobKey,
    JobSpec,
    job_label,
    run_attempt,
)
from repro.eval.oracle import DurationOracle
from repro.eval.resilience import AttemptRecord, JobTimeout, RetryPolicy
from repro.obs import RunReport


@dataclass
class JobRecord:
    """Provenance and timing of one job within a runner pass.

    ``seconds`` is the wall clock inside the worker (inflated when
    workers outnumber cores); ``cpu_seconds`` is the job's process CPU
    time, the contention-independent cost; ``queue_seconds`` is how
    long the job sat between the driver submitting it and the worker
    starting it (submission overhead plus the wait behind busy
    workers — the scheduling cost the duration-oracle ordering is
    there to shrink).  ``error`` is set when the
    job did not produce a result; ``source`` then distinguishes
    ``"failed"`` (the job itself raised, timed out, or was quarantined
    as poison) from ``"aborted"`` (an innocent victim: the pass gave up
    before the job could run, e.g. after exhausting the pool-rebuild
    budget).  ``attempts`` carries the per-attempt provenance whenever
    resilience machinery engaged (a retry, timeout, crash or failure);
    a clean first-attempt success leaves it empty to keep warm passes
    lean.  ``report`` is the job's observability aggregation
    (:class:`repro.obs.RunReport`), present only for fresh simulations
    run with observability enabled.
    """

    key: JobKey
    source: str  # "simulated" | "disk" | "memory" | "failed" | "aborted"
    seconds: float
    cpu_seconds: float = 0.0
    queue_seconds: float = 0.0
    error: Optional[str] = None
    report: Optional[RunReport] = None
    attempts: List[AttemptRecord] = field(default_factory=list)


class RunnerError(RuntimeError):
    """One or more jobs of a runner pass failed.

    Raised *after* the pass completes, so the surviving results are
    already absorbed into the caches and :attr:`stats` is fully
    populated (``wall_seconds`` included) with a ``"failed"``
    :class:`JobRecord` per casualty.  ``failures`` pairs each failed
    job's key with the exception its final attempt raised; ``aborted``
    lists the innocent victims the pass gave up on (their records carry
    ``source="aborted"``), so blame is attributed correctly.
    """

    def __init__(self, failures: List[Tuple[JobKey, BaseException]],
                 stats: "RunnerStats",
                 aborted: Optional[List[JobKey]] = None):
        self.failures = failures
        self.stats = stats
        self.aborted = list(aborted or [])
        shown = "; ".join(
            f"{job_label(key)}: {type(exc).__name__}: {exc}"
            for key, exc in failures[:3]
        )
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        victims = (
            f"; {len(self.aborted)} pending job(s) aborted"
            if self.aborted else ""
        )
        super().__init__(
            f"{len(failures)} of {stats.deduplicated} jobs failed: "
            f"{shown}{more}{victims}"
        )


@dataclass
class RunnerStats:
    """What one :meth:`ExperimentRunner.run` pass did."""

    jobs: int = 1
    #: Physical parallelism context: CPUs the machine reports, and the
    #: workers the pass actually used.  ``workers > cpu_count`` means
    #: the pool was oversubscribed — worker wall clocks are inflated by
    #: time-slicing and the wall-clock speedup is bounded by
    #: ``cpu_count``, not ``jobs``.
    cpu_count: int = 0
    workers: int = 0
    requested: int = 0
    deduplicated: int = 0
    simulated: int = 0
    disk_hits: int = 0
    memory_hits: int = 0
    failed: int = 0
    #: Innocent jobs the pass gave up on (``source="aborted"`` records).
    aborted: int = 0
    #: Attempts beyond the first, across all jobs.
    retried: int = 0
    #: Attempts that exceeded the per-attempt wall clock.
    timeouts: int = 0
    #: Times the process pool crashed and was rebuilt.
    pool_rebuilds: int = 0
    #: Jobs quarantined after repeated pool crashes with them in flight.
    poisoned: int = 0
    wall_seconds: float = 0.0
    records: List[JobRecord] = field(default_factory=list)

    @property
    def reports(self) -> List[RunReport]:
        """Every job's :class:`~repro.obs.RunReport`, when observability
        was enabled for the pass (fresh simulations only)."""
        return [r.report for r in self.records if r.report is not None]

    @property
    def sequential_estimate_seconds(self) -> float:
        """Sum of per-job CPU time: what a one-process cold run of the
        same work would cost (cache lookups excluded).  CPU time, not
        worker wall clock, so oversubscribing a small machine does not
        inflate the estimate."""
        return sum(
            r.cpu_seconds for r in self.records if r.source == "simulated"
        )

    @property
    def speedup_vs_sequential(self) -> Optional[float]:
        """None on a warm pass: with zero simulations the estimate is
        zero CPU seconds over pure cache-lookup wall clock, and the
        resulting 0.0x said "parallelism is broken" when it actually
        meant "there was nothing to parallelize"."""
        if self.simulated == 0 or self.wall_seconds <= 0.0:
            return None
        return self.sequential_estimate_seconds / self.wall_seconds


class _PendingJob:
    """Driver-side state of one not-yet-completed cold job."""

    __slots__ = ("spec", "attempt", "crash_count", "not_before", "attempts")

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.attempt = 0          # 0-based index of the next attempt
        self.crash_count = 0      # consecutive pool crashes while in flight
        self.not_before = 0.0     # monotonic time before which not to resubmit
        self.attempts: List[AttemptRecord] = []


class ExperimentRunner:
    """Run a batch of simulation jobs, in parallel, through the caches."""

    def __init__(self, jobs: int = 1, use_disk_cache: bool = True,
                 policy: Optional[RetryPolicy] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        cpus = os.cpu_count() or 1
        if jobs > cpus:
            # Shown once per call site (the warnings module's default
            # action), on stderr.
            warnings.warn(
                f"jobs={jobs} exceeds os.cpu_count()={cpus}: the workers "
                f"time-share {cpus} CPU(s), so this pass cannot beat "
                f"jobs={cpus} and may run slower than sequential",
                RuntimeWarning, stacklevel=2)
        self.jobs = jobs
        self.use_disk_cache = use_disk_cache
        self.policy = policy if policy is not None else RetryPolicy()

    def run(self, specs: Sequence[JobSpec]) -> RunnerStats:
        """Execute ``specs`` (deduplicated), warming both cache levels.

        Returns the pass's :class:`RunnerStats`; the results themselves
        are read back through :mod:`repro.eval.models` accessors.

        A job that fails (after its policy's retries) does not abort the
        pass: every other job still runs and is absorbed, the casualty
        is recorded as a ``"failed"`` :class:`JobRecord`, and one
        aggregated :class:`RunnerError` (carrying the fully-populated
        stats) is raised once the pass completes.  The ``jobs=1`` inline
        path behaves identically, minus the pool-crash machinery.
        """
        stats = RunnerStats(jobs=self.jobs, requested=len(specs),
                            cpu_count=os.cpu_count() or 1)
        failures: List[Tuple[JobKey, BaseException]] = []
        aborted: List[JobKey] = []
        t0 = time.perf_counter()

        unique: Dict[JobKey, JobSpec] = {}
        for spec in specs:
            unique.setdefault(spec.key, spec)
        stats.deduplicated = len(unique)

        disk = models.disk_cache() if self.use_disk_cache else None
        cold: List[JobSpec] = []
        for key, spec in unique.items():
            if key in models._CACHE:
                stats.memory_hits += 1
                stats.records.append(JobRecord(key, "memory", 0.0))
                continue
            if disk is not None:
                hit = disk.load(key)
                if hit is not MISS:
                    models._CACHE[key] = hit
                    stats.disk_hits += 1
                    stats.records.append(JobRecord(key, "disk", 0.0))
                    continue
            cold.append(spec)

        if cold:
            # Longest expected job first, by learned CPU seconds (static
            # model weights for jobs never measured), so the pool drains
            # evenly instead of idling behind one late-submitted biggie.
            oracle = DurationOracle.for_cache_root(
                disk.root if disk is not None else None
            )
            cold[:] = oracle.rank_longest_first(cold)
            if self.jobs == 1:
                self._run_inline(cold, disk, stats, failures, oracle)
            else:
                self._run_pool(cold, disk, stats, failures, aborted, oracle)
            oracle.save()

        stats.wall_seconds = time.perf_counter() - t0
        if failures:
            raise RunnerError(failures, stats, aborted)
        return stats

    # ------------------------------------------------------------------
    # Inline path (jobs=1): attempts with timeout + retry, no pool.
    # ------------------------------------------------------------------

    def _run_inline(self, cold: List[JobSpec], disk, stats: RunnerStats,
                    failures: List[Tuple[JobKey, BaseException]],
                    oracle: DurationOracle) -> None:
        policy = self.policy
        stats.workers = 1
        for spec in cold:
            job = _PendingJob(spec)
            while True:
                a0 = time.perf_counter()
                submitted = time.monotonic()
                try:
                    result, seconds, cpu, started, report = run_attempt(
                        spec, policy.timeout_seconds
                    )
                except JobTimeout as exc:
                    stats.timeouts += 1
                    retrying = self._attempt_failed(
                        job, "timeout", exc, time.perf_counter() - a0,
                        stats, failures,
                    )
                except Exception as exc:
                    retrying = self._attempt_failed(
                        job, "error", exc, time.perf_counter() - a0,
                        stats, failures,
                    )
                else:
                    if job.attempts:
                        job.attempts.append(AttemptRecord(
                            job.attempt, "ok", time.perf_counter() - a0))
                    self._absorb(spec.key, result, seconds, cpu,
                                 max(0.0, started - submitted), report,
                                 disk, stats, oracle, job.attempts)
                    break
                if not retrying:
                    break
                wait_s = policy.backoff_seconds(job.attempt)
                if wait_s > 0:
                    time.sleep(wait_s)

    # ------------------------------------------------------------------
    # Pool path: bounded in-flight submission over a rebuildable pool.
    # ------------------------------------------------------------------

    def _run_pool(self, cold: List[JobSpec], disk, stats: RunnerStats,
                  failures: List[Tuple[JobKey, BaseException]],
                  aborted: List[JobKey],
                  oracle: DurationOracle) -> None:
        """Drain ``cold`` through a process pool, surviving crashes.

        At most ``workers`` jobs are in flight at once, so when the pool
        crashes the suspect set is exactly the in-flight jobs: each
        suspect's crash count rises and it is requeued (until
        ``poison_threshold`` quarantines it); queued jobs were never
        submitted and are requeued blamelessly.  The pool itself is
        rebuilt up to ``max_pool_rebuilds`` times, after which the pass
        gives up: suspects are recorded ``"failed"``, never-run victims
        ``"aborted"``.  A worker silent past the policy's hard deadline
        is killed, which breaks the pool and sends the same crash path
        after it with the blame pinned on the overdue job.
        """
        policy = self.policy
        workers = min(self.jobs, len(cold))
        stats.workers = workers
        queue: Deque[_PendingJob] = deque(_PendingJob(s) for s in cold)
        inflight: Dict[Future, Tuple[_PendingJob, float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        rebuilds = 0
        hard_blamed: Optional[_PendingJob] = None

        try:
            while queue or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)
                now = time.monotonic()

                # Submit ready jobs up to the in-flight bound.  Crash
                # suspects (in flight during a previous pool crash) are
                # *probed*: resubmitted strictly alone, so a repeat
                # crash is unambiguously theirs and an innocent
                # bystander is never blamed twice by collocation.
                probing = any(
                    job.crash_count > 0 for job, _ in inflight.values()
                )
                while not probing and len(inflight) < workers:
                    ready = [i for i, job in enumerate(queue)
                             if job.not_before <= now]
                    if not ready:
                        break
                    index = next(
                        (i for i in ready if queue[i].crash_count == 0),
                        None,
                    )
                    if index is None:
                        # Only suspects remain: probe one, alone.
                        if inflight:
                            break  # drain the clean jobs first
                        index = ready[0]
                        probing = True
                    queue.rotate(-index)
                    job = queue.popleft()
                    queue.rotate(index)
                    future = pool.submit(run_attempt, job.spec,
                                         policy.timeout_seconds)
                    # Submit-time monotonic stamp: the worker reports
                    # its own start-time reading back, and the
                    # difference is the job's queue delay.
                    inflight[future] = (job, time.monotonic())

                if not inflight:
                    # Everything queued is backing off: sleep it out.
                    time.sleep(max(
                        0.005,
                        min(job.not_before for job in queue) - now,
                    ))
                    continue

                done, _ = wait(
                    inflight, timeout=self._wait_timeout(inflight, queue, now),
                    return_when=FIRST_COMPLETED,
                )

                crashed: List[Tuple[_PendingJob, BaseException, float]] = []
                for future in done:
                    job, submitted = inflight.pop(future)
                    elapsed = time.monotonic() - submitted
                    try:
                        result, seconds, cpu, started, report = \
                            future.result()
                    except JobTimeout as exc:
                        stats.timeouts += 1
                        if self._attempt_failed(job, "timeout", exc, elapsed,
                                                stats, failures):
                            job.not_before = (
                                time.monotonic()
                                + policy.backoff_seconds(job.attempt)
                            )
                            queue.append(job)
                    except BrokenExecutor as exc:
                        crashed.append((job, exc, elapsed))
                    except Exception as exc:
                        if self._attempt_failed(job, "error", exc, elapsed,
                                                stats, failures):
                            job.not_before = (
                                time.monotonic()
                                + policy.backoff_seconds(job.attempt)
                            )
                            queue.append(job)
                    else:
                        if job.attempts:
                            job.attempts.append(AttemptRecord(
                                job.attempt, "ok", elapsed))
                        self._absorb(job.spec.key, result, seconds, cpu,
                                     max(0.0, started - submitted), report,
                                     disk, stats, oracle, job.attempts)

                if crashed or pool._broken:
                    # The pool is dead: every remaining in-flight future
                    # is doomed — fold them into the suspect set.
                    for future, (job, submitted) in list(inflight.items()):
                        crashed.append((
                            job,
                            BrokenExecutor(
                                "worker pool crashed with the job in flight"
                            ),
                            time.monotonic() - submitted,
                        ))
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    rebuilds += 1
                    stats.pool_rebuilds += 1
                    if rebuilds > policy.max_pool_rebuilds:
                        self._abort(crashed, queue, stats, failures, aborted)
                        return
                    self._handle_crash(crashed, queue, stats, failures,
                                       hard_blamed)
                    hard_blamed = None
                    continue

                # Driver-side hard deadline: a worker silent past the
                # policy's hard deadline is presumed wedged beyond
                # SIGALRM's reach; kill its pool and let the crash path
                # attribute blame to it alone.
                hard = policy.hard_deadline_seconds
                if hard is not None and inflight:
                    now = time.monotonic()
                    overdue = [
                        (job, submitted)
                        for job, submitted in inflight.values()
                        if now - submitted > hard
                    ]
                    if overdue:
                        hard_blamed = overdue[0][0]
                        for process in list(pool._processes.values()):
                            try:
                                process.kill()
                            except OSError:
                                pass
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _wait_timeout(self, inflight, queue, now: float) -> Optional[float]:
        """How long :func:`wait` may block: until the next backoff expiry
        or the next hard deadline, whichever is sooner."""
        deadlines = []
        hard = self.policy.hard_deadline_seconds
        if hard is not None:
            deadlines.extend(
                submitted + hard for _, submitted in inflight.values()
            )
        deadlines.extend(
            job.not_before for job in queue if job.not_before > now
        )
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - now)

    def _handle_crash(self, crashed, queue, stats: RunnerStats,
                      failures, hard_blamed: Optional[_PendingJob]) -> None:
        """Attribute one pool crash to its in-flight suspects.

        Every suspect's consecutive-crash count rises (unless a
        driver-side hard timeout already pinned blame on one job, in
        which case the others are innocent bystanders we killed
        ourselves); a suspect reaching ``poison_threshold`` is
        quarantined, the rest are requeued behind their backoff.
        """
        policy = self.policy
        now = time.monotonic()
        for job, exc, elapsed in crashed:
            blamed = hard_blamed is None or job is hard_blamed
            outcome = "crash"
            if job is hard_blamed:
                outcome = "timeout"
                stats.timeouts += 1
                exc = JobTimeout(
                    f"{job_label(job.spec.key)}: no response within the "
                    f"hard deadline ({policy.hard_deadline_seconds:.1f}s); "
                    "worker killed"
                )
            if blamed:
                job.crash_count += 1
            job.attempts.append(AttemptRecord(
                job.attempt, outcome, elapsed,
                error=f"{type(exc).__name__}: {exc}",
            ))
            if job.crash_count >= policy.poison_threshold:
                stats.poisoned += 1
                poison_exc = RuntimeError(
                    f"poison job: in flight during {job.crash_count} "
                    f"consecutive pool crashes (last: {exc})"
                )
                self._record_failure(job.spec.key, poison_exc, failures,
                                     stats, job.attempts)
                continue
            job.attempt += 1
            stats.retried += 1
            job.not_before = now + policy.backoff_seconds(job.attempt)
            queue.append(job)

    def _abort(self, crashed, queue, stats: RunnerStats, failures,
               aborted: List[JobKey]) -> None:
        """The pool-rebuild budget is exhausted: give up on the pass.

        Crash suspects are the candidate culprits — recorded
        ``"failed"`` — while the jobs still waiting in the queue never
        ran at all and are tagged ``"aborted"`` so they are not blamed.
        """
        for job, exc, elapsed in crashed:
            job.attempts.append(AttemptRecord(
                job.attempt, "crash", elapsed,
                error=f"{type(exc).__name__}: {exc}",
            ))
            final = RuntimeError(
                f"pool-rebuild budget exhausted "
                f"({self.policy.max_pool_rebuilds}) with the job in "
                f"flight (last: {exc})"
            )
            self._record_failure(job.spec.key, final, failures, stats,
                                 job.attempts)
        while queue:
            job = queue.popleft()
            aborted.append(job.spec.key)
            stats.aborted += 1
            stats.records.append(JobRecord(
                job.spec.key, "aborted", 0.0,
                error="aborted: pool-rebuild budget exhausted before the "
                      "job could run",
                attempts=job.attempts,
            ))

    # ------------------------------------------------------------------
    # Shared bookkeeping.
    # ------------------------------------------------------------------

    def _attempt_failed(self, job: _PendingJob, outcome: str,
                        exc: BaseException, elapsed: float,
                        stats: RunnerStats, failures) -> bool:
        """Record one failed attempt; returns True when it will retry."""
        job.attempts.append(AttemptRecord(
            job.attempt, outcome, elapsed,
            error=f"{type(exc).__name__}: {exc}",
        ))
        if job.attempt < self.policy.max_retries:
            job.attempt += 1
            stats.retried += 1
            return True
        self._record_failure(job.spec.key, exc, failures, stats,
                             job.attempts)
        return False

    @staticmethod
    def _record_failure(key: JobKey, exc: BaseException,
                        failures: List[Tuple[JobKey, BaseException]],
                        stats: RunnerStats,
                        attempts: Optional[List[AttemptRecord]] = None) -> None:
        failures.append((key, exc))
        stats.failed += 1
        stats.records.append(
            JobRecord(key, "failed", 0.0,
                      error=f"{type(exc).__name__}: {exc}",
                      attempts=list(attempts or []))
        )

    @staticmethod
    def _absorb(key: JobKey, result, seconds: float, cpu_seconds: float,
                queue_seconds: float, report: Optional[RunReport], disk,
                stats: RunnerStats, oracle: DurationOracle,
                attempts: Optional[List[AttemptRecord]] = None) -> None:
        models._CACHE[key] = result
        if disk is not None:
            disk.store(key, result)
        oracle.observe(key, cpu_seconds)
        stats.simulated += 1
        stats.records.append(
            JobRecord(key, "simulated", seconds, cpu_seconds, queue_seconds,
                      report=report, attempts=list(attempts or []))
        )


def run_artifact_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    use_disk_cache: bool = True,
    policy: Optional[RetryPolicy] = None,
) -> RunnerStats:
    """Convenience wrapper: one runner pass over ``specs``."""
    return ExperimentRunner(
        jobs=jobs, use_disk_cache=use_disk_cache, policy=policy,
    ).run(specs)


__all__ = [
    "ExperimentRunner",
    "JobRecord",
    "RunnerError",
    "RunnerStats",
    "run_artifact_jobs",
]
