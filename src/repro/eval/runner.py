"""Parallel experiment runner: fan simulation jobs out over processes.

The artifact suite's jobs (:func:`repro.eval.jobs.enumerate_artifact_jobs`)
are embarrassingly parallel, so the runner:

1. deduplicates the requested specs by :class:`~repro.eval.jobs.JobKey`;
2. satisfies what it can from the in-process and persistent caches;
3. runs each remaining cold job once, in the order the caller gave,
   inline (``jobs=1``) or over a ``concurrent.futures.ProcessPoolExecutor``
   with at most ``jobs`` jobs in flight;
4. stores every fresh result in both caches as it finishes, making the
   subsequent report rendering (and the next cold start) pure cache
   hits, and letting an interrupted pass resume from the last absorbed
   job with zero re-simulation.

``jobs=1`` runs inline — no pool, no pickling — and is the reference
the parallel path is tested against: results must be bit-identical.

Submission order is the caller's: a job is a deterministic function of
its key and the code, and some callers depend on the order (the fault
campaign submits strike points so that each process's
:class:`repro.fault.coverage.CleanTimeline` serves them from its
checkpoints in ascending order).  A job that raises, or overruns the optional ``timeout``
(a ``SIGALRM`` itimer in the executing process, see
:func:`repro.eval.jobs.run_attempt`), fails alone and is not retried:
a retry would only repeat it.  A worker that dies (OOM kill, segfault)
breaks the pool; the jobs in flight with it fail with a
``BrokenExecutor`` error, the pool is rebuilt and the queue goes on.
Every crash fails at least one job, so a pass always ends.

Per-job wall-clock, CPU and queue seconds and cache provenance are
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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval import models
from repro.eval.jobs import MISS, JobKey, JobSpec, job_label, run_attempt
from repro.eval.resilience import JobTimeout
from repro.obs import RunReport


@dataclass
class JobRecord:
    """Provenance and timing of one job within a runner pass.

    ``seconds`` is the wall clock inside the worker (inflated when
    workers outnumber cores); ``cpu_seconds`` is the job's process CPU
    time, the contention-independent cost; ``queue_seconds`` is how
    long the job sat between the driver submitting it and the worker
    starting it.  ``error`` is set when the job did not produce a
    result (``source="failed"``: it raised, timed out, or its worker
    died).  ``report`` is the job's observability aggregation
    (:class:`repro.obs.RunReport`), present only for fresh simulations
    run with observability enabled.
    """

    key: JobKey
    source: str  # "simulated" | "disk" | "memory" | "failed"
    seconds: float
    cpu_seconds: float = 0.0
    queue_seconds: float = 0.0
    error: Optional[str] = None
    report: Optional[RunReport] = None


class RunnerError(RuntimeError):
    """One or more jobs of a runner pass failed.

    Raised *after* the pass completes, so the surviving results are
    already absorbed into the caches and :attr:`stats` is fully
    populated (``wall_seconds`` included) with a ``"failed"``
    :class:`JobRecord` per casualty.  ``failures`` pairs each failed
    job's key with the exception it raised.
    """

    def __init__(self, failures: List[Tuple[JobKey, BaseException]],
                 stats: "RunnerStats"):
        self.failures = failures
        self.stats = stats
        shown = "; ".join(
            f"{job_label(key)}: {type(exc).__name__}: {exc}"
            for key, exc in failures[:3]
        )
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{len(failures)} of {stats.deduplicated} jobs failed: "
            f"{shown}{more}"
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
    #: Jobs that exceeded the runner's wall-clock ``timeout``.
    timeouts: int = 0
    #: Times a worker died and the process pool was rebuilt.
    pool_rebuilds: int = 0
    wall_seconds: float = 0.0
    records: List[JobRecord] = field(default_factory=list)

    def fold(self, other: "RunnerStats") -> None:
        """Add ``other``, a later pass of the same runner, to this one:
        counts, wall seconds and records add up, ``workers`` is the
        larger of the two."""
        self.workers = max(self.workers, other.workers)
        self.requested += other.requested
        self.deduplicated += other.deduplicated
        self.simulated += other.simulated
        self.disk_hits += other.disk_hits
        self.memory_hits += other.memory_hits
        self.failed += other.failed
        self.timeouts += other.timeouts
        self.pool_rebuilds += other.pool_rebuilds
        self.wall_seconds += other.wall_seconds
        self.records.extend(other.records)

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


class ExperimentRunner:
    """Run a batch of simulation jobs, in parallel, through the caches.

    ``timeout`` is each job's wall-clock budget in seconds (None: no
    budget); a job past it fails with
    :class:`~repro.eval.resilience.JobTimeout`.
    """

    def __init__(self, jobs: int = 1, use_disk_cache: bool = True,
                 timeout: Optional[float] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
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
        self.timeout = timeout

    def run(self, specs: Sequence[JobSpec]) -> RunnerStats:
        """Execute ``specs`` (deduplicated), warming both cache levels.

        Cold jobs run once each, in the order of ``specs``.  Returns the
        pass's :class:`RunnerStats`; the results themselves are read
        back through :mod:`repro.eval.models` accessors.

        A job that fails does not abort the pass: every other job still
        runs and is absorbed, the casualty is recorded as a ``"failed"``
        :class:`JobRecord`, and one aggregated :class:`RunnerError`
        (carrying the fully-populated stats) is raised once the pass
        completes.
        """
        stats = RunnerStats(jobs=self.jobs, requested=len(specs),
                            cpu_count=os.cpu_count() or 1)
        failures: List[Tuple[JobKey, BaseException]] = []
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

        if cold and self.jobs == 1:
            self._run_inline(cold, disk, stats, failures)
        elif cold:
            self._run_pool(cold, disk, stats, failures)

        stats.wall_seconds = time.perf_counter() - t0
        if failures:
            raise RunnerError(failures, stats)
        return stats

    def _run_inline(self, cold: List[JobSpec], disk, stats: RunnerStats,
                    failures: List[Tuple[JobKey, BaseException]]) -> None:
        stats.workers = 1
        for spec in cold:
            submitted = time.monotonic()
            try:
                outcome = run_attempt(spec, self.timeout)
            except Exception as exc:
                self._fail(spec.key, exc, stats, failures)
            else:
                self._absorb(spec.key, outcome, submitted, disk, stats)

    def _run_pool(self, cold: List[JobSpec], disk, stats: RunnerStats,
                  failures: List[Tuple[JobKey, BaseException]]) -> None:
        """Drain ``cold`` through a process pool, ``workers`` at a time.

        Bounding the jobs in flight keeps submission in the caller's
        order and makes a crash's casualties exactly the jobs in flight
        when the pool broke.
        """
        workers = min(self.jobs, len(cold))
        stats.workers = workers
        queue = deque(cold)
        inflight: Dict[Future, Tuple[JobSpec, float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while queue or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)
                broken = False
                while queue and len(inflight) < workers:
                    spec = queue.popleft()
                    try:
                        future = pool.submit(run_attempt, spec, self.timeout)
                    except BrokenExecutor:
                        # A worker died since the last wait; this job
                        # has not run, so it waits for the new pool.
                        queue.appendleft(spec)
                        broken = True
                        break
                    inflight[future] = (spec, time.monotonic())
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    spec, submitted = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor as exc:
                        broken = True
                        self._fail(spec.key, exc, stats, failures)
                    except Exception as exc:
                        self._fail(spec.key, exc, stats, failures)
                    else:
                        self._absorb(spec.key, outcome, submitted, disk,
                                     stats)
                if broken:
                    # A dead worker dooms every job still in flight.
                    for spec, _ in inflight.values():
                        self._fail(spec.key, BrokenExecutor(
                            "worker pool crashed with the job in flight"
                        ), stats, failures)
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    stats.pool_rebuilds += 1
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _fail(key: JobKey, exc: BaseException, stats: RunnerStats,
              failures: List[Tuple[JobKey, BaseException]]) -> None:
        if isinstance(exc, JobTimeout):
            stats.timeouts += 1
        failures.append((key, exc))
        stats.failed += 1
        stats.records.append(JobRecord(
            key, "failed", 0.0, error=f"{type(exc).__name__}: {exc}"))

    @staticmethod
    def _absorb(key: JobKey, outcome, submitted: float, disk,
                stats: RunnerStats) -> None:
        """Store one fresh result in both caches and record it.

        ``submitted`` is the driver's monotonic clock at submission; the
        worker reports its own start reading (the clock is system-wide),
        and the difference is the job's queue delay."""
        result, seconds, cpu_seconds, started, report = outcome
        models._CACHE[key] = result
        if disk is not None:
            disk.store(key, result)
        stats.simulated += 1
        stats.records.append(JobRecord(
            key, "simulated", seconds, cpu_seconds,
            max(0.0, started - submitted), report=report))


def run_artifact_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    use_disk_cache: bool = True,
    timeout: Optional[float] = None,
) -> RunnerStats:
    """Convenience wrapper: one runner pass over ``specs``."""
    return ExperimentRunner(
        jobs=jobs, use_disk_cache=use_disk_cache, timeout=timeout,
    ).run(specs)


__all__ = [
    "ExperimentRunner",
    "JobRecord",
    "RunnerError",
    "RunnerStats",
    "run_artifact_jobs",
]
