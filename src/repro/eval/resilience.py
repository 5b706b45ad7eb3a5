"""Execution-resilience primitives for the experiment runner.

Scaling the artifact sweep (and the fault campaigns of
:mod:`repro.fault.campaign`) to thousands of jobs means the runner must
survive the failure modes a long pass will eventually hit: a worker
OOM-killed or segfaulted mid-job, a job stuck past any reasonable wall
clock, and transient environment failures that succeed on retry.  This
module holds the policy and bookkeeping the hardened
:class:`repro.eval.runner.ExperimentRunner` runs under:

* :class:`RetryPolicy` — every knob in one dataclass: per-attempt
  wall-clock timeout, bounded retries with *deterministic* exponential
  backoff, the poison-quarantine threshold for pool crashes, and the
  pool-rebuild budget.  Surfaced as ``python -m repro.eval --timeout``
  / ``--retries`` (and the same flags on ``python -m repro.fault``;
  :func:`check_runner_args` validates them for both CLIs).
* :class:`AttemptRecord` — per-attempt provenance, recorded on every
  :class:`~repro.eval.runner.JobRecord` and folded into
  ``BENCH_runner.json``.
* :class:`JobTimeout` — raised *inside* the worker when an attempt
  exceeds the policy's wall clock: by a ``SIGALRM`` itimer on the main
  thread of the executing process (a pool worker or the inline
  driver), so a stuck job dies without taking the worker (or the pass)
  with it; off the main thread, or where ``SIGALRM`` is missing, by the
  post-hoc monotonic deadline in :func:`repro.eval.jobs.run_attempt` —
  same exception, same classification, but a wedged attempt cannot be
  interrupted there (see that docstring for the trade-off).
* :class:`ChaosPlan` — first-class synthetic failure jobs (sleep past
  the timeout, ``os._exit`` mid-job, wedge with ``SIGALRM`` blocked,
  fail-N-times-then-succeed via a state file).  The resilience tests
  and the CI ``fault-smoke`` job injure the runner with these on
  purpose; they run through the exact same job pipeline as real
  simulations.
"""

from __future__ import annotations

import argparse
import os
import signal
import time
from dataclasses import dataclass
from typing import Optional


class JobTimeout(TimeoutError):
    """One job attempt exceeded its per-attempt wall-clock budget."""


class ChaosError(RuntimeError):
    """A synthetic failure raised by a :class:`ChaosPlan` job."""


@dataclass(frozen=True)
class RetryPolicy:
    """Every resilience knob of one runner pass.

    The defaults keep the historical behaviour *augmented*: no timeout
    (simulations are open-ended unless the caller bounds them), two
    retries for transient failures, and poison quarantine after two
    consecutive pool crashes with the job in flight.
    """

    #: Per-attempt wall-clock budget in seconds; None disables timeout
    #: enforcement entirely.
    timeout_seconds: Optional[float] = None
    #: Re-attempts after a failed attempt (error or timeout).  0 restores
    #: fail-fast behaviour.
    max_retries: int = 2
    #: First retry waits this long; each further retry doubles it
    #: (deterministic exponential backoff — no jitter, so passes are
    #: reproducible).
    backoff_base_seconds: float = 0.25
    #: Ceiling on any single backoff wait.
    backoff_cap_seconds: float = 8.0
    #: A job in flight during this many *consecutive* pool crashes is
    #: quarantined as poison (recorded ``"failed"``, never resubmitted).
    poison_threshold: int = 2
    #: Pool rebuilds allowed within one pass before the runner gives up
    #: and aborts the remaining queue (victims tagged ``"aborted"``).
    max_pool_rebuilds: int = 5
    #: Driver-side hard deadline: a worker that has not answered after
    #: ``timeout_seconds * hard_timeout_factor`` is presumed wedged
    #: beyond ``SIGALRM``'s reach (blocked in C code) and its pool is
    #: killed and rebuilt.  Only active when ``timeout_seconds`` is set.
    hard_timeout_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.backoff_base_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.hard_timeout_factor < 1.0:
            raise ValueError("hard_timeout_factor must be >= 1.0")

    def backoff_seconds(self, retry_index: int) -> float:
        """Wait before retry ``retry_index`` (1-based), deterministic."""
        if retry_index < 1:
            return 0.0
        return min(
            self.backoff_base_seconds * (2.0 ** (retry_index - 1)),
            self.backoff_cap_seconds,
        )

    @property
    def hard_deadline_seconds(self) -> Optional[float]:
        """Driver-side give-up-on-the-worker deadline, or None."""
        if self.timeout_seconds is None:
            return None
        return self.timeout_seconds * self.hard_timeout_factor


def check_runner_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> None:
    """Reject bad runner flags with a usage error (exit code 2).

    Shared by ``python -m repro.eval`` and ``python -m repro.fault``:
    both take a workload ``scale``, ``--jobs``, ``--timeout`` and
    ``--retries``, and a bad value must stop the CLI before any
    simulation rather than surface later as a ``ValueError`` traceback
    from :class:`RetryPolicy` or the runner (or, for ``scale < 1``, as
    programs that never halt).
    """
    if args.scale < 1:
        parser.error("scale must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.retries < 0:
        parser.error("--retries must be >= 0")


@dataclass
class AttemptRecord:
    """Provenance of one attempt at one job.

    ``outcome`` is one of ``"ok"`` (returned a result), ``"error"`` (the
    job raised), ``"timeout"`` (exceeded the per-attempt wall clock) or
    ``"crash"`` (the worker process died with the job in flight).
    """

    index: int
    outcome: str
    seconds: float
    error: Optional[str] = None

    def to_json(self) -> dict:
        record = {
            "index": self.index,
            "outcome": self.outcome,
            "seconds": round(self.seconds, 4),
        }
        if self.error is not None:
            record["error"] = self.error
        return record


# ----------------------------------------------------------------------
# Synthetic failure jobs (chaos engineering for the runner itself).
# ----------------------------------------------------------------------

#: Behaviours a :class:`ChaosPlan` can request.
CHAOS_BEHAVIORS = ("ok", "raise", "exit", "sleep", "flaky", "interrupt",
                   "wedge")


@dataclass(frozen=True)
class ChaosPlan:
    """One synthetic job's scripted (mis)behaviour.

    * ``"ok"`` — sleep ``seconds`` (if any) and return ``"ok"``.
    * ``"raise"`` — raise :class:`ChaosError` every time.
    * ``"exit"`` — ``os._exit(exit_code)``: the worker process dies
      mid-job without unwinding, exactly like an OOM kill or segfault.
    * ``"sleep"`` — sleep ``seconds`` then return; pair with a policy
      timeout shorter than ``seconds`` to exercise the timeout path.
    * ``"flaky"`` — fail the first ``fail_times`` attempts (counted in
      ``state_file``, which survives process boundaries), then succeed.
    * ``"interrupt"`` — raise ``KeyboardInterrupt``, aborting the pass
      the way a real Ctrl-C would (checkpoint/resume tests).
    * ``"wedge"`` — block ``SIGALRM``, then sleep ``seconds``: a job stuck
      beyond the per-attempt itimer's reach, which only the runner's
      driver-side hard deadline can stop.  Bounded by ``seconds``, so a
      broken kill path shows up as a slow pass rather than a hang.
    """

    behavior: str
    seconds: float = 0.0
    exit_code: int = 1
    fail_times: int = 0
    state_file: str = ""

    def __post_init__(self) -> None:
        if self.behavior not in CHAOS_BEHAVIORS:
            raise ValueError(
                f"unknown chaos behavior {self.behavior!r}; "
                f"expected one of {CHAOS_BEHAVIORS}"
            )
        if self.behavior == "flaky" and not self.state_file:
            raise ValueError("flaky chaos requires a state_file")


def execute_chaos(plan: ChaosPlan) -> str:
    """Carry out one chaos job's scripted behaviour (the worker side)."""
    if plan.behavior == "wedge":
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            time.sleep(plan.seconds)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        return "ok"
    if plan.seconds > 0:
        time.sleep(plan.seconds)
    if plan.behavior in ("ok", "sleep"):
        return "ok"
    if plan.behavior == "raise":
        raise ChaosError("chaos: scripted failure")
    if plan.behavior == "interrupt":
        raise KeyboardInterrupt("chaos: scripted interrupt")
    if plan.behavior == "exit":
        os._exit(plan.exit_code)
    # "flaky": fail the first N attempts, tallied in a state file so the
    # count survives pool-worker process boundaries.
    attempts = 0
    try:
        with open(plan.state_file, "r", encoding="utf-8") as handle:
            attempts = int(handle.read().strip() or 0)
    except (OSError, ValueError):
        attempts = 0
    with open(plan.state_file, "w", encoding="utf-8") as handle:
        handle.write(str(attempts + 1))
    if attempts < plan.fail_times:
        raise ChaosError(
            f"chaos: flaky failure {attempts + 1}/{plan.fail_times}"
        )
    return "ok"


__all__ = [
    "AttemptRecord",
    "CHAOS_BEHAVIORS",
    "ChaosError",
    "ChaosPlan",
    "JobTimeout",
    "RetryPolicy",
    "check_runner_args",
    "execute_chaos",
]
