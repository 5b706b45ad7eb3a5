"""The runner's failure vocabulary and the CLIs' shared flag checks.

:class:`repro.eval.runner.ExperimentRunner` runs each job once.  Two
things here support that:

* :class:`JobTimeout` — raised *inside* the executing process (a pool
  worker or the inline driver) by a ``SIGALRM`` itimer when a job
  overruns the runner's ``timeout`` (``--timeout`` on both
  ``python -m repro.eval`` and ``python -m repro.fault``), so a stuck
  job fails while its worker and the pass go on.  See
  :func:`repro.eval.jobs.run_attempt`.
* :func:`check_runner_args` — the usage checks both CLIs share.
"""

from __future__ import annotations

import argparse


class JobTimeout(TimeoutError):
    """One job exceeded the runner's wall-clock budget."""


def check_runner_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> None:
    """Reject bad runner flags with a usage error (exit code 2).

    Shared by ``python -m repro.eval`` and ``python -m repro.fault``:
    both take a workload ``scale``, ``--jobs`` and ``--timeout``, and a
    bad value must stop the CLI before any simulation rather than
    surface later as a ``ValueError`` traceback from the runner (or,
    for ``scale < 1``, as programs that never halt).
    """
    if args.scale < 1:
        parser.error("scale must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")


__all__ = ["JobTimeout", "check_runner_args"]
