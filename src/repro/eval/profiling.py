"""Runner profiling: machine-readable timing of an artifact sweep.

Turns a :class:`repro.eval.runner.RunnerStats` into ``BENCH_runner.json``:
cold/warm wall-clock, the machine's CPU count next to the worker count
(so oversubscribed numbers read as what they are), a per-job breakdown
(key, provenance, wall/CPU/queue seconds) and the measured speedup
versus a one-process cold run of the same jobs (``null`` on warm passes
where nothing was simulated).

The file holds a bounded history of passes (oldest first), so a cold
sweep followed by a warm re-run records both the parallel speedup and
the zero-simulation warm behaviour.  Read the latest pass with::

    python -c "import json; print(json.load(open('BENCH_runner.json'))['passes'][-1])"
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Optional, Union

from repro.obs.session import obs_enabled, trace_dir
from repro.eval.jobs import code_fingerprint, job_label
from repro.eval.runner import RunnerStats

DEFAULT_BENCH_PATH = "BENCH_runner.json"


def stats_payload(stats: RunnerStats, scale: int,
                  report_seconds: Optional[float] = None) -> dict:
    """The JSON document describing one runner pass.

    When observability is enabled (:mod:`repro.obs`), each fresh
    simulation's :class:`~repro.obs.RunReport` is folded into its
    ``per_job`` row, so ``BENCH_runner.json`` carries the run's internal
    rates (removal fraction, IR-misp, backpressure, ...) next to its
    timing.  Failed jobs appear with ``source: "failed"`` and the
    worker's error string.
    """
    records = []
    for r in sorted(stats.records, key=lambda r: (-r.seconds, job_label(r.key))):
        record = {
            "job": job_label(r.key),
            "source": r.source,
            "seconds": round(r.seconds, 4),
            "cpu_seconds": round(r.cpu_seconds, 4),
            "queue_seconds": round(r.queue_seconds, 4),
        }
        if r.error is not None:
            record["error"] = r.error
        if r.report is not None:
            record["report"] = r.report.to_json()
        records.append(record)
    directory = trace_dir()
    payload = {
        # Provenance only; excluded from every golden comparison.
        "generated_unix": int(time.time()),  # selfcheck: ok(wall-clock)
        "python": platform.python_version(),
        "code_fingerprint": code_fingerprint(),
        "scale": scale,
        "jobs": stats.jobs,
        "cpu_count": stats.cpu_count,
        "workers": stats.workers,
        "requested_jobs": stats.requested,
        "unique_jobs": stats.deduplicated,
        "simulated": stats.simulated,
        "disk_hits": stats.disk_hits,
        "memory_hits": stats.memory_hits,
        "failed": stats.failed,
        "timeouts": stats.timeouts,
        "pool_rebuilds": stats.pool_rebuilds,
        "warm": stats.simulated == 0,
        "wall_clock_seconds": round(stats.wall_seconds, 3),
        "sequential_estimate_seconds": round(
            stats.sequential_estimate_seconds, 3),
        # null on a warm pass: nothing was simulated, so there is no
        # sequential baseline to claim a speedup against.
        "speedup_vs_sequential": (
            None if stats.speedup_vs_sequential is None
            else round(stats.speedup_vs_sequential, 3)),
        "observability": {
            "enabled": obs_enabled(),
            "trace_dir": str(directory) if directory is not None else None,
        },
        "per_job": records,
    }
    if report_seconds is not None:
        payload["report_render_seconds"] = round(report_seconds, 3)
    return payload


#: Passes retained in the bench file before the oldest are dropped.
HISTORY_LIMIT = 8


def write_bench(stats: RunnerStats, scale: int,
                path: Union[str, Path] = DEFAULT_BENCH_PATH,
                report_seconds: Optional[float] = None) -> Path:
    """Append this pass to ``BENCH_runner.json``; returns the path.

    An unreadable or differently-shaped existing file is replaced.
    """
    target = Path(path)
    doc = {"passes": []}
    try:
        existing = json.loads(target.read_text(encoding="utf-8"))
        if isinstance(existing, dict) and isinstance(existing.get("passes"), list):
            doc = existing
    except (OSError, ValueError):
        pass
    doc["passes"].append(stats_payload(stats, scale, report_seconds))
    doc["passes"] = doc["passes"][-HISTORY_LIMIT:]
    target.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return target
