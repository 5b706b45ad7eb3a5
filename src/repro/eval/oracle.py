"""Duration oracle: learned per-job cost estimates for LJF scheduling.

The runner submits cold jobs longest-first so a nearly-drained pool is
never left waiting on one big straggler.  That needs a duration
estimate *before* the job runs.  The original heuristic was a static
per-model weight table; this oracle replaces it with measured per-job
CPU seconds, learned across passes (exponentially weighted moving
average) and persisted next to the disk cache, so every cold sweep
after the first orders by what jobs actually cost on this machine.

Estimates are keyed by a digest of the :class:`~repro.eval.jobs.JobKey`
alone — deliberately **not** the code-version fingerprint that keys
result-cache entries.  Editing the simulator invalidates every cached
result, but the *relative* cost of jobs barely moves; a fresh cold
sweep after a code change is exactly when good ordering matters most.

Jobs never seen before fall back to the static model weights, scaled by
the median of the learned durations so unknown jobs sort amongst the
known ones instead of all landing at one end of the queue.

Many processes may share one cache root (parallel sweeps, plain
concurrent invocations), so :meth:`DurationOracle.save` is
**read-merge-write**: it reloads the on-disk durations under an
advisory file lock, folds in only the keys this oracle actually
observed, and atomically replaces the file — a concurrent observer's
learning is merged, never clobbered by last-writer-wins.
"""

from __future__ import annotations

import contextlib
import json
import os
from hashlib import sha256
from pathlib import Path
from dataclasses import replace
from statistics import median
from typing import Dict, Iterator, Optional, Set, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.eval.jobs import JobKey, unique_tmp_path
from repro.fingerprint import canonical

#: Fallback relative cost of each job kind, used for jobs with no
#: recorded duration (e.g. the first-ever cold sweep).
MODEL_WEIGHT = {"cmp": 4.0, "fault": 3.0, "finj": 3.0, "ss128": 2.0,
                "ss64": 2.0, "count": 1.0, "chaos": 1.0}

#: EWMA smoothing: new observations dominate, because per-job cost
#: drifts mostly through deliberate simulator optimization — which
#: should reflect in the ordering quickly, not after many passes.
EWMA_ALPHA = 0.7

#: File name inside the disk-cache root.
ORACLE_FILENAME = "durations.json"


def job_digest(key: JobKey) -> str:
    """Stable identity of one job for duration bookkeeping."""
    return sha256(repr(canonical(key)).encode("utf-8")).hexdigest()[:16]


def family_digest(key: JobKey) -> str:
    """Identity of the job *family*: the key stripped of its config
    fingerprint.  A config tweak re-fingerprints the job (cold cache)
    but barely moves its cost; family entries let the re-fingerprinted
    job inherit the old configuration's learned duration instead of
    dropping back to the static weights.  The ``f:`` prefix keeps
    family entries disjoint from exact digests in the persisted file
    (old files simply have none)."""
    stripped = replace(key, config_fingerprint="")
    return "f:" + sha256(
        repr(canonical(stripped)).encode("utf-8")
    ).hexdigest()[:16]


class DurationOracle:
    """EWMA of per-job CPU seconds, persisted as JSON.

    With ``path=None`` the oracle is in-memory only (disk cache
    disabled): estimates still improve within the pass's process but
    nothing is written.  Loads are defensive — a corrupt, truncated or
    differently-shaped file degrades to an empty oracle, never fatal,
    matching the :class:`~repro.eval.jobs.DiskCache` contract.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None):
        self.path = Path(path) if path is not None else None
        self._durations: Dict[str, float] = {}
        #: Digests this oracle observed since the last save: the only
        #: keys :meth:`save` is entitled to write back.
        self._dirty_keys: Set[str] = set()
        if self.path is not None:
            self._durations = _read_durations(self.path)
        #: Per-key snapshot of what the file held when we last read or
        #: wrote it; lets :meth:`save` tell "the disk still says what we
        #: started from" apart from "another process learned meanwhile".
        self._baseline: Dict[str, float] = dict(self._durations)

    @classmethod
    def for_cache_root(
        cls, root: Optional[Union[str, os.PathLike]]
    ) -> "DurationOracle":
        """The oracle persisted under a disk-cache root (None = memory)."""
        if root is None:
            return cls(None)
        return cls(Path(root) / ORACLE_FILENAME)

    def __len__(self) -> int:
        """Number of exactly-learned jobs (family entries excluded)."""
        return sum(1 for k in self._durations if not k.startswith("f:"))

    # ------------------------------------------------------------------

    def estimate(self, key: JobKey) -> float:
        """Expected CPU seconds of ``key`` (sort key for LJF submission).

        Unknown jobs estimate at their static model weight times the
        median learned duration, so a never-seen heavyweight model still
        sorts ahead of measured lightweights.
        """
        durations = self._durations
        learned = durations.get(job_digest(key))
        if learned is not None:
            return learned
        learned = durations.get(family_digest(key))
        if learned is not None:
            return learned
        exact = [v for k, v in durations.items() if not k.startswith("f:")]
        scale = median(exact) if exact else 1.0
        return MODEL_WEIGHT.get(key.model, 1.0) * scale

    def rank_longest_first(self, specs):
        """``specs`` sorted longest-expected-first (stable).

        The runner's LJF submission order: draining the expensive jobs
        first keeps a pool from idling behind one straggler discovered
        late.
        """
        return sorted(specs, key=lambda s: self.estimate(s.key),
                      reverse=True)

    def observe(self, key: JobKey, cpu_seconds: float) -> None:
        """Fold one fresh simulation's measured CPU time into the EWMA."""
        if cpu_seconds <= 0.0:
            return
        for digest in (job_digest(key), family_digest(key)):
            previous = self._durations.get(digest)
            if previous is None:
                self._durations[digest] = cpu_seconds
            else:
                self._durations[digest] = (
                    EWMA_ALPHA * cpu_seconds + (1.0 - EWMA_ALPHA) * previous
                )
            self._dirty_keys.add(digest)

    def save(self) -> None:
        """Persist with read-merge-write; no-op when unchanged,
        in-memory, or the cache directory is unwritable (degrades like
        DiskCache.store).

        Two processes finishing sweeps concurrently must both keep
        their learning: under an advisory lock the on-disk durations
        are reloaded, only *this* oracle's dirty keys are folded in
        (a key another process updated meanwhile is EWMA-combined, not
        overwritten), and the merge is atomically replaced.  The merged
        view — including the other process's keys — is adopted
        in-memory, so subsequent estimates benefit from it too.
        """
        if self.path is None or not self._dirty_keys:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return
        with _locked(self.path):
            on_disk = _read_durations(self.path)
            merged = dict(on_disk)
            for digest in sorted(self._dirty_keys):
                ours = self._durations.get(digest)
                if ours is None:
                    continue
                theirs = on_disk.get(digest)
                if theirs is None or theirs == self._baseline.get(digest):
                    # Nobody else touched the key: our EWMA stands.
                    merged[digest] = ours
                else:
                    # A concurrent observer updated it after our read:
                    # fold our estimate into theirs as one more
                    # observation instead of clobbering it.
                    merged[digest] = (
                        EWMA_ALPHA * ours + (1.0 - EWMA_ALPHA) * theirs
                    )
            tmp = unique_tmp_path(self.path)
            try:
                tmp.write_text(
                    json.dumps(merged, sort_keys=True), encoding="utf-8"
                )
                os.replace(tmp, self.path)
            except OSError:
                try:
                    tmp.unlink()
                except OSError:
                    pass
                return
        self._durations = dict(merged)
        self._baseline = dict(merged)
        self._dirty_keys.clear()


def _read_durations(path: Path) -> Dict[str, float]:
    """Defensively read a durations file: {} on any corruption."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict):
        return {}
    return {
        str(k): float(v) for k, v in raw.items()
        if isinstance(v, (int, float)) and v > 0
    }


@contextlib.contextmanager
def _locked(path: Path) -> Iterator[None]:
    """Advisory exclusive lock serializing read-merge-write cycles.

    Uses ``flock`` on a sibling ``.lock`` file where available; on
    platforms without ``fcntl`` (or an unwritable directory) the merge
    proceeds lockless — still read-merge-write, so the unprotected
    window shrinks from the whole pass to the read-to-rename gap.
    """
    if fcntl is None:
        yield
        return
    try:
        handle = open(path.with_suffix(".lock"), "a+")
    except OSError:
        yield
        return
    try:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        with contextlib.suppress(OSError):
            fcntl.flock(handle, fcntl.LOCK_UN)
        handle.close()


__all__ = ["DurationOracle", "EWMA_ALPHA", "MODEL_WEIGHT", "ORACLE_FILENAME",
           "job_digest", "family_digest"]
