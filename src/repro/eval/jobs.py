"""Simulation jobs: hashable keys, the persistent result cache, and the
raw compute behind every cached experiment run.

The paper's artifact suite (Tables 1-3, Figures 6-8, the fault campaign
and the ablations) decomposes into independent simulation **jobs**, each
identified by a :class:`JobKey` — benchmark, model, workload scale,
removal-trigger set and a configuration fingerprint.  Several artifacts
share jobs (Figure 6, Figure 8 and Table 3 all consume the same default
CMP runs), so keys are hashable and deduplicatable.

Results are memoised at two levels:

* in-process, by :mod:`repro.eval.models` (a plain dict keyed by
  :class:`JobKey`);
* on disk, by :class:`DiskCache` — pickled results under
  ``.cache/repro-eval/`` keyed by the JobKey **plus a code-version
  fingerprint** (a hash of every ``repro`` source file), so editing the
  simulator automatically invalidates stale entries.  Corrupt or
  unreadable cache files are discarded, never fatal.  Entries are
  **sharded** by key-digest prefix (``root/ab/…``) so concurrent
  writers — pool workers, parallel CLI invocations sharing one root —
  never contend on a single directory; :meth:`DiskCache.clear` /
  :meth:`DiskCache.prune_stale` also sweep orphaned ``*.tmp*`` files
  abandoned by crashed writers.

:func:`simulate` performs the actual simulation for a job and is a
module-level function, so :mod:`repro.eval.runner` can ship jobs to
``ProcessPoolExecutor`` workers.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro
from repro.analysis.ceiling import ceiling_report
from repro.analysis.ineffectual import cross_check
from repro.arch.functional import FunctionalSimulator
from repro.core.modes import CAMPAIGN_MODES, decorrelated_config
from repro.core.slipstream import SlipstreamConfig, SlipstreamProcessor
from repro.eval.resilience import JobTimeout
from repro.fault.coverage import (
    clean_timeline,
    current_timeline,
    hang_budget,
    inject_one,
    inject_one_nstream,
)
from repro.fault.injector import FaultSite, TransientFault
from repro.fingerprint import canonical, fingerprint
from repro.obs import RunReport, build_report, job_observability
from repro.obs.session import Observability
from repro.uarch.config import SS_128x8, SS_64x4
from repro.uarch.core import SuperscalarCore
from repro.workloads.suite import benchmark_suite, get_benchmark

#: Default disk-cache location, overridable with $REPRO_EVAL_CACHE_DIR.
DEFAULT_CACHE_DIR = ".cache/repro-eval"

#: Sentinel distinguishing "cache miss" from a legitimately-None result.
MISS = object()

#: Count of actual simulations performed in this process (cache misses
#: that reached :func:`simulate`).  Tests hook this to assert that a
#: warm cache performs zero simulations.
_simulation_count = 0


def simulation_count() -> int:
    return _simulation_count


def reset_simulation_count() -> None:
    global _simulation_count
    _simulation_count = 0


# ----------------------------------------------------------------------
# Job identity.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JobKey:
    """Identity of one simulation job (the unit of caching/dedup).

    ``config_fingerprint`` covers everything the other fields do not:
    the full :class:`SlipstreamConfig` for CMP jobs, the strike point
    and mode for injection jobs, the empty string where defaults apply.
    """

    #: "count" | "ss64" | "ss128" | "cmp" | "static" (the cross-check
    #: and the ceiling; repro.analysis) | "finj" (one fault-campaign
    #: injection point, the only way a strike runs) | "nref" (fault-free
    #: N-stream reference run; see :mod:`repro.core.nstream`).
    model: str
    benchmark: str
    scale: int = 1
    removal_triggers: Tuple[str, ...] = ()
    config_fingerprint: str = ""


def job_label(key: JobKey) -> str:
    """Human-readable job label, e.g. ``cmp/li@1[BR]#deadbeef``.

    Shared by profiling (``BENCH_runner.json`` per-job rows), trace file
    naming and :class:`~repro.obs.RunReport` identity.
    """
    label = f"{key.model}/{key.benchmark}@{key.scale}"
    if key.removal_triggers:
        label += f"[{','.join(key.removal_triggers)}]"
    if key.config_fingerprint:
        label += f"#{key.config_fingerprint[:8]}"
    return label


@dataclass(frozen=True)
class JobSpec:
    """A runnable job: its key plus the parameters needed to compute it.

    The key alone identifies the result; the payload fields carry the
    non-default configuration objects the simulation needs.  Specs are
    picklable (process-pool friendly).
    """

    key: JobKey
    config: Optional[SlipstreamConfig] = None
    #: One campaign injection point ("finj" jobs).
    fault: Optional[TransientFault] = None
    #: Model ECC on the R-stream's architectural state ("finj" jobs).
    ecc: bool = False
    #: Redundancy mode ("finj"/"nref" jobs): one of
    #: :data:`repro.core.modes.CAMPAIGN_MODES`.
    mode: str = "slipstream"


def count_spec(benchmark: str, scale: int = 1) -> JobSpec:
    return JobSpec(JobKey("count", benchmark, scale))


def baseline_spec(benchmark: str, scale: int = 1) -> JobSpec:
    return JobSpec(JobKey("ss64", benchmark, scale))


def big_core_spec(benchmark: str, scale: int = 1) -> JobSpec:
    return JobSpec(JobKey("ss128", benchmark, scale))


def slipstream_spec(
    benchmark: str,
    scale: int = 1,
    removal_triggers: Tuple[str, ...] = ("BR", "WW", "SV"),
    config: Optional[SlipstreamConfig] = None,
) -> JobSpec:
    """The CMP(2x64x4) job.  A caller-supplied config is cacheable too:
    its stable fingerprint becomes part of the key."""
    cfg = config if config is not None else SlipstreamConfig(
        removal_triggers=removal_triggers
    )
    key = JobKey(
        "cmp", benchmark, scale,
        removal_triggers=cfg.removal_triggers,
        config_fingerprint=cfg.fingerprint(),
    )
    return JobSpec(key, config=cfg)


def static_spec(benchmark: str, scale: int = 1) -> JobSpec:
    """The static-analysis job: ``(cross_check, ceiling_report)`` of one
    workload, sharing one static removal report (see
    :mod:`repro.analysis.ineffectual` and :mod:`repro.analysis.ceiling`)."""
    return JobSpec(JobKey("static", benchmark, scale))


def injection_spec(
    benchmark: str,
    site: FaultSite,
    target_seq: int,
    bit: int = 7,
    scale: int = 1,
    ecc: bool = False,
    mode: str = "slipstream",
) -> JobSpec:
    """One fault-campaign point: inject (site, dynamic instruction, bit)
    into one workload under one redundancy mode and classify the run.
    The clean reference is the mode's :func:`reference_spec` job of the
    same benchmark/scale, shared through the caches.
    """
    fault = TransientFault(site=site, target_seq=target_seq, bit=bit)
    key = JobKey(
        "finj", benchmark, scale,
        config_fingerprint=fingerprint([fault, ecc, mode]),
    )
    return JobSpec(key, fault=fault, ecc=ecc, mode=mode)


def reference_spec(benchmark: str, mode: str, scale: int = 1) -> JobSpec:
    """The fault-free reference job of one campaign mode: the default
    ``cmp`` run for slipstream, the decorrelated ``cmp`` run, or the
    ``nref`` run of the TMR or replay-window engine (anchored to the
    cached ss64 baseline's cycle count).  Strike points classify against
    it, and campaigns read their stream lengths and throughput from it.
    """
    if mode == "slipstream":
        return slipstream_spec(benchmark, scale)
    if mode == "decorrelated":
        return slipstream_spec(benchmark, scale, config=decorrelated_config())
    if mode in ("tmr", "replay"):
        key = JobKey(
            "nref", benchmark, scale,
            config_fingerprint=fingerprint([mode]),
        )
        return JobSpec(key, mode=mode)
    raise ValueError(f"unknown campaign mode {mode!r}")


def open_timeline(spec: JobSpec) -> None:
    """Open the process's clean timeline
    (:func:`repro.fault.coverage.clean_timeline`) for a ``cmp`` job's
    program and config, so that the job, run in this process, leaves
    behind the checkpoints that struck runs of the same program and
    config fork from.  Other jobs open nothing."""
    key = spec.key
    if key.model == "cmp":
        clean_timeline(benchmark_program(key.benchmark, key.scale),
                       spec.config or SlipstreamConfig())


# ----------------------------------------------------------------------
# The raw compute.
# ----------------------------------------------------------------------

#: Per-process memo of assembled benchmark programs.
#: :meth:`Benchmark.program` re-runs the assembler on every call; the
#: artifact suite requests the same (benchmark, scale) program for
#: several models, and a warm pool worker for many consecutive jobs, so
#: one build per process suffices.  Programs are read-only during
#: simulation (the two slipstream streams already share one), and a
#: stable object identity also lets the compiled execution engine
#: (:func:`repro.arch.compiled.compiled_for`, an id-keyed memo) and the
#: memoized timing model (:func:`repro.uarch.compiled_timing.timing_meta_for`)
#: reuse their pre-decoded closures and per-PC timing metadata across
#: every job on the same program.
_PROGRAM_MEMO: Dict[Tuple[str, int], object] = {}


def benchmark_program(name: str, scale: int = 1):
    """The benchmark's assembled program, memoized per process."""
    memo_key = (name, scale)
    program = _PROGRAM_MEMO.get(memo_key)
    if program is None:
        program = get_benchmark(name).program(scale)
        _PROGRAM_MEMO[memo_key] = program
    return program


def simulate(spec: JobSpec, obs: Optional[Observability] = None):
    """Run one job's simulation (no caching) and return its result.

    ``obs`` is the optional observability handle (:mod:`repro.obs`);
    instrumentation is behavior-neutral, so the result is bit-identical
    with or without it.
    """
    global _simulation_count
    _simulation_count += 1
    key = spec.key
    model = key.model
    if model == "count":
        program = benchmark_program(key.benchmark, key.scale)
        return FunctionalSimulator(program).run().instruction_count
    if model == "ss64":
        program = benchmark_program(key.benchmark, key.scale)
        return SuperscalarCore(SS_64x4, program, obs=obs).run()
    if model == "ss128":
        program = benchmark_program(key.benchmark, key.scale)
        return SuperscalarCore(SS_128x8, program, obs=obs).run()
    if model == "cmp":
        program = benchmark_program(key.benchmark, key.scale)
        config = spec.config or SlipstreamConfig()
        timeline = current_timeline(program, config) if obs is None else None
        if timeline is not None:
            # A campaign opened this program's clean timeline: the
            # fault-free run leaves the checkpoints behind that its
            # struck runs fork from instead of re-simulating the prefix.
            return timeline.clean_result(config)
        return SlipstreamProcessor(program, spec.config, obs=obs).run()
    if model == "finj":
        return _simulate_injection(spec)
    if model == "nref":
        return _simulate_mode_reference(spec)
    if model == "static":
        program = benchmark_program(key.benchmark, key.scale)
        return cross_check(program), ceiling_report(program)
    raise ValueError(f"unknown job model {model!r}")


def _simulate_mode_reference(spec: JobSpec):
    """The fault-free N-stream reference run ("nref" jobs)."""
    from repro.core.nstream import ReplayWindowProcessor, TMRProcessor
    from repro.eval import models  # lazy: models imports this module

    key = spec.key
    program = benchmark_program(key.benchmark, key.scale)
    base = models.run_baseline(key.benchmark, key.scale)
    if spec.mode == "tmr":
        return TMRProcessor(program, base_cycles=base.cycles).run()
    if spec.mode == "replay":
        return ReplayWindowProcessor(program, base_cycles=base.cycles).run()
    raise ValueError(f"unknown nref mode {spec.mode!r}")


def _simulate_injection(spec: JobSpec):
    """One fault-campaign point: fetch the mode's clean reference
    through the caches (a hit when a sweep or the campaign's reference
    pass prewarmed it), then run the injected simulation under the
    spec's redundancy mode."""
    from repro.eval import models  # lazy: models imports this module

    key = spec.key
    assert spec.fault is not None
    program = benchmark_program(key.benchmark, key.scale)
    reference_job = reference_spec(key.benchmark, spec.mode, key.scale)
    reference = models.run_cached(reference_job)
    if spec.mode in ("tmr", "replay"):
        return inject_one_nstream(
            program,
            spec.fault,
            spec.mode,
            reference_output=reference.output,
            baseline_detections=reference.detections,
            ecc=spec.ecc,
            max_instructions=hang_budget(reference.retired),
        )
    result = inject_one(
        program,
        spec.fault,
        config=reference_job.config,
        reference_output=reference.output,
        baseline_detections=reference.ir_mispredictions,
        ecc=spec.ecc,
        max_instructions=hang_budget(reference.retired),
        reference_retired=reference.retired,
    )
    result.mode = spec.mode
    return result


def simulate_with_report(spec: JobSpec):
    """Run one job under the environment-configured observability.

    Returns ``(result, report)`` where ``report`` is a
    :class:`~repro.obs.RunReport` (None when observability is disabled).
    The JSONL trace, if configured, is written and closed here so pool
    workers leave complete files behind.
    """
    label = job_label(spec.key)
    obs = job_observability(label)
    if obs is None:
        return simulate(spec), None
    try:
        result = simulate(spec, obs)
        report: Optional[RunReport] = build_report(
            label, spec.key.model, spec.key.benchmark, result, obs
        )
    finally:
        obs.close()
    return result, report


def timed_simulate(spec: JobSpec):
    """Worker entry point: ``(result, wall_seconds, cpu_seconds,
    started_monotonic, report)``.

    CPU seconds are the contention-independent cost of the job: on an
    oversubscribed machine the wall clock inside a worker is inflated by
    scheduling, but CPU time is not, so it is what sequential
    cost estimates must sum.  ``started_monotonic`` is this process's
    ``time.monotonic()`` at the moment the job started computing; on the
    supported platforms the monotonic clock is system-wide, so the
    runner subtracts its own submit-time reading to measure how long the
    job sat queued behind busy workers.  ``report`` is the job's
    :class:`~repro.obs.RunReport` (None when observability is disabled);
    the environment configuring it is inherited by pool workers.
    """
    started = time.monotonic()
    w0 = time.perf_counter()
    c0 = time.process_time()
    result, report = simulate_with_report(spec)
    return (result, time.perf_counter() - w0, time.process_time() - c0,
            started, report)


def run_attempt(spec: JobSpec, timeout_seconds: Optional[float] = None):
    """:func:`timed_simulate` under an optional wall-clock budget.

    The budget is a ``SIGALRM`` itimer, so a stuck job dies with a
    :class:`~repro.eval.resilience.JobTimeout` while the executing
    process (a pool worker or the inline driver) survives.  A budget
    therefore needs the main thread of a platform with ``SIGALRM``;
    ``signal.signal`` raises ``ValueError`` anywhere else.
    """
    if not timeout_seconds:
        return timed_simulate(spec)

    def _expired(signum, frame):
        raise JobTimeout(
            f"{job_label(spec.key)}: exceeded {timeout_seconds}s wall clock"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_seconds)
    try:
        return timed_simulate(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Artifact enumeration.
# ----------------------------------------------------------------------

#: The exact ablation parameter grids ``python -m repro.eval`` renders;
#: the experiment functions must construct identical configs so the
#: enumerated jobs and the report's lookups share cache entries.
ABLATION_BENCHMARK = "li"
ABLATION_CONFIDENCE_THRESHOLDS = (4, 32, 128)
ABLATION_DELAY_CAPACITIES = (32, 256, 1024)
ABLATION_IR_SCOPES = (1, 8, 16)
#: The redundancy-mode frontier study rendered in the eval report
#: (coverage vs throughput across CAMPAIGN_MODES); kept to two
#: workloads and few points so report rendering stays fast.
FRONTIER_BENCHMARKS = ("jpeg", "li")
FRONTIER_POINTS = 4
FRONTIER_SEED = 2000
#: Benchmarks measured with the statically-seeded removal table
#: (``SlipstreamConfig(static_hints=True)``) next to their default runs.
STATIC_HINT_BENCHMARKS = ("li", "m88ksim", "vortex")


def enumerate_artifact_jobs(
    scale: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[JobSpec]:
    """Every job the full artifact suite needs, deduplicated.

    Figure 6 / Figure 8 (top) / Table 3 share the default CMP runs;
    Figures 6/7 and Tables 1/3 share the SS runs.  The returned list has
    one spec per distinct :class:`JobKey`.
    """
    names = list(benchmarks) if benchmarks is not None else [
        b.name for b in benchmark_suite()
    ]
    specs: List[JobSpec] = []
    seen = set()

    def add(spec: JobSpec) -> None:
        if spec.key not in seen:
            seen.add(spec.key)
            specs.append(spec)

    for name in names:
        add(count_spec(name, scale))            # Table 1
        add(baseline_spec(name, scale))         # Figures 6/7, Table 3
        add(big_core_spec(name, scale))         # Figure 7
        add(slipstream_spec(name, scale))       # Figures 6/8, Table 3
        add(slipstream_spec(name, scale, removal_triggers=("BR",)))  # Fig 8 bottom
        add(static_spec(name, scale))           # cross-check + ceiling
    for name in STATIC_HINT_BENCHMARKS:
        if name in names:
            add(slipstream_spec(
                name, scale, config=SlipstreamConfig(static_hints=True)))
    for name in FRONTIER_BENCHMARKS:
        if name in names:
            # Fault-free references of the redundancy-mode frontier
            # study: pre-warming them here keeps the report's campaign
            # pass down to the injection points themselves.
            for mode in CAMPAIGN_MODES:
                add(reference_spec(name, mode, scale))
    for threshold in ABLATION_CONFIDENCE_THRESHOLDS:
        add(slipstream_spec(
            ABLATION_BENCHMARK, scale,
            config=SlipstreamConfig(confidence_threshold=threshold)))
    for capacity in ABLATION_DELAY_CAPACITIES:
        add(slipstream_spec(
            ABLATION_BENCHMARK, scale,
            config=SlipstreamConfig(delay_buffer_capacity=capacity)))
    for scope in ABLATION_IR_SCOPES:
        add(slipstream_spec(
            ABLATION_BENCHMARK, scale,
            config=SlipstreamConfig(ir_scope_traces=scope)))
    return specs


# ----------------------------------------------------------------------
# Code-version fingerprint and the persistent cache.
# ----------------------------------------------------------------------

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file; cache entries embed it so
    any code change invalidates previously cached results."""
    global _code_fingerprint
    if _code_fingerprint is None:
        root = Path(repro.__file__).resolve().parent
        digest = sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()[:16]
    return _code_fingerprint


def cache_entry_digest(key: JobKey, code_version: Optional[str] = None) -> str:
    """Digest naming ``key``'s disk-cache entry (and its shard).

    sha256 over (canonical key, code-version fingerprint), truncated to
    24 hex chars.  The *same* digest both shards the disk cache
    (:meth:`DiskCache._entry_name`; shard dir = first two chars).
    """
    return sha256(
        repr((canonical(key), code_version or code_fingerprint()))
        .encode("utf-8")
    ).hexdigest()[:24]


#: Per-process monotonically-increasing component of temp-file names.
#: ``os.getpid()`` alone is NOT unique across the threads of one
#: process: two threads storing the same key would interleave writes
#: into one temp file and rename a corrupt pickle into place.  pid +
#: thread ident + counter is unique per call.
_TMP_COUNTER = itertools.count()

#: Orphaned temp files younger than this survive :meth:`DiskCache.prune_stale`
#: (they may belong to a writer that is mid-``os.replace`` right now);
#: older ones were abandoned by a crashed writer and are swept.
TMP_SWEEP_AGE_SECONDS = 300.0


def unique_tmp_path(path: Path) -> Path:
    """A per-call-unique sibling temp path for atomic replace-writes.

    Same directory as ``path`` (so ``os.replace`` stays atomic on one
    filesystem), and unique across processes *and* threads: the name
    embeds pid, thread ident and a per-process counter.
    """
    return path.with_suffix(
        f".tmp{os.getpid()}-{threading.get_ident()}-{next(_TMP_COUNTER)}"
    )


class DiskCache:
    """Pickle-per-job persistent result cache, sharded by digest prefix.

    File names embed a digest of (JobKey, code fingerprint): a changed
    key or changed code simply misses — stale files are never *read*,
    and :meth:`prune_stale` deletes them.  Loads are defensive: any
    unpicklable, truncated or mismatched file is discarded and treated
    as a miss.

    Entries live under a two-hex-character shard directory derived from
    the key digest (``root/ab/cmp-li-…pkl``), so the writers sharing a
    cache root spread their directory traffic over 256 shards instead
    of contending on one.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 code_version: Optional[str] = None):
        if root is None:
            root = os.environ.get("REPRO_EVAL_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.code_version = code_version or code_fingerprint()

    def _entry_name(self, key: JobKey) -> Tuple[str, str]:
        """(shard directory, file name) of ``key``'s entry."""
        digest = cache_entry_digest(key, self.code_version)
        name = f"{key.model}-{key.benchmark}-s{key.scale}-{digest}.pkl"
        return digest[:2], name

    def path_for(self, key: JobKey) -> Path:
        """The sharded path of ``key``'s entry."""
        shard, name = self._entry_name(key)
        return self.root / shard / name

    def load(self, key: JobKey):
        """The cached result for ``key``, or :data:`MISS`."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return MISS
        except Exception:
            # Corrupt/truncated/unreadable: discard, never fatal.
            self._discard(path)
            return MISS
        if not isinstance(payload, dict) or payload.get("key") != key:
            self._discard(path)
            return MISS
        return payload.get("result")

    def store(self, key: JobKey, result) -> None:
        path = self.path_for(key)
        payload = {"key": key, "code": self.code_version, "result": result}
        tmp = unique_tmp_path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # An unwritable or full cache directory degrades to no-op.
            self._discard(tmp)

    def _entry_files(self) -> Iterator[Path]:
        """Every cache entry, sorted: the shards, and the flat
        ``root/*.pkl`` files older versions wrote (never read now, but
        still cleared and pruned)."""
        if not self.root.is_dir():
            return
        yield from sorted(self.root.glob("*.pkl"))
        yield from sorted(self.root.glob("[0-9a-f][0-9a-f]/*.pkl"))

    def _tmp_files(self) -> Iterator[Path]:
        """Leftover ``*.tmp*`` files (crashed or in-flight writers)."""
        if not self.root.is_dir():
            return
        yield from sorted(self.root.glob("*.tmp*"))
        yield from sorted(self.root.glob("[0-9a-f][0-9a-f]/*.tmp*"))

    def clear(self) -> int:
        """Delete every cache file, plus any leftover temp files;
        returns the number removed."""
        removed = 0
        for path in self._entry_files():
            self._discard(path)
            removed += 1
        for tmp in self._tmp_files():
            self._discard(tmp)
            removed += 1
        return removed

    def prune_stale(
        self, tmp_age_seconds: float = TMP_SWEEP_AGE_SECONDS
    ) -> int:
        """Delete entries written under a different code version and
        temp files abandoned by crashed writers.

        A temp file younger than ``tmp_age_seconds`` is left alone: it
        may belong to a concurrent writer that has not reached its
        atomic rename yet.
        """
        removed = 0
        for path in self._entry_files():
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
                stale = (not isinstance(payload, dict)
                         or payload.get("code") != self.code_version)
            except Exception:
                stale = True
            if stale:
                self._discard(path)
                removed += 1
        now = time.time()  # selfcheck: ok(wall-clock)
        for tmp in self._tmp_files():
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue
            if age >= tmp_age_seconds:
                self._discard(tmp)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
