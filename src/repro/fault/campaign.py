"""Scaled fault-injection campaigns across the benchmark suite.

:mod:`repro.fault.coverage` classifies *one* injected fault;
this module scales that to a statistical campaign (paper, section 3):
a seeded RNG samples (site × dynamic-instruction × bit) strike points
across all eight workloads, every point becomes a cached
:class:`~repro.eval.jobs.JobSpec` fanned through the
:class:`~repro.eval.runner.ExperimentRunner`, and the classified
outcomes aggregate into an outcome × site × workload coverage table.

Campaigns can sweep several **redundancy modes**
(:data:`repro.core.modes.CAMPAIGN_MODES`) over the same workloads: the
paper's slipstream A/R pair, Elzar-style TMR voting, RepTFD-style
replay-window detection, and DME-style decorrelated streams.  Each
(mode, benchmark) pair gets its own strike points (sampled against
that mode's own stream lengths and fault-site list) and the aggregate
exposes a **coverage-vs-throughput frontier**: per-mode coverage,
throughput IPC, and mean detection latency.

Determinism is load-bearing: the sampler derives one
``random.Random(f"{seed}:{benchmark}")`` stream per workload for the
slipstream mode (byte-compatible with single-mode campaigns from
before the N-stream framework) and ``f"{seed}:{benchmark}:{mode}"``
for the other modes, sites rotate round-robin so every site is
exercised on every workload, and the emitted ``BENCH_fault.json``
payload contains no wall-clock — the same seed yields a byte-identical
artifact, whether run with ``--jobs 1`` or a full pool, cold or
resumed from the disk cache.

With ``ecc=True`` the campaign models ECC on the R-stream's
architectural state (:mod:`repro.fault.ecc`): ``R_ARCH`` strikes
classify as ``ECC_CORRECTED`` instead of ``DETECTED_UNRECOVERABLE`` /
``SILENT_CORRUPTION``, closing the paper's unrecoverable hole —
coverage of redundantly-executed instructions reaches 100%.  Under TMR
the voter claims strikes before any ECC scrub, so TMR campaigns report
``MASKED_BY_VOTE``, never ``ECC_CORRECTED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import json
import random

from repro.core.modes import CAMPAIGN_MODES
from repro.fault.coverage import (
    HANDLED_OUTCOMES,
    HARMFUL_OUTCOMES,
    CampaignResult,
    FaultOutcome,
    InjectionResult,
    release_timeline,
)
from repro.fault.injector import A_NUMBERED_SITES, FaultSite, TransientFault
from repro.obs.registry import MetricsRegistry
from repro.workloads.suite import benchmark_suite

DEFAULT_BENCH_FAULT_PATH = "BENCH_fault.json"

#: Default strike sites: both streams' pipelines plus the R-stream's
#: architectural state (the paper's three section-3 fault classes).
DEFAULT_SITES: Tuple[FaultSite, ...] = (
    FaultSite.A_RESULT,
    FaultSite.R_TRANSIENT,
    FaultSite.R_ARCH,
)


class ModeFacts(NamedTuple):
    """What one campaign mode runs on: its stream (context) count and
    the fault sites its strike points can land on."""

    n_streams: int
    sites: Tuple[FaultSite, ...]


#: Every campaign mode's facts, in :data:`~repro.core.modes.CAMPAIGN_MODES`
#: order: the slipstream A/R pair, Elzar-style TMR voting over three
#: full streams, RepTFD-style replay windows (one primary stream; the
#: shadow re-executes only scrubbed windows) and the DME-style
#: decorrelated pair.  TMR and replay have no A-stream.
MODE_FACTS: Dict[str, ModeFacts] = {
    "slipstream": ModeFacts(2, (FaultSite.A_RESULT, FaultSite.R_TRANSIENT,
                                FaultSite.R_ARCH)),
    "tmr": ModeFacts(3, (FaultSite.R_TRANSIENT, FaultSite.R_ARCH)),
    "replay": ModeFacts(1, (FaultSite.R_TRANSIENT, FaultSite.R_ARCH)),
    "decorrelated": ModeFacts(2, (FaultSite.A_RESULT, FaultSite.R_TRANSIENT,
                                  FaultSite.R_ARCH, FaultSite.CORRELATED)),
}


def _default_benchmarks() -> Tuple[str, ...]:
    return tuple(b.name for b in benchmark_suite())


def mode_sites(
    mode: str, configured: Tuple[FaultSite, ...]
) -> Tuple[FaultSite, ...]:
    """The fault sites a mode's campaign points rotate through.

    The slipstream mode keeps the campaign's configured sites verbatim
    (back-compatible).  Other modes intersect the configured list with
    their :data:`MODE_FACTS` sites, falling back to that full list when
    the intersection is empty (so a default-sites campaign still
    exercises TMR/replay, which have no A-stream).  The decorrelated
    mode additionally appends ``CORRELATED`` — the site it exists to
    handle.
    """
    if mode == "slipstream":
        return configured
    allowed = MODE_FACTS[mode].sites
    sites = tuple(s for s in configured if s in allowed)
    if not sites:
        sites = allowed
    if mode == "decorrelated" and FaultSite.CORRELATED not in sites:
        sites = sites + (FaultSite.CORRELATED,)
    return sites


@dataclass(frozen=True)
class CampaignConfig:
    """One scaled campaign, fully determined by its fields.

    ``warmup_fraction`` skips the first part of each stream's dynamic
    instructions so strikes land in steady state rather than in loop
    preambles whose values are often dead (mostly-``MASKED`` strikes
    carry no information).  ``points_per_benchmark`` counts sampled
    strike points per (mode, workload) pair; sites rotate round-robin
    across them, so with the default three sites each site receives one
    third.  ``modes`` lists the redundancy modes to sweep
    (:data:`repro.core.modes.CAMPAIGN_MODES`).
    """

    benchmarks: Tuple[str, ...] = field(default_factory=_default_benchmarks)
    scale: int = 1
    points_per_benchmark: int = 12
    seed: int = 2000
    sites: Tuple[FaultSite, ...] = DEFAULT_SITES
    ecc: bool = False
    warmup_fraction: float = 0.25
    modes: Tuple[str, ...] = ("slipstream",)

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("campaign needs at least one benchmark")
        if not self.sites:
            raise ValueError("campaign needs at least one fault site")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.points_per_benchmark < 1:
            raise ValueError("points_per_benchmark must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not self.modes:
            raise ValueError("campaign needs at least one mode")
        for mode in self.modes:
            if mode not in CAMPAIGN_MODES:
                raise ValueError(
                    f"unknown campaign mode {mode!r}; "
                    f"known: {', '.join(CAMPAIGN_MODES)}"
                )


@dataclass(frozen=True)
class CampaignPoint:
    """One sampled strike point of a campaign."""

    benchmark: str
    fault: TransientFault
    mode: str = "slipstream"


def sample_points(
    config: CampaignConfig,
    stream_lengths: Dict[str, Dict[str, Dict[str, int]]],
) -> List[CampaignPoint]:
    """Sample the campaign's strike points, deterministically.

    ``stream_lengths`` bounds the sampled sequence numbers:
    ``{mode: {benchmark: {"A": executed_by_a, "R": retired}}}`` with
    one inner table per configured mode (A-stream numbering only covers
    the instructions the A-stream actually executed; TMR/replay use
    their own retirement counts for both keys).

    Each (mode, benchmark) pair gets its own seeded RNG stream —
    ``f"{seed}:{benchmark}"`` for the slipstream mode, byte-compatible
    with pre-framework campaigns, and ``f"{seed}:{benchmark}:{mode}"``
    otherwise — so adding a benchmark or a mode to the campaign does
    not perturb the points sampled for the others.
    """
    points: List[CampaignPoint] = []
    for mode in config.modes:
        sites = mode_sites(mode, config.sites)
        for benchmark in config.benchmarks:
            lengths = stream_lengths[mode][benchmark]
            stream = (
                f"{config.seed}:{benchmark}"
                if mode == "slipstream"
                else f"{config.seed}:{benchmark}:{mode}"
            )
            rng = random.Random(stream)
            for index in range(config.points_per_benchmark):
                site = sites[index % len(sites)]
                n = lengths["A" if site in A_NUMBERED_SITES else "R"]
                lo = int(n * config.warmup_fraction)
                seq = rng.randrange(lo, n) if n > lo else 0
                bit = rng.randrange(32)
                points.append(CampaignPoint(
                    benchmark=benchmark,
                    fault=TransientFault(site=site, target_seq=seq, bit=bit),
                    mode=mode,
                ))
    return points


def _geomean(values: Sequence[float]) -> Optional[float]:
    clean = [v for v in values if v and v > 0]
    if not clean:
        return None
    product = 1.0
    for v in clean:
        product *= v
    return product ** (1.0 / len(clean))


@dataclass
class ScaledCampaignResult:
    """Aggregate of one scaled campaign.

    ``per_benchmark`` holds each workload's classified injections
    (every mode's results merged; each :class:`InjectionResult` carries
    its ``mode``); ``failed_points`` lists the job labels of campaign
    points that did not complete (a lost point is recorded, never
    silently dropped).  ``mode_ipc`` carries each mode's fault-free throughput
    IPC (geometric mean across the campaign's benchmarks) and
    ``baseline_ipc`` the single-core superscalar reference, both filled
    in by :func:`run_scaled_campaign`.
    """

    config: CampaignConfig
    points: List[CampaignPoint] = field(default_factory=list)
    per_benchmark: Dict[str, CampaignResult] = field(default_factory=dict)
    failed_points: List[str] = field(default_factory=list)
    mode_ipc: Dict[str, Optional[float]] = field(default_factory=dict)
    baseline_ipc: Optional[float] = None

    # -- aggregation -------------------------------------------------

    @property
    def results(self) -> List[InjectionResult]:
        out: List[InjectionResult] = []
        for benchmark in sorted(self.per_benchmark):
            out.extend(self.per_benchmark[benchmark].results)
        return out

    @property
    def combined(self) -> CampaignResult:
        """All benchmarks' injections as one campaign."""
        return CampaignResult(results=self.results)

    def for_mode(self, mode: str) -> CampaignResult:
        """One mode's injections across all benchmarks."""
        return CampaignResult(
            results=[r for r in self.results if r.mode == mode]
        )

    @property
    def coverage(self) -> Optional[float]:
        """Fraction of harmful faults handled safely, suite-wide."""
        return self.combined.coverage

    @property
    def redundant_coverage(self) -> Optional[float]:
        """Coverage restricted to strikes on *redundantly executed*
        (compared) instructions — the paper's transparent-coverage
        claim.  Without ECC, ``R_ARCH`` strikes keep this below 1.0
        (the comparison saw the correct value; the storage lied later);
        with ECC it reaches 1.0.
        """
        harmful = [
            r for r in self.results
            if r.outcome in HARMFUL_OUTCOMES and r.struck_compared
        ]
        if not harmful:
            return None
        good = sum(1 for r in harmful if r.outcome in HANDLED_OUTCOMES)
        return good / len(harmful)

    @property
    def ecc_corrections(self) -> int:
        return sum(1 for r in self.results if r.ecc_corrected)

    def table(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Outcome tallies as ``benchmark -> site -> outcome -> n``."""
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for benchmark in sorted(self.per_benchmark):
            sites: Dict[str, Dict[str, int]] = {}
            for result in self.per_benchmark[benchmark].results:
                cell = sites.setdefault(result.fault.site.value, {})
                name = result.outcome.value
                cell[name] = cell.get(name, 0) + 1
            out[benchmark] = {
                site: dict(sorted(counts.items()))
                for site, counts in sorted(sites.items())
            }
        return out

    def frontier(self) -> List[dict]:
        """The coverage-vs-throughput frontier, one row per mode.

        Each row reports the mode's stream count, harmful/handled
        tallies, coverage, fault-free throughput IPC, and mean
        detection latency in retirements.  ``relative_ipc`` is the
        *useful* throughput per context — the mode's IPC divided by its
        stream count, over the single-core baseline — so the redundancy
        cost shows on the throughput axis: TMR retires one useful
        stream on three contexts (~0.33), replay keeps nearly the whole
        core (~0.9), the pairwise modes sit in between (~0.5).
        """
        rows: List[dict] = []
        for mode in self.config.modes:
            sub = self.for_mode(mode)
            latencies = [
                r.detect_latency
                for r in sub.results
                if r.detect_latency is not None
            ]
            ipc = self.mode_ipc.get(mode)
            n_streams = MODE_FACTS[mode].n_streams
            relative = None
            if ipc is not None and self.baseline_ipc:
                relative = ipc / n_streams / self.baseline_ipc
            rows.append({
                "mode": mode,
                "n_streams": n_streams,
                "points": len(sub.results),
                "fired": sub.fired,
                "harmful": sub.harmful,
                "coverage": sub.coverage,
                "throughput_ipc": ipc,
                "relative_ipc": relative,
                "mean_detect_latency": (
                    sum(latencies) / len(latencies) if latencies else None
                ),
            })
        return rows

    def metrics(self) -> MetricsRegistry:
        """Detection-latency and recovery-penalty distributions.

        Latency is counted in R-stream retirements between strike and
        detection; penalty is the triggered recovery's cost in cycles.
        Only detected outcomes contribute (an ECC correction has no
        detection event — the error never becomes architectural).
        Per-mode outcome counters (``fault.mode.<mode>.<outcome>``)
        break the same tallies down by redundancy mode.
        """
        registry = MetricsRegistry()
        latency = registry.histogram("fault.detect_latency")
        penalty = registry.histogram("fault.recovery_penalty")
        outcomes = registry.counter  # one counter per outcome
        for result in self.results:
            outcomes(f"fault.outcome.{result.outcome.value}").inc()
            outcomes(f"fault.mode.{result.mode}.{result.outcome.value}").inc()
            if result.detect_latency is not None:
                latency.observe(result.detect_latency)
                registry.histogram(
                    f"fault.mode.{result.mode}.detect_latency"
                ).observe(result.detect_latency)
            if result.recovery_penalty is not None:
                penalty.observe(result.recovery_penalty)
        return registry

    # -- serialisation ----------------------------------------------

    def to_payload(self) -> dict:
        """The deterministic ``BENCH_fault.json`` document.

        Contains *no* wall-clock or host-specific fields: the same
        campaign config produces a byte-identical payload regardless of
        parallelism, cache temperature or machine.
        """
        combined = self.combined
        registry = self.metrics()
        coverage = self.coverage
        redundant = self.redundant_coverage

        def _round(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 4)

        return {
            "config": {
                "benchmarks": list(self.config.benchmarks),
                "scale": self.config.scale,
                "points_per_benchmark": self.config.points_per_benchmark,
                "seed": self.config.seed,
                "sites": [s.value for s in self.config.sites],
                "ecc": self.config.ecc,
                "warmup_fraction": self.config.warmup_fraction,
                "modes": list(self.config.modes),
            },
            "modes": list(self.config.modes),
            "points": len(self.points),
            "completed": len(self.results),
            "failed_points": sorted(self.failed_points),
            "fired": combined.fired,
            "harmful": combined.harmful,
            "coverage": _round(coverage),
            "redundant_coverage": _round(redundant),
            "ecc_corrections": self.ecc_corrections,
            "outcomes": {
                outcome.value: count
                for outcome, count in sorted(
                    combined.counts().items(), key=lambda kv: kv[0].value
                )
            },
            "table": self.table(),
            "per_benchmark": {
                benchmark: {
                    "coverage": _round(campaign.coverage),
                    "fired": campaign.fired,
                    "harmful": campaign.harmful,
                }
                for benchmark, campaign in sorted(self.per_benchmark.items())
            },
            "per_mode": {
                mode: {
                    "coverage": _round(self.for_mode(mode).coverage),
                    "fired": self.for_mode(mode).fired,
                    "harmful": self.for_mode(mode).harmful,
                    "outcomes": {
                        outcome.value: count
                        for outcome, count in sorted(
                            self.for_mode(mode).counts().items(),
                            key=lambda kv: kv[0].value,
                        )
                    },
                }
                for mode in self.config.modes
            },
            "frontier": [
                {
                    **row,
                    "coverage": _round(row["coverage"]),
                    "throughput_ipc": _round(row["throughput_ipc"]),
                    "relative_ipc": _round(row["relative_ipc"]),
                    "mean_detect_latency": _round(row["mean_detect_latency"]),
                }
                for row in self.frontier()
            ],
            "metrics": registry.snapshot(),
        }


def campaign_specs(points: Sequence[CampaignPoint], scale: int = 1,
                   ecc: bool = False) -> List["JobSpec"]:
    """Strike points as runner job specs."""
    from repro.eval.jobs import injection_spec

    return [
        injection_spec(
            point.benchmark,
            point.fault.site,
            point.fault.target_seq,
            bit=point.fault.bit,
            scale=scale,
            ecc=ecc,
            mode=point.mode,
        )
        for point in points
    ]


def _reference_specs(config: CampaignConfig) -> List["JobSpec"]:
    """Fault-free reference jobs for every (mode, benchmark) pair; an
    N-stream reference reads the ss64 baseline, which goes first."""
    from repro.eval.jobs import baseline_spec, reference_spec

    specs: List["JobSpec"] = []
    for mode in config.modes:
        for benchmark in config.benchmarks:
            if mode in ("tmr", "replay"):
                specs.append(baseline_spec(benchmark, config.scale))
            specs.append(reference_spec(benchmark, mode, config.scale))
    return specs


def _references(config: CampaignConfig) -> Dict[str, Dict[str, Any]]:
    """``{mode: {benchmark: fault-free reference result}}``, read
    through the caches."""
    from repro.eval import models
    from repro.eval.jobs import reference_spec

    return {
        mode: {
            benchmark: models.run_cached(
                reference_spec(benchmark, mode, config.scale))
            for benchmark in config.benchmarks
        }
        for mode in config.modes
    }


def mode_stream_lengths(
    references: Dict[str, Dict[str, Any]],
) -> Dict[str, Dict[str, Dict[str, int]]]:
    """Per-mode stream lengths of ``{mode: {benchmark: fault-free
    reference}}``: the A-stream skips the removed instructions (none in
    the N-stream modes)."""
    return {
        mode: {
            benchmark: {
                "R": ref.retired,
                "A": ref.retired - getattr(ref, "a_removed", 0),
            }
            for benchmark, ref in table.items()
        }
        for mode, table in references.items()
    }


def strike_order(
    points: Sequence[CampaignPoint],
    lengths: Dict[str, Dict[str, Dict[str, int]]],
) -> List[int]:
    """The order to submit ``points`` in, as indices into ``points``.

    Points go per (mode, benchmark) in order of how far into the run
    they strike, so each process's clean timeline
    (:class:`repro.fault.coverage.CleanTimeline`) serves them from one
    live machine.  Progress is the target's fraction of its own stream
    (``lengths`` as in :func:`sample_points`): A- and R-stream seqs
    differ by the removed instructions, and a raw-seq order would put
    an R-site point behind the machine an A-site point advanced.
    """
    def progress(index: int) -> Tuple[str, str, float]:
        point = points[index]
        stream = lengths[point.mode][point.benchmark]
        n = stream["A" if point.fault.site in A_NUMBERED_SITES else "R"]
        return point.mode, point.benchmark, point.fault.target_seq / max(n, 1)

    return sorted(range(len(points)), key=progress)


def _mode_throughput(
    config: CampaignConfig,
    references: Dict[str, Dict[str, Any]],
) -> Tuple[Dict[str, Optional[float]], Optional[float]]:
    """(per-mode fault-free IPC geomeans, single-core baseline IPC)."""
    from repro.eval import models

    mode_ipc: Dict[str, Optional[float]] = {
        mode: _geomean([ref.ipc for ref in table.values()])
        for mode, table in references.items()
    }
    baseline = None
    if len(config.modes) > 1 or any(
        mode in ("tmr", "replay") for mode in config.modes
    ):
        # The n-stream references already forced the ss64 baselines
        # into the cache, so for tmr/replay this adds no simulation.
        baseline = _geomean([
            models.run_baseline(benchmark, config.scale).ipc
            for benchmark in config.benchmarks
        ])
    return mode_ipc, baseline


def run_scaled_campaign(
    config: CampaignConfig,
    jobs: int = 1,
    timeout: Optional[float] = None,
    use_disk_cache: bool = True,
) -> Tuple[ScaledCampaignResult, "RunnerStats"]:
    """Run one scaled campaign through the experiment runner.

    Two runner passes: first the fault-free reference runs per (mode,
    benchmark) pair — one slipstream/decorrelated co-simulation or one
    baseline + N-stream reference, also the source of the stream
    lengths the sampler needs — then every sampled strike point as a
    ``finj`` job.  Both passes absorb into the persistent cache, so an
    interrupted campaign resumes where it stopped and a repeated one is
    pure cache hits.  A failing point does not sink the campaign: the
    runner's casualties land in ``failed_points`` and the aggregation
    covers what completed.

    Returns ``(result, stats)`` where ``stats`` is the injection pass's
    :class:`~repro.eval.runner.RunnerStats` (reference-pass timing is
    not included; with a warm cache it is pure hits anyway).
    """
    from repro.eval import models
    from repro.eval.jobs import job_label
    from repro.eval.runner import ExperimentRunner, RunnerError

    runner = ExperimentRunner(jobs=jobs, use_disk_cache=use_disk_cache,
                              timeout=timeout)

    # Pass 1: fault-free references (stream lengths + reference outputs).
    runner.run(_reference_specs(config))
    references = _references(config)
    lengths = mode_stream_lengths(references)

    points = sample_points(config, lengths)
    specs = campaign_specs(points, config.scale, config.ecc)

    # Pass 2: the strike points, fanned through the runner in
    # strike_order; results are read back in sampling order below.
    try:
        stats = runner.run([specs[index]
                            for index in strike_order(points, lengths)])
    except RunnerError as error:
        stats = error.stats
    finally:
        release_timeline()

    result = ScaledCampaignResult(config=config, points=points)
    for point, spec in zip(points, specs):
        injection = models._CACHE.get(spec.key)
        if injection is None:
            result.failed_points.append(job_label(spec.key))
            continue
        campaign = result.per_benchmark.setdefault(
            point.benchmark, CampaignResult()
        )
        campaign.results.append(injection)
    result.mode_ipc, result.baseline_ipc = _mode_throughput(config,
                                                            references)
    return result, stats


def write_fault_bench(
    result: ScaledCampaignResult,
    path: Union[str, Path] = DEFAULT_BENCH_FAULT_PATH,
) -> Path:
    """Write the campaign's ``BENCH_fault.json``; returns the path.

    Unlike ``BENCH_runner.json`` (timing: inherently run-dependent),
    this artifact is fully deterministic, so it *overwrites* rather
    than appends — the file is a function of the campaign config and
    the simulator code, and meaningful to diff across commits.
    """
    target = Path(path)
    target.write_text(
        json.dumps(result.to_payload(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def format_frontier_table(result: ScaledCampaignResult) -> str:
    """Human-readable coverage-vs-throughput frontier for the CLI."""
    rows = result.frontier()
    if not rows:
        return "(no modes)"
    header = (f"{'mode':<14}{'streams':>8}{'harmful':>9}{'coverage':>10}"
              f"{'ipc':>8}{'rel':>7}{'latency':>9}")
    lines = [header, "-" * len(header)]
    for row in rows:
        cov = row["coverage"]
        ipc = row["throughput_ipc"]
        rel = row["relative_ipc"]
        lat = row["mean_detect_latency"]
        lines.append(
            f"{row['mode']:<14}{row['n_streams']:>8}{row['harmful']:>9}"
            + (f"{cov:>10.1%}" if cov is not None else f"{'n/a':>10}")
            + (f"{ipc:>8.3f}" if ipc is not None else f"{'n/a':>8}")
            + (f"{rel:>7.2f}" if rel is not None else f"{'n/a':>7}")
            + (f"{lat:>9.1f}" if lat is not None else f"{'n/a':>9}")
        )
    return "\n".join(lines)


def format_coverage_table(result: ScaledCampaignResult) -> str:
    """Human-readable outcome × site × workload table for the CLI."""
    lines: List[str] = []
    outcome_order = [o.value for o in FaultOutcome]
    present = sorted(
        {r.outcome.value for r in result.results},
        key=outcome_order.index,
    )
    if not present:
        return "(no completed campaign points)"
    all_sites = sorted(
        {r.fault.site for r in result.results} | set(result.config.sites),
        key=lambda s: s.value,
    )
    site_width = max(len("site"), max(
        (len(s.value) for s in all_sites), default=4))
    bench_width = max(len("workload"), max(
        (len(b) for b in result.config.benchmarks), default=8))
    header = (f"{'workload':<{bench_width}}  {'site':<{site_width}}  "
              + "  ".join(f"{name:>{len(name)}}" for name in present))
    lines.append(header)
    lines.append("-" * len(header))
    table = result.table()
    for benchmark in sorted(table):
        for site, counts in table[benchmark].items():
            row = (f"{benchmark:<{bench_width}}  {site:<{site_width}}  "
                   + "  ".join(f"{counts.get(name, 0):>{len(name)}}"
                               for name in present))
            lines.append(row)
    lines.append("")
    cov = result.coverage
    red = result.redundant_coverage
    lines.append(
        "coverage (harmful faults handled): "
        + ("n/a (no harmful faults)" if cov is None else f"{cov:.1%}")
    )
    lines.append(
        "redundant-instruction coverage:    "
        + ("n/a" if red is None else f"{red:.1%}")
    )
    if result.config.ecc:
        lines.append(f"ECC corrections:                   "
                     f"{result.ecc_corrections}")
    if len(result.config.modes) > 1:
        lines.append("")
        lines.append("coverage-vs-throughput frontier:")
        lines.append(format_frontier_table(result))
    if result.failed_points:
        lines.append(f"failed points: {len(result.failed_points)} "
                     f"({', '.join(result.failed_points[:4])}...)")
    return "\n".join(lines)


__all__ = [
    "CampaignConfig",
    "CampaignPoint",
    "DEFAULT_SITES",
    "MODE_FACTS",
    "ModeFacts",
    "ScaledCampaignResult",
    "campaign_specs",
    "format_coverage_table",
    "format_frontier_table",
    "mode_sites",
    "mode_stream_lengths",
    "run_scaled_campaign",
    "sample_points",
    "strike_order",
    "write_fault_bench",
]
