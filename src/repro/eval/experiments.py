"""One function per paper artifact (tables 1-3, figures 6-8, plus the
section 3 fault study and the DESIGN.md ablations).

Every function returns plain data structures (lists of dicts) so that
benches, tests and scripts can assert on them; use
:mod:`repro.eval.reporting` to render them in the paper's shape.

Paper-expected values are embedded alongside, so EXPERIMENTS.md and the
bench output can show paper-vs-measured directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.removal import CATEGORIES
from repro.core.slipstream import SlipstreamConfig
from repro.eval.models import (
    run_all_models,
    run_baseline,
    run_big_core,
    run_cached,
    run_instruction_count,
    run_slipstream_model,
    run_static,
)
from repro.fault.coverage import CampaignResult
from repro.fault.injector import FaultSite, TransientFault
from repro.uarch.config import SS_128x8, SS_64x4
from repro.workloads.suite import benchmark_suite

BENCHMARKS = [b.name for b in benchmark_suite()]

#: Paper numbers for side-by-side comparison (Table 1, Table 3, Figures
#: 6-8), transcribed from the paper text.
PAPER = {
    "instr_count_millions": {
        "compress": 248, "gcc": 117, "go": 133, "jpeg": 166,
        "li": 202, "m88ksim": 121, "perl": 108, "vortex": 101,
    },
    "base_ipc": {
        "compress": 1.72, "gcc": 2.69, "go": 2.15, "jpeg": 3.24,
        "li": 2.88, "m88ksim": 2.82, "perl": 3.08, "vortex": 3.24,
    },
    "base_misp_per_1000": {
        "compress": 16, "gcc": 6.4, "go": 11, "jpeg": 4.1,
        "li": 6.5, "m88ksim": 1.9, "perl": 2.0, "vortex": 1.1,
    },
    "slip_gain_pct": {
        "compress": 0.5, "gcc": 4, "go": 0.5, "jpeg": 0.5,
        "li": 7, "m88ksim": 20, "perl": 16, "vortex": 7,
    },
    "big_gain_pct_avg": 28,
    "slip_gain_pct_avg": 7,
    "removal_fraction": {
        "compress": 0.08, "gcc": 0.08, "go": 0.04, "jpeg": 0.05,
        "li": 0.10, "m88ksim": 0.48, "perl": 0.20, "vortex": 0.16,
    },
    "ir_misp_per_1000_max": 0.05,
    "ir_penalty_range": (21, 26),
}


# ----------------------------------------------------------------------
# Table 1: benchmarks.
# ----------------------------------------------------------------------

def table1(scale: int = 1) -> List[Dict]:
    """Benchmark, input dataset (paper's), analog, instruction count."""
    rows = []
    for bench in benchmark_suite():
        count = run_instruction_count(bench.name, scale)
        rows.append(
            {
                "benchmark": bench.name,
                "paper_input": bench.paper_input,
                "analog": bench.analog,
                "instr_count": count,
                "paper_instr_count_millions": PAPER["instr_count_millions"][bench.name],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 2: microarchitecture configuration.
# ----------------------------------------------------------------------

def table2() -> Dict[str, Dict]:
    """The microarchitecture configuration, as configured dataclasses."""
    slip = SlipstreamConfig()
    return {
        "single_processor": {
            "fetch": f"up to {SS_64x4.fetch_width} instructions/cycle, "
                     "past multiple not-taken branches",
            "icache": f"{SS_64x4.icache.size_bytes // 1024}kB/"
                      f"{SS_64x4.icache.assoc}-way/LRU, "
                      f"{SS_64x4.icache.line_bytes // 4}-instruction lines, "
                      f"{SS_64x4.icache.miss_penalty}-cycle miss",
            "dcache": f"{SS_64x4.dcache.size_bytes // 1024}kB/"
                      f"{SS_64x4.dcache.assoc}-way/LRU, "
                      f"{SS_64x4.dcache.line_bytes}B lines, "
                      f"{SS_64x4.dcache.miss_penalty}-cycle miss",
            "rob": SS_64x4.rob_size,
            "width": SS_64x4.issue_width,
            "big_core": f"{SS_128x8.rob_size}-entry ROB, {SS_128x8.issue_width}-wide",
        },
        "slipstream_components": {
            "trace_length": slip.trace_length,
            "ir_predictor": f"2^{slip.predictor.index_bits}-entry path-based "
                            f"({slip.predictor.path_depth}-deep history) + "
                            f"2^{slip.predictor.index_bits}-entry simple table",
            "confidence_threshold": slip.confidence_threshold,
            "ir_detector_scope": f"{slip.ir_scope_traces} traces "
                                 f"({slip.ir_scope_traces * slip.trace_length} instructions)",
            "delay_buffer": f"{slip.delay_buffer_capacity} instruction entries",
            "recovery": "5-cycle startup + 4 register restores/cycle "
                        "+ 4 memory restores/cycle (21-cycle minimum)",
        },
    }


# ----------------------------------------------------------------------
# Figure 6 / Figure 7: IPC improvements.
# ----------------------------------------------------------------------

def figure6(scale: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[Dict]:
    """% IPC improvement of CMP(2x64x4) over SS(64x4), per benchmark."""
    rows = []
    for name in benchmarks or BENCHMARKS:
        runs = run_all_models(name, scale)
        rows.append(
            {
                "benchmark": name,
                "base_ipc": runs.base.ipc,
                "slip_ipc": runs.slip.ipc,
                "gain_pct": runs.slip_gain,
                "paper_gain_pct": PAPER["slip_gain_pct"][name],
            }
        )
    return rows


def figure7(scale: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[Dict]:
    """% IPC improvement of SS(128x8) over SS(64x4), per benchmark."""
    rows = []
    for name in benchmarks or BENCHMARKS:
        base = run_baseline(name, scale)
        big = run_big_core(name, scale)
        rows.append(
            {
                "benchmark": name,
                "base_ipc": base.ipc,
                "big_ipc": big.ipc,
                "gain_pct": 100.0 * (big.ipc / base.ipc - 1.0),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 8: removal breakdown.
# ----------------------------------------------------------------------

def figure8(
    mode: str = "full",
    scale: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Fraction of dynamic instructions removed from the A-stream,
    broken down into the BR/WW/SV/P:{...} categories.

    ``mode="full"`` is the upper graph (all triggers); ``mode="branch_only"``
    is the lower graph (only branches and their computation chains).
    """
    if mode == "full":
        triggers: Tuple[str, ...] = ("BR", "WW", "SV")
    elif mode == "branch_only":
        triggers = ("BR",)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rows = []
    for name in benchmarks or BENCHMARKS:
        result = run_slipstream_model(name, scale, removal_triggers=triggers)
        fractions = {
            category: result.removed_by_category.get(category, 0) / result.retired
            for category in CATEGORIES
        }
        rows.append(
            {
                "benchmark": name,
                "mode": mode,
                "total_fraction": result.removal_fraction,
                "categories": fractions,
                "paper_total_fraction": PAPER["removal_fraction"].get(name),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 3: misprediction measurements.
# ----------------------------------------------------------------------

def table3(scale: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[Dict]:
    """Base IPC, branch misp/1000 (SS and CMP), IR-misp/1000, average
    IR-misprediction penalty."""
    rows = []
    for name in benchmarks or BENCHMARKS:
        base = run_baseline(name, scale)
        slip = run_slipstream_model(name, scale)
        rows.append(
            {
                "benchmark": name,
                "ss_ipc": base.ipc,
                "ss_misp_per_1000": base.mispredictions_per_1000,
                "cmp_misp_per_1000": slip.mispredictions_per_1000,
                "ir_misp_per_1000": slip.ir_mispredictions_per_1000,
                "avg_ir_penalty": slip.avg_ir_penalty,
                "paper_ss_ipc": PAPER["base_ipc"][name],
                "paper_misp_per_1000": PAPER["base_misp_per_1000"][name],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Static/dynamic ineffectuality cross-check (repro.analysis vs the
# IR-detector; no paper analog — an internal validation artifact).
# ----------------------------------------------------------------------

def ineffectuality_crosscheck(
    scale: int = 1, benchmarks: Optional[Sequence[str]] = None
) -> List[Dict]:
    """Per-benchmark agreement between the static write classification
    and the dynamic IR-detector (see :mod:`repro.analysis.ineffectual`).

    ``contradictions`` must be 0 everywhere: a non-zero count means
    either the static analysis claimed a dead write that was observed
    referenced, or the detector issued a WW verdict on a write the
    static analysis proved must-live — both are soundness bugs.
    """
    rows = []
    for name in benchmarks or BENCHMARKS:
        result, _ = run_static(name, scale)
        rows.append(
            {
                "benchmark": name,
                "retired": result.retired,
                "static_dead_pcs": len(result.static.dead_pcs)
                + len(result.static.dead_store_pcs),
                "must_live_pcs": len(result.static.must_live_pcs),
                "dead_executed": result.dead_instances_executed,
                "dead_selected": result.dead_instances_selected,
                "instance_agreement": result.instance_agreement,
                "pc_coverage": result.pc_coverage,
                "contradictions": len(result.static_unsound_pcs)
                + len(result.detector_contradiction_pcs),
                "sound": result.sound,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Static ineffectuality ceiling (repro.analysis.absint/ceiling; no paper
# analog — bounds the removal opportunity the dynamic machinery chases).
# ----------------------------------------------------------------------

def static_ceiling(
    scale: int = 1, benchmarks: Optional[Sequence[str]] = None
) -> List[Dict]:
    """Per-benchmark static removal bounds vs measured dynamic removal.

    ``proven_fraction`` is the *floor*: dynamic instances at PCs the
    abstract interpreter proved ineffectual (removable in every
    execution).  ``ceiling_fraction`` is the *upper bound*: everything
    except the never-removable classes (indirect jumps, OUT, HALT).
    The default slipstream run's ``removal_fraction`` must land inside
    ``[0, ceiling]`` — ``in_bounds`` False is a soundness bug.
    """
    rows = []
    for name in benchmarks or BENCHMARKS:
        _, report = run_static(name, scale)
        slip = run_slipstream_model(name, scale)
        static = report.static
        proven = len(static.proven_pcs)
        rows.append(
            {
                "benchmark": name,
                "retired": report.retired,
                "proven_pcs": proven,
                "dead_write_pcs": len(static.dead_write_pcs)
                + len(static.dead_store_pcs),
                "silent_store_pcs": len(static.silent_store_pcs),
                "pinned_branch_pcs": len(static.branch_always_pcs)
                + len(static.branch_never_pcs),
                "loop_bounds": len(static.loop_trip_bounds),
                "proven_fraction": report.proven_fraction,
                "ceiling_fraction": report.ceiling_fraction,
                "dynamic_removal": slip.removal_fraction,
                "in_bounds": slip.removal_fraction
                <= report.ceiling_fraction + 1e-9,
            }
        )
    return rows


def ablation_static_hints(
    benchmarks: Optional[Sequence[str]] = None,
    scale: int = 1,
) -> List[Dict]:
    """Default slipstream vs the statically-seeded removal table
    (``SlipstreamConfig(static_hints=True)``): removal-rate and IPC
    deltas from pre-warming the per-PC predictor with proven facts."""
    from repro.eval.jobs import STATIC_HINT_BENCHMARKS

    rows = []
    for name in benchmarks or STATIC_HINT_BENCHMARKS:
        base = run_slipstream_model(name, scale)
        hinted = run_slipstream_model(
            name, scale, config=SlipstreamConfig(static_hints=True)
        )
        rows.append(
            {
                "benchmark": name,
                "base_removal": base.removal_fraction,
                "hint_removal": hinted.removal_fraction,
                "removal_delta": hinted.removal_fraction
                - base.removal_fraction,
                "base_ipc": base.ipc,
                "hint_ipc": hinted.ipc,
                "ipc_delta_pct": 100.0 * (hinted.ipc / base.ipc - 1.0)
                if base.ipc else 0.0,
                "base_ir_misp": base.ir_mispredictions,
                "hint_ir_misp": hinted.ir_mispredictions,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Section 3: fault coverage study (no table in the paper; the three
# scenarios made quantitative).
# ----------------------------------------------------------------------

def fault_coverage_study(
    benchmark: str = "m88ksim",
    scale: int = 1,
    points: int = 6,
    sites: Sequence[FaultSite] = (FaultSite.A_RESULT, FaultSite.R_TRANSIENT),
    jobs: int = 1,
) -> CampaignResult:
    """A deterministic fault-injection campaign over one workload.

    ``points`` strike targets spread evenly over the last three quarters
    of the run, struck at every site: each (site, target) pair is one
    cached ``finj`` job (bit 7, slipstream mode) against the default
    ``cmp`` reference, the same path as the scaled campaign.  ``jobs``
    workers run the cold points, submitted in the campaign's
    :func:`~repro.fault.campaign.strike_order` so they share one clean
    timeline per process; the results come back in (site, target)
    order."""
    from repro.eval.jobs import reference_spec
    from repro.eval.runner import ExperimentRunner
    from repro.fault.campaign import (
        CampaignPoint, campaign_specs, mode_stream_lengths, strike_order,
    )
    from repro.fault.coverage import release_timeline

    total = run_instruction_count(benchmark, scale)
    start = total // 4
    stride = max((total - start) // (points + 1), 1)
    strikes = [
        CampaignPoint(benchmark, TransientFault(site, start + i * stride))
        for site in sites
        for i in range(points)
    ]
    specs = campaign_specs(strikes, scale)
    reference = run_cached(reference_spec(benchmark, "slipstream", scale))
    lengths = mode_stream_lengths({"slipstream": {benchmark: reference}})
    try:
        ExperimentRunner(jobs=jobs).run(
            [specs[index] for index in strike_order(strikes, lengths)])
    finally:
        release_timeline()
    return CampaignResult(results=[run_cached(spec) for spec in specs])


def redundancy_frontier_study(
    benchmarks: Optional[Sequence[str]] = None,
    points: Optional[int] = None,
    seed: Optional[int] = None,
    scale: int = 1,
    jobs: int = 1,
):
    """The coverage-vs-throughput frontier: one seeded multi-mode
    campaign striking every :data:`~repro.core.modes.CAMPAIGN_MODES`
    entry, whose per-mode coverage / IPC / detection-latency rows the
    report renders (returns a
    :class:`~repro.fault.campaign.ScaledCampaignResult`).  ``jobs``
    workers run its cold strike points."""
    from repro.core.modes import CAMPAIGN_MODES
    from repro.eval.jobs import (
        FRONTIER_BENCHMARKS, FRONTIER_POINTS, FRONTIER_SEED,
    )
    from repro.fault.campaign import CampaignConfig, run_scaled_campaign

    config = CampaignConfig(
        benchmarks=tuple(benchmarks or FRONTIER_BENCHMARKS),
        scale=scale,
        points_per_benchmark=points if points is not None else FRONTIER_POINTS,
        seed=seed if seed is not None else FRONTIER_SEED,
        modes=CAMPAIGN_MODES,
    )
    result, _stats = run_scaled_campaign(config, jobs=jobs)
    return result


# ----------------------------------------------------------------------
# Ablations (DESIGN.md E-AB1): the design knobs section 2.1.3 and the
# conclusions discuss.
# ----------------------------------------------------------------------

def ablation_confidence_threshold(
    benchmark: str = "m88ksim",
    thresholds: Sequence[int] = (4, 16, 32, 128),
    scale: int = 1,
) -> List[Dict]:
    """Sweep the resetting-counter confidence threshold."""
    rows = []
    for threshold in thresholds:
        result = run_slipstream_model(
            benchmark, scale,
            config=SlipstreamConfig(confidence_threshold=threshold),
        )
        rows.append(
            {
                "threshold": threshold,
                "removal_fraction": result.removal_fraction,
                "ir_misp_per_1000": result.ir_mispredictions_per_1000,
                "ipc": result.ipc,
            }
        )
    return rows


def ablation_trace_length(
    benchmark: str = "m88ksim",
    lengths: Sequence[int] = (16, 32, 64),
    scale: int = 1,
) -> List[Dict]:
    """Sweep the trace length (R-DFG size)."""
    rows = []
    for length in lengths:
        result = run_slipstream_model(
            benchmark, scale, config=SlipstreamConfig(trace_length=length)
        )
        rows.append(
            {
                "trace_length": length,
                "removal_fraction": result.removal_fraction,
                "ipc": result.ipc,
            }
        )
    return rows


def ablation_delay_buffer(
    benchmark: str = "m88ksim",
    capacities: Sequence[int] = (32, 64, 256, 1024),
    scale: int = 1,
) -> List[Dict]:
    """Sweep the delay buffer capacity (A-stream lead distance)."""
    rows = []
    for capacity in capacities:
        result = run_slipstream_model(
            benchmark, scale,
            config=SlipstreamConfig(delay_buffer_capacity=capacity),
        )
        rows.append(
            {
                "capacity": capacity,
                "backpressure_events": result.delay_buffer_backpressure,
                "ipc": result.ipc,
            }
        )
    return rows


def ablation_ir_scope(
    benchmark: str = "m88ksim",
    scopes: Sequence[int] = (1, 4, 8, 16),
    scale: int = 1,
) -> List[Dict]:
    """Sweep the IR-detector analysis scope (kill window)."""
    rows = []
    for scope in scopes:
        result = run_slipstream_model(
            benchmark, scale, config=SlipstreamConfig(ir_scope_traces=scope)
        )
        rows.append(
            {
                "scope_traces": scope,
                "removal_fraction": result.removal_fraction,
                "ipc": result.ipc,
            }
        )
    return rows
