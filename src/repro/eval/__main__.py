"""Generate the full experiment report (EXPERIMENTS.md content).

Run:  python -m repro.eval [scale] [--jobs N] [--bench-out PATH]
Or:   python -m repro.eval serve [--port N] [--backend NAME] ...

Regenerates every table and figure of the paper's evaluation plus the
fault study and ablations, and prints a markdown report with
paper-vs-measured columns.

The underlying simulations are enumerated as jobs, deduplicated, fanned
out over ``--jobs`` workers and cached persistently under
``.cache/repro-eval/`` (see :mod:`repro.eval.runner`); a warm re-run
performs zero simulations.  Timing of each pass is written to
``BENCH_runner.json``.

The ``serve`` subcommand instead starts the eval-as-a-service daemon
(:mod:`repro.eval.serve`): a local HTTP/JSON API over the same job
machinery, sharing one cache root and one worker pool across many
concurrent clients.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.obs.session import ENV_ENABLE, ENV_TRACE_DIR

from repro.core.removal import CATEGORIES
from repro.eval import models
from repro.eval.backends import BACKENDS
from repro.eval.experiments import (
    ablation_confidence_threshold,
    ablation_delay_buffer,
    ablation_ir_scope,
    ablation_static_hints,
    fault_coverage_study,
    redundancy_frontier_study,
    figure6,
    ineffectuality_crosscheck,
    figure7,
    figure8,
    static_ceiling,
    table1,
    table2,
    table3,
)
from repro.eval.jobs import (
    ABLATION_BENCHMARK,
    ABLATION_CONFIDENCE_THRESHOLDS,
    ABLATION_DELAY_CAPACITIES,
    ABLATION_IR_SCOPES,
    FAULT_STUDY_BENCHMARK,
    FAULT_STUDY_POINTS,
    DiskCache,
    enumerate_artifact_jobs,
)
from repro.eval.metrics import arithmetic_mean
from repro.eval.profiling import DEFAULT_BENCH_PATH, write_bench
from repro.eval.resilience import RetryPolicy
from repro.eval.runner import ExperimentRunner


def _md_table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _backend_name(value: str) -> str:
    """Validate --backend: a registry name or remote[:HOST:PORT]."""
    if value in BACKENDS or value == "remote" or value.startswith("remote:"):
        return value
    raise argparse.ArgumentTypeError(
        f"unknown backend {value!r}; expected one of "
        f"{', '.join(sorted(BACKENDS))} or remote[:HOST:PORT]"
    )


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's evaluation artifacts.",
    )
    parser.add_argument("scale", nargs="?", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the simulation sweep "
                             "(default 1: inline)")
    parser.add_argument("--backend", type=_backend_name, default=None,
                        metavar="NAME",
                        help="worker backend for --jobs > 1: "
                             f"{', '.join(sorted(BACKENDS))}, or "
                             "remote[:HOST:PORT] to forward jobs to an "
                             "eval daemon (default spawn)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-job attempt wall-clock timeout; a stuck "
                             "job is killed and retried, not the pass")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retries per failing job, with exponential "
                             "backoff (default 2)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete the persistent cache before running")
    parser.add_argument("--bench-out", default=DEFAULT_BENCH_PATH,
                        metavar="PATH",
                        help="where to write the runner timing JSON "
                             f"(default {DEFAULT_BENCH_PATH}; '-' disables)")
    parser.add_argument("--no-report", action="store_true",
                        help="run the simulation sweep only (warm the "
                             "cache, write the bench file, skip the "
                             "markdown report)")
    parser.add_argument("--obs", action="store_true",
                        help="enable observability: per-job RunReports "
                             "folded into the bench JSON (sets "
                             f"{ENV_ENABLE}=1 for workers too)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write one JSONL event trace per simulated "
                             "job under DIR (implies --obs; sets "
                             f"{ENV_TRACE_DIR})")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.scale < 1:
        parser.error("scale must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    return args


def render_report(scale: int) -> str:
    """The markdown report body (reads through the warmed caches)."""
    out = []
    w = out.append

    w("# EXPERIMENTS — paper vs. measured\n")
    w("Generated by `python -m repro.eval` (workload scale "
      f"{scale}).  Absolute numbers are not expected to match a 2000-era\n"
      "custom simulator on real SPEC95 binaries; the *shape* — who wins,\n"
      "by roughly what factor, where the crossovers fall — is the\n"
      "reproduction target (see DESIGN.md).\n")
    w("Every simulation behind this report is a deduplicated, cacheable\n"
      "job: `python -m repro.eval --jobs N` fans the cold ones out over N\n"
      "processes and stores results under `.cache/repro-eval/`, keyed by\n"
      "job identity plus a hash of the simulator sources, so a warm\n"
      "re-run performs zero simulations (delete the directory or pass\n"
      "`--clear-cache` to start cold).  Each pass records its timing in\n"
      "`BENCH_runner.json`: `wall_clock_seconds` for the sweep,\n"
      "`sequential_estimate_seconds` (sum of per-job CPU time),\n"
      "`speedup_vs_sequential` = their ratio (`null` on warm passes),\n"
      "`cpu_count`/`workers` (so oversubscribed speedups read as such),\n"
      "`warm` (true when nothing was simulated) and a `per_job`\n"
      "provenance/timing breakdown with each job's queue delay.  Cold\n"
      "jobs are submitted longest-first using per-job durations learned\n"
      "across passes (`.cache/repro-eval/durations.json`).\n")
    w("Pass `--obs` to attach a per-job `RunReport` — removal fraction,\n"
      "IR-misp/1000, backpressure: the same values the tables below\n"
      "print — to each fresh `per_job` row, and `--trace-dir DIR` to\n"
      "additionally write one JSONL event trace per simulated job\n"
      "(`python -m repro.obs summarize|diff|validate` reads them back).\n"
      "Instrumentation is behavior-neutral: every number in this report\n"
      "is bit-identical with observability on or off (DESIGN.md §7.6).\n")
    w("Both fast paths behind these numbers are opt-out and\n"
      "identity-checked in CI: `REPRO_COMPILED=0` falls back to the\n"
      "interpreted execution engine (§7.8, `BENCH_perf_smoke.json`) and\n"
      "`REPRO_COMPILED_TIMING=0` to the scalar per-instruction scheduler\n"
      "on the superscalar baselines (§7.9, `BENCH_timing.json` — ~1.9×\n"
      "on ss64, timestamps identical either way; slipstream always runs\n"
      "its fused timing loops).  Neither flag enters config fingerprints,\n"
      "so toggling them never invalidates cached results.\n")

    # Table 1 -----------------------------------------------------------
    w("## Table 1: benchmarks\n")
    rows = [
        (r["benchmark"], r["paper_input"], r["analog"],
         f'{r["instr_count"]:,}', f'{r["paper_instr_count_millions"]}M')
        for r in table1(scale)
    ]
    w(_md_table(
        ["benchmark", "input (paper)", "analog", "instr. (ours)",
         "instr. (paper)"], rows))
    w("\nOur analogs run at roughly 1/1000 the paper's dynamic sizes —"
      "\nlarge enough to train the predictors past the confidence"
      "\nthreshold of 32, small enough for pure Python.\n")

    # Table 2 -----------------------------------------------------------
    w("## Table 2: microarchitecture configuration\n")
    config = table2()
    for section, entries in config.items():
        w(f"**{section}**\n")
        w(_md_table(["parameter", "value"],
                    [(k, v) for k, v in entries.items()]))
        w("")

    # Figure 6 ----------------------------------------------------------
    w("## Figure 6: CMP(2x64x4) IPC improvement over SS(64x4)\n")
    f6 = figure6(scale)
    rows = [
        (r["benchmark"], f'{r["base_ipc"]:.2f}', f'{r["slip_ipc"]:.2f}',
         f'{r["gain_pct"]:+.1f}%', f'{r["paper_gain_pct"]:+.1f}%')
        for r in f6
    ]
    avg = arithmetic_mean([r["gain_pct"] for r in f6])
    w(_md_table(["benchmark", "SS(64x4) IPC", "CMP IPC", "gain (ours)",
                 "gain (paper)"], rows))
    w(f"\nAverage gain: **{avg:+.1f}%** (paper: +7%).  Shape: m88ksim and"
      "\nperl are the big winners, vortex/li/gcc moderate, and the"
      "\nchaotic/low-removal trio (compress, go, jpeg) flat — matching the"
      "\npaper's ordering.\n")

    # Figure 7 ----------------------------------------------------------
    w("## Figure 7: SS(128x8) IPC improvement over SS(64x4)\n")
    f7 = figure7(scale)
    rows = [
        (r["benchmark"], f'{r["base_ipc"]:.2f}', f'{r["big_ipc"]:.2f}',
         f'{r["gain_pct"]:+.1f}%')
        for r in f7
    ]
    big_avg = arithmetic_mean([r["gain_pct"] for r in f7])
    w(_md_table(["benchmark", "SS(64x4) IPC", "SS(128x8) IPC", "gain"], rows))
    w(f"\nAverage gain: **{big_avg:+.1f}%** (paper: +28%).  As in the paper,"
      f"\nthe slipstream CMP achieves a sizeable fraction"
      f" ({avg / big_avg:.2f}; paper ~0.25) of the big core's gain while"
      "\nusing two small cores.\n")

    # Figure 8 ----------------------------------------------------------
    for mode, title in (("full", "top: full removal"),
                        ("branch_only", "bottom: branch-only removal")):
        w(f"## Figure 8 ({title})\n")
        f8 = figure8(mode, scale)
        headers = ["benchmark", "total"] + list(CATEGORIES)
        rows = []
        for r in f8:
            row = [r["benchmark"], f'{100 * r["total_fraction"]:.1f}%']
            row += [f'{100 * r["categories"].get(c, 0):.1f}' for c in CATEGORIES]
            rows.append(tuple(row))
        w(_md_table(headers, rows))
        if mode == "full":
            w("\nPaper totals: m88ksim ~48%, perl 20%, vortex 16%, li 10%,"
              "\ngcc 8%, others ≤8%.  Ours preserve the ordering with"
              "\nm88ksim far ahead, dominated by SV and propagated chains.\n")
        else:
            w("\nAs in the paper, removing only branches collapses"
              "\nm88ksim's fraction (its removal is ineffectual-write"
              "\ndominated) and leaves only BR / P: BR categories.\n")

    # Table 3 -----------------------------------------------------------
    w("## Table 3: misprediction measurements\n")
    t3 = table3(scale)
    rows = [
        (r["benchmark"],
         f'{r["ss_ipc"]:.2f}', f'{r["paper_ss_ipc"]:.2f}',
         f'{r["ss_misp_per_1000"]:.2f}', f'{r["paper_misp_per_1000"]:.1f}',
         f'{r["cmp_misp_per_1000"]:.2f}',
         f'{r["ir_misp_per_1000"]:.3f}',
         f'{r["avg_ir_penalty"]:.1f}' if r["avg_ir_penalty"] else "-")
        for r in t3
    ]
    w(_md_table(
        ["benchmark", "IPC", "IPC (paper)", "misp/1000", "misp/1000 (paper)",
         "CMP misp/1000", "IR-misp/1000", "avg IR penalty"], rows))
    w("\nAs in the paper: instruction removal succeeds exactly where"
      "\nbranch prediction succeeds; slipstreaming leaves the branch"
      "\nmisprediction rate essentially unchanged; IR-mispredictions are"
      "\nrare (paper: <0.05/1000) and their penalty sits near the 21-cycle"
      "\nminimum (paper: 22-26).\n")

    # Static/dynamic ineffectuality cross-check -------------------------
    w("## Static/dynamic ineffectuality cross-check\n")
    xrows = ineffectuality_crosscheck(scale)
    rows = [
        (r["benchmark"], f'{r["retired"]:,}', r["static_dead_pcs"],
         r["must_live_pcs"], f'{r["dead_selected"]:,}/{r["dead_executed"]:,}',
         f'{r["instance_agreement"]:.1%}', f'{r["pc_coverage"]:.1%}',
         r["contradictions"], "yes" if r["sound"] else "**NO**")
        for r in xrows
    ]
    w(_md_table(
        ["benchmark", "retired", "dead PCs", "must-live PCs",
         "dead classified/executed", "instance agreement", "PC coverage",
         "contradictions", "sound"], rows))
    w("\nThe static analyzer (`repro.analysis`) classifies every register"
      "\nwrite as dead / must-live / partial; the IR-detector's dynamic"
      "\nverdicts are checked against it.  Agreement below 100% is the"
      "\ndetector's finite analysis scope (a dead value overwritten only"
      "\nafter its trace leaves the 8-trace scope is legitimately missed);"
      "\ncontradictions must be zero — any statically-dead write observed"
      "\nreferenced, or WW verdict on a must-live write, is a soundness"
      "\nbug.\n")

    # Static ineffectuality ceiling -------------------------------------
    w("## Static ineffectuality ceiling (abstract interpretation)\n")
    crows = static_ceiling(scale)
    rows = [
        (r["benchmark"], f'{r["retired"]:,}', r["proven_pcs"],
         r["dead_write_pcs"], r["silent_store_pcs"], r["pinned_branch_pcs"],
         f'{r["proven_fraction"]:.1%}', f'{r["dynamic_removal"]:.1%}',
         f'{r["ceiling_fraction"]:.1%}',
         "yes" if r["in_bounds"] else "**NO**")
        for r in crows
    ]
    w(_md_table(
        ["benchmark", "retired", "proven PCs", "dead writes",
         "silent stores", "pinned branches", "proven floor",
         "dynamic removal", "ceiling", "in bounds"], rows))
    w("\nThe interval abstract interpreter (`repro.analysis.absint`)"
      "\nproves per-PC facts that hold in *every* execution: dead"
      "\nwrites/stores, silent stores, single-direction branches.  The"
      "\nproven floor weights those PCs by the execution profile; the"
      "\nceiling excludes only the never-removable classes (indirect"
      "\njumps, OUT, HALT).  The dynamic slipstream removal fraction must"
      "\nfall at or below the ceiling on every workload"
      "\n(`python -m repro.analysis ceiling` prints the same reports).\n")

    w("**Static-hint seeding** (opt-in `SlipstreamConfig(static_hints=True)`)\n")
    hrows = ablation_static_hints()
    rows = [
        (r["benchmark"], f'{r["base_removal"]:.3f}', f'{r["hint_removal"]:.3f}',
         f'{r["removal_delta"]:+.3f}', f'{r["base_ipc"]:.2f}',
         f'{r["hint_ipc"]:.2f}', f'{r["ipc_delta_pct"]:+.1f}%',
         f'{r["base_ir_misp"]}/{r["hint_ir_misp"]}')
        for r in hrows
    ]
    w(_md_table(
        ["benchmark", "removal (base)", "removal (hints)", "Δremoval",
         "IPC (base)", "IPC (hints)", "ΔIPC", "IR-misp base/hints"], rows))
    w("\nSeeding the per-PC removal table with the statically-proven"
      "\nfacts (pinned at the confidence threshold, exempt from ir-vec"
      "\nverification) removes proven-ineffectual instances from the"
      "\nfirst dynamic instance instead of after the training warm-up."
      "\nThe mode defaults off; the golden suite is bit-identical with"
      "\nit off.\n")

    # Fault study -------------------------------------------------------
    w("## Section 3: fault-injection study\n")
    campaign = fault_coverage_study(benchmark=FAULT_STUDY_BENCHMARK,
                                    points=FAULT_STUDY_POINTS)
    rows = []
    for site, outcomes in campaign.by_site().items():
        for outcome, count in sorted(outcomes.items(), key=lambda kv: kv[0].value):
            rows.append((site.value, outcome.value, count))
    w(_md_table(["fault site", "outcome", "count"], rows))
    coverage = ("n/a (no harmful faults fired)" if campaign.coverage is None
                else f"{campaign.coverage:.2f}")
    w(f"\nCoverage of harmful faults: **{coverage}**."
      "\nA-stream faults and redundantly-executed R-stream faults are"
      "\ntransparently detected and recovered (scenario #1 / #3);"
      "\nbypassed-region and architectural R-stream faults can escape"
      "\n(scenario #2; the paper's partial-coverage caveat and its ECC"
      "\nrecommendation).  `tests/test_fault_injection.py` demonstrates"
      "\nthe harmful scenario-2 variant explicitly.\n")

    # Coverage-vs-throughput frontier --------------------------------
    w("### Coverage-vs-throughput frontier (redundancy modes)\n")
    frontier = redundancy_frontier_study(scale=scale)
    rows = []
    for r in frontier.frontier():
        cov = "n/a" if r["coverage"] is None else f'{r["coverage"]:.2f}'
        ipc = "n/a" if r["throughput_ipc"] is None else f'{r["throughput_ipc"]:.2f}'
        rel = "n/a" if r["relative_ipc"] is None else f'{r["relative_ipc"]:.2f}'
        lat = ("-" if r["mean_detect_latency"] is None
               else f'{r["mean_detect_latency"]:.1f}')
        rows.append((r["mode"], r["n_streams"], r["points"], r["harmful"],
                     cov, ipc, rel, lat))
    w(_md_table(["mode", "streams", "points", "harmful", "coverage",
                 "IPC", "useful IPC/context vs SS(64x4)",
                 "mean detect latency"], rows))
    w("\nEach redundancy mode buys fault coverage with throughput:"
      "\nslipstream detects what the R-stream redundantly executes;"
      "\n`tmr` outvotes any single-stream strike with zero rollbacks at"
      "\nroughly one third the per-context useful throughput; `replay`"
      "\nre-executes only sampled windows, so escapes rise as the scrub"
      "\ninterval stretches; `decorrelated` shifts the streams'"
      "\naddress/register layouts so a layout-correlated double strike"
      "\ncan no longer silently agree (DESIGN.md §7.12).\n")

    # Ablations ---------------------------------------------------------
    w(f"## Ablations (DESIGN.md E-AB1, on the {ABLATION_BENCHMARK} analog)\n")
    w("**Confidence threshold** (paper §2.1.1)\n")
    rows = [(r["threshold"], f'{r["removal_fraction"]:.3f}',
             f'{r["ir_misp_per_1000"]:.3f}', f'{r["ipc"]:.2f}')
            for r in ablation_confidence_threshold(
                ABLATION_BENCHMARK, ABLATION_CONFIDENCE_THRESHOLDS)]
    w(_md_table(["threshold", "removal", "IR-misp/1000", "IPC"], rows))
    w("\n**Delay-buffer capacity** (paper §2.2)\n")
    rows = [(r["capacity"], r["backpressure_events"], f'{r["ipc"]:.2f}')
            for r in ablation_delay_buffer(
                ABLATION_BENCHMARK, ABLATION_DELAY_CAPACITIES)]
    w(_md_table(["capacity", "backpressure events", "IPC"], rows))
    w("\n**IR-detector scope** (paper §2.1.2)\n")
    rows = [(r["scope_traces"], f'{r["removal_fraction"]:.3f}', f'{r["ipc"]:.2f}')
            for r in ablation_ir_scope(ABLATION_BENCHMARK, ABLATION_IR_SCOPES)]
    w(_md_table(["scope (traces)", "removal", "IPC"], rows))
    w("\nLower confidence thresholds remove more but mispredict removal"
      "\nmore often; small delay buffers throttle the A-stream; a"
      "\none-trace detector scope misses the cross-trace kills that"
      "\nexpose ineffectual writes.\n")

    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> None:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        from repro.eval import serve

        raise SystemExit(serve.main(argv[1:]))
    args = parse_args(argv)
    # Observability configuration travels through the environment so
    # that ProcessPoolExecutor workers inherit it.
    if args.trace_dir:
        os.environ[ENV_TRACE_DIR] = args.trace_dir
    if args.obs or args.trace_dir:
        os.environ[ENV_ENABLE] = "1"
    if args.clear_cache:
        removed = DiskCache().clear()
        print(f"[repro.eval] cleared {removed} cached result(s)",
              file=sys.stderr)
    if args.no_cache:
        models.configure_disk_cache(enabled=False)

    specs = enumerate_artifact_jobs(args.scale)
    policy = RetryPolicy(timeout_seconds=args.timeout,
                         max_retries=args.retries)
    runner = ExperimentRunner(jobs=args.jobs,
                              use_disk_cache=not args.no_cache,
                              policy=policy,
                              backend=args.backend)
    stats = runner.run(specs)
    resilience = ""
    if stats.retried or stats.timeouts or stats.pool_rebuilds:
        resilience = (f" ({stats.retried} retried, {stats.timeouts} "
                      f"timeouts, {stats.pool_rebuilds} pool rebuilds)")
    print(
        f"[repro.eval] {stats.deduplicated} unique jobs "
        f"({stats.requested} requested): {stats.simulated} simulated, "
        f"{stats.disk_hits} disk hits, {stats.memory_hits} memory hits "
        f"in {stats.wall_seconds:.1f}s with --jobs {stats.jobs}"
        f"{resilience}",
        file=sys.stderr,
    )

    report_seconds = None
    if not args.no_report:
        t0 = time.perf_counter()
        report = render_report(args.scale)
        report_seconds = time.perf_counter() - t0
        print(report)

    if args.bench_out != "-":
        path = write_bench(stats, args.scale, args.bench_out, report_seconds)
        print(f"[repro.eval] wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
