"""Layer-ledger benchmark: host cost of the slipstream simulator.

Run from the repository root::

    python3 ledgerbench/run.py --workload cmp-ir --seed 1 --seconds 50 --trace 0

``--trace 0`` repeats cold timed passes of the workload until
``--seconds`` is used up and reports the end-to-end metrics (medians
over the passes, with the pass times corrected to a reference host
speed by ``hostspeed.py``).  ``--trace 1`` runs one untraced and one cProfile'd
pass and reports the per-layer ledger instead.  Either way every
simulated result is checked; a wrong one makes the run exit 1.  The
last line of standard output is one JSON object.

Everything runs in this one process, one job at a time.  All times
are host times; the simulated statistics are deterministic and are
checked, not measured.  The model is unvalidated against real
hardware, so no accuracy error is given: the check is agreement with
golden results captured from this repository and with the functional
simulator.  See ``ledgerbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Mapping, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR = BENCH_DIR / "_work"

#: Child interpreters that each time one import of the simulator.
IMPORT_SAMPLES = 9
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
c0 = time.process_time()
import workloads
print(time.process_time() - c0)
"""

_FALSY = frozenset({"0", "false", "off", "no"})

#: Settings that change which engine or path runs, so numbers taken
#: under them do not compare with the default configuration.
RECORDED_ENV = ("REPRO_OBS", "REPRO_OBS_TRACE_DIR", "REPRO_COMPILED",
                "REPRO_COMPILED_TIMING", "REPRO_EVAL_REMOTE",
                "REPRO_WORKLOAD_LINT")

UNVALIDATED_NOTE = (
    "model unvalidated against real hardware: no accuracy error is given; "
    "results are checked against golden digests and the functional simulator")


def guard(env: Mapping[str, str]) -> List[str]:
    """Why the environment would make this run incomparable (empty: fine)."""
    problems = []
    if env.get("REPRO_OBS", "") not in ("", "0") or env.get("REPRO_OBS_TRACE_DIR"):
        problems.append("observability is on (REPRO_OBS / REPRO_OBS_TRACE_DIR)")
    for name in ("REPRO_COMPILED", "REPRO_COMPILED_TIMING"):
        value = env.get(name)
        if value is not None and value.strip().lower() in _FALSY:
            problems.append(f"{name}={value} selects the scalar engine")
    if env.get("REPRO_EVAL_REMOTE"):
        problems.append("REPRO_EVAL_REMOTE sends eval jobs to a remote daemon")
    if env.get("REPRO_WORKLOAD_LINT", "1") == "0":
        problems.append("REPRO_WORKLOAD_LINT=0 skips the build-time lint")
    return problems


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cmp-ir", "ss-base", "fault-slice"))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the workload's jobs (default: 0)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time budget of the timed passes (default: 50)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="campaign seed of fault-slice (default: 2000, "
                             "the seed of BENCH_fault.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Bench:
    """One workload's passes, checks and tallies within one run."""

    def __init__(self, workload: str, seed: int, fault_seed: int,
                 refs, work_dir: Path):
        import workloads

        self.w = workloads
        self.workload = workload
        self.jobs = workloads.job_list(workload, seed)
        self.fault_seed = fault_seed
        self.refs = refs
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.last_outcomes: list = []
        self.last_cache_bytes = 0

    def set_up(self):
        """(programs, CPU seconds) of one timed set-up."""
        gc.collect()
        c0 = time.process_time()
        programs = self.w.set_up(self.workload)
        return programs, time.process_time() - c0

    def one_pass(self, programs, hook=None) -> Dict[str, float]:
        """One cold pass: CPU and wall seconds and instructions retired.

        ``hook`` wraps the timed region: the traced run's profiler, or
        the timed runs' host-speed probe.
        """
        cache_root = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        try:
            self.w.prepare_cold(self.workload, cache_root)
            gc.collect()
            outcomes = []
            if hook is not None:
                hook(True)
            c0 = time.process_time()
            w0 = time.perf_counter()
            for job in self.jobs:
                try:
                    outcomes.append((job, self.w.run_job(job, programs, self.fault_seed), None))
                except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
                    outcomes.append((job, None, traceback.format_exc()))
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            if hook is not None:
                hook(False)
            eval_jobs_run = self.w.eval_job_count()
            self.last_cache_bytes = sum(
                path.stat().st_size for path in Path(cache_root).rglob("*")
                if path.is_file())
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)

        instructions = 0
        for job, result, error in outcomes:
            if error is None:
                error = self.w.check_job(self.workload, job, result, self.refs,
                                         self.fault_seed)
            attempted, failed = self.w.job_tally(job, result, error, eval_jobs_run)
            self.attempted += attempted
            self.failed += failed
            if error is not None:
                print(f"ERROR {error}", file=sys.stderr)
                continue
            instructions += self.w.pass_instructions(job, result, self.refs, eval_jobs_run)
        self.last_outcomes = outcomes
        return {"cpu_s": cpu, "wall_s": wall, "instructions": instructions}


def import_seconds() -> List[float]:
    """CPU seconds to import the simulator, once per fresh interpreter.

    Imports happen once per process, so each sample is taken in a child
    interpreter; the children run one at a time and are waited for.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def end_to_end(bench: Bench, seconds: float) -> Dict[str, float]:
    """Cold passes until the budget is spent; medians of the passes.

    Each pass's CPU and wall times, less the host-speed probe's own
    time, are divided by the pass's host-speed factor (``hostspeed.py``),
    which takes the shared host's slow and fast phases out of them; the
    set-up time is divided by the run's median factor.  Another pass
    starts while it is expected to end less than half a pass past
    ``seconds`` from the first one's start, so a run takes about
    ``seconds``; the first pass always runs.
    """
    import hostspeed

    passes: List[Dict[str, float]] = []
    setups: List[float] = []
    sampler = hostspeed.Sampler()
    start = time.perf_counter()
    imports = import_seconds()
    print(f"import: {', '.join(f'{s:.4f}' for s in imports)} s")
    while True:
        programs, setup_cpu = bench.set_up()
        setups.append(setup_cpu)
        sampler.reset()
        measured = bench.one_pass(programs, hook=sampler.switch)
        factor = sampler.factor()
        measured["cpu_s"] = (measured["cpu_s"] - sampler.cpu_s) / factor
        measured["wall_s"] = (measured["wall_s"] - sampler.wall_s) / factor
        measured["factor"] = factor
        passes.append(measured)
        print(f"pass {len(passes)}: cpu {measured['cpu_s']:.4f} s, "
              f"wall {measured['wall_s']:.4f} s at host-speed factor "
              f"{factor:.4f} ({len(sampler.samples)} probes, "
              f"{sampler.cpu_s:.4f} s), set-up {setup_cpu:.4f} s, "
              f"{measured['instructions']} instructions")
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(passes)) > seconds:
            break
    cpu = statistics.median(p["cpu_s"] for p in passes)
    instructions = statistics.median(p["instructions"] for p in passes)
    return {
        "cpu_s": cpu,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "kips": instructions / cpu / 1000.0,
        "setup_s": (statistics.median(imports) + statistics.median(setups))
                   / statistics.median(p["factor"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": len(passes),
    }


def traced(bench: Bench) -> Dict[str, float]:
    """One untraced and one cProfile'd set-up + pass: the layer ledger."""
    import cProfile
    import pstats

    import ledger
    import repro
    from repro.core.delay_buffer import DelayBuffer
    from repro.core.ir_detector import IRDetector
    from repro.core.ir_predictor import IRPredictor
    from repro.core.recovery import RecoveryController
    from repro.eval.jobs import simulate
    from repro.trace.predictor import TracePredictor

    programs, setup_cpu = bench.set_up()
    untraced = setup_cpu + bench.one_pass(programs)["cpu_s"]

    profiler = cProfile.Profile()
    gc.collect()
    with ledger.CounterTap() as tap:
        c0 = time.process_time()
        profiler.enable()
        programs = bench.w.set_up(bench.workload)
        profiler.disable()
        traced_setup = time.process_time() - c0
        measured = bench.one_pass(
            programs, hook=lambda on: profiler.enable() if on else profiler.disable())
    traced_cpu = traced_setup + measured["cpu_s"]

    stats = pstats.Stats(profiler)
    package_dir = str(Path(repro.__file__).resolve().parent)
    charged = ledger.charge_layers(stats, package_dir)
    total = ledger.profile_total(stats)
    if abs(sum(charged.values()) - total) > 1e-6 * max(total, 1.0):
        raise RuntimeError(f"ledger does not close: layers sum to "
                           f"{sum(charged.values())} s of {total} s")
    totals = tap.totals

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    calls = {fn: ledger.call_count(stats, fn) for fn in (
        TracePredictor.update, IRPredictor.predict, IRDetector.feed_trace,
        DelayBuffer.push, RecoveryController.recover, simulate)}
    obs_calls = ledger.module_calls(stats, package_dir, "repro.obs")
    probes = obs_calls.pop("obs_enabled", 0) + obs_calls.pop("job_observability", 0)
    campaign = next((result for job, result, _ in bench.last_outcomes
                     if job.model == "campaign" and result is not None), None)

    metrics: Dict[str, float] = {}
    for layer in ledger.LEDGER_LAYERS:
        metrics[f"{layer}.self_s"] = charged[layer]
        metrics[f"{layer}.share"] = per(charged[layer], total)
    memo_total = totals["memo_hit"] + totals["memo_miss"] + totals["memo_fallback"]
    metrics.update({
        "arch.instrs": totals["arch_instrs"],
        "arch.ns_per_instr": per(charged["arch"], totals["arch_instrs"], 1e9),
        "trace.traces": calls[TracePredictor.update],
        "trace.ns_per_trace": per(charged["trace"], calls[TracePredictor.update], 1e9),
        "trace.mispredicts_per_1k": per(totals["branch_mispredicts"],
                                        totals["trace_instrs"], 1e3),
        "ir_predictor.predicts": calls[IRPredictor.predict],
        "ir_predictor.removal_frac": per(totals["a_removed"],
                                         totals["a_executed"] + totals["a_removed"]),
        "ir_predictor.ir_mispredicts": totals["ir_mispredicts"],
        "ir_detector.traces": calls[IRDetector.feed_trace],
        "ir_detector.ns_per_trace": per(charged["ir_detector"],
                                        calls[IRDetector.feed_trace], 1e9),
        "ir_detector.selected_frac": per(totals["detector_selected"],
                                         totals["slip_instrs"]),
        "delay_recovery.pushes": calls[DelayBuffer.push],
        "delay_recovery.backpressure": totals["backpressure"],
        "delay_recovery.recoveries": calls[RecoveryController.recover],
        "timing.instrs": totals["timing_instrs"],
        "timing.ns_per_instr": per(charged["timing"], totals["timing_instrs"], 1e9),
        "timing.memo_hit_frac": per(totals["memo_hit"], memo_total),
        "timing.fallbacks": totals["memo_fallback"],
        "slipstream.ns_per_instr": per(charged["slipstream"], totals["slip_instrs"], 1e9),
        "fault.points": len(campaign.points) if campaign is not None else 0,
        "fault.coverage": (campaign.coverage or 0.0) if campaign is not None else 0.0,
        "eval.jobs": calls[simulate],
        "eval.ms_per_job": per(charged["eval"], calls[simulate], 1e3),
        "eval.cache_bytes": bench.last_cache_bytes,
        "obs.calls": sum(obs_calls.values()),
        "obs.probes": probes,
        "ledger.total_s": total,
        "trace_overhead": traced_cpu / untraced,
    })
    return metrics


UNITS = {
    "cpu_s": "s", "wall_s": "s", "kips": "kinstr/s", "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if name == "trace_overhead":
        return "x"
    if suffix == "self_s" or name == "ledger.total_s":
        return "s"
    if suffix.startswith("ns_per_"):
        return "ns"
    if suffix == "ms_per_job":
        return "ms"
    if suffix == "cache_bytes":
        return "bytes"
    if suffix == "mispredicts_per_1k":
        return "1/kinstr"
    if suffix in ("share", "removal_frac", "selected_frac", "memo_hit_frac",
                  "coverage"):
        return "fraction"
    return "count"


def environment_record() -> Dict[str, object]:
    from repro.eval.jobs import code_fingerprint

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "code_fingerprint": code_fingerprint(),
        "env": {name: os.environ.get(name) for name in RECORDED_ENV},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    problems = guard(os.environ)
    if problems:
        for problem in problems:
            print(f"refusing to run: {problem}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file() or not GOLDEN_PATH.is_file():
        print(f"refusing to run: no repro sources under {SRC} "
              f"or no golden results at {GOLDEN_PATH}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"refusing to run: repro imported from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    fault_seed = (workloads.DEFAULT_FAULT_SEED if args.fault_seed is None
                  else args.fault_seed)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        programs = workloads.set_up(args.workload)
        refs = workloads.References(
            golden=golden, functional=workloads.functional_references(programs))
        del programs
        bench = Bench(args.workload, args.seed, fault_seed, refs, work_dir)
        print(f"workload {args.workload}: jobs "
              f"{[job.label for job in bench.jobs]}, seed {args.seed}, "
              f"fault seed {fault_seed}")
        print("environment " + json.dumps(environment_record(), sort_keys=True))
        print(f"note: {UNVALIDATED_NOTE}")
        if args.trace:
            metrics = traced(bench)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            measured = end_to_end(bench, args.seconds)
            print(f"passes: {measured.pop('passes')}")
            metrics = measured
            units = dict(UNITS)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"error_rate {error_rate} fraction ({bench.failed} of {bench.attempted} jobs)")
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
