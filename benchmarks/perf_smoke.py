"""Perf smoke: the compiled paths must not be slower than the scalar ones.

Two sections, the second selected by ``--timing``:

**ISA section** (default) runs the pinned ``cmp/li`` co-simulation (the
sweep's heavyweight job shape) once per execution engine, ``--reps``
times each, and compares the minimum CPU seconds — CPU time, not wall
clock, so a noisy shared CI runner does not flap the check.  The two
engines' ``SlipstreamResult``s must also be equal, making this a cheap
end-to-end identity smoke on top of the dedicated test suite.

**Timing section** (``--timing``) does the same A/B for the memoized
timing model (:mod:`repro.uarch.compiled_timing`), toggled through
``REPRO_COMPILED_TIMING``, on the superscalar baseline (``ss64``), and
additionally asserts that the recorded per-instruction pipeline
:class:`~repro.uarch.scheduler.Timestamps` are identical under both
modes.  The gate is strict: memoized may never be slower.  The
slipstream co-simulation always schedules through its fused loops, so
the flag does not change what it runs and it has no row here.

Fails (exit 1) only when a compiled path is *slower* than its scalar
reference (or results differ): the point is to catch a
regression that silently turns the default path into a pessimization,
not to enforce a specific speedup on unknown CI hardware.  The measured
numbers are written as JSON for artifact upload; read a ratio with::

    python -c "import json; print(json.load(open('BENCH_perf_smoke.json'))['speedup'])"
    python -c "import json; print(json.load(open('BENCH_timing.json'))['models']['ss64']['speedup'])"
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.core.slipstream import SlipstreamProcessor
from repro.uarch import SS_64x4
from repro.uarch.compiled_timing import TIMING_ENV
from repro.uarch.core import SuperscalarCore
from repro.uarch.timeline import trace_core_timeline
from repro.workloads.suite import get_benchmark

BENCHMARK = "li"


def measure(program, engine: str, reps: int):
    """(min CPU seconds, result) over ``reps`` fresh co-simulations."""
    best = None
    result = None
    for _ in range(reps):
        c0 = time.process_time()
        result = SlipstreamProcessor(program, engine=engine).run()
        cpu = time.process_time() - c0
        if best is None or cpu < best:
            best = cpu
    return best, result


def measure_timing(factory, reps: int):
    """A/B the compiled timing model: {"on"|"off": (min CPU s, result)}.

    Rounds are interleaved (on, off, on, off, ...) so drifting machine
    load hits both modes symmetrically; each round constructs a fresh
    simulator via ``factory`` because the mode is latched at run start.
    """
    out = {}
    rounds = {"on": [], "off": []}
    for _ in range(reps):
        for mode, flag in (("on", "1"), ("off", "0")):
            os.environ[TIMING_ENV] = flag
            sim = factory()
            c0 = time.process_time()
            result = sim.run()
            cpu = time.process_time() - c0
            rounds[mode].append(round(cpu, 4))
            if mode not in out or cpu < out[mode][0]:
                out[mode] = (cpu, result)
    return out, rounds


def timestamps_identical() -> bool:
    """True iff the recorded pipeline timestamps of every instruction
    match between the memoized and scalar timing paths (jpeg@1 on the
    superscalar baseline, captured through the timeline recorder)."""
    program = get_benchmark("jpeg").program(1)
    stamps = {}
    for flag in ("1", "0"):
        os.environ[TIMING_ENV] = flag
        core = SuperscalarCore(SS_64x4, program)
        timeline = trace_core_timeline(core, limit=1 << 30)
        core.run()
        stamps[flag] = [entry.stamps for entry in timeline.entries]
    return stamps["1"] == stamps["0"]


def timing_main(args) -> int:
    program = get_benchmark(BENCHMARK).program(1)
    runs = {
        "ss64": measure_timing(
            lambda: SuperscalarCore(SS_64x4, program), args.reps),
    }
    stamps_ok = timestamps_identical()
    os.environ.pop(TIMING_ENV, None)

    models = {}
    identical = stamps_ok
    for name, (modes, rounds) in runs.items():
        on_cpu, on_result = modes["on"]
        off_cpu, off_result = modes["off"]
        identical = identical and on_result == off_result
        models[name] = {
            "scalar_cpu_seconds": round(off_cpu, 4),
            "memoized_cpu_seconds": round(on_cpu, 4),
            "speedup": round(off_cpu / on_cpu, 3) if on_cpu > 0
            else float("inf"),
            "rounds_scalar": rounds["off"],
            "rounds_memoized": rounds["on"],
            "results_identical": on_result == off_result,
        }
    payload = {
        "benchmark": f"{BENCHMARK}@1",
        "python": platform.python_version(),
        "reps": args.reps,
        "models": models,
        "timestamps_identical": stamps_ok,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))

    if not identical:
        print("FAIL: timing modes disagree (results or timestamps)",
              file=sys.stderr)
        return 1
    if models["ss64"]["speedup"] < 1.0:
        print("FAIL: memoized timing slower than scalar on the "
              "superscalar baseline", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=2,
                        help="runs per engine; min is compared (default 2)")
    parser.add_argument("--out", default=None,
                        help="JSON output path")
    parser.add_argument("--timing", action="store_true",
                        help="run the compiled-timing section instead of "
                             "the ISA-engine section")
    args = parser.parse_args(argv)
    if args.timing:
        args.out = args.out or "BENCH_timing.json"
        return timing_main(args)
    args.out = args.out or "BENCH_perf_smoke.json"

    program = get_benchmark(BENCHMARK).program(1)
    interp_cpu, interp_result = measure(program, "interpreted", args.reps)
    compiled_cpu, compiled_result = measure(program, "compiled", args.reps)

    identical = compiled_result == interp_result
    speedup = interp_cpu / compiled_cpu if compiled_cpu > 0 else float("inf")
    payload = {
        "benchmark": f"cmp/{BENCHMARK}@1",
        "python": platform.python_version(),
        "reps": args.reps,
        "interpreted_cpu_seconds": round(interp_cpu, 4),
        "compiled_cpu_seconds": round(compiled_cpu, 4),
        "speedup": round(speedup, 3),
        "results_identical": identical,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))

    if not identical:
        print("FAIL: engines disagree on the co-simulation result",
              file=sys.stderr)
        return 1
    if compiled_cpu > interp_cpu:
        print(f"FAIL: compiled engine slower than the interpreter "
              f"({compiled_cpu:.2f}s > {interp_cpu:.2f}s CPU)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
