"""Perf smoke: the compiled paths must not be slower than the scalar ones.

Three sections, selected by ``--timing`` / ``--serve``:

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

**Serve section** (``--serve``) stress-tests the eval daemon
(:mod:`repro.eval.serve`) with simulated many-client load: it
self-hosts a daemon on a private cache root, races ``--clients``
concurrent HTTP clients through one cold pass and one warm pass of
overlapping batches, then replays the same grid inline and compares
result digests.  The hard gates are correctness, chosen to hold even
in the 1-CPU ``--jobs 1`` degradation mode: daemon results
byte-identical to inline, the cold pass simulates each unique job
exactly once (in-flight dedup), and the warm pass simulates nothing.
Warm aggregate throughput is measured at 1, 2 and ``--clients``
concurrent clients and reported in ``BENCH_serve.json`` — evidence of
scaling on multi-core, informational on CI.

**Federation section** (``--federation``) measures the digest-sharded
daemon federation (:mod:`repro.eval.remote`): for fleets of 1, 2 and 4
subprocess worker daemons it self-hosts a front, pushes one cold pass
and repeated warm passes of a grid through it, and records fleet-wide
throughput in ``BENCH_federation.json``.  Warm passes clear only the
front's memory, so every line still crosses the wire to a
cache-warm worker — the number measures federation dispatch, not the
simulator.  Hard gates: every digest identical to inline execution,
the cold pass simulates each unique job exactly once *fleet-wide*, the
warm passes simulate nothing anywhere, and 2-worker warm throughput is
at least the 1-worker number.  The keep-alive dividend is reported as
requests/second over one persistent connection vs a fresh connection
per request.

Fails (exit 1) only when a compiled path is *slower* than its scalar
reference (or results/digests differ): the point is to catch a
regression that silently turns the default path into a pessimization,
not to enforce a specific speedup on unknown CI hardware.  The measured
numbers are written as JSON for artifact upload; read a ratio with::

    python -c "import json; print(json.load(open('BENCH_perf_smoke.json'))['speedup'])"
    python -c "import json; print(json.load(open('BENCH_timing.json'))['models']['ss64']['speedup'])"
    python -c "import json; print(json.load(open('BENCH_serve.json'))['cold']['deduped'])"
    python -c "import json; print(json.load(open('BENCH_federation.json'))['fleets']['2']['warm_jobs_per_second'])"
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


def _serve_clients(port: int, batches, timeout: float = 600.0):
    """Race one ServeClient thread per batch; returns (wall seconds,
    list of per-client result-line lists, in batch order)."""
    import threading

    from repro.eval.serve import ServeClient

    results = [None] * len(batches)
    errors = []

    def tenant(slot, batch):
        try:
            client = ServeClient(port=port, timeout=timeout)
            results[slot] = client.submit_all(batch)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=tenant, args=(slot, batch))
               for slot, batch in enumerate(batches)]
    w0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - w0
    if errors:
        raise errors[0]
    return wall, results


def serve_main(args) -> int:
    import tempfile

    from repro.eval import jobs as eval_jobs
    from repro.eval import models
    from repro.eval.models import run_cached
    from repro.eval.serve import (
        result_payload,
        spec_from_json,
        start_server_thread,
    )
    from repro.workloads.suite import benchmark_suite

    benchmarks = [b.name for b in benchmark_suite()]
    grid = [{"model": "count", "benchmark": name} for name in benchmarks]
    # Overlapping batches: every client wants the whole grid, rotated so
    # the same key is in flight from several tenants at once.
    batches = [grid[i % len(grid):] + grid[:i % len(grid)]
               for i in range(args.clients)]

    saved = (models._DISK, models._DISK_ENABLED)
    models.clear_cache()
    eval_jobs.reset_simulation_count()
    tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
    models.configure_disk_cache(enabled=True, cache_dir=os.path.join(
        tmp, "daemon-cache"))
    handle = start_server_thread(jobs=args.jobs, backend=args.backend)
    try:
        cold_wall, cold_results = _serve_clients(handle.port, batches)
        cold_stats = dict(handle.service.stats.__dict__)
        warm_wall, _ = _serve_clients(handle.port, batches)
        warm_stats = dict(handle.service.stats.__dict__)

        # Warm aggregate throughput at increasing client counts.
        throughput = {}
        for clients in sorted({1, 2, args.clients}):
            wall, outcomes = _serve_clients(handle.port, batches[:clients])
            served = sum(len(lines) for lines in outcomes)
            throughput[str(clients)] = round(served / wall, 1) if wall > 0 \
                else float("inf")

        # Inline reference on a fresh root: digests must match the
        # daemon's line for every job of every client.
        models.clear_cache()
        models.configure_disk_cache(enabled=True, cache_dir=os.path.join(
            tmp, "inline-cache"))
        w0 = time.perf_counter()
        inline_digests = {}
        for job in grid:
            spec = spec_from_json(job)
            line = result_payload(0, spec.key, "inline", run_cached(spec))
            inline_digests[line["job"]] = line["digest"]
        inline_wall = time.perf_counter() - w0
        identical = all(
            line["ok"] and inline_digests[line["job"]] == line["digest"]
            for lines in cold_results for line in lines
        )
    finally:
        handle.stop()
        models.clear_cache()
        models._DISK, models._DISK_ENABLED = saved

    warm_simulated = warm_stats["simulated"] - cold_stats["simulated"]
    payload = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "backend": handle.service.backend.name,
        "jobs": args.jobs,
        "clients": args.clients,
        "unique_jobs": len(grid),
        "cold": {
            "wall_seconds": round(cold_wall, 3),
            "requested": len(grid) * args.clients,
            "simulated": cold_stats["simulated"],
            "deduped": cold_stats["deduped"],
            "disk_hits": cold_stats["disk_hits"],
            "memory_hits": cold_stats["memory_hits"],
        },
        "warm": {
            "wall_seconds": round(warm_wall, 3),
            "simulated": warm_simulated,
        },
        "warm_jobs_per_second_by_clients": throughput,
        "inline_wall_seconds": round(inline_wall, 3),
        "identical_to_inline": identical,
    }
    with open(args.out, "w", encoding="utf-8") as handle_out:
        json.dump(payload, handle_out, indent=2)
        handle_out.write("\n")
    print(json.dumps(payload, indent=2))

    if not identical:
        print("FAIL: daemon results differ from inline execution",
              file=sys.stderr)
        return 1
    if cold_stats["simulated"] != len(grid):
        print(f"FAIL: cold pass simulated {cold_stats['simulated']} jobs "
              f"for {len(grid)} unique keys (dedup broken)",
              file=sys.stderr)
        return 1
    if warm_simulated != 0:
        print(f"FAIL: warm pass simulated {warm_simulated} jobs "
              "(cache broken)", file=sys.stderr)
        return 1
    return 0


def _spawn_worker_daemon(tmp: str, tag: str, jobs: int = 2):
    """One worker daemon subprocess on a private cache root; returns
    (process, port)."""
    import subprocess

    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    port_file = os.path.join(tmp, f"{tag}.port")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.eval", "serve", "--port", "0",
         "--port-file", port_file, "--jobs", str(jobs),
         "--backend", "thread",
         "--cache-dir", os.path.join(tmp, f"cache-{tag}")],
        env=env, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while True:
        try:
            with open(port_file, encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return proc, int(text)
        except OSError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(f"worker {tag} exited {proc.returncode}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(f"worker {tag} never bound a port")
        time.sleep(0.05)


def _connection_reuse_delta(port: int, requests: int = 30):
    """Requests/second for one persistent keep-alive connection vs a
    fresh connection per request (same /v1/health endpoint)."""
    from repro.eval.serve import ServeClient

    client = ServeClient(port=port)
    w0 = time.perf_counter()
    for _ in range(requests):
        client.health()
    keepalive_wall = time.perf_counter() - w0
    client.close()

    w0 = time.perf_counter()
    for _ in range(requests):
        one_shot = ServeClient(port=port)
        one_shot.health()
        one_shot.close()
    fresh_wall = time.perf_counter() - w0

    keepalive_rps = requests / keepalive_wall if keepalive_wall > 0 else 0.0
    fresh_rps = requests / fresh_wall if fresh_wall > 0 else 0.0
    return {
        "requests": requests,
        "keepalive_requests_per_second": round(keepalive_rps, 1),
        "fresh_connection_requests_per_second": round(fresh_rps, 1),
        "reuse_speedup": round(keepalive_rps / fresh_rps, 3)
        if fresh_rps > 0 else float("inf"),
    }


def federation_main(args) -> int:
    import tempfile

    from repro.eval import models
    from repro.eval.models import run_cached
    from repro.eval.serve import (
        ServeClient,
        spec_from_json,
        start_server_thread,
    )
    from repro.workloads.suite import benchmark_suite

    # 24 unique jobs: enough lines per warm pass that parallel worker
    # streams, not fixed per-request overhead, dominate the timing.
    grid = [{"model": "count", "benchmark": b.name, "scale": scale}
            for b in benchmark_suite() for scale in (2, 3, 4)]
    warm_reps = max(3, args.reps)
    fleets = {}
    digests_by_fleet = {}
    reuse = None
    saved = (models._DISK, models._DISK_ENABLED)
    models._DISK, models._DISK_ENABLED = None, False
    tmp = tempfile.mkdtemp(prefix="repro-federation-bench-")
    try:
        for fleet_size in (1, 2, 4):
            workers = [_spawn_worker_daemon(tmp, f"f{fleet_size}-w{i}")
                       for i in range(fleet_size)]
            front = None
            try:
                urls = [f"127.0.0.1:{port}" for _, port in workers]
                models.clear_cache()
                front = start_server_thread(
                    jobs=1, backend="inline", use_disk_cache=False,
                    workers=urls,
                )
                client = ServeClient(port=front.port)

                def fleet_sims():
                    total = 0
                    for _, port in workers:
                        probe = ServeClient(port=port)
                        total += probe.health()["stats"]["simulated"]
                        probe.close()
                    return total

                sims_start = fleet_sims()
                w0 = time.perf_counter()
                cold_lines = client.submit_all(grid)
                cold_wall = time.perf_counter() - w0
                cold_sims = fleet_sims() - sims_start

                best_warm = None
                for _ in range(warm_reps):
                    # Cold front memory, warm workers: each line still
                    # crosses the wire — the federation is what's timed.
                    models.clear_cache()
                    w0 = time.perf_counter()
                    warm_lines = client.submit_all(grid)
                    wall = time.perf_counter() - w0
                    if best_warm is None or wall < best_warm:
                        best_warm = wall
                warm_sims = fleet_sims() - sims_start - cold_sims

                if reuse is None:
                    reuse = _connection_reuse_delta(front.port)
                metrics = client.metrics()["metrics"]
                client.close()

                digests_by_fleet[fleet_size] = {
                    line["job"]: line["digest"]
                    for line in cold_lines + warm_lines if line["ok"]
                }
                fleets[str(fleet_size)] = {
                    "workers": fleet_size,
                    "cold_wall_seconds": round(cold_wall, 3),
                    "cold_simulated": cold_sims,
                    "cold_ok": all(line["ok"] for line in cold_lines),
                    "warm_wall_seconds": round(best_warm, 3),
                    "warm_simulated": warm_sims,
                    "warm_jobs_per_second": round(len(grid) / best_warm, 1)
                    if best_warm > 0 else float("inf"),
                    "jobs_forwarded": metrics.get(
                        "federation.jobs_forwarded", 0),
                    "worker_failures": metrics.get(
                        "federation.worker_failures", 0),
                }
            finally:
                if front is not None:
                    front.stop()
                for proc, _ in workers:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait(timeout=30)

        # Inline reference digests on a cold in-process cache.
        from repro.eval.serve import result_payload

        models.clear_cache()
        inline_digests = {}
        for job in grid:
            spec = spec_from_json(job)
            line = result_payload(0, spec.key, "inline", run_cached(spec))
            inline_digests[line["job"]] = line["digest"]
    finally:
        models.clear_cache()
        models._DISK, models._DISK_ENABLED = saved

    identical = all(
        fleet_digests == inline_digests
        for fleet_digests in digests_by_fleet.values()
    )
    payload = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "unique_jobs": len(grid),
        "warm_reps": warm_reps,
        "fleets": fleets,
        "connection_reuse": reuse,
        "identical_to_inline": identical,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))

    if not identical:
        print("FAIL: federation results differ from inline execution",
              file=sys.stderr)
        return 1
    for name, fleet in fleets.items():
        if not fleet["cold_ok"]:
            print(f"FAIL: {name}-worker cold pass had failing jobs",
                  file=sys.stderr)
            return 1
        if fleet["cold_simulated"] != len(grid):
            print(f"FAIL: {name}-worker cold pass simulated "
                  f"{fleet['cold_simulated']} jobs for {len(grid)} unique "
                  f"keys (fleet-wide exactly-once broken)", file=sys.stderr)
            return 1
        if fleet["warm_simulated"] != 0:
            print(f"FAIL: {name}-worker warm passes simulated "
                  f"{fleet['warm_simulated']} jobs (worker caches broken)",
                  file=sys.stderr)
            return 1
    if fleets["2"]["warm_jobs_per_second"] < fleets["1"][
            "warm_jobs_per_second"]:
        print("FAIL: 2-worker warm throughput below the single-daemon "
              "number (federation dispatch is a pessimization)",
              file=sys.stderr)
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
    parser.add_argument("--serve", action="store_true",
                        help="run the eval-daemon stress section instead")
    parser.add_argument("--federation", action="store_true",
                        help="run the daemon-federation section instead "
                             "(1/2/4 subprocess worker fleets)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent HTTP clients for --serve "
                             "(default 4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="daemon worker pool size for --serve "
                             "(default 1: the CI degradation mode)")
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "spawn", "inline"),
                        help="daemon worker backend for --serve")
    args = parser.parse_args(argv)
    if args.timing:
        args.out = args.out or "BENCH_timing.json"
        return timing_main(args)
    if args.serve:
        args.out = args.out or "BENCH_serve.json"
        return serve_main(args)
    if args.federation:
        args.out = args.out or "BENCH_federation.json"
        return federation_main(args)
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
