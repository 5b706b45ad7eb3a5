"""CLI: scaled fault-injection campaigns — ``python -m repro.fault``.

Runs a seeded campaign (:mod:`repro.fault.campaign`) across the
benchmark suite, prints the outcome × site × workload coverage table
and writes the deterministic ``BENCH_fault.json`` artifact.

Examples::

    # default campaign: 8 workloads x 12 points, no ECC
    python -m repro.fault

    # ECC on the R-stream's architectural state, 4-way parallel
    python -m repro.fault --ecc --jobs 4

    # quick seeded smoke on one cheap workload
    python -m repro.fault --benchmarks jpeg --points 6 --seed 7

    # coverage-vs-throughput frontier over every redundancy mode
    python -m repro.fault --benchmarks jpeg li --modes all --points 6
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.modes import CAMPAIGN_MODES
from repro.eval.resilience import check_runner_args
from repro.fault.campaign import (
    DEFAULT_BENCH_FAULT_PATH,
    DEFAULT_SITES,
    CampaignConfig,
    format_coverage_table,
    run_scaled_campaign,
    write_fault_bench,
)
from repro.fault.injector import FaultSite
from repro.workloads.suite import benchmark_suite

_SITE_NAMES = {site.value: site for site in FaultSite}


def _parse_sites(parser: argparse.ArgumentParser, names: List[str]) -> tuple:
    sites = []
    for name in names:
        site = _SITE_NAMES.get(name)
        if site is None:
            parser.error(
                f"unknown fault site {name!r} "
                f"(choose from: {', '.join(sorted(_SITE_NAMES))})"
            )
        sites.append(site)
    return tuple(sites)


def _parse_modes(parser: argparse.ArgumentParser, raw: str) -> tuple:
    names = [m.strip() for m in raw.split(",") if m.strip()]
    if names == ["all"]:
        return CAMPAIGN_MODES
    unknown = [m for m in names if m not in CAMPAIGN_MODES]
    if unknown or not names:
        parser.error(
            f"unknown redundancy mode(s) {unknown or [raw]} "
            f"(choose from: {', '.join(CAMPAIGN_MODES)}, or 'all')"
        )
    return tuple(dict.fromkeys(names))


def main(argv: Optional[List[str]] = None) -> int:
    suite_names = [b.name for b in benchmark_suite()]
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault",
        description="Seeded fault-injection campaign across the suite.",
    )
    parser.add_argument("--benchmarks", nargs="+", metavar="NAME",
                        default=None, choices=suite_names,
                        help="workloads to strike (default: all eight)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default: 1)")
    parser.add_argument("--points", type=int, default=12,
                        help="strike points per workload (default: 12)")
    parser.add_argument("--seed", type=int, default=2000,
                        help="campaign RNG seed (default: 2000)")
    parser.add_argument("--sites", nargs="+", metavar="SITE",
                        default=[s.value for s in DEFAULT_SITES],
                        help="fault sites to sample "
                             f"(default: {' '.join(s.value for s in DEFAULT_SITES)})")
    parser.add_argument("--modes", default="slipstream", metavar="M[,M...]",
                        help="redundancy modes to strike, comma-separated "
                             f"({', '.join(CAMPAIGN_MODES)}); 'all' runs "
                             "every mode (default: slipstream)")
    parser.add_argument("--ecc", action="store_true",
                        help="model ECC on the R-stream's architectural "
                             "state (corrects single-bit r_arch strikes)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1, inline)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-job wall-clock timeout")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    parser.add_argument("--bench-out", default=DEFAULT_BENCH_FAULT_PATH,
                        metavar="PATH",
                        help=f"artifact path (default: {DEFAULT_BENCH_FAULT_PATH}); "
                             "'-' to skip writing")
    parser.add_argument("--format", choices=("table", "json"),
                        default="table", help="stdout format")
    args = parser.parse_args(argv)
    check_runner_args(parser, args)
    if args.points < 1:
        parser.error("--points must be >= 1")

    config = CampaignConfig(
        benchmarks=tuple(args.benchmarks or suite_names),
        scale=args.scale,
        points_per_benchmark=args.points,
        seed=args.seed,
        sites=_parse_sites(parser, args.sites),
        ecc=args.ecc,
        modes=_parse_modes(parser, args.modes),
    )
    result, stats = run_scaled_campaign(
        config,
        jobs=args.jobs,
        timeout=args.timeout,
        use_disk_cache=not args.no_cache,
    )

    if args.format == "json":
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
    else:
        print(format_coverage_table(result))
        print()
        print(f"runner: {stats.simulated} simulated, "
              f"{stats.disk_hits + stats.memory_hits} cache hits, "
              f"{stats.failed} failed, "
              f"{stats.pool_rebuilds} pool rebuilds "
              f"({stats.wall_seconds:.1f}s wall)")

    if args.bench_out != "-":
        path = write_fault_bench(result, args.bench_out)
        print(f"wrote {path}", file=sys.stderr)

    return 1 if result.failed_points else 0


if __name__ == "__main__":
    sys.exit(main())
