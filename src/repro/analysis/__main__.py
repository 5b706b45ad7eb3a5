"""Command-line front end for the static-analysis subsystem.

Usage::

    python -m repro.analysis compress gcc          # lint named workloads
    python -m repro.analysis --all-workloads       # lint the whole suite
    python -m repro.analysis path/to/prog.s        # lint an assembly file
    python -m repro.analysis --all-workloads --cross-check --format json

Two subcommands share the front end:

    python -m repro.analysis ceiling --all-workloads --format json
        The static ineffectuality ceiling (interval abstract
        interpretation + dynamic profile weighting) per workload;
        deterministic, used as a golden CI artifact.

    python -m repro.analysis selfcheck [paths...]
        The self-determinism lint over the repro *Python* sources
        themselves (default: the installed package).

Exit status is 0 when every target is clean — no unsuppressed lint
diagnostics and (with ``--cross-check``) no soundness violations — and
1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional, Tuple

from repro.analysis.ineffectual import (
    CrossCheckResult,
    StaticSummary,
    analyze_static,
    cross_check,
)
from repro.analysis.lint import Diagnostic, active, lint_program
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.program import Program


def _load_targets(args: argparse.Namespace) -> List[Program]:
    # Workload builders lint at assembly time by default; disable that
    # here so this CLI is the one reporting diagnostics (with exit
    # status) instead of dying inside the builder.  The caller's own
    # setting is restored afterwards.
    saved = os.environ.get("REPRO_WORKLOAD_LINT")
    os.environ["REPRO_WORKLOAD_LINT"] = "0"
    try:
        from repro.workloads.suite import benchmark_suite, get_benchmark

        programs: List[Program] = []
        names = list(args.targets)
        if args.all_workloads:
            names = [b.name for b in benchmark_suite()]
        for name in names:
            if os.path.exists(name):
                with open(name, "r", encoding="utf-8") as fh:
                    source = fh.read()
                programs.append(assemble(source, name=os.path.basename(name)))
            else:
                programs.append(get_benchmark(name).program(scale=args.scale))
        return programs
    finally:
        if saved is None:
            os.environ.pop("REPRO_WORKLOAD_LINT", None)
        else:
            os.environ["REPRO_WORKLOAD_LINT"] = saved


def _analyze_one(
    program: Program, args: argparse.Namespace
) -> Tuple[List[Diagnostic], StaticSummary, Optional[CrossCheckResult]]:
    diagnostics = lint_program(program, allow=args.allow)
    static = analyze_static(program)
    xcheck = None
    if args.cross_check:
        xcheck = cross_check(program, max_instructions=args.max_instructions)
    return diagnostics, static, xcheck


def _diag_json(diag: Diagnostic) -> dict:
    return {
        "rule": diag.rule,
        "severity": diag.severity,
        "message": diag.message,
        "index": diag.index,
        "pc": diag.pc,
        "line_no": diag.line_no,
        "suppressed": diag.suppressed,
    }


def _xcheck_json(result: CrossCheckResult) -> dict:
    out = dataclasses.asdict(result)
    out["instance_agreement"] = result.instance_agreement
    out["pc_coverage"] = result.pc_coverage
    out["silent_agreement"] = result.silent_agreement
    out["sound"] = result.sound
    return out


def _render_text(program, diagnostics, static, xcheck) -> List[str]:
    lines = [f"== {program.name} ({len(program)} instructions) =="]
    shown = active(diagnostics)
    n_suppressed = len(diagnostics) - len(shown)
    for diag in shown:
        lines.append("  " + diag.render())
    verdict = "clean" if not shown else f"{len(shown)} diagnostic(s)"
    sup = f" ({n_suppressed} suppressed)" if n_suppressed else ""
    lines.append(f"  lint: {verdict}{sup}")
    lines.append(
        "  static writes: "
        f"{len(static.dead_pcs)} dead, {len(static.must_live_pcs)} must-live, "
        f"{len(static.partial_pcs)} partial; "
        f"{len(static.dead_store_pcs)} dead store(s); "
        f"cfg {'exact' if static.indirect_exact else 'over-approximated'}"
    )
    if xcheck is not None:
        lines.append(
            "  cross-check: "
            f"retired {xcheck.retired}, "
            f"dead instances {xcheck.dead_instances_selected}/"
            f"{xcheck.dead_instances_executed} classified ineffectual "
            f"({xcheck.instance_agreement:.1%}), "
            f"pc coverage {xcheck.pc_coverage:.1%}, "
            f"{'SOUND' if xcheck.sound else 'UNSOUND'}"
        )
        if xcheck.static_unsound_pcs:
            lines.append(
                "  !! statically-dead writes observed referenced at: "
                + ", ".join(hex(pc) for pc in xcheck.static_unsound_pcs)
            )
        if xcheck.detector_contradiction_pcs:
            lines.append(
                "  !! detector WW verdicts on must-live writes at: "
                + ", ".join(hex(pc) for pc in xcheck.detector_contradiction_pcs)
            )
    return lines


def _ceiling_main(argv: List[str]) -> int:
    from repro.analysis.ceiling import ceiling_report, report_json

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis ceiling",
        description="Static ineffectuality ceiling per workload.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="benchmark names (see repro.workloads.suite) or .s file paths",
    )
    parser.add_argument(
        "--all-workloads", action="store_true", help="analyze every bundled workload"
    )
    parser.add_argument(
        "--scale", type=int, default=1, help="workload scale factor (default 1)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--max-instructions",
        type=int,
        default=5_000_000,
        help="dynamic instruction budget for the execution profile",
    )
    args = parser.parse_args(argv)
    if not args.targets and not args.all_workloads:
        parser.error("no targets given (names, files, or --all-workloads)")

    try:
        programs = _load_targets(args)
    except (AssemblerError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ok = True
    entries = []
    text_lines: List[str] = []
    for program in programs:
        report = ceiling_report(program, max_instructions=args.max_instructions)
        if report.truncated:
            ok = False
        if args.fmt == "json":
            entries.append(report_json(report))
        else:
            static = report.static
            text_lines.append(
                f"== {static.name} ({static.instructions} instructions, "
                f"{static.reachable} reachable) =="
            )
            text_lines.append(
                "  proven facts: "
                f"{len(static.dead_write_pcs)} dead write(s), "
                f"{len(static.dead_store_pcs)} dead store(s), "
                f"{len(static.silent_store_pcs)} silent store(s), "
                f"{len(static.branch_always_pcs)} always-taken, "
                f"{len(static.branch_never_pcs)} never-taken, "
                f"{len(static.monotone_exit_pcs)} monotone-exit "
                f"({len(static.range_refined_dead_pcs)} range-refined)"
            )
            text_lines.append(
                f"  loops: {len(static.loop_header_pcs)} "
                f"({len(static.loop_trip_bounds)} with trip bounds); "
                f"jalr {static.jalr_resolved}/{static.jalr_total} resolved, "
                f"{static.pruned_edges} edge(s) pruned, "
                f"cfg {'exact' if static.indirect_exact else 'over-approximated'}"
            )
            text_lines.append(
                f"  profile: retired {report.retired}"
                + (" (truncated)" if report.truncated else "")
                + f", proven floor {report.proven_fraction:.2%}, "
                f"upper ceiling {report.ceiling_fraction:.2%}"
            )
    if args.fmt == "json":
        json.dump({"ok": ok, "programs": entries}, sys.stdout, indent=2,
                  sort_keys=True)
        print()
    else:
        text_lines.append("OK" if ok else "FAILED")
        print("\n".join(text_lines))
    return 0 if ok else 1


def _selfcheck_main(argv: List[str]) -> int:
    from pathlib import Path

    from repro.analysis.selfcheck import active, check_file, check_tree, summarize

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis selfcheck",
        description="Self-determinism lint over the repro Python sources.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        metavar="RULE",
        help="globally disable a selfcheck rule (repeatable)",
    )
    args = parser.parse_args(argv)
    diagnostics = []
    if not args.paths:
        diagnostics = check_tree(allow=args.allow)
    else:
        for raw in args.paths:
            path = Path(raw)
            if path.is_dir():
                diagnostics.extend(check_tree(path, allow=args.allow))
            else:
                diagnostics.extend(check_file(path, allow=args.allow))
    for diag in diagnostics:
        print(diag.render())
    unsuppressed = active(diagnostics)
    counts = summarize(diagnostics)
    per_rule = ", ".join(f"{rule}: {counts[rule]}" for rule in sorted(counts))
    print(
        f"selfcheck: {len(unsuppressed)} finding(s) "
        f"({len(diagnostics) - len(unsuppressed)} suppressed) — {per_rule}"
    )
    return 1 if unsuppressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "ceiling":
        return _ceiling_main(argv[1:])
    if argv and argv[0] == "selfcheck":
        return _selfcheck_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Lint and statically analyze mini-RISC programs.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="benchmark names (see repro.workloads.suite) or .s file paths",
    )
    parser.add_argument(
        "--all-workloads", action="store_true", help="analyze every bundled workload"
    )
    parser.add_argument(
        "--scale", type=int, default=1, help="workload scale factor (default 1)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--cross-check",
        action="store_true",
        help="also run the dynamic IR-detector cross-check",
    )
    parser.add_argument(
        "--max-instructions",
        type=int,
        default=5_000_000,
        help="dynamic instruction budget for --cross-check",
    )
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        metavar="RULE",
        help="globally disable a lint rule (repeatable)",
    )
    args = parser.parse_args(argv)
    if not args.targets and not args.all_workloads:
        parser.error("no targets given (names, files, or --all-workloads)")

    try:
        programs = _load_targets(args)
    except (AssemblerError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ok = True
    report = []
    text_lines: List[str] = []
    for program in programs:
        diagnostics, static, xcheck = _analyze_one(program, args)
        unsuppressed = active(diagnostics)
        if unsuppressed or (xcheck is not None and not xcheck.sound):
            ok = False
        if args.fmt == "json":
            entry = {
                "name": program.name,
                "instructions": len(program),
                "diagnostics": [_diag_json(d) for d in diagnostics],
                "clean": not unsuppressed,
                "static": dataclasses.asdict(static),
            }
            if xcheck is not None:
                entry["cross_check"] = _xcheck_json(xcheck)
            report.append(entry)
        else:
            text_lines.extend(_render_text(program, diagnostics, static, xcheck))

    if args.fmt == "json":
        json.dump({"ok": ok, "programs": report}, sys.stdout, indent=2)
        print()
    else:
        text_lines.append("OK" if ok else "FAILED")
        print("\n".join(text_lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
