"""The static ineffectuality ceiling: per-PC removal facts + profile.

This module packages every *proven* static-removability fact the
analysis stack can derive about a program into a
:class:`StaticRemovalReport`:

* **dead writes / dead stores** — reaching-defs + liveness
  (:mod:`repro.analysis.dataflow`), run both on the plain CFG and on
  the interval-refined CFG (constant-direction branch edges and
  resolved ``jalr`` edges pruned), so the value-range-strengthened
  class subsumes the original classification;
* **silent stores** — must-equal value analysis from the interval
  interpreter (:func:`repro.analysis.absint.silent_store_indices`);
* **branch outcomes** — always/never-taken classification plus
  monotone-exit branches of bounded counted loops;
* **loop structure** — natural-loop headers and derivable trip-count
  bounds.

Weighting the facts by a per-PC dynamic execution profile yields the
:class:`CeilingReport`: the *proven floor* (instances at
statically-proven-ineffectual PCs — removable by an oracle predictor
seeded with static facts alone) and the *structural upper ceiling*
(every instance except the never-removable classes ``jalr``/``out``/
``halt``).  The dynamic removal fraction of any slipstream
configuration must land between zero and the upper ceiling; the eval
layer asserts this invariant per workload.

Everything here is deterministic, so reports serve as golden CI
artifacts; every field is JSON-serializable via :func:`report_json`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.analysis.absint import (
    AbsintResult,
    classify_branches,
    interpret,
    loop_bounds,
    monotone_exit_indices,
    resolved_jalr_targets,
    silent_store_indices,
)
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import WriteClass, analyze
from repro.arch.compiled import program_keyed_memo
from repro.arch.functional import FunctionalSimulator, InstructionLimitExceeded
from repro.isa.instructions import InstrClass
from repro.isa.program import Program

#: Instruction classes the removal machinery never elides (mirrors
#: ``repro.core.slipstream._NEVER_REMOVED``).
NEVER_REMOVABLE_CLASSES = (InstrClass.JUMP_INDIRECT, InstrClass.OUT, InstrClass.HALT)

#: Display/serialization order of proven-fact kinds.
FACT_KINDS = (
    "dead-write",
    "dead-store",
    "silent-store",
    "branch-always",
    "branch-never",
)


def refinement_overrides(
    program: Program, result: AbsintResult
) -> Tuple[Dict[int, Tuple[int, ...]], Dict[int, int]]:
    """Edge prunings proven by the interval analysis.

    Returns ``(succ_overrides, resolved_jalr)``: per-instruction
    successor restrictions for constant-direction branches and
    singleton-target ``jalr``\\ s.  Sound because a fact proven on an
    over-approximating CFG holds in every execution, so the pruned
    edges are traversed by none.
    """
    cfg = result.cfg
    overrides: Dict[int, Tuple[int, ...]] = {}
    outcomes = classify_branches(result)
    for i, outcome in outcomes.items():
        instr = cfg.program.instructions[i]
        target = cfg.program.index_of(instr.target)
        if target == i + 1:
            continue  # degenerate: both outcomes share the successor
        if outcome == "always":
            overrides[i] = (target,)
        elif outcome == "never":
            overrides[i] = tuple(s for s in cfg.instr_succs[i] if s != target)
    resolved = resolved_jalr_targets(result)
    for i, target in resolved.items():
        overrides[i] = (target,)
    return overrides, resolved


def refine_cfg(program: Program, result: AbsintResult) -> CFG:
    """Rebuild the CFG with interval-proven edge prunings applied.

    ``indirect_exact`` is promoted to True when every ``jalr`` still
    reachable after pruning has a unique resolved target — the
    must-style write classification then applies to programs with
    indirect jumps too.
    """
    overrides, resolved = refinement_overrides(program, result)
    refined = build_cfg(program, succ_overrides=overrides)
    jalr_indices = [
        i
        for i, instr in enumerate(program.instructions)
        if instr.klass is InstrClass.JUMP_INDIRECT
    ]
    if jalr_indices:
        reachable = refined.reachable_instrs()
        exact = all(i in resolved or i not in reachable for i in jalr_indices)
        if exact:
            refined = build_cfg(program, succ_overrides=overrides, indirect_exact=True)
    return refined


@dataclass(frozen=True)
class StaticRemovalReport:
    """Per-PC statically-proven removal facts for one program.

    PC tuples are sorted byte addresses.  ``range_refined_dead_pcs``
    is the strengthening delta: dead writes/stores provable only on
    the interval-refined CFG.
    """

    name: str
    instructions: int
    reachable: int
    unreachable_refined: int
    indirect_exact: bool
    jalr_total: int
    jalr_resolved: int
    pruned_edges: int
    dead_write_pcs: Tuple[int, ...]
    dead_store_pcs: Tuple[int, ...]
    silent_store_pcs: Tuple[int, ...]
    branch_always_pcs: Tuple[int, ...]
    branch_never_pcs: Tuple[int, ...]
    monotone_exit_pcs: Tuple[int, ...]
    range_refined_dead_pcs: Tuple[int, ...]
    loop_header_pcs: Tuple[int, ...]
    loop_trip_bounds: Tuple[Tuple[int, int], ...]

    @property
    def proven_pcs(self) -> Tuple[int, ...]:
        """Every PC with at least one proven-ineffectual fact."""
        return tuple(
            sorted(
                set(self.dead_write_pcs)
                | set(self.dead_store_pcs)
                | set(self.silent_store_pcs)
                | set(self.branch_always_pcs)
                | set(self.branch_never_pcs)
            )
        )

    def fact_kinds(self) -> Dict[int, Tuple[str, ...]]:
        """PC -> proven fact kinds (in :data:`FACT_KINDS` order)."""
        by_pc: Dict[int, list] = {}
        for kind, pcs in zip(
            FACT_KINDS,
            (
                self.dead_write_pcs,
                self.dead_store_pcs,
                self.silent_store_pcs,
                self.branch_always_pcs,
                self.branch_never_pcs,
            ),
        ):
            for pc in pcs:
                by_pc.setdefault(pc, []).append(kind)
        return {pc: tuple(kinds) for pc, kinds in by_pc.items()}


def static_removal_report(program: Program) -> StaticRemovalReport:
    """Run the full static stack (dataflow, interval interpretation,
    CFG refinement, re-analysis) and bundle every proven fact."""
    cfg0 = build_cfg(program)
    df0 = analyze(cfg0)
    res0 = interpret(program, cfg0)
    cfg1 = refine_cfg(program, res0)
    res1 = interpret(program, cfg1)
    df1 = analyze(cfg1)

    def dead_indices(df) -> set:
        return {
            i for i, cls in df.write_classes.items() if cls is WriteClass.DEAD
        }

    dead0 = dead_indices(df0)
    dead1 = dead_indices(df1)
    dead_stores0 = set(df0.dead_stores)
    dead_stores1 = set(df1.dead_stores)
    # Facts from either CFG are sound (pruning only removes infeasible
    # paths); the refined-only ones are the range-strengthening delta.
    dead_writes = dead0 | dead1
    dead_stores = dead_stores0 | dead_stores1
    refined_only = (dead1 - dead0) | (dead_stores1 - dead_stores0)

    outcomes = classify_branches(res1)
    always = sorted(i for i, o in outcomes.items() if o == "always")
    never = sorted(i for i, o in outcomes.items() if o == "never")
    silent = silent_store_indices(res1)
    monotone = monotone_exit_indices(res1)
    bounds = loop_bounds(res1)

    reachable0 = cfg0.reachable_instrs()
    reachable1 = cfg1.reachable_instrs()
    pruned = sum(
        len(cfg0.instr_succs[i]) - len(cfg1.instr_succs[i])
        for i in range(len(program.instructions))
    )
    jalr_indices = [
        i
        for i, instr in enumerate(program.instructions)
        if instr.klass is InstrClass.JUMP_INDIRECT
    ]
    resolved = resolved_jalr_targets(res0)

    pc = program.pc_of
    return StaticRemovalReport(
        name=program.name,
        instructions=len(program.instructions),
        reachable=len(reachable0),
        unreachable_refined=len(reachable0) - len(reachable1),
        indirect_exact=cfg1.indirect_exact,
        jalr_total=len(jalr_indices),
        jalr_resolved=len(resolved),
        pruned_edges=pruned,
        dead_write_pcs=tuple(sorted(pc(i) for i in dead_writes)),
        dead_store_pcs=tuple(sorted(pc(i) for i in dead_stores)),
        silent_store_pcs=tuple(sorted(pc(i) for i in silent)),
        branch_always_pcs=tuple(pc(i) for i in always),
        branch_never_pcs=tuple(pc(i) for i in never),
        monotone_exit_pcs=tuple(pc(i) for i in monotone),
        range_refined_dead_pcs=tuple(sorted(pc(i) for i in refined_only)),
        loop_header_pcs=tuple(sorted(pc(loop.header_index) for loop in res1.loops)),
        loop_trip_bounds=tuple(
            sorted((b.header_pc, b.bound) for b in bounds)
        ),
    )


#: The (memoized) static removal report of a program: the cross-check,
#: the ceiling and the static-hint seeding share one fixpoint per
#: program object per process.
static_removal_report_for: Callable[[Program], StaticRemovalReport] = (
    program_keyed_memo(static_removal_report)
)


@dataclass(frozen=True)
class CeilingReport:
    """A static removal report weighted by a dynamic execution profile."""

    static: StaticRemovalReport
    retired: int
    truncated: bool
    #: Dynamic instances at statically-proven-ineffectual PCs.
    proven_instances: int
    #: Per-kind instance counts, in :data:`FACT_KINDS` order.
    proven_by_kind: Tuple[Tuple[str, int], ...]
    #: Instances of the never-removable classes (jalr/out/halt).
    never_removable_instances: int

    @property
    def proven_fraction(self) -> float:
        """Floor: fraction of the stream proven removable statically."""
        return self.proven_instances / self.retired if self.retired else 0.0

    @property
    def ceiling_fraction(self) -> float:
        """Upper bound on any dynamic removal fraction: everything but
        the classes the machinery never elides."""
        if not self.retired:
            return 0.0
        return 1.0 - self.never_removable_instances / self.retired


def ceiling_report(
    program: Program, max_instructions: int = 5_000_000
) -> CeilingReport:
    """Profile one run and weight the static facts by instance counts."""
    static = static_removal_report_for(program)
    executed: Counter = Counter()
    never = 0
    retired = 0
    truncated = False
    sim = FunctionalSimulator(program, max_instructions=max_instructions)
    try:
        for dyn in sim.steps():
            retired += 1
            executed[dyn.pc] += 1
            if dyn.instr.klass in NEVER_REMOVABLE_CLASSES:
                never += 1
    except InstructionLimitExceeded:
        truncated = True

    kinds = static.fact_kinds()
    by_kind = {kind: 0 for kind in FACT_KINDS}
    proven = 0
    for pc, pc_kinds in kinds.items():
        count = executed.get(pc, 0)
        proven += count
        for kind in pc_kinds:
            by_kind[kind] += count
    return CeilingReport(
        static=static,
        retired=retired,
        truncated=truncated,
        proven_instances=proven,
        proven_by_kind=tuple((k, by_kind[k]) for k in FACT_KINDS),
        never_removable_instances=never,
    )


def report_json(report: CeilingReport) -> dict:
    """Deterministic JSON form (golden-artifact friendly)."""
    static = report.static
    return {
        "name": static.name,
        "instructions": static.instructions,
        "reachable": static.reachable,
        "unreachable_refined": static.unreachable_refined,
        "indirect_exact": static.indirect_exact,
        "jalr": {"total": static.jalr_total, "resolved": static.jalr_resolved},
        "pruned_edges": static.pruned_edges,
        "facts": {
            "dead_write_pcs": list(static.dead_write_pcs),
            "dead_store_pcs": list(static.dead_store_pcs),
            "silent_store_pcs": list(static.silent_store_pcs),
            "branch_always_pcs": list(static.branch_always_pcs),
            "branch_never_pcs": list(static.branch_never_pcs),
            "monotone_exit_pcs": list(static.monotone_exit_pcs),
            "range_refined_dead_pcs": list(static.range_refined_dead_pcs),
        },
        "loops": {
            "header_pcs": list(static.loop_header_pcs),
            "trip_bounds": [list(b) for b in static.loop_trip_bounds],
        },
        "profile": {
            "retired": report.retired,
            "truncated": report.truncated,
            "proven_instances": report.proven_instances,
            "proven_by_kind": {k: v for k, v in report.proven_by_kind},
            "never_removable_instances": report.never_removable_instances,
            "proven_fraction": round(report.proven_fraction, 6),
            "ceiling_fraction": round(report.ceiling_fraction, 6),
        },
    }
