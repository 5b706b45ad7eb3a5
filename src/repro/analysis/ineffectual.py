"""Static ineffectuality oracle and the static/dynamic cross-check.

The IR-detector (:mod:`repro.core.ir_detector`) discovers ineffectual
instructions *dynamically*: an unreferenced write (WW) is one whose
value is overwritten, within the detector's trace scope, with its
reference bit still clear.  The static write classification
(:mod:`repro.analysis.dataflow`) provides an independent ground truth,
and the two must relate:

* A statically **dead** write (``WriteClass.DEAD``) is never referenced
  on *any* static path, hence never referenced in *any* execution.  The
  run-time shadow tracker here verifies that directly — a referenced
  instance of a statically-dead write (``static_unsound_pcs``) would be
  a bug in the static analysis.  Every executed instance *should* also
  eventually be classified ineffectual by the detector; the detector's
  finite scope makes this a rate (``instance_agreement``), not an
  invariant — a dead value overwritten only after its trace leaves the
  8-trace scope is legitimately missed.
* A statically **must-live** write (``WriteClass.MUST_LIVE``; claimed
  only when the CFG is exact) is referenced before being overwritten on
  *every* path, so a *direct* WW verdict (not back-propagation) from
  the detector contradicts it: the rename-table entry's reference bit
  is set by the intervening read, and scope eviction only ever
  suppresses WW claims, never forges them.  Any such contradiction
  (``detector_contradiction_pcs``) is a detector soundness bug.

Statically-dead *stores* (resolved address never re-read) participate
too, via a memory shadow keyed on effective address.

The interval layer (:mod:`repro.analysis.absint`, packaged by
:mod:`repro.analysis.ceiling`) adds three more must-fact families, each
validated per executed instance:

* **silent stores** — the stored value must equal the value already in
  memory (checked against a concrete memory image maintained here);
* **pinned branches** — an always-taken (never-taken) branch must
  retire taken (not taken) every time;
* **range-refined dead writes** — dead only on the interval-refined
  CFG; they join ``dead_pcs`` and are validated by the same shadow
  reference tracker.

Violations land in ``silent_violation_pcs`` / ``branch_violation_pcs``
/ ``static_unsound_pcs`` and break :attr:`CrossCheckResult.sound`.

This module deliberately does not import :mod:`repro.workloads`
(workload builders lint through :mod:`repro.analysis`, so an import
here would be circular); callers hand in an assembled ``Program``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.ceiling import StaticRemovalReport, static_removal_report_for
from repro.analysis.dataflow import WriteClass, analyze
from repro.arch.functional import FunctionalSimulator, InstructionLimitExceeded
from repro.core.ir_detector import IRDetector
from repro.core.removal import RemovalKind
from repro.isa.program import Program
from repro.trace.selection import TraceSelector

#: Plain-int removal flags: ``&`` on :class:`RemovalKind` members runs
#: the enum's Python-level operator.
_WW = int(RemovalKind.WW)
_PROPAGATED = int(RemovalKind.PROPAGATED)


@dataclass(frozen=True)
class StaticSummary:
    """Static write classification of one program, keyed by byte PC."""

    name: str
    indirect_exact: bool
    dead_pcs: Tuple[int, ...]
    must_live_pcs: Tuple[int, ...]
    partial_pcs: Tuple[int, ...]
    dead_store_pcs: Tuple[int, ...]

    @property
    def classified_writes(self) -> int:
        return len(self.dead_pcs) + len(self.must_live_pcs) + len(self.partial_pcs)


def analyze_static(program: Program) -> StaticSummary:
    """Classify every reachable register write (and constant-address
    store) of a program; see :class:`StaticSummary`."""
    dataflow = analyze(build_cfg(program))
    by_class: Dict[WriteClass, List[int]] = {c: [] for c in WriteClass}
    for index, cls in dataflow.write_classes.items():
        by_class[cls].append(program.pc_of(index))
    return StaticSummary(
        name=program.name,
        indirect_exact=dataflow.cfg.indirect_exact,
        dead_pcs=tuple(sorted(by_class[WriteClass.DEAD])),
        must_live_pcs=tuple(sorted(by_class[WriteClass.MUST_LIVE])),
        partial_pcs=tuple(sorted(by_class[WriteClass.PARTIAL])),
        dead_store_pcs=tuple(sorted(program.pc_of(i) for i in dataflow.dead_stores)),
    )


@dataclass(frozen=True)
class DeadPCStat:
    """Per-PC dynamic observations for one statically-dead write."""

    pc: int
    executed: int
    selected: int
    referenced: int


@dataclass(frozen=True)
class CrossCheckResult:
    """Outcome of one static/dynamic cross-check run.

    Soundness invariants (must both be empty for a green run):

    * ``static_unsound_pcs`` — statically-dead writes whose value was
      observed referenced at run time (static analysis bug);
    * ``detector_contradiction_pcs`` — direct WW verdicts on
      statically must-live writes (IR-detector soundness bug).
    """

    name: str
    retired: int
    truncated: bool
    static: StaticSummary
    dead_instances_executed: int
    dead_instances_selected: int
    dead_pc_stats: Tuple[DeadPCStat, ...]
    static_unsound_pcs: Tuple[int, ...]
    detector_contradiction_pcs: Tuple[int, ...]
    #: Interval-layer facts.
    removal_report: StaticRemovalReport
    silent_instances_executed: int = 0
    silent_instances_selected: int = 0
    #: Proven-silent stores observed writing a *different* value.
    silent_violation_pcs: Tuple[int, ...] = ()
    pinned_branch_instances: int = 0
    pinned_branch_selected: int = 0
    #: Proven-direction branches observed going the other way.
    branch_violation_pcs: Tuple[int, ...] = ()

    @property
    def sound(self) -> bool:
        return (
            not self.static_unsound_pcs
            and not self.detector_contradiction_pcs
            and not self.silent_violation_pcs
            and not self.branch_violation_pcs
        )

    @property
    def instance_agreement(self) -> float:
        """Fraction of executed statically-dead instances the detector
        classified ineffectual (1.0 when none executed)."""
        if not self.dead_instances_executed:
            return 1.0
        return self.dead_instances_selected / self.dead_instances_executed

    @property
    def pc_coverage(self) -> float:
        """Fraction of executed statically-dead PCs with at least one
        detector-selected instance (1.0 when none executed)."""
        hit = sum(1 for s in self.dead_pc_stats if s.executed and s.selected)
        total = sum(1 for s in self.dead_pc_stats if s.executed)
        return hit / total if total else 1.0

    @property
    def silent_agreement(self) -> float:
        """Fraction of executed proven-silent-store instances the
        detector classified ineffectual (1.0 when none executed)."""
        if not self.silent_instances_executed:
            return 1.0
        return self.silent_instances_selected / self.silent_instances_executed


def cross_check(
    program: Program, max_instructions: int = 5_000_000
) -> CrossCheckResult:
    """Run a program once, feeding the default-configured IR-detector,
    while a shadow tracker records ground-truth reference behaviour;
    compare both against the static classification (dataflow) and the
    interval layer's proven facts (the program's memoized
    :func:`~repro.analysis.ceiling.static_removal_report_for`)."""
    static = analyze_static(program)
    removal_report = static_removal_report_for(program)
    dead_pcs = frozenset(static.dead_pcs) | frozenset(static.dead_store_pcs)
    dead_pcs |= frozenset(removal_report.dead_write_pcs)
    dead_pcs |= frozenset(removal_report.dead_store_pcs)
    silent_pcs = frozenset(removal_report.silent_store_pcs)
    always_pcs = frozenset(removal_report.branch_always_pcs)
    never_pcs = frozenset(removal_report.branch_never_pcs)
    must_live = frozenset(static.must_live_pcs)

    executed: Counter = Counter()
    selected: Counter = Counter()
    referenced: Counter = Counter()
    contradictions: set = set()
    silent_executed = 0
    silent_selected = 0
    silent_violations: set = set()
    pinned_instances = 0
    pinned_selected = 0
    branch_violations: set = set()

    # Shadow trackers: location -> [writer_pc, instance_referenced].
    reg_shadow: Dict[int, List] = {}
    mem_shadow: Dict[int, List] = {}
    # Concrete memory image for silent-store validation.
    mem_image: Dict[int, int] = dict(program.data)

    def reference(entry: Optional[List]) -> None:
        if entry is not None and not entry[1]:
            entry[1] = True
            referenced[entry[0]] += 1

    def consume(analysis) -> None:
        nonlocal silent_selected, pinned_selected
        for i, pc in enumerate(analysis.pcs):
            if analysis.ir_vec[i]:
                if pc in dead_pcs:
                    selected[pc] += 1
                if pc in silent_pcs:
                    silent_selected += 1
                if pc in always_pcs or pc in never_pcs:
                    pinned_selected += 1
            kind = int(analysis.kinds[i])
            if kind & _WW and not kind & _PROPAGATED and pc in must_live:
                contradictions.add(pc)

    selector = TraceSelector()
    detector = IRDetector()
    sim = FunctionalSimulator(program, max_instructions=max_instructions)
    retired = 0
    truncated = False
    try:
        for dyn in sim.steps():
            retired += 1
            instr = dyn.instr
            # Reads happen before the write of the same instruction.
            for reg in instr.srcs:
                if reg:
                    reference(reg_shadow.get(reg))
            if instr.is_load and dyn.mem_addr is not None:
                reference(mem_shadow.get(dyn.mem_addr))
            if instr.is_branch and (dyn.pc in always_pcs or dyn.pc in never_pcs):
                pinned_instances += 1
                if dyn.taken != (dyn.pc in always_pcs):
                    branch_violations.add(dyn.pc)
            if instr.is_store and dyn.mem_addr is not None:
                if dyn.pc in dead_pcs:
                    executed[dyn.pc] += 1
                if dyn.pc in silent_pcs:
                    silent_executed += 1
                    if mem_image.get(dyn.mem_addr, 0) != dyn.value:
                        silent_violations.add(dyn.pc)
                mem_image[dyn.mem_addr] = dyn.value
                mem_shadow[dyn.mem_addr] = [dyn.pc, False]
            elif dyn.dest_reg is not None:
                if dyn.pc in dead_pcs:
                    executed[dyn.pc] += 1
                reg_shadow[dyn.dest_reg] = [dyn.pc, False]
            trace = selector.feed(dyn)
            if trace is not None:
                for analysis in detector.feed_trace(trace):
                    consume(analysis)
    except InstructionLimitExceeded:
        truncated = True
    tail = selector.flush()
    if tail is not None:
        for analysis in detector.feed_trace(tail):
            consume(analysis)
    for analysis in detector.drain():
        consume(analysis)

    stats = tuple(
        DeadPCStat(pc, executed[pc], selected[pc], referenced[pc])
        for pc in sorted(dead_pcs)
    )
    return CrossCheckResult(
        name=program.name,
        retired=retired,
        truncated=truncated,
        static=static,
        dead_instances_executed=sum(executed[pc] for pc in sorted(dead_pcs)),
        dead_instances_selected=sum(selected[pc] for pc in sorted(dead_pcs)),
        dead_pc_stats=stats,
        static_unsound_pcs=tuple(pc for pc in sorted(dead_pcs) if referenced[pc]),
        detector_contradiction_pcs=tuple(sorted(contradictions)),
        removal_report=removal_report,
        silent_instances_executed=silent_executed,
        silent_instances_selected=silent_selected,
        silent_violation_pcs=tuple(sorted(silent_violations)),
        pinned_branch_instances=pinned_instances,
        pinned_branch_selected=pinned_selected,
        branch_violation_pcs=tuple(sorted(branch_violations)),
    )
