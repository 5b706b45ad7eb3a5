"""Reference IR-detector: the object-graph formulation, kept as a test oracle.

This is the readable statement of the detector (paper, section 2.1.2,
Figure 3) that :class:`repro.core.ir_detector.IRDetector` must agree
with verdict for verdict.  Every dynamic instruction is an
:class:`RDFGNode` object with producer and consumer lists; the operand
rename table maps ``("r", reg)``/``("m", addr)`` keys to
:class:`Entry` objects, and its :meth:`OperandRenameTable.read` /
:meth:`OperandRenameTable.write` protocol detects the WW and SV
triggers.  :class:`ReferenceIRDetector` drives both with the same
merge loop, scope and retirement as the fast detector and returns the
same :class:`~repro.core.ir_detector.TraceAnalysis` records.

Nothing in ``src/`` imports this module.  The differential tests in
``tests/test_ir_detector_reference.py`` compare the two detectors; the
rename-table and R-DFG unit and property tests exercise the pieces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.core.ir_detector import (
    ALL_TRIGGERS,
    DEFAULT_SCOPE_TRACES,
    TraceAnalysis,
)
from repro.core.removal import RemovalKind
from repro.isa.instructions import InstrClass
from repro.trace.selection import CompletedTrace
from repro.trace.trace_id import TraceId

_NEVER_REMOVABLE = (InstrClass.JUMP_INDIRECT, InstrClass.OUT, InstrClass.HALT)

_BASE_FLAGS = RemovalKind.BR | RemovalKind.WW | RemovalKind.SV


# ----------------------------------------------------------------------
# Per-trace reverse dataflow graph (R-DFG) with back-propagation.
#
# Edges connect consumers to producers within the same trace only;
# consumption from another trace marks the producer as externally
# referenced, which disqualifies it from back-propagated removal.  A
# node is selected directly by a trigger (BR and SV at merge, WW at
# kill), or, once killed and unselected with at least one consumer, all
# in its own trace and all selected, with PROPAGATED | union(consumer
# base flags).  Selection cascades to producers.
# ----------------------------------------------------------------------

class RDFGNode:
    """One instruction in a trace's R-DFG."""

    __slots__ = (
        "trace_seq",
        "index",
        "producers",
        "consumers",
        "killed",
        "selected",
        "kind",
        "external_ref",
        "removable",
    )

    def __init__(self, trace_seq: int, index: int, removable: bool = True):
        self.trace_seq = trace_seq
        self.index = index
        self.producers: List["RDFGNode"] = []
        self.consumers: List["RDFGNode"] = []
        self.killed = False
        self.selected = False
        self.kind = RemovalKind.NONE
        self.external_ref = False
        self.removable = removable


def connect(producer: RDFGNode, consumer: RDFGNode) -> None:
    """Record a dependence; same-trace edges only, else external ref."""
    if producer.trace_seq == consumer.trace_seq:
        producer.consumers.append(consumer)
        consumer.producers.append(producer)
    else:
        producer.external_ref = True


def select(node: RDFGNode, kind: RemovalKind) -> bool:
    """Select a node for removal; cascades to its producers.

    Returns True if the node was newly selected.
    """
    if node.selected or not node.removable:
        return False
    node.selected = True
    node.kind = kind
    for producer in node.producers:
        try_propagate(producer)
    return True


def kill(node: RDFGNode, unreferenced: bool) -> None:
    """The node's value has been overwritten; all consumers are known.

    An unreferenced kill is the WW trigger; otherwise the node may now
    satisfy the back-propagation condition.
    """
    node.killed = True
    if unreferenced and not node.selected:
        select(node, RemovalKind.WW)
    else:
        try_propagate(node)


def try_propagate(node: RDFGNode) -> None:
    """Select the node if killed, unselected, and all consumers (same
    trace, at least one) are selected."""
    if node.selected or not node.killed or node.external_ref or not node.removable:
        return
    if not node.consumers:
        return
    inherited = RemovalKind.NONE
    for consumer in node.consumers:
        if not consumer.selected:
            return
        inherited |= consumer.kind & _BASE_FLAGS
    select(node, RemovalKind.PROPAGATED | inherited)


# ----------------------------------------------------------------------
# Operand rename table.
# ----------------------------------------------------------------------

Operand = Hashable


def reg_operand(reg: int) -> Tuple[str, int]:
    return ("r", reg)


def mem_operand(addr: int) -> Tuple[str, int]:
    return ("m", addr)


class Entry:
    """One rename-table entry: {valid, ref, value, producer}.

    Validity is presence in the table.  ``last_write_seq`` is the trace
    of the most recent write *including non-modifying writes*: an entry
    is invalidated only when its last writer leaves the analysis scope.
    """

    __slots__ = ("value", "producer", "ref", "last_write_seq")

    def __init__(self, value: int, producer) -> None:
        self.value = value
        self.producer = producer
        self.ref = False
        self.last_write_seq = producer.trace_seq if producer is not None else 0


@dataclass
class WriteOutcome:
    """Result of recording a write.

    ``silent`` — the write was non-modifying (SV trigger; the old
    producer remains live).  ``killed`` — the old producer whose value
    this write overwrote, or None.  ``killed_unreferenced`` — the
    killed producer's ref bit was clear (WW trigger).
    """

    silent: bool = False
    killed: Optional[object] = None
    killed_unreferenced: bool = False


class OperandRenameTable:
    """Tracks the most recent producer of every live location."""

    def __init__(self) -> None:
        self._entries: Dict[Operand, Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def read(self, operand: Operand):
        """Record a read; returns the live producer node or None.

        Sets the entry's ref bit (the value has been used).
        """
        entry = self._entries.get(operand)
        if entry is None:
            return None
        entry.ref = True
        return entry.producer

    def peek_value(self, operand: Operand) -> Optional[int]:
        entry = self._entries.get(operand)
        return entry.value if entry is not None else None

    def write(
        self, operand: Operand, value: int, producer, detect_silent: bool = True
    ) -> WriteOutcome:
        """Record a write; detects SV/WW triggers and kills old values.

        On a non-modifying write the table is left unchanged — the old
        producer remains live.  With ``detect_silent=False`` equal
        values still replace the producer.
        """
        entry = self._entries.get(operand)
        if entry is not None:
            if detect_silent and entry.value == value:
                entry.last_write_seq = producer.trace_seq
                return WriteOutcome(silent=True)
            outcome = WriteOutcome(
                killed=entry.producer, killed_unreferenced=not entry.ref
            )
            self._entries[operand] = Entry(value, producer)
            return outcome
        self._entries[operand] = Entry(value, producer)
        return WriteOutcome()

    def invalidate_if_stale(self, operand: Operand, trace_seq: int) -> None:
        """Drop the entry if its most recent writer belongs to the trace
        leaving the analysis scope (no newer write refreshed it)."""
        entry = self._entries.get(operand)
        if entry is not None and entry.last_write_seq == trace_seq:
            del self._entries[operand]


# ----------------------------------------------------------------------
# The detector.
# ----------------------------------------------------------------------

class _ScopedTrace:
    def __init__(self, seq: int, trace_id: TraceId):
        self.seq = seq
        self.trace_id = trace_id
        self.nodes: List[RDFGNode] = []
        self.touched: List[Operand] = []
        self.pcs: List[int] = []


class ReferenceIRDetector:
    """Object-graph IR-detector with the public API of ``IRDetector``."""

    def __init__(
        self,
        scope_traces: int = DEFAULT_SCOPE_TRACES,
        triggers: Iterable[str] = ALL_TRIGGERS,
    ):
        if scope_traces < 1:
            raise ValueError("scope must hold at least one trace")
        self.scope_traces = scope_traces
        self.triggers: FrozenSet[str] = frozenset(triggers)
        unknown = self.triggers - ALL_TRIGGERS
        if unknown:
            raise ValueError(f"unknown triggers: {sorted(unknown)}")
        self._table = OperandRenameTable()
        self._scope: Deque[_ScopedTrace] = deque()
        self._next_seq = 0
        self.analyses = 0
        self.selected_total = 0

    def feed_trace(self, trace: CompletedTrace) -> List[TraceAnalysis]:
        seq = self._next_seq
        self._next_seq += 1
        scoped = _ScopedTrace(seq, trace.trace_id)
        self._scope.append(scoped)
        table = self._table
        for index, dyn in enumerate(trace.instructions):
            instr = dyn.instr
            node = RDFGNode(seq, index, removable=instr.klass not in _NEVER_REMOVABLE)
            scoped.nodes.append(node)
            scoped.pcs.append(dyn.pc)
            for reg in instr.srcs:
                if reg:
                    producer = table.read(reg_operand(reg))
                    if producer is not None:
                        connect(producer, node)
            if instr.is_load and dyn.mem_addr is not None:
                producer = table.read(mem_operand(dyn.mem_addr))
                if producer is not None:
                    connect(producer, node)

            if "BR" in self.triggers and instr.is_branch:
                select(node, RemovalKind.BR)

            if instr.is_store and dyn.mem_addr is not None:
                operand = mem_operand(dyn.mem_addr)
            elif dyn.dest_reg is not None and dyn.value is not None:
                operand = reg_operand(dyn.dest_reg)
            else:
                continue
            outcome = table.write(operand, dyn.value, node,
                                  detect_silent="SV" in self.triggers)
            if outcome.silent:
                select(node, RemovalKind.SV)
            elif outcome.killed is not None:
                kill(outcome.killed,
                     outcome.killed_unreferenced and "WW" in self.triggers)
            scoped.touched.append(operand)
        retired: List[TraceAnalysis] = []
        while len(self._scope) > self.scope_traces:
            retired.append(self._retire_oldest())
        return retired

    def drain(self) -> List[TraceAnalysis]:
        retired = []
        while self._scope:
            retired.append(self._retire_oldest())
        return retired

    def _retire_oldest(self) -> TraceAnalysis:
        scoped = self._scope.popleft()
        for operand in scoped.touched:
            self._table.invalidate_if_stale(operand, scoped.seq)
        ir_vec = tuple(n.selected for n in scoped.nodes)
        kinds = tuple(n.kind for n in scoped.nodes)
        self.analyses += 1
        self.selected_total += sum(ir_vec)
        return TraceAnalysis(scoped.seq, scoped.trace_id, ir_vec, kinds,
                             tuple(scoped.pcs))

    def snapshot(self) -> dict:
        return {
            "analyses": self.analyses,
            "selected_total": self.selected_total,
        }
