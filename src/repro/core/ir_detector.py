"""Instruction-removal detector (paper, section 2.1.2, Figure 3).

The IR-detector monitors the R-stream as it retires instructions.
Retired instructions and values construct per-trace reverse dataflow
graphs (R-DFGs) over an operand rename table, and three triggering
conditions select instructions for removal:

* unreferenced writes (WW),
* non-modifying writes (SV),
* branch instructions (BR — all conditional branches are candidates;
  the IR-predictor's confidence counter makes the final decision).

Selection back-propagates to producers whose consumers are all known
(value killed) and all selected.  The analysis scope is
``scope_traces`` (8) traces: back-propagation is confined to a single
trace, but value-kill detection spans the whole scope.  When a trace
becomes the oldest in the scope it retires: its instruction-removal bit
vector (ir-vec) is formed from the selected nodes and handed to the
IR-predictor.

The in-stream analysis is exact — WW/SV/propagation facts are true of
the observed dynamic instance; the *speculation* lies in predicting
that future instances of the trace behave identically.

``triggers`` restricts the trigger set; passing ``{"BR"}`` reproduces
the paper's branch-only removal experiment (Figure 8, bottom), where
ineffectual writes are not candidates and propagation flows only from
branches.

Data layout
-----------

This loop runs once per retired R-stream instruction, so it allocates
no object per instruction.  Each scoped trace holds its R-DFG as
parallel lists indexed by the instruction's position in the trace
(:class:`_ScopedTrace`): ``kind`` (plain-int :class:`RemovalKind`
flags, 0 = unselected), ``killed``, ``external_ref``, ``removable``,
and ``producers``/``consumers`` index lists that exist only for nodes
with an edge.  Edges connect a consumer to its producer *within the
same trace only*; reading a value produced in another trace marks that
producer ``external_ref``, which disqualifies it from back-propagation.

The operand rename table is a dict from operand to a mutable entry
``[value, owner, index, ref, last_write_seq]``: the value last written,
the producer's trace and position, whether the value has been read
since, and the trace of the most recent write *including non-modifying
writes*.  An entry is dropped only when that last writer leaves the
scope, so a location kept fresh by silent writes stays tracked (its
live producer may be older than the scope — selection decisions for
that producer have already been emitted, which is exactly the paper's
scope limitation).  A non-modifying write leaves the old producer live;
any other write kills the old producer and takes the entry over.

Flags stay plain ints until retirement, where a 16-entry table turns
them into :class:`RemovalKind` values.  The static operand data of each
PC (sources without ``r0``, load, store, BR selection, removability)
is computed once per detector.  The object-graph formulation this
layout replaces is kept as the test oracle in
``tests/reference_ir_detector.py``.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.removal import RemovalKind
from repro.isa.instructions import InstrClass, Instruction
from repro.trace.selection import CompletedTrace
from repro.trace.trace_id import TraceId

DEFAULT_SCOPE_TRACES = 8
ALL_TRIGGERS = frozenset({"BR", "WW", "SV"})

#: Operands are ints: the register number for registers, the address
#: offset past 2^32 for memory.  Addresses are < 2^32 (wrap32), so the
#: two spaces are disjoint, and int keys hash in one operation.
_MEM_BASE = 1 << 32

#: Instruction classes that must never be removed: indirect jumps steer
#: control through dynamic targets, OUT is architectural program output,
#: HALT terminates the program.
_NEVER_REMOVABLE = (InstrClass.JUMP_INDIRECT, InstrClass.OUT, InstrClass.HALT)

_BR = int(RemovalKind.BR)
_WW = int(RemovalKind.WW)
_SV = int(RemovalKind.SV)
_PROPAGATED = int(RemovalKind.PROPAGATED)
_BASE_FLAGS = _BR | _WW | _SV

#: Plain-int flags -> :class:`RemovalKind`, for every flag combination.
_KIND_OF: Tuple[RemovalKind, ...] = tuple(RemovalKind(v) for v in range(16))

#: Per-PC static operand data: (instruction, sources without r0,
#: is_load, is_store, BR-selected at merge, removable).
_Operands = Tuple[Instruction, Tuple[int, ...], bool, bool, bool, bool]


@dataclass
class TraceAnalysis:
    """The detector's verdict for one retired trace."""

    trace_seq: int
    trace_id: TraceId
    ir_vec: Tuple[bool, ...]
    kinds: Tuple[RemovalKind, ...]
    #: Per-instruction PCs (used by the per-instruction IR mechanism).
    pcs: Tuple[int, ...] = ()

    @property
    def removed_count(self) -> int:
        return sum(self.ir_vec)


class _ScopedTrace:
    """One trace in the scope: its R-DFG as parallel per-position lists."""

    __slots__ = ("seq", "trace_id", "pcs", "touched", "kind", "killed",
                 "external_ref", "removable", "producers", "consumers")

    def __init__(self, seq: int, trace_id: TraceId, n: int):
        self.seq = seq
        self.trace_id = trace_id
        self.pcs: List[int] = []
        #: Operands this trace wrote (rename-table invalidation at retire).
        self.touched: List[int] = []
        self.kind: List[int] = [0] * n
        self.killed: List[bool] = [False] * n
        self.external_ref: List[bool] = [False] * n
        self.removable: List[bool] = [True] * n
        self.producers: List[Optional[List[int]]] = [None] * n
        self.consumers: List[Optional[List[int]]] = [None] * n

    def copy(self) -> "_ScopedTrace":
        twin = _ScopedTrace.__new__(_ScopedTrace)
        twin.seq = self.seq
        twin.trace_id = self.trace_id
        twin.pcs = self.pcs[:]
        twin.touched = self.touched[:]
        twin.kind = self.kind[:]
        twin.killed = self.killed[:]
        twin.external_ref = self.external_ref[:]
        twin.removable = self.removable[:]
        twin.producers = [p if p is None else p[:] for p in self.producers]
        twin.consumers = [c if c is None else c[:] for c in self.consumers]
        return twin


def _propagate(trace: _ScopedTrace, candidates: List[int]) -> None:
    """Back-propagate selection within ``trace`` from ``candidates``.

    A candidate is selected, with ``PROPAGATED`` plus the union of its
    consumers' base flags, when it is unselected, killed, removable,
    not externally referenced, and has at least one consumer, all
    selected.  A new selection makes its producers candidates in turn.
    The selected set and every kind are the same in any visiting order:
    the conditions only ever become true during one cascade, and a
    consumer's kind never changes once set.  ``candidates`` is consumed.
    """
    kind = trace.kind
    killed = trace.killed
    external_ref = trace.external_ref
    removable = trace.removable
    consumers = trace.consumers
    producers = trace.producers
    while candidates:
        p = candidates.pop()
        if kind[p] or not killed[p] or external_ref[p] or not removable[p]:
            continue
        cons = consumers[p]
        if cons is None:
            continue
        inherited = 0
        for c in cons:
            k = kind[c]
            if not k:
                break
            inherited |= k
        else:
            kind[p] = _PROPAGATED | (inherited & _BASE_FLAGS)
            prods = producers[p]
            if prods is not None:
                candidates.extend(prods)


class IRDetector:
    """Monitors retired R-stream traces and emits removal analyses."""

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
        #: Operand rename table: operand -> [value, owner, index, ref,
        #: last_write_seq] (see the module docstring).
        self._entries: Dict[int, list] = {}
        self._operands: Dict[int, _Operands] = {}
        self._scope: Deque[_ScopedTrace] = deque()
        self._next_seq = 0
        #: Observability tallies (:mod:`repro.obs`): retired analyses
        #: and total instructions they selected for removal.
        self.analyses = 0
        self.selected_total = 0
        self._br_trigger = "BR" in self.triggers
        self._ww_trigger = "WW" in self.triggers
        self._sv_trigger = "SV" in self.triggers

    def fork(self) -> "IRDetector":
        """An independent copy of the scope and the rename table.

        A rename-table entry may name a producer trace that has already
        left the scope; it is copied too, so the copy's entries point
        only at the copy's traces."""
        forked = copy.copy(self)
        twins: Dict[_ScopedTrace, _ScopedTrace] = {}

        def twin(trace: _ScopedTrace) -> _ScopedTrace:
            copied = twins.get(trace)
            if copied is None:
                copied = twins[trace] = trace.copy()
            return copied

        forked._scope = deque(twin(trace) for trace in self._scope)
        forked._entries = {
            operand: [entry[0], twin(entry[1]), entry[2], entry[3], entry[4]]
            for operand, entry in self._entries.items()
        }
        forked._operands = dict(self._operands)
        return forked

    def _operands_of(self, pc: int, instr: Instruction) -> _Operands:
        """Static operand data of ``pc``, memoized per detector."""
        removable = instr.klass not in _NEVER_REMOVABLE
        operands = (instr, tuple(reg for reg in instr.srcs if reg),
                    instr.is_load, instr.is_store,
                    self._br_trigger and instr.is_branch and removable,
                    removable)
        self._operands[pc] = operands
        return operands

    # ------------------------------------------------------------------

    def feed_trace(self, trace: CompletedTrace) -> List[TraceAnalysis]:
        """Merge one retired trace; returns analyses of traces that left
        the scope as a result (usually zero or one).

        The rename-table protocol, the triggers and the kill handling
        are inlined over hoisted locals: this loop runs once per retired
        R-stream instruction.
        """
        seq = self._next_seq
        self._next_seq += 1
        instructions = trace.instructions
        cur = _ScopedTrace(seq, trace.trace_id, len(instructions))
        self._scope.append(cur)
        pcs_append = cur.pcs.append
        touched_append = cur.touched.append
        kind = cur.kind
        killed = cur.killed
        removable = cur.removable
        producers = cur.producers
        consumers = cur.consumers
        entries = self._entries
        entries_get = entries.get
        operands_get = self._operands.get
        ww_trigger = self._ww_trigger
        sv_trigger = self._sv_trigger
        mem_base = _MEM_BASE
        propagate = _propagate
        for i, dyn in enumerate(instructions):
            pc = dyn.pc
            pcs_append(pc)
            instr = dyn.instr
            ops = operands_get(pc)
            if ops is None or ops[0] is not instr:
                ops = self._operands_of(pc, instr)
            _instr, srcs, is_load, is_store, br_select, can_remove = ops
            if not can_remove:
                removable[i] = False
            mem_addr = dyn.mem_addr
            if is_load and mem_addr is not None:
                srcs = srcs + (mem_addr + mem_base,)

            # Source operands: set ref bits and connect same-trace
            # producers; a producer in another trace becomes externally
            # referenced instead.
            prods = None
            for operand in srcs:
                entry = entries_get(operand)
                if entry is not None:
                    entry[3] = True
                    if entry[1] is cur:
                        p = entry[2]
                        cons = consumers[p]
                        if cons is None:
                            consumers[p] = [i]
                        else:
                            cons.append(i)
                        if prods is None:
                            prods = [p]
                        else:
                            prods.append(p)
                    else:
                        entry[1].external_ref[entry[2]] = True
            if prods is not None:
                producers[i] = prods

            # Trigger: branch instructions are always selected at merge.
            if br_select:
                kind[i] = _BR
                if prods is not None:
                    # Only a killed producer can propagate.
                    for p in prods:
                        if killed[p]:
                            propagate(cur, prods[:])
                            break

            # Destination operand: SV/WW detection and value kills.
            value = dyn.value
            if is_store and mem_addr is not None:
                operand = mem_addr + mem_base
            elif dyn.dest_reg is not None and value is not None:
                operand = dyn.dest_reg
            else:
                continue
            entry = entries_get(operand)
            if entry is None:
                entries[operand] = [value, cur, i, False, seq]
            elif sv_trigger and entry[0] == value:
                # Non-modifying write: select it; the old producer stays
                # live, but the write refreshes the entry's lifetime.
                entry[4] = seq
                if can_remove and not kind[i]:
                    kind[i] = _SV
                    if prods is not None:
                        for p in prods:
                            if killed[p]:
                                propagate(cur, prods[:])
                                break
            else:
                # Kill the old producer, possibly in an older trace of
                # the scope; the write takes the entry over.
                owner = entry[1]
                p = entry[2]
                unreferenced = not entry[3]
                entry[0] = value
                entry[1] = cur
                entry[2] = i
                entry[3] = False
                entry[4] = seq
                owner_kind = owner.kind
                if not owner_kind[p]:
                    owner.killed[p] = True
                    if unreferenced and ww_trigger:
                        if owner.removable[p]:
                            owner_kind[p] = _WW
                            owner_prods = owner.producers[p]
                            if owner_prods is not None:
                                propagate(owner, owner_prods[:])
                    else:
                        # An unselected latest consumer already rules
                        # propagation out.
                        cons = owner.consumers[p]
                        if cons is not None and owner_kind[cons[-1]]:
                            propagate(owner, [p])
            touched_append(operand)
        retired: List[TraceAnalysis] = []
        while len(self._scope) > self.scope_traces:
            retired.append(self._retire_oldest())
        return retired

    def drain(self) -> List[TraceAnalysis]:
        """Retire every trace still in the scope (end of program)."""
        retired = []
        while self._scope:
            retired.append(self._retire_oldest())
        return retired

    # ------------------------------------------------------------------

    def _retire_oldest(self) -> TraceAnalysis:
        scoped = self._scope.popleft()
        seq = scoped.seq
        entries = self._entries
        entries_get = entries.get
        for operand in scoped.touched:
            entry = entries_get(operand)
            if entry is not None and entry[4] == seq:
                del entries[operand]
        kind = scoped.kind
        selected = len(kind) - kind.count(0)
        self.analyses += 1
        self.selected_total += selected
        return TraceAnalysis(seq, scoped.trace_id, tuple(map(bool, kind)),
                             tuple(map(_KIND_OF.__getitem__, kind)),
                             tuple(scoped.pcs))

    def snapshot(self) -> dict:
        """Observability tallies (:mod:`repro.obs`)."""
        return {
            "analyses": self.analyses,
            "selected_total": self.selected_total,
        }
