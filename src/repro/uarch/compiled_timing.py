"""Compiled timing model: specialized metadata + trace-delta memoization.

PR 5 compiled the *functional* path (threaded-code closures,
:mod:`repro.arch.compiled`); this module applies the same treatment to
the table-scheduled OoO timing model (:mod:`repro.uarch.scheduler`)
of the superscalar baseline cores (:class:`repro.uarch.core.SuperscalarCore`),
whose scalar path pays one ``OoOScheduler.add`` call per instruction.

Two pieces, both bit-identical to the scalar scheduler by construction:

1. **Pre-specialized timing metadata** — :func:`timing_meta_for`
   resolves per-static-instruction constants (source registers, FU
   latency from :mod:`repro.uarch.latencies`, load/store/control
   class) once per program per process, so per-dynamic-instruction
   scheduling never re-derives them or branches on instruction class.
   The slipstream co-simulation's fused A- and R-stream loops
   (:mod:`repro.core.slipstream`) read the same table.

2. **Memoized trace deltas** (:class:`TraceTimingEngine`) — the engine
   keys every scheduled trace by its static identity (trace id +
   misprediction index) and compiles, on first sight, a
   :class:`_TracePlan`: per-slot operand tuples, destination registers,
   latencies, fetch-block break flags, I-cache *line runs* (maximal
   same-line probe runs, batched into one LRU update each) and the set
   of registers whose entry readiness the schedule can observe.  A
   trace's schedule is a pure function of a small *entry signature*
   plus the position of the pipe anchor ``M = max(C, last_dispatch)``
   relative to the fetch anchor ``B`` (the next-block cycle), where
   ``C`` is the earliest possible dispatch cycle.  Pipe-side entry
   state (ROB retire cycles, register and store readiness, the retire
   cursor) is expressed relative to ``M`` and clamped to a canonical
   floor when it is too old to be observable; fetch-side state (the
   current-block fetch cycle, I-cache penalties, the fetch overhead
   accumulator) is expressed relative to ``B``.  The first time a
   signature is seen the trace is scheduled by the exact scalar pass
   while recording per-slot timestamp deltas, issue-table effects and
   the *fetch margin*: the smallest anchor gap ``mrel = M - B`` at
   which the fetch chain still never binds a dispatch.  A recorded
   delta replays — with integer adds — for every later entry whose
   signature matches and whose anchor gap is at or above that margin,
   which covers the entire backlog drift of a congested pipe with one
   delta.  Traces whose schedule was fetch-bound at some slot record a
   gap-exact variant instead (replayed only at the same ``mrel``).
   Any input the signature cannot prove equivalent (issue-slot
   pre-counts are verified by explicit guards; ROB overflow beyond the
   trace; a signature-diverse trace) falls back to the exact scalar
   pass.

The clamp floor is ``C = min(cur_block_fetch, next_block_cycle) +
frontend_depth``: no dispatch in the trace can precede ``C``, and no
dispatch can precede the entry ``last_dispatch`` either, so any entry
readiness/ROB value at or below ``M = max(C, last_dispatch)`` is
behaviorally indistinguishable from any other (see DESIGN.md §7.9 for
the full fidelity argument).  The retire cycle clamps one higher (the
first in-trace retirement is at least ``M + 2``).

Engine selection mirrors the functional engine: environmental
(``REPRO_COMPILED_TIMING=0`` restores the scalar scheduler on the
superscalar cores) and never part of any config fingerprint.  The
slipstream co-simulation does not use the engine: its hand-inlined
loops measured as fast with less memory (DESIGN.md §7.9).
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.compiled import program_keyed_memo
from repro.isa.instructions import WORD
from repro.isa.program import Program, TEXT_BASE
from repro.uarch.cache import Cache
from repro.uarch.config import CoreConfig
from repro.uarch.latencies import latency_of
from repro.uarch.scheduler import OoOScheduler, Timestamps

#: Environment opt-out: ``REPRO_COMPILED_TIMING=0`` selects the scalar
#: scheduler (the engine is simply not constructed).
TIMING_ENV = "REPRO_COMPILED_TIMING"

_FALSY = frozenset({"0", "false", "off", "no"})

#: Distinct entry signatures memoized per trace plan before the plan is
#: declared signature-diverse and scheduled scalar from then on.
SIG_CAP = 48
#: Guard-variant entries (same signature, different issue-slot
#: pre-counts or anchor gap) kept per signature.
VARIANT_CAP = 4
#: Trace plans kept per engine before the memo is wholesale cleared
#: (mirrors the slipstream expansion cache's bound).
PLAN_CAP = 1 << 14
#: After this many scheduled traces, an engine whose replay rate is
#: below ~1 in 3 stops recording: the workload's signatures churn and
#: the exact scalar pass is the faster steady state.
DEAD_CHECK = 4096

#: "Minus infinity" for the pipe-anchored component of fetch-chain
#: values that no redirect has floored yet; large enough that per-slot
#: constant adds keep it far below any real cycle.
_NEG = -(1 << 40)


def compiled_timing_enabled() -> bool:
    """True unless ``REPRO_COMPILED_TIMING`` is set to a falsy value."""
    value = os.environ.get(TIMING_ENV)
    if value is None:
        return True
    return value.strip().lower() not in _FALSY


def _build_timing_meta(program: Program) -> Dict[int, tuple]:
    """Per-PC scheduling constants: (srcs, latency, is_load, is_store,
    is_control, is_branch)."""
    meta: Dict[int, tuple] = {}
    pc = TEXT_BASE
    for instr in program.instructions:
        meta[pc] = (
            instr.srcs,
            latency_of(instr),
            instr.is_load,
            instr.is_store,
            instr.is_control,
            instr.is_branch,
        )
        pc += WORD
    return meta


#: The (memoized) per-PC timing metadata for a program — shared by every
#: engine on the same program object in the process (pool workers reuse
#: it across jobs via the program memo in :mod:`repro.eval.jobs`).
timing_meta_for: Callable[[Program], Dict[int, tuple]] = program_keyed_memo(_build_timing_meta)


class _TracePlan:
    """Static scheduling facts of one trace key, compiled on first sight."""

    __slots__ = (
        "n", "srcs", "dest", "lat", "is_load", "is_store", "break_after",
        "redirect_at", "mem_idx", "mem_load", "iruns",
        "read_regs", "sigs", "pending", "has_exact", "polluted",
    )

    def __init__(self) -> None:
        #: Signature → recorded variants.  Gap-portable (pipe-bound)
        #: deltas live under the flat signature tuple; gap-exact
        #: (fetch-bound) deltas live under ``(sig, mrel)``.
        self.sigs: Dict[tuple, List["_Delta"]] = {}
        #: Signatures seen exactly once.  Recording costs several times
        #: the plain scalar pass; it only pays off for signatures that
        #: recur, so a first sighting just marks the signature and the
        #: second one records.
        self.pending: set = set()
        self.has_exact = False
        self.polluted = False


class _Delta:
    """Recorded effect of scheduling one trace from one entry signature.

    Pipe-side values (``rel_d``/``rel_i``/``rel_c``/``rel_r``, register
    and store writes, issue-table cells, ``ld``/``rc``/``last_c``) are
    relative to the pipe anchor ``M``; fetch-chain values are
    ``max(B + *_b, M + *_m)`` pairs (the ``_m`` component is
    :data:`_NEG` until a redirect floors the chain).  ``mrel_min`` is
    the smallest anchor gap the recorded schedule is valid for, or
    ``None`` for a gap-exact variant.
    """

    __slots__ = (
        "n", "rel_fb", "rel_fm", "rel_d", "rel_i", "rel_c", "rel_r",
        "pops", "reg_writes", "store_writes", "probes", "adds",
        "nbc_b", "nbc_m", "cbf_b", "cbf_m", "ld", "du", "rc", "rcount",
        "oacc", "block_count", "block_pending", "new_blocks", "redirects",
        "last_c", "mrel_min",
    )


class TraceTimingEngine:
    """Memoizing trace scheduler bound to one :class:`OoOScheduler`.

    The engine mutates the scheduler's real state (register/store
    readiness, ROB, issue table, retire bookkeeping) exactly as the
    scalar pass would, so scalar calls (``add``/``redirect``/
    ``stall_fetch_until``), ``snapshot()`` and ``total_cycles`` compose
    seamlessly with memoized traces.  Dynamic instruction records are
    duck-typed: only ``pc``, ``mem_addr``, ``dest_reg`` and ``taken``
    are read (plus ``instr`` when a PC has no precompiled metadata).
    """

    __slots__ = (
        "_sched", "_icache", "_dcache", "_meta", "_fw", "_fd", "_rp",
        "_imiss", "_dmiss", "_ilb", "_ins", "_iassoc", "_dlb", "_dns",
        "_dassoc", "_plans", "_dead",
    )

    def __init__(
        self,
        scheduler: OoOScheduler,
        icache: Cache,
        dcache: Cache,
        meta: Dict[int, tuple],
        config: CoreConfig,
    ):
        self._sched = scheduler
        self._icache = icache
        self._dcache = dcache
        self._meta = meta
        self._fw = config.fetch_width
        self._fd = config.frontend_depth
        self._rp = config.redirect_penalty
        self._imiss = config.icache.miss_penalty
        self._dmiss = config.dcache.miss_penalty
        self._ilb = icache._line_bytes
        self._ins = icache._num_sets
        self._iassoc = icache._assoc
        self._dlb = dcache._line_bytes
        self._dns = dcache._num_sets
        self._dassoc = dcache._assoc
        self._plans: Dict[object, _TracePlan] = {}
        self._dead = False

    # ------------------------------------------------------------------

    def _build_plan(self, dyns: Sequence, n: int,
                    redirect_at: int) -> _TracePlan:
        plan = _TracePlan()
        plan.n = n
        meta_get = self._meta.get
        srcs: List[tuple] = []
        dest: List[Optional[int]] = []
        lat: List[int] = []
        is_load: List[bool] = []
        is_store: List[bool] = []
        break_after: List[bool] = []
        mem_idx: List[int] = []
        mem_load: List[bool] = []
        iruns: List[Tuple[int, int, int, int]] = []
        run: Optional[List[int]] = None
        ilb, ins = self._ilb, self._ins
        for i in range(n):
            dyn = dyns[i]
            pc = dyn.pc
            meta = meta_get(pc)
            if meta is None:
                instr = dyn.instr
                meta = (instr.srcs, latency_of(instr), instr.is_load,
                        instr.is_store, instr.is_control, instr.is_branch)
            m_srcs, m_lat, m_load, m_store, m_control, _ = meta
            srcs.append(m_srcs)
            # dest_reg is a pure function of the static instruction (the
            # compiled step closures bind it as a constant).  Nothing
            # rewrites records on the engine's callers: fault hooks run
            # only on the slipstream and N-stream machines, which
            # schedule without it.
            dest.append(dyn.dest_reg)
            lat.append(m_lat)
            is_load.append(m_load)
            is_store.append(m_store)
            break_after.append(bool(m_control and dyn.taken))
            if m_load or m_store:
                mem_idx.append(i)
                mem_load.append(m_load)
            line = pc // ilb
            if run is not None and run[1] == line:
                run[2] += 1
            else:
                run = [line % ins, line, 1, i]
                iruns.append(run)  # type: ignore[arg-type]
        plan.srcs = tuple(srcs)
        plan.dest = tuple(dest)
        plan.lat = tuple(lat)
        plan.is_load = tuple(is_load)
        plan.is_store = tuple(is_store)
        plan.break_after = tuple(break_after)
        plan.redirect_at = redirect_at
        plan.mem_idx = tuple(mem_idx)
        plan.mem_load = tuple(mem_load)
        plan.iruns = tuple(tuple(r) for r in iruns)
        # Registers whose *entry* readiness the schedule can observe:
        # read at some slot before any earlier slot wrote them.
        written: set = set()
        seen: set = set()
        order: List[int] = []
        for i in range(n):
            for s in srcs[i]:
                if s not in written and s not in seen:
                    seen.add(s)
                    order.append(s)
            d = dest[i]
            if d is not None:
                written.add(d)
        plan.read_regs = tuple(order)
        return plan

    # ------------------------------------------------------------------

    def schedule(
        self,
        key,
        dyns: Sequence,
        n: int,
        block_count: int,
        block_pending: bool,
        redirect_at: int = -1,
        cb: Optional[Callable[[Timestamps], None]] = None,
    ):
        """Schedule one trace of ``n`` dynamic instructions.

        Returns ``(last_complete, block_count, block_pending,
        new_blocks)``.  ``redirect_at`` schedules a branch-misprediction
        redirect after that slot; ``cb``, when given, receives every
        slot's :class:`Timestamps` in order.
        """
        plans = self._plans
        plan = plans.get(key)
        if plan is None:
            if len(plans) >= PLAN_CAP:
                plans.clear()
            plan = self._build_plan(dyns, n, redirect_at)
            plans[key] = plan
        elif plan.n != n:
            raise RuntimeError("compiled timing: trace key collision")
        sched = self._sched
        B = sched._next_block_cycle

        # --- Cache probes (exact LRU mutation, batched per line run) ---
        ic = self._icache
        isets = ic._sets
        istamp = ic._stamp
        imisses = 0
        imiss_pen = self._imiss
        iassoc = self._iassoc
        ipens: List[int] = []
        iappend = ipens.append
        for si, line, cnt, _first in plan.iruns:
            cset = isets[si]
            istamp += cnt
            if line in cset:
                cset[line] = istamp
                iappend(0)
            else:
                imisses += 1
                if len(cset) >= iassoc:
                    del cset[min(cset, key=cset.get)]
                cset[line] = istamp
                iappend(imiss_pen)
        ic._stamp = istamp
        ic.accesses += n
        ic.misses += imisses

        # Clamp floor: no dispatch in this trace precedes C = B + crel,
        # nor the entry last-dispatch.  The pipe anchor M is whichever
        # is later; pipe-side signature values are relative to it.
        cbf_rel = sched._cur_block_fetch - B
        crel = cbf_rel + self._fd if cbf_rel < 0 else self._fd
        ld_rel = sched._last_dispatch - B
        mrel = ld_rel if ld_rel > crel else crel
        M = B + mrel

        dpens: List[int] = []
        msig: List[int] = []
        mem_idx = plan.mem_idx
        if mem_idx:
            dc = self._dcache
            dsets = dc._sets
            dstamp = dc._stamp
            dmisses = 0
            dacc = 0
            dmiss_pen = self._dmiss
            dassoc = self._dassoc
            dlb, dns = self._dlb, self._dns
            store_get = sched._store_ready.get
            dappend = dpens.append
            mappend = msig.append
            mem_load = plan.mem_load
            last_store: Dict[int, int] = {}
            for j in range(len(mem_idx)):
                addr = dyns[mem_idx[j]].mem_addr
                if addr is None:
                    dappend(0)
                    if mem_load[j]:
                        # No forwarding source and no penalty: canonical
                        # values, behaviorally identical to a clamped get.
                        mappend(0)
                        mappend(-1)
                    else:
                        # A None-address store writes no forwarding entry;
                        # a distinct signature keeps it off replay paths
                        # recorded with a real address.
                        mappend(-2)
                    continue
                dacc += 1
                dstamp += 1
                line = addr // dlb
                cset = dsets[line % dns]
                if line in cset:
                    cset[line] = dstamp
                    dappend(0)
                else:
                    dmisses += 1
                    if len(cset) >= dassoc:
                        del cset[min(cset, key=cset.get)]
                    cset[line] = dstamp
                    dappend(dmiss_pen)
                if mem_load[j]:
                    # Only load penalties affect timing (store misses
                    # mutate the cache but not the schedule).
                    mappend(dpens[-1])
                    v = store_get(addr, 0) - M
                    mappend(v if v > 0 else 0)
                    mappend(last_store.get(addr, -1))
                else:
                    last_store[addr] = j
            dc._stamp = dstamp
            dc.accesses += dacc
            dc.misses += dmisses

        if self._dead or plan.polluted:
            sched.timing_fallback += 1
            return self._scalar(plan, dyns, n, B, M, block_count,
                                block_pending, ipens, dpens, None, cb)

        # --- Entry signature ---
        rob = sched._rob_retire
        L = len(rob)
        pops = L + n - sched._rob_size
        if pops > L:
            # More pops than entries that predate the trace (n > ROB):
            # in-trace retires would be popped; stay exact.
            sched.timing_fallback += 1
            return self._scalar(plan, dyns, n, B, M, block_count,
                                block_pending, ipens, dpens, None, cb)
        sigp: List[int] = [block_count, 1 if block_pending else 0,
                           sched._overhead_acc]
        sappend = sigp.append
        if block_pending or block_count >= self._fw:
            sappend(0)
        else:
            sappend(cbf_rel)
        if ld_rel >= crel:
            # The entry last-dispatch IS the pipe anchor; the dispatch
            # width counter matters only then.
            sappend(1)
            sappend(sched._dispatch_used)
        else:
            sappend(0)
            sappend(0)
        rc_rel = sched._retire_cycle - M
        if rc_rel <= 1:
            sappend(1)
            sappend(0)
        else:
            sappend(rc_rel)
            sappend(sched._retire_count)
        sappend(L)
        if pops > 0:
            for t in islice(rob, 0, pops):
                v = t - M
                sappend(v if v > 0 else 0)
        reg_ready = sched._reg_ready
        for r in plan.read_regs:
            v = reg_ready[r] - M
            sappend(v if v > 0 else 0)
        sappend(imisses)
        if imisses:
            sigp.extend(ipens)
        if msig:
            sigp.extend(msig)
        sig = tuple(sigp)

        counts = sched._issue_count
        cg = counts.get
        entries = plan.sigs.get(sig)
        if entries is not None:
            # Gap-portable variants: valid at any anchor gap at or
            # above the recorded fetch margin.
            for d in entries:
                if mrel < d.mrel_min:
                    continue
                for relc, pre in d.probes:
                    if cg(M + relc, 0) != pre:
                        break
                else:
                    sched.timing_block_hit += 1
                    return self._apply(d, dyns, B, M, cb)
        exact = plan.sigs.get((sig, mrel)) if plan.has_exact else None
        if exact is not None:
            for d in exact:
                for relc, pre in d.probes:
                    if cg(M + relc, 0) != pre:
                        break
                else:
                    sched.timing_block_hit += 1
                    return self._apply(d, dyns, B, M, cb)

        sched.timing_block_miss += 1
        if not self._dead and sched.timing_block_miss % DEAD_CHECK == 0:
            total = (sched.timing_block_hit + sched.timing_block_miss
                     + sched.timing_fallback)
            if total >= DEAD_CHECK and sched.timing_block_hit * 3 < total:
                self._dead = True
        pending = plan.pending
        if entries is not None or exact is not None or sig in pending:
            # Recurring signature (or a probe-guard variant of one):
            # record a new delta for it.
            pending.discard(sig)
            record = sig
        else:
            if len(pending) >= 4 * VARIANT_CAP * SIG_CAP:
                pending.clear()
            pending.add(sig)
            record = None
        return self._scalar(plan, dyns, n, B, M, block_count, block_pending,
                            ipens, dpens, record, cb)

    # ------------------------------------------------------------------

    def _apply(self, d: _Delta, dyns: Sequence, B: int, M: int, cb):
        """Replay a recorded delta: integer adds against real state."""
        sched = self._sched
        rob = sched._rob_retire
        pop = rob.popleft
        for _ in range(d.pops):
            pop()
        rel_r = d.rel_r
        rob.extend([M + r for r in rel_r])
        reg_ready = sched._reg_ready
        for reg, rel in d.reg_writes:
            reg_ready[reg] = M + rel
        if d.store_writes:
            stores = sched._store_ready
            for idx, rel in d.store_writes:
                a = dyns[idx].mem_addr
                if a is not None:
                    stores[a] = M + rel
        counts = sched._issue_count
        cg = counts.get
        for rel, add in d.adds:
            c = M + rel
            counts[c] = cg(c, 0) + add
        x = B + d.nbc_b
        y = M + d.nbc_m
        sched._next_block_cycle = x if x > y else y
        x = B + d.cbf_b
        y = M + d.cbf_m
        sched._cur_block_fetch = x if x > y else y
        sched._last_dispatch = M + d.ld
        sched._dispatch_used = d.du
        sched._retire_cycle = M + d.rc
        sched._retire_count = d.rcount
        sched._overhead_acc = d.oacc
        sched.retired += d.n
        sched.redirects += d.redirects
        if cb is not None:
            rel_fb, rel_fm = d.rel_fb, d.rel_fm
            rel_d, rel_i, rel_c = d.rel_d, d.rel_i, d.rel_c
            for i in range(d.n):
                fb = B + rel_fb[i]
                fm = M + rel_fm[i]
                cb(Timestamps(fb if fb > fm else fm, M + rel_d[i],
                              M + rel_i[i], M + rel_c[i], M + rel_r[i]))
        return M + d.last_c, d.block_count, d.block_pending, d.new_blocks

    # ------------------------------------------------------------------

    def _scalar(self, plan: _TracePlan, dyns: Sequence, n: int, B: int,
                M: int, block_count: int, block_pending: bool,
                ipens: List[int], dpens: List[int],
                record_sig: Optional[tuple], cb):
        """The exact scalar pass (``OoOScheduler.add_args`` semantics),
        consuming pre-probed cache penalties; optionally records a
        :class:`_Delta` under ``record_sig``."""
        sched = self._sched
        onum, oden = sched._overhead_num, sched._overhead_den
        oacc = sched._overhead_acc
        dw = sched._dispatch_width
        iw = sched._issue_width
        rw = sched._retire_width
        rob_size = sched._rob_size
        fd = self._fd
        fw = self._fw
        reg_ready = sched._reg_ready
        stores = sched._store_ready
        store_get = stores.get
        rob = sched._rob_retire
        rob_append = rob.append
        rob_popleft = rob.popleft
        counts = sched._issue_count
        cg = counts.get
        nbc = sched._next_block_cycle
        cbf = sched._cur_block_fetch
        ld = sched._last_dispatch
        du = sched._dispatch_used
        rc = sched._retire_cycle
        rcount = sched._retire_count
        redirects = 0
        pops = 0
        new_blocks = 0
        redirect_at = plan.redirect_at
        rp = self._rp
        break_after = plan.break_after
        p_srcs, p_dest, p_lat = plan.srcs, plan.dest, plan.lat
        p_load, p_store = plan.is_load, plan.is_store
        iruns = plan.iruns
        nruns = len(iruns)
        ridx = 0
        next_first = iruns[0][3] if nruns else -1
        mptr = 0
        last_complete = 0
        rec = record_sig is not None
        if rec:
            rel_fb: List[int] = []
            rel_fm: List[int] = []
            rel_d: List[int] = []
            rel_i: List[int] = []
            rel_c: List[int] = []
            rel_r: List[int] = []
            reg_w: Dict[int, int] = {}
            store_w: List[Tuple[int, int]] = []
            probes: Dict[int, int] = {}
            own: Dict[int, int] = {}
            own_get = own.get
            # Fetch-chain anchor pairs: value = max(B + *_b, M + *_m).
            nbc_b = 0
            nbc_m = _NEG
            cbf_b = cbf - B
            cbf_m = _NEG
            fetch_b = 0
            fetch_m = _NEG
            mrel0 = M - B
            mrel_min = _NEG
            pipe_ok = True

        for idx in range(n):
            pen = 0
            if idx == next_first:
                pen = ipens[ridx]
                ridx += 1
                next_first = iruns[ridx][3] if ridx < nruns else -1
                if pen:
                    block_pending = True
            if block_pending or block_count >= fw:
                block_count = 0
                block_pending = False
                new_blocks += 1
                fetch = nbc + pen
                cbf = fetch
                gap = 1
                if onum:
                    oacc += onum
                    if oacc >= oden:
                        oacc -= oden
                        gap += 1
                nbc = fetch + gap
                if rec:
                    fetch_b = nbc_b + pen
                    fetch_m = nbc_m + pen
                    cbf_b = fetch_b
                    cbf_m = fetch_m
                    nbc_b = fetch_b + gap
                    nbc_m = fetch_m + gap
            else:
                fetch = cbf
                if rec:
                    fetch_b = cbf_b
                    fetch_m = cbf_m
            block_count += 1
            if break_after[idx]:
                block_pending = True
            # Operand readiness.
            ready = 0
            for s in p_srcs[idx]:
                t = reg_ready[s]
                if t > ready:
                    ready = t
            is_load = p_load[idx]
            is_store = p_store[idx]
            addr = None
            dpen = 0
            if is_load or is_store:
                addr = dyns[idx].mem_addr
                dpen = dpens[mptr]
                mptr += 1
                if is_load and addr is not None:
                    t = store_get(addr, 0)
                    if t > ready:
                        ready = t
            # Dispatch: in order, width-limited, ROB-limited.
            dispatch = fetch + fd
            if dispatch < ld:
                dispatch = ld
            rob_free = -1
            if len(rob) >= rob_size:
                rob_free = rob_popleft()
                pops += 1
                if dispatch < rob_free:
                    dispatch = rob_free
            if rec:
                # Fetch margin: the anchor gap below which the B-side
                # fetch chain would start binding this dispatch; and
                # pipe reproducibility: the dispatch base must be
                # reachable without the B-side fetch component at all.
                m = fetch_b + fd - (dispatch - M)
                if m > mrel_min:
                    mrel_min = m
                if pipe_ok:
                    f2 = M + fetch_m + fd
                    b2 = f2 if f2 > ld else ld
                    if rob_free > b2:
                        b2 = rob_free
                    if b2 != dispatch:
                        pipe_ok = False
            if dispatch == ld and du >= dw:
                dispatch += 1
            if dispatch == ld:
                du += 1
            else:
                ld = dispatch
                du = 1
            # Issue: width-limited slot search.
            issue = dispatch if dispatch > ready else ready
            if rec:
                while True:
                    c = cg(issue, 0)
                    rel = issue - M
                    if rel not in probes:
                        probes[rel] = c - own_get(issue, 0)
                    if c >= iw:
                        issue += 1
                    else:
                        break
                counts[issue] = c + 1
                own[issue] = own_get(issue, 0) + 1
            else:
                while cg(issue, 0) >= iw:
                    issue += 1
                counts[issue] = cg(issue, 0) + 1
            # Complete.
            complete = issue + p_lat[idx]
            if is_load:
                complete += dpen
            dest = p_dest[idx]
            if dest is not None:
                reg_ready[dest] = complete
            if is_store and addr is not None:
                stores[addr] = complete
                if rec:
                    store_w.append((idx, complete - M))
            # Retire: in order, width-limited.
            earliest = complete + 1
            if earliest > rc:
                rc = earliest
                rcount = 1
            elif rcount >= rw:
                rc += 1
                rcount = 1
            else:
                rcount += 1
            rob_append(rc)
            last_complete = complete
            if rec:
                rel_fb.append(fetch_b)
                rel_fm.append(fetch_m)
                rel_d.append(dispatch - M)
                rel_i.append(issue - M)
                rel_c.append(complete - M)
                rel_r.append(rc - M)
                if dest is not None:
                    reg_w[dest] = complete - M
            if cb is not None:
                cb(Timestamps(fetch, dispatch, issue, complete, rc))
            if idx == redirect_at:
                floor = complete + 1 + rp
                if floor > nbc:
                    nbc = floor
                redirects += 1
                block_pending = True
                if rec:
                    fm = floor - M
                    if fm > nbc_m:
                        nbc_m = fm

        sched._next_block_cycle = nbc
        sched._cur_block_fetch = cbf
        sched._last_dispatch = ld
        sched._dispatch_used = du
        sched._retire_cycle = rc
        sched._retire_count = rcount
        sched._overhead_acc = oacc
        sched.retired += n
        sched.redirects += redirects

        if rec:
            d = _Delta()
            d.n = n
            d.rel_fb = tuple(rel_fb)
            d.rel_fm = tuple(rel_fm)
            d.rel_d = tuple(rel_d)
            d.rel_i = tuple(rel_i)
            d.rel_c = tuple(rel_c)
            d.rel_r = tuple(rel_r)
            d.pops = pops
            d.reg_writes = tuple(reg_w.items())
            d.store_writes = tuple(store_w)
            d.probes = tuple(probes.items())
            d.adds = tuple((c - M, a) for c, a in own.items())
            d.nbc_b = nbc_b
            d.nbc_m = nbc_m
            d.cbf_b = cbf_b
            d.cbf_m = cbf_m
            d.ld = ld - M
            d.du = du
            d.rc = rc - M
            d.rcount = rcount
            d.oacc = oacc
            d.block_count = block_count
            d.block_pending = block_pending
            d.new_blocks = new_blocks
            d.redirects = redirects
            d.last_c = last_complete - M
            if pipe_ok:
                d.mrel_min = mrel_min
                skey: tuple = record_sig
            else:
                d.mrel_min = mrel0 + 1  # never matched by the gap test
                skey = (record_sig, mrel0)
                plan.has_exact = True
            sigs = plan.sigs
            entries = sigs.get(skey)
            if entries is None:
                if len(sigs) < SIG_CAP:
                    sigs[skey] = [d]
                else:
                    plan.polluted = True
            elif len(entries) < VARIANT_CAP:
                entries.append(d)

        return last_complete, block_count, block_pending, new_blocks


__all__ = [
    "TIMING_ENV",
    "TraceTimingEngine",
    "compiled_timing_enabled",
    "timing_meta_for",
]
