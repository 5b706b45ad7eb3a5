"""Compiled execution engine: threaded-code closures + block chaining.

The interpreter in :mod:`repro.arch.executor` re-decodes every dynamic
instruction: an ``Opcode`` dict probe, attribute-lookup chains on the
``Instruction``, generic source-tuple construction, and a ``wrap32``
call, all per retired instruction.  Static instructions are few and
dynamic instances are tens of millions, so this module moves the decode
to *program build time*:

* **Record closures** — every static instruction is pre-compiled into a
  specialized closure ``step(state, seq) -> DynInstr`` with its operand
  registers, ALU lambda, immediates, branch target, and both possible
  next-PC values bound as locals.  Immediate-only results (``lui``
  values, ``jal`` link addresses, fall-through PCs) are folded to
  constants.  Dispatch is one dict probe on the PC.

* **Apply closures + basic-block chain cache** — for consumers that
  only need architectural effects (functional reference runs, fault
  campaign references), each instruction also compiles to an
  effect-only closure, and straight-line runs execute whole basic
  blocks per dispatch: a lazily-built cache maps an entry PC to the
  tuple of body closures plus one terminator closure that computes the
  next block's entry PC.  No ``DynInstr`` is allocated at all on this
  path.

Bit-identity with the interpreter is preserved by construction:

* the ALU/branch semantics are the *same lambda objects*
  (``_ALU_RRR``/``_ALU_RRI``/``_BRANCH_COND`` imported from the
  interpreter), specialization only binds their operands earlier;
* effect order matches ``execute_one`` exactly (sources read before
  destination writes, memory checked before any state change), so
  faulting paths (division by zero, unaligned access, wild PCs) raise
  the same exception types with the same messages at the same
  architectural state;
* a PC with no compiled closure (misaligned / outside the text
  segment) falls back to ``execute_one``, which raises exactly what
  the interpreter would.

Engine selection is environmental (``REPRO_COMPILED=0`` opts out) or
explicit (``engine="interpreted"`` constructor arguments).  It is
deliberately *not* part of ``SlipstreamConfig``: both engines produce
identical results, so the choice must not perturb config fingerprints
or evaluation cache keys.
"""

from __future__ import annotations

import os
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.executor import (
    _ALU_RRI,
    _ALU_RRR,
    _BRANCH_COND,
    DynInstr,
    ExecutionError,
    execute_one,
)
from repro.arch.state import ArchState
from repro.isa.instructions import (
    BRANCH_OPS,
    InstrClass,
    Instruction,
    Opcode,
    RRI_OPS,
    RRR_OPS,
    WORD,
)
from repro.isa.program import Program, TEXT_BASE

_U32 = 0xFFFFFFFF
_SIGN = 0x80000000
_WRAP = 0x100000000

#: Environment opt-out: ``REPRO_COMPILED=0`` selects the interpreter.
ENGINE_ENV = "REPRO_COMPILED"

#: ``step(state, seq) -> DynInstr`` — records one retired instruction.
StepFn = Callable[[ArchState, int], DynInstr]
#: ``apply(state) -> None`` — architectural effect only (block body).
ApplyFn = Callable[[ArchState], None]
#: ``term(state) -> int`` — effect plus the next block's entry PC.
TermFn = Callable[[ArchState], int]

_FALSY = frozenset({"0", "false", "off", "no"})


def compiled_enabled() -> bool:
    """True unless ``REPRO_COMPILED`` is set to a falsy value."""
    value = os.environ.get(ENGINE_ENV)
    if value is None:
        return True
    return value.strip().lower() not in _FALSY


def resolve_engine(engine: Optional[str]) -> str:
    """Normalize an engine request to ``"compiled"`` or ``"interpreted"``.

    ``None`` defers to the environment (compiled by default).
    """
    if engine is None:
        return "compiled" if compiled_enabled() else "interpreted"
    if engine not in ("compiled", "interpreted"):
        raise ValueError(f"unknown execution engine {engine!r}")
    return engine


# ======================================================================
# Record closures: step(state, seq) -> DynInstr.
# ======================================================================
#
# Every builder binds its constants as default arguments (the fastest
# locals CPython has) and inlines wrap32.  DynInstr fields are passed
# positionally: (seq, pc, instr, next_pc, taken, src_values, dest_reg,
# value, mem_addr, output).


def _rec_rrr(instr: Instruction, pc: int) -> StepFn:
    alu = _ALU_RRR[instr.opcode]
    npc = pc + WORD
    rd = instr.dest
    if rd is not None:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _alu=alu, _ra=instr.rs1, _rb=instr.rs2, _rd=rd):
            regs = state.regs.regs
            a = regs[_ra]
            b = regs[_rb]
            v = _alu(a, b) & 0xFFFFFFFF
            if v & 0x80000000:
                v -= 0x100000000
            regs[_rd] = v
            return _D(seq, _pc, _i, _npc, False, (a, b), _rd, v, None, None)
    else:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _alu=alu, _ra=instr.rs1, _rb=instr.rs2):
            regs = state.regs.regs
            a = regs[_ra]
            b = regs[_rb]
            v = _alu(a, b) & 0xFFFFFFFF
            if v & 0x80000000:
                v -= 0x100000000
            return _D(seq, _pc, _i, _npc, False, (a, b), None, v, None, None)

    return step


def _rec_rri(instr: Instruction, pc: int) -> StepFn:
    alu = _ALU_RRI[instr.opcode]
    npc = pc + WORD
    rd = instr.dest
    if rd is not None:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _alu=alu, _ra=instr.rs1, _imm=instr.imm, _rd=rd):
            regs = state.regs.regs
            a = regs[_ra]
            v = _alu(a, _imm) & 0xFFFFFFFF
            if v & 0x80000000:
                v -= 0x100000000
            regs[_rd] = v
            return _D(seq, _pc, _i, _npc, False, (a,), _rd, v, None, None)
    else:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _alu=alu, _ra=instr.rs1, _imm=instr.imm):
            regs = state.regs.regs
            a = regs[_ra]
            v = _alu(a, _imm) & 0xFFFFFFFF
            if v & 0x80000000:
                v -= 0x100000000
            return _D(seq, _pc, _i, _npc, False, (a,), None, v, None, None)

    return step


def _rec_branch(instr: Instruction, pc: int) -> StepFn:
    cond = _BRANCH_COND[instr.opcode]

    def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=pc + WORD,
             _t=instr.target, _cond=cond, _ra=instr.rs1, _rb=instr.rs2):
        regs = state.regs.regs
        a = regs[_ra]
        b = regs[_rb]
        taken = _cond(a, b)
        return _D(seq, _pc, _i, _t if taken else _npc, taken, (a, b),
                  None, None, None, None)

    return step


def _rec_lw(instr: Instruction, pc: int) -> StepFn:
    npc = pc + WORD
    rd = instr.dest
    if rd is not None:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _ra=instr.rs1, _imm=instr.imm, _rd=rd):
            regs = state.regs.regs
            a = regs[_ra]
            addr = (a + _imm) & 0xFFFFFFFF
            v = state.mem.read(addr)
            regs[_rd] = v
            return _D(seq, _pc, _i, _npc, False, (a,), _rd, v, addr, None)
    else:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _ra=instr.rs1, _imm=instr.imm):
            a = state.regs.regs[_ra]
            addr = (a + _imm) & 0xFFFFFFFF
            v = state.mem.read(addr)
            return _D(seq, _pc, _i, _npc, False, (a,), None, v, addr, None)

    return step


def _rec_sw(instr: Instruction, pc: int) -> StepFn:
    def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=pc + WORD,
             _ra=instr.rs1, _rb=instr.rs2, _imm=instr.imm):
        regs = state.regs.regs
        a = regs[_ra]
        b = regs[_rb]
        addr = (a + _imm) & 0xFFFFFFFF
        state.mem.write(addr, b)
        return _D(seq, _pc, _i, _npc, False, (a, b), None, b, addr, None)

    return step


def _rec_div(instr: Instruction, pc: int) -> StepFn:
    is_div = instr.opcode is Opcode.DIV
    message = f"division by zero at pc {pc:#x}"
    npc = pc + WORD
    rd = instr.dest

    def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
             _ra=instr.rs1, _rb=instr.rs2, _rd=rd, _div=is_div,
             _msg=message, _E=ExecutionError):
        regs = state.regs.regs
        a = regs[_ra]
        b = regs[_rb]
        if b == 0:
            raise _E(_msg)
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        v = (q if _div else a - q * b) & 0xFFFFFFFF
        if v & 0x80000000:
            v -= 0x100000000
        if _rd is not None:
            regs[_rd] = v
        return _D(seq, _pc, _i, _npc, False, (a, b), _rd, v, None, None)

    return step


def _rec_lui(instr: Instruction, pc: int) -> StepFn:
    value = instr.imm << 16 & _U32
    if value & _SIGN:
        value -= _WRAP
    npc = pc + WORD
    rd = instr.dest
    if rd is not None:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _rd=rd, _v=value):
            state.regs.regs[_rd] = _v
            return _D(seq, _pc, _i, _npc, False, (), _rd, _v, None, None)
    else:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=npc,
                 _v=value):
            return _D(seq, _pc, _i, _npc, False, (), None, _v, None, None)

    return step


def _rec_j(instr: Instruction, pc: int) -> StepFn:
    def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _t=instr.target):
        return _D(seq, _pc, _i, _t, True, (), None, None, None, None)

    return step


def _rec_jal(instr: Instruction, pc: int) -> StepFn:
    link = pc + WORD
    rd = instr.dest
    if rd is not None:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _t=instr.target,
                 _rd=rd, _link=link):
            state.regs.regs[_rd] = _link
            return _D(seq, _pc, _i, _t, True, (), _rd, _link, None, None)
    else:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _t=instr.target,
                 _link=link):
            return _D(seq, _pc, _i, _t, True, (), None, _link, None, None)

    return step


def _rec_jalr(instr: Instruction, pc: int) -> StepFn:
    link = pc + WORD
    rd = instr.dest
    if rd is not None:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _ra=instr.rs1,
                 _rd=rd, _link=link):
            regs = state.regs.regs
            a = regs[_ra]
            regs[_rd] = _link
            return _D(seq, _pc, _i, a & 0xFFFFFFFF, True, (a,), _rd, _link,
                      None, None)
    else:

        def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _ra=instr.rs1,
                 _link=link):
            a = state.regs.regs[_ra]
            return _D(seq, _pc, _i, a & 0xFFFFFFFF, True, (a,), None, _link,
                      None, None)

    return step


def _rec_out(instr: Instruction, pc: int) -> StepFn:
    def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=pc + WORD,
             _ra=instr.rs1):
        a = state.regs.regs[_ra]
        state.output.append(a)
        return _D(seq, _pc, _i, _npc, False, (a,), None, None, None, a)

    return step


def _rec_halt(instr: Instruction, pc: int) -> StepFn:
    def step(state, seq, _D=DynInstr, _i=instr, _pc=pc):
        state.halted = True
        return _D(seq, _pc, _i, _pc, False, (), None, None, None, None)

    return step


def _rec_nop(instr: Instruction, pc: int) -> StepFn:
    def step(state, seq, _D=DynInstr, _i=instr, _pc=pc, _npc=pc + WORD):
        return _D(seq, _pc, _i, _npc, False, (), None, None, None, None)

    return step


def _compile_record(instr: Instruction, pc: int) -> StepFn:
    op = instr.opcode
    if op in (Opcode.DIV, Opcode.REM):
        return _rec_div(instr, pc)
    if op in RRR_OPS:
        return _rec_rrr(instr, pc)
    if op in RRI_OPS:
        return _rec_rri(instr, pc)
    if op in BRANCH_OPS:
        return _rec_branch(instr, pc)
    if op is Opcode.LW:
        return _rec_lw(instr, pc)
    if op is Opcode.SW:
        return _rec_sw(instr, pc)
    if op is Opcode.LUI:
        return _rec_lui(instr, pc)
    if op is Opcode.J:
        return _rec_j(instr, pc)
    if op is Opcode.JAL:
        return _rec_jal(instr, pc)
    if op is Opcode.JALR:
        return _rec_jalr(instr, pc)
    if op is Opcode.OUT:
        return _rec_out(instr, pc)
    if op is Opcode.HALT:
        return _rec_halt(instr, pc)
    return _rec_nop(instr, pc)


# ======================================================================
# Apply closures: effect-only bodies for the basic-block path.
# ======================================================================


def _noop(state: ArchState) -> None:
    return None


def _app_rrr(instr: Instruction, pc: int) -> ApplyFn:
    rd = instr.dest
    if rd is None:
        # Result discarded (rd == r0); non-div RRR ops cannot fault.
        return _noop
    alu = _ALU_RRR[instr.opcode]

    def apply(state, _alu=alu, _ra=instr.rs1, _rb=instr.rs2, _rd=rd):
        regs = state.regs.regs
        v = _alu(regs[_ra], regs[_rb]) & 0xFFFFFFFF
        if v & 0x80000000:
            v -= 0x100000000
        regs[_rd] = v

    return apply


def _app_rri(instr: Instruction, pc: int) -> ApplyFn:
    rd = instr.dest
    if rd is None:
        return _noop
    alu = _ALU_RRI[instr.opcode]

    def apply(state, _alu=alu, _ra=instr.rs1, _imm=instr.imm, _rd=rd):
        regs = state.regs.regs
        v = _alu(regs[_ra], _imm) & 0xFFFFFFFF
        if v & 0x80000000:
            v -= 0x100000000
        regs[_rd] = v

    return apply


def _app_lw(instr: Instruction, pc: int) -> ApplyFn:
    rd = instr.dest
    if rd is not None:

        def apply(state, _ra=instr.rs1, _imm=instr.imm, _rd=rd):
            regs = state.regs.regs
            addr = (regs[_ra] + _imm) & 0xFFFFFFFF
            regs[_rd] = state.mem.read(addr)
    else:

        # Loads to r0 still perform the access (alignment fault parity).
        def apply(state, _ra=instr.rs1, _imm=instr.imm):
            state.mem.read((state.regs.regs[_ra] + _imm) & 0xFFFFFFFF)

    return apply


def _app_sw(instr: Instruction, pc: int) -> ApplyFn:
    def apply(state, _ra=instr.rs1, _rb=instr.rs2, _imm=instr.imm):
        regs = state.regs.regs
        state.mem.write((regs[_ra] + _imm) & 0xFFFFFFFF, regs[_rb])

    return apply


def _app_div(instr: Instruction, pc: int) -> ApplyFn:
    is_div = instr.opcode is Opcode.DIV
    message = f"division by zero at pc {pc:#x}"
    rd = instr.dest

    def apply(state, _ra=instr.rs1, _rb=instr.rs2, _rd=rd, _div=is_div,
              _msg=message, _E=ExecutionError):
        regs = state.regs.regs
        a = regs[_ra]
        b = regs[_rb]
        if b == 0:
            raise _E(_msg)
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        v = (q if _div else a - q * b) & 0xFFFFFFFF
        if v & 0x80000000:
            v -= 0x100000000
        if _rd is not None:
            regs[_rd] = v

    return apply


def _app_lui(instr: Instruction, pc: int) -> ApplyFn:
    rd = instr.dest
    if rd is None:
        return _noop
    value = instr.imm << 16 & _U32
    if value & _SIGN:
        value -= _WRAP

    def apply(state, _rd=rd, _v=value):
        state.regs.regs[_rd] = _v

    return apply


def _app_out(instr: Instruction, pc: int) -> ApplyFn:
    def apply(state, _ra=instr.rs1):
        state.output.append(state.regs.regs[_ra])

    return apply


def _compile_apply(instr: Instruction, pc: int) -> ApplyFn:
    op = instr.opcode
    if op in (Opcode.DIV, Opcode.REM):
        return _app_div(instr, pc)
    if op in RRR_OPS:
        return _app_rrr(instr, pc)
    if op in RRI_OPS:
        return _app_rri(instr, pc)
    if op is Opcode.LW:
        return _app_lw(instr, pc)
    if op is Opcode.SW:
        return _app_sw(instr, pc)
    if op is Opcode.LUI:
        return _app_lui(instr, pc)
    if op is Opcode.OUT:
        return _app_out(instr, pc)
    if op is Opcode.NOP:
        return _noop
    raise AssertionError(f"{op} is a terminator, not a block body")


# Terminators: effect plus the next block's entry PC.


def _term_branch(instr: Instruction, pc: int) -> TermFn:
    cond = _BRANCH_COND[instr.opcode]

    def term(state, _cond=cond, _ra=instr.rs1, _rb=instr.rs2,
             _t=instr.target, _npc=pc + WORD):
        regs = state.regs.regs
        return _t if _cond(regs[_ra], regs[_rb]) else _npc

    return term


def _term_j(instr: Instruction, pc: int) -> TermFn:
    def term(state, _t=instr.target):
        return _t

    return term


def _term_jal(instr: Instruction, pc: int) -> TermFn:
    rd = instr.dest
    if rd is None:
        return _term_j(instr, pc)

    def term(state, _rd=rd, _link=pc + WORD, _t=instr.target):
        state.regs.regs[_rd] = _link
        return _t

    return term


def _term_jalr(instr: Instruction, pc: int) -> TermFn:
    rd = instr.dest
    if rd is not None:

        def term(state, _ra=instr.rs1, _rd=rd, _link=pc + WORD):
            regs = state.regs.regs
            a = regs[_ra]
            regs[_rd] = _link
            return a & 0xFFFFFFFF
    else:

        def term(state, _ra=instr.rs1):
            return state.regs.regs[_ra] & 0xFFFFFFFF

    return term


def _term_halt(instr: Instruction, pc: int) -> TermFn:
    def term(state, _pc=pc):
        state.halted = True
        return _pc

    return term


def _compile_term(instr: Instruction, pc: int) -> TermFn:
    op = instr.opcode
    if op in BRANCH_OPS:
        return _term_branch(instr, pc)
    if op is Opcode.J:
        return _term_j(instr, pc)
    if op is Opcode.JAL:
        return _term_jal(instr, pc)
    if op is Opcode.JALR:
        return _term_jalr(instr, pc)
    if op is Opcode.HALT:
        return _term_halt(instr, pc)
    raise AssertionError(f"{op} is not a terminator")


# ======================================================================
# The compiled program.
# ======================================================================

#: (body closures, terminator or None, instruction count, fall-through PC)
_Block = Tuple[Tuple[ApplyFn, ...], Optional[TermFn], int, int]


class CompiledProgram:
    """A program's static instructions compiled to specialized closures.

    ``step_funcs`` maps every valid instruction PC to its record closure;
    consumers dispatch with one dict probe and fall back to
    :func:`repro.arch.executor.execute_one` on a miss so invalid PCs
    raise exactly the interpreter's errors.  :meth:`run` executes
    effect-only basic blocks for complete functional runs.
    """

    __slots__ = ("program", "step_funcs", "_blocks", "__weakref__")

    def __init__(self, program: Program):
        self.program = program
        step_funcs: Dict[int, StepFn] = {}
        pc = TEXT_BASE
        for instr in program.instructions:
            step_funcs[pc] = _compile_record(instr, pc)
            pc += WORD
        self.step_funcs = step_funcs
        #: Basic-block chain cache, built lazily per executed entry PC.
        self._blocks: Dict[int, _Block] = {}

    @property
    def blocks_compiled(self) -> int:
        return len(self._blocks)

    def _build_block(self, pc: int) -> _Block:
        """Compile the basic block entered at ``pc``.

        Raises the interpreter's ``IndexError`` when ``pc`` is not a
        valid instruction address.  Blocks are keyed by entry PC and may
        overlap: a jump into the middle of an existing block simply
        compiles a new (shorter) block starting there.
        """
        program = self.program
        index = program.index_of(pc)
        instrs = program.instructions
        total = len(instrs)
        bodies: List[ApplyFn] = []
        term: Optional[TermFn] = None
        i = index
        while i < total:
            instr = instrs[i]
            if instr.is_control or instr.klass is InstrClass.HALT:
                term = _compile_term(instr, TEXT_BASE + i * WORD)
                i += 1
                break
            bodies.append(_compile_apply(instr, TEXT_BASE + i * WORD))
            i += 1
        block = (tuple(bodies), term, i - index, TEXT_BASE + i * WORD)
        self._blocks[pc] = block
        return block

    def run(
        self, state: ArchState, pc: int, budget: int
    ) -> Tuple[int, bool, int]:
        """Execute until ``halt`` or ``budget`` instructions, block-wise.

        Returns ``(instructions_executed, halt_observed, next_pc)``; the
        caller raises its budget-exceeded error when ``halt_observed``
        is False.  ``next_pc`` is the PC the next instruction would
        execute at (the ``halt``'s own PC after a halt).  Matches the
        interpreter loop exactly, including the degenerate cases (zero
        budget, a state already halted on entry — the interpreter still
        executes instructions until it observes ``state.halted`` after a
        step).
        """
        if budget <= 0:
            return 0, False, pc
        step_funcs = self.step_funcs
        program = self.program
        if state.halted:
            # Pre-halted context: the interpreter executes exactly one
            # instruction before noticing.
            f = step_funcs.get(pc)
            if f is not None:
                f(state, 0)
            else:
                execute_one(program, state, pc, 0)
            return 1, True, pc
        blocks = self._blocks
        blocks_get = blocks.get
        count = 0
        while count < budget:
            block = blocks_get(pc)
            if block is None:
                block = self._build_block(pc)
            bodies, term, n, fall = block
            if count + n > budget:
                # Budget lands inside this block: single-step the tail.
                while count < budget:
                    f = step_funcs.get(pc)
                    dyn = (f(state, count) if f is not None
                           else execute_one(program, state, pc, count))
                    count += 1
                    if state.halted:
                        return count, True, pc
                    pc = dyn.next_pc
                return count, False, pc
            for f in bodies:
                f(state)
            count += n
            if term is not None:
                pc = term(state)
                if state.halted:
                    return count, True, pc
            else:
                pc = fall
        return count, False, pc


# ``Program`` is an eq-comparing dataclass (unhashable), so per-program
# derived artifacts are memoized by object identity with a weakref
# finalizer for cleanup.  Artifacts are deliberately NOT stored on the
# Program instance: plain dataclasses pickle their __dict__, and
# closures are unpicklable.


def program_keyed_memo(build: Callable[[Program], object]) -> Callable[[Program], object]:
    """A per-process, identity-keyed memo of ``build(program)``.

    Programs are immutable after assembly, so anything derived purely
    from the static program (compiled step closures, timing metadata)
    stays valid for the program object's lifetime.  Entries are evicted
    by a weakref finalizer when the program is collected; a recycled
    ``id`` therefore never aliases a live entry (the stored weakref is
    re-checked against the argument anyway).

    Used by :func:`compiled_for` (functional engine),
    :func:`repro.uarch.compiled_timing.timing_meta_for` (timing engine)
    and :func:`repro.analysis.ceiling.static_removal_report_for` (static
    analysis), so pool workers that simulate many jobs on one memoized
    program (:mod:`repro.eval.jobs`) pay each derivation once per
    process.
    """
    registry: Dict[int, Tuple["weakref.ref[Program]", object]] = {}

    def lookup(program: Program) -> object:
        key = id(program)
        entry = registry.get(key)
        if entry is not None and entry[0]() is program:
            return entry[1]
        value = build(program)

        # The dict is bound as a default so the finalizer still works
        # at interpreter shutdown, after module globals are cleared.
        def _evict(_ref: object, _key: int = key, _registry=registry) -> None:
            _registry.pop(_key, None)

        registry[key] = (weakref.ref(program, _evict), value)
        return value

    return lookup


#: The (memoized) compiled engine for a program.  Compilation is pure
#: pre-decoding: one engine per program instance is always valid.
compiled_for: Callable[[Program], CompiledProgram] = program_keyed_memo(CompiledProgram)
