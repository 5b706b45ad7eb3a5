"""Functional (architectural) simulator.

Runs a program to completion with precise semantics.  This is the oracle
used throughout the project:

* running workloads directly (examples, program-correctness tests);
* validating the timing simulator's retired control/data flow, exactly as
  the paper validates its detailed simulator against an independent
  functional simulator (section 4);
* providing the R-stream's authoritative execution in the slipstream
  co-simulation.

Two execution engines produce bit-identical results (asserted by
``tests/test_arch_compiled.py``):

* ``"compiled"`` (default) — pre-decoded closures from
  :mod:`repro.arch.compiled`; :meth:`FunctionalSimulator.run` executes
  whole basic blocks per dispatch and allocates no ``DynInstr`` at all.
* ``"interpreted"`` — the reference :func:`repro.arch.executor.execute_one`
  loop.  Select it globally with ``REPRO_COMPILED=0`` or per-instance
  with ``engine="interpreted"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.arch.compiled import CompiledProgram, compiled_for, resolve_engine
from repro.arch.executor import DynInstr, execute_one
from repro.arch.state import ArchState
from repro.isa.program import Program


class InstructionLimitExceeded(Exception):
    """The program did not halt within the allowed instruction budget."""


@dataclass
class RunResult:
    """Outcome of a complete functional run."""

    state: ArchState
    instruction_count: int
    output: List[int] = field(default_factory=list)

    @property
    def halted(self) -> bool:
        return self.state.halted


def advance(
    program: Program,
    state: ArchState,
    pc: int,
    count: int,
    engine: Optional[str] = None,
) -> Tuple[int, int]:
    """Execute ``count`` instructions of ``program`` on ``state`` from
    ``pc``, stopping early after a ``halt``.

    Returns ``(executed, next_pc)``: ``executed`` is below ``count``
    only when the run halted, and ``next_pc`` is where the next
    instruction would execute (the ``halt``'s own PC after a halt).  A
    trap raises the interpreter's error and leaves ``state`` as the
    trapping instruction found it.  ``engine`` is resolved by
    :func:`~repro.arch.compiled.resolve_engine`; both engines stop at
    the same state and PC.
    """
    if resolve_engine(engine) == "compiled":
        executed, _halted, pc = compiled_for(program).run(state, pc, count)
        return executed, pc
    executed = 0
    while executed < count:
        dyn = execute_one(program, state, pc, seq=executed)
        executed += 1
        if state.halted:
            break
        pc = dyn.next_pc
    return executed, pc


class FunctionalSimulator:
    """Architectural simulator for one program context.

    Use :meth:`run` for a complete run or :meth:`steps` to iterate
    retired instructions (the dynamic instruction stream).
    """

    def __init__(
        self,
        program: Program,
        max_instructions: int = 50_000_000,
        engine: Optional[str] = None,
    ):
        self.program = program
        self.max_instructions = max_instructions
        self.engine = resolve_engine(engine)
        self._compiled: Optional[CompiledProgram] = (
            compiled_for(program) if self.engine == "compiled" else None
        )

    def fresh_state(self) -> ArchState:
        return ArchState(image=self.program.data)

    def steps(
        self, state: Optional[ArchState] = None, pc: Optional[int] = None
    ) -> Iterator[DynInstr]:
        """Yield retired instructions until ``halt`` or the budget runs out.

        Execution starts at ``pc`` (default: the program's entry).  The
        ``halt`` instruction itself is yielded last.
        """
        if state is None:
            state = self.fresh_state()
        if pc is None:
            pc = self.program.entry
        program = self.program
        compiled = self._compiled
        if compiled is not None:
            step_get = compiled.step_funcs.get
            for seq in range(self.max_instructions):
                f = step_get(pc)
                dyn = (f(state, seq) if f is not None
                       else execute_one(program, state, pc, seq=seq))
                yield dyn
                if state.halted:
                    return
                pc = dyn.next_pc
        else:
            for seq in range(self.max_instructions):
                dyn = execute_one(program, state, pc, seq=seq)
                yield dyn
                if state.halted:
                    return
                pc = dyn.next_pc
        raise InstructionLimitExceeded(
            f"{self.program.name} exceeded {self.max_instructions} instructions"
        )

    def run(
        self, state: Optional[ArchState] = None, pc: Optional[int] = None
    ) -> RunResult:
        """Run to completion from ``pc`` (default: the program's entry),
        returning final state and retire count."""
        if state is None:
            state = self.fresh_state()
        if pc is None:
            pc = self.program.entry
        count, _pc = advance(self.program, state, pc, self.max_instructions,
                             self.engine)
        # A zero budget executes nothing, so it observes no halt even on
        # a context that is already halted.
        if not (count and state.halted):
            raise InstructionLimitExceeded(
                f"{self.program.name} exceeded {self.max_instructions} instructions"
            )
        return RunResult(state=state, instruction_count=count, output=state.output)
