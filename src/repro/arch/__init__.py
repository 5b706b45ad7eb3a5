"""Architectural state and functional execution.

This is the "oracle" substrate: a register file, a sparse word-granular
memory, precise single-instruction semantics, and a functional simulator
used both to run programs directly and to validate the timing simulator's
retired control/data flow (paper, section 4).
"""

from repro.arch.state import ArchState, Memory, RegisterFile
from repro.arch.executor import DynInstr, execute_one, wrap32
from repro.arch.compiled import (
    CompiledProgram,
    compiled_enabled,
    compiled_for,
    resolve_engine,
)
from repro.arch.functional import FunctionalSimulator, RunResult, advance

__all__ = [
    "ArchState",
    "Memory",
    "RegisterFile",
    "DynInstr",
    "execute_one",
    "wrap32",
    "CompiledProgram",
    "compiled_enabled",
    "compiled_for",
    "resolve_engine",
    "FunctionalSimulator",
    "RunResult",
    "advance",
]
