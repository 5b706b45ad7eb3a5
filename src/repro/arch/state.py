"""Architectural state: register file and sparse memory.

Each stream of a slipstream processor owns a full architectural context
(the OS instantiates the user program twice).  Both contexts start from
the same initial memory image; :class:`Memory` is a copy-on-write overlay
over that shared image so that instantiating the second context is free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.isa.instructions import REG_COUNT, ZERO_REG


class RegisterFile:
    """64 general-purpose registers; ``r0`` reads as zero."""

    __slots__ = ("regs",)

    def __init__(self, values: Optional[List[int]] = None):
        if values is None:
            self.regs = [0] * REG_COUNT
        else:
            if len(values) != REG_COUNT:
                raise ValueError(f"need {REG_COUNT} values, got {len(values)}")
            self.regs = list(values)
        self.regs[ZERO_REG] = 0

    def read(self, reg: int) -> int:
        return self.regs[reg]

    def write(self, reg: int, value: int) -> None:
        if reg != ZERO_REG:
            self.regs[reg] = value

    def copy(self) -> "RegisterFile":
        return RegisterFile(self.regs)

    def copy_from(self, other: "RegisterFile") -> None:
        """Overwrite all registers from another file (recovery)."""
        self.regs[:] = other.regs
        self.regs[ZERO_REG] = 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegisterFile) and self.regs == other.regs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {i: v for i, v in enumerate(self.regs) if v}
        return f"RegisterFile({nonzero})"


class Memory:
    """Sparse, word-granular memory as a copy-on-write overlay.

    Reads consult the private write overlay first, then the shared
    read-only image, and default to zero.  Addresses are byte addresses
    and must be word-aligned.
    """

    __slots__ = ("image", "writes")

    def __init__(self, image: Optional[Dict[int, int]] = None):
        self.image: Dict[int, int] = image if image is not None else {}
        self.writes: Dict[int, int] = {}

    def read(self, addr: int) -> int:
        if addr & 3 or addr < 0:
            self._check(addr)
        value = self.writes.get(addr)  # stored values are ints, never None
        if value is None:
            return self.image.get(addr, 0)
        return value

    def write(self, addr: int, value: int) -> None:
        if addr & 3 or addr < 0:
            self._check(addr)
        self.writes[addr] = value

    @staticmethod
    def _check(addr: int) -> None:
        """Raise for a bad address; callers test ``addr & 3 or addr < 0``
        first (same truthiness as ``addr % 4`` for every int)."""
        if addr % 4:
            raise ValueError(f"unaligned memory access at {addr:#x}")
        if addr < 0:
            raise ValueError(f"negative memory address {addr:#x}")

    def fork(self) -> "Memory":
        """A new memory sharing this memory's image, with copied writes."""
        forked = Memory(self.image)
        forked.writes = dict(self.writes)
        return forked

    def touched(self) -> Set[int]:
        """Addresses ever written through this overlay."""
        return set(self.writes)

    def differing_addresses(self, other: "Memory") -> Set[int]:
        """Addresses at which this memory and ``other`` disagree.

        Only addresses written in either overlay can differ (the image is
        shared), so this is cheap.  Used by recovery-sufficiency audits.
        """
        candidates = sorted(set(self.writes) | set(other.writes))
        return {a for a in candidates if self.read(a) != other.read(a)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Memory({len(self.writes)} dirty words)"


class ArchState:
    """One architectural context: registers + memory + program output."""

    __slots__ = ("regs", "mem", "output", "halted")

    def __init__(self, image: Optional[Dict[int, int]] = None):
        self.regs = RegisterFile()
        self.mem = Memory(image)
        self.output: List[int] = []
        self.halted = False

    def fork(self) -> "ArchState":
        """Clone the context (second process instantiation)."""
        forked = ArchState.__new__(ArchState)
        forked.regs = self.regs.copy()
        forked.mem = self.mem.fork()
        forked.output = list(self.output)
        forked.halted = self.halted
        return forked
