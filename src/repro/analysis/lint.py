"""Static program linter for mini-RISC workloads.

Rules (severity in brackets):

* ``fall-off-end`` [error] — a reachable instruction can fall through
  past the end of the text segment.
* ``missing-halt`` [error] — no ``halt`` is reachable from the entry.
* ``oob-data`` [error] — a statically-resolved load/store address lies
  outside the laid-out data segment.
* ``unaligned-data`` [error] — a statically-resolved load/store address
  is not word-aligned.
* ``div-zero`` [error] — a reachable ``div``/``rem`` whose divisor is
  statically the constant zero.
* ``unreachable-code`` [warning] — basic block unreachable from entry.
* ``undef-read`` [warning] — a read with no reaching definition on any
  path (the register still holds its architectural zero).
* ``dead-write`` [warning] — register write never referenced on any
  path before being overwritten (statically ineffectual; the dynamic
  IR-detector should eventually classify every executed instance).
* ``dead-store`` [warning] — store to a statically-resolved address
  that no path reads before it is overwritten or the program halts.
* ``r0-write`` [warning] — value-producing instruction targeting the
  hardwired-zero register (``jal``/``jalr`` discarding the link via
  ``r0`` are exempt).
* ``halt-unreachable`` [warning] — reachable code from which no
  ``halt`` can be reached (statically-guaranteed infinite loop).
* ``conv-link`` [warning] — DSL convention: ``jal``/``jalr`` must link
  through ``r31`` (or discard via ``r0``).
* ``lcg-low-bits`` [warning] — DSL convention: masking low bits of the
  LCG state register ``r29`` (low bits are short-period and must not
  drive "random" branches; use the high bits, cf. ``workloads/dsl.py``).

Suppression: a source-line comment ``lint: ok`` (or ``allow``/
``ignore``) suppresses all rules on that line; ``lint: ok(rule-a,
rule-b)`` suppresses just those rules.  Suppressed diagnostics are
still returned, flagged, so tooling can report suppression counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import Dataflow, WriteClass, analyze
from repro.isa.instructions import InstrClass, Opcode, RRI_OPS, RRR_OPS, WORD
from repro.isa.program import DATA_BASE, Program

ERROR = "error"
WARNING = "warning"

#: Every rule name, for validation of allow-lists and suppressions.
ALL_RULES = frozenset(
    {
        "fall-off-end",
        "missing-halt",
        "oob-data",
        "unaligned-data",
        "div-zero",
        "unreachable-code",
        "undef-read",
        "dead-write",
        "dead-store",
        "r0-write",
        "halt-unreachable",
        "conv-link",
        "lcg-low-bits",
    }
)

_LINK_REG = 31
_LCG_REG = 29

_SUPPRESS_RE = re.compile(
    r"lint:\s*(?:ok|allow|ignore)\s*(?:\(\s*(?P<rules>[a-z0-9\-,\s]*)\s*\))?"
)


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, with source location when available."""

    rule: str
    severity: str
    message: str
    index: Optional[int] = None  # instruction index, when applicable
    pc: Optional[int] = None
    line_no: Optional[int] = None
    line_text: Optional[str] = None
    suppressed: bool = False

    def render(self, program_name: str = "") -> str:
        where = ""
        if self.line_no is not None:
            where = f"line {self.line_no}: "
        elif self.pc is not None:
            where = f"pc {self.pc:#x}: "
        prefix = f"{program_name}: " if program_name else ""
        sup = " [suppressed]" if self.suppressed else ""
        return f"{prefix}{where}{self.severity}: {self.rule}: {self.message}{sup}"


class LintError(Exception):
    """Raised (e.g. at workload build time) when lint errors remain."""

    def __init__(self, program_name: str, diagnostics: Sequence[Diagnostic]):
        self.program_name = program_name
        self.diagnostics = list(diagnostics)
        lines = [d.render(program_name) for d in diagnostics]
        super().__init__(
            f"{len(diagnostics)} lint error(s) in {program_name}:\n"
            + "\n".join(lines)
        )


def suppressed_rules(line_text: Optional[str]) -> Optional[frozenset]:
    """Rules a source line suppresses: ``None`` when there is no
    suppression comment, an empty frozenset meaning *all* rules, or the
    explicit rule set."""
    if not line_text:
        return None
    match = _SUPPRESS_RE.search(line_text)
    if not match:
        return None
    rules = match.group("rules")
    if rules is None or not rules.strip():
        return frozenset()
    return frozenset(r.strip() for r in rules.split(",") if r.strip())


def active(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Diagnostics not suppressed at source level."""
    return [d for d in diagnostics if not d.suppressed]


def errors(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    return [d for d in active(diagnostics) if d.severity == ERROR]


def lint_program(program: Program, allow: Iterable[str] = ()) -> List[Diagnostic]:
    """Lint one program; returns all diagnostics (suppressed included,
    flagged).  ``allow`` globally disables the named rules."""
    allow_set = frozenset(allow)
    unknown = allow_set - ALL_RULES
    if unknown:
        raise ValueError(f"unknown lint rule(s): {sorted(unknown)}")
    dataflow = analyze(build_cfg(program))
    cfg = dataflow.cfg
    raw = list(_collect(program, cfg, dataflow))
    out: List[Diagnostic] = []
    for diag in raw:
        if diag.rule in allow_set:
            continue
        out.append(replace(diag, suppressed=_is_suppressed(diag)))
    out.sort(key=lambda d: (d.index if d.index is not None else -1, d.rule))
    return out


def _is_suppressed(diag: Diagnostic) -> bool:
    rules = suppressed_rules(diag.line_text)
    if rules is None:
        return False
    return not rules or diag.rule in rules


def _locate(program: Program, index: int) -> Tuple[int, Optional[int], Optional[str]]:
    pc = program.pc_of(index)
    if program.source is not None:
        loc = program.source.loc_of(index)
        if loc is not None:
            return pc, loc.line_no, loc.text
    return pc, None, None


def _diag(
    program: Program, rule: str, severity: str, index: int, message: str
) -> Diagnostic:
    pc, line_no, line_text = _locate(program, index)
    return Diagnostic(rule, severity, message, index, pc, line_no, line_text)


def _collect(program: Program, cfg: CFG, df: Dataflow) -> Iterable[Diagnostic]:
    instrs = program.instructions
    if not instrs:
        yield Diagnostic("missing-halt", ERROR, "program has no instructions")
        return
    reachable = cfg.reachable_instrs()
    halts = {i for i in reachable if instrs[i].klass is InstrClass.HALT}

    # -- control-flow shape -------------------------------------------
    if not halts:
        yield Diagnostic(
            "missing-halt", ERROR, "no halt instruction is reachable from entry"
        )
    else:
        reaches_halt = cfg.can_reach(set(halts))
        for block in cfg.blocks:
            i = block.start
            if i in reachable and i not in reaches_halt:
                yield _diag(
                    program,
                    "halt-unreachable",
                    WARNING,
                    i,
                    f"no halt reachable from {instrs[i].format()!r}: "
                    "statically-guaranteed infinite loop",
                )
    for i in sorted(cfg.falls_off & reachable):
        yield _diag(
            program,
            "fall-off-end",
            ERROR,
            i,
            f"execution can fall off the end of the text segment after "
            f"{instrs[i].format()!r}",
        )
    for block in cfg.blocks:
        if block.start not in reachable and len(block):
            yield _diag(
                program,
                "unreachable-code",
                WARNING,
                block.start,
                f"unreachable block of {len(block)} instruction(s) starting at "
                f"{instrs[block.start].format()!r}",
            )

    # -- memory references --------------------------------------------
    data_end = program.data_end()
    for i in sorted(reachable):
        addr = df.consts.mem_addr[i]
        if addr is None:
            continue
        if addr % WORD:
            yield _diag(
                program,
                "unaligned-data",
                ERROR,
                i,
                f"{instrs[i].format()!r} addresses {addr:#x}, "
                f"not {WORD}-byte aligned",
            )
        if not DATA_BASE <= addr < max(data_end, DATA_BASE + WORD):
            yield _diag(
                program,
                "oob-data",
                ERROR,
                i,
                f"{instrs[i].format()!r} addresses {addr:#x}, outside the "
                f"data segment [{DATA_BASE:#x}, {data_end:#x})",
            )

    # -- arithmetic ----------------------------------------------------
    for i in df.consts.div_zero:
        if i in reachable:
            yield _diag(
                program,
                "div-zero",
                ERROR,
                i,
                f"{instrs[i].format()!r} divides by the constant zero",
            )

    # -- dataflow ------------------------------------------------------
    for i in sorted(reachable):
        instr = instrs[i]
        for reg in sorted(set(instr.srcs)):
            if reg and not df.reaching.use_defs.get((i, reg)):
                yield _diag(
                    program,
                    "undef-read",
                    WARNING,
                    i,
                    f"{instr.format()!r} reads r{reg}, which is never "
                    "written on any path (architectural zero)",
                )
        cls = df.write_classes.get(i)
        if cls is WriteClass.DEAD:
            yield _diag(
                program,
                "dead-write",
                WARNING,
                i,
                f"{instr.format()!r}: r{instr.dest} is never referenced "
                "before being overwritten (statically dead write)",
            )
    for i in df.dead_stores:
        addr = df.consts.mem_addr[i]
        yield _diag(
            program,
            "dead-store",
            WARNING,
            i,
            f"{instrs[i].format()!r}: word at {addr:#x} is never read "
            "before being overwritten (statically dead store)",
        )

    # -- conventions ---------------------------------------------------
    for i in sorted(reachable):
        instr = instrs[i]
        op = instr.opcode
        value_producing = (
            op in RRR_OPS or op in RRI_OPS or op in (Opcode.LUI, Opcode.LW)
        )
        if value_producing and instr.rd == 0:
            yield _diag(
                program,
                "r0-write",
                WARNING,
                i,
                f"{instr.format()!r} writes r0; the result is discarded",
            )
        if op in (Opcode.JAL, Opcode.JALR) and instr.rd not in (0, _LINK_REG):
            yield _diag(
                program,
                "conv-link",
                WARNING,
                i,
                f"{instr.format()!r} links through r{instr.rd}; convention "
                f"is r{_LINK_REG} (or r0 to discard)",
            )
        if (
            op is Opcode.ANDI
            and instr.rs1 == _LCG_REG
            and 0 < instr.imm <= 0xFF
        ):
            yield _diag(
                program,
                "lcg-low-bits",
                WARNING,
                i,
                f"{instr.format()!r} masks low bits of the LCG state r{_LCG_REG}; "
                "low bits are short-period — shift high bits down instead",
            )
