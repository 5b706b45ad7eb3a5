"""Operating modes of the multi-context chip (paper, sections 1 and 7).

The paper's larger agenda is a CMP/SMT chip whose second context can be
flexibly redeployed: "high job throughput and parallel-program
performance (conventional SMT/CMP), improved single-program performance
and reliability (slipstreaming), or fully-reliable operation with
little or no impact on single-program performance (AR-SMT / SRT)."
:func:`run_mode` runs the chip in one of those three modes:

* ``THROUGHPUT`` — independent programs on independent cores; maximum
  job throughput, no redundancy.
* ``SLIPSTREAM`` — the paper's A/R pair: partial redundancy,
  single-program speedup, partial fault coverage, rollback recovery.
* ``RELIABLE`` — AR-SMT-style full redundancy (removal disabled): every
  instruction redundantly executed and compared.

The fault campaign's redundancy modes (:data:`CAMPAIGN_MODES`) are run
by :mod:`repro.fault.campaign`, which also holds their stream counts and
fault sites.  The slipstream pair's configuration variants live here:
:func:`reliable_config`, :func:`static_hint_config` and
:func:`decorrelated_config` (DME-style shifted data address spaces and
rotated register assignments, undone at comparison time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.slipstream import (
    SlipstreamConfig,
    SlipstreamProcessor,
    SlipstreamResult,
)
from repro.isa.program import Program
from repro.uarch.config import CoreConfig, SS_64x4
from repro.uarch.core import CoreRunResult, SuperscalarCore


class OperatingMode(enum.Enum):
    THROUGHPUT = "throughput"
    SLIPSTREAM = "slipstream"
    RELIABLE = "reliable"


class ModeError(ValueError):
    """Structured mode-dispatch error.

    Carries the offending mode name, the number of programs supplied,
    and a human-oriented hint, so callers (the CLIs) can build
    precise diagnostics instead of parsing message strings.
    """

    def __init__(self, mode: str, n_programs: int, hint: str):
        self.mode = mode
        self.n_programs = n_programs
        self.hint = hint
        super().__init__(f"mode {mode!r} with {n_programs} program(s): {hint}")


@dataclass
class ModeResult:
    """Outcome of running the chip in one mode."""

    mode: OperatingMode
    #: Total retired instructions across all program copies counted
    #: once per *distinct* program (redundant copies are not work).
    useful_instructions: int
    cycles: int
    #: Redundancy factor: fraction of useful instructions redundantly
    #: executed/validated (0 for throughput, 0..1 for the A/R pair).
    redundancy: float
    core_results: List[object]

    @property
    def throughput_ipc(self) -> float:
        return self.useful_instructions / self.cycles if self.cycles else 0.0


def reliable_config(base: Optional[SlipstreamConfig] = None) -> SlipstreamConfig:
    """AR-SMT: the slipstream machine with instruction removal disabled."""
    return replace(base or SlipstreamConfig(), removal_triggers=())


def static_hint_config(base: Optional[SlipstreamConfig] = None) -> SlipstreamConfig:
    """Slipstream with the static-analysis hints enabled: the per-PC
    removal table is pre-warmed with the abstract interpreter's proven
    facts (:mod:`repro.analysis.ceiling`) before execution."""
    return replace(base or SlipstreamConfig(), static_hints=True)


def decorrelated_config(
    base: Optional[SlipstreamConfig] = None,
) -> SlipstreamConfig:
    """Slipstream with DME-style decorrelated contexts.

    The two streams use shifted data address spaces and rotated
    register assignments, undone by translation hardware at comparison
    time — clean-run behaviour is identical, but the translation adds
    one cycle to every delay-buffer transfer, and layout-correlated
    faults flip *different logical bits* in the two contexts (see
    ``FaultSite.CORRELATED`` in :mod:`repro.fault.injector`).
    """
    cfg = base or SlipstreamConfig()
    return replace(
        cfg,
        decorrelated=True,
        transfer_latency=cfg.transfer_latency + 1,
    )


#: Modes the fault campaign can sweep (`--modes all`).
CAMPAIGN_MODES: Tuple[str, ...] = ("slipstream", "tmr", "replay", "decorrelated")


def run_mode(
    mode: Union[OperatingMode, str],
    programs: Sequence[Program],
    core: CoreConfig = SS_64x4,
    config: Optional[SlipstreamConfig] = None,
) -> ModeResult:
    """Run the chip in the requested mode.

    ``THROUGHPUT`` takes one or two programs (two cores, one each); the
    two redundant modes take exactly one program (both contexts run it).
    """
    name = mode.value if isinstance(mode, OperatingMode) else str(mode)
    if name == "throughput":
        if not 1 <= len(programs) <= 2:
            raise ModeError(
                name, len(programs), "throughput mode takes one or two programs"
            )
        results: List[CoreRunResult] = [
            SuperscalarCore(core, program).run() for program in programs
        ]
        return ModeResult(
            mode=OperatingMode.THROUGHPUT,
            useful_instructions=sum(r.retired for r in results),
            cycles=max(r.cycles for r in results),
            redundancy=0.0,
            core_results=results,
        )
    if name == "slipstream":
        slip_config = config or SlipstreamConfig()
    elif name == "reliable":
        slip_config = reliable_config(config)
    else:
        raise ModeError(
            name, len(programs),
            f"unknown mode; known modes: {[m.value for m in OperatingMode]}",
        )
    if len(programs) != 1:
        raise ModeError(
            name, len(programs), f"{name} mode takes exactly one program"
        )
    result: SlipstreamResult = SlipstreamProcessor(programs[0], slip_config).run()
    redundancy = result.a_executed / result.retired if result.retired else 0.0
    return ModeResult(
        mode=OperatingMode(name),
        useful_instructions=result.retired,
        cycles=result.cycles,
        redundancy=min(redundancy, 1.0),
        core_results=[result],
    )
