"""Operating modes of the multi-context chip (paper, sections 1 and 7).

The paper's larger agenda is a CMP/SMT chip whose second context can be
flexibly redeployed: "high job throughput and parallel-program
performance (conventional SMT/CMP), improved single-program performance
and reliability (slipstreaming), or fully-reliable operation with
little or no impact on single-program performance (AR-SMT / SRT)."

This module generalizes those hardcoded two-context modes into an
N-stream framework.  A mode is a :class:`RedundancyMode` spec — stream
count, per-stream config transform, fault-campaign sites — and
:func:`run_mode` looks the spec up, checks the stream count and the
number of programs against it, then branches on the
:class:`OperatingMode` to the engine that runs it.  Registered modes:

* ``THROUGHPUT`` — independent programs on independent cores; maximum
  job throughput, no redundancy.
* ``SLIPSTREAM`` — the paper's A/R pair: partial redundancy,
  single-program speedup, partial fault coverage, rollback recovery.
* ``RELIABLE`` — AR-SMT-style full redundancy (removal disabled): every
  instruction redundantly executed and compared.
* ``TMR`` — Elzar-style triple modular redundancy
  (:class:`repro.core.nstream.TMRProcessor`): three full streams,
  majority voting at retirement, single-stream strikes masked at the
  voter with no rollback.  Accepts an ``n_streams`` override (any odd
  count >= 3).
* ``REPLAY`` — RepTFD-style replay-window detection
  (:class:`repro.core.nstream.ReplayWindowProcessor`): one primary
  stream plus a detector re-executing suspected windows against a
  trailing shadow context.
* ``DECORRELATED`` — the slipstream pair with DME-style shifted data
  address spaces and rotated register assignments, undone at
  comparison time (:func:`decorrelated_config`).  Functionally
  identical to slipstream on clean runs; under fault injection,
  layout-correlated strikes (``FaultSite.CORRELATED``) can no longer
  produce identically-wrong values that silently agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.nstream import ReplayWindowProcessor, TMRProcessor
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
    TMR = "tmr"
    REPLAY = "replay"
    DECORRELATED = "decorrelated"


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
    #: executed/validated (0..1 for the pairwise modes; ``n - 1`` for
    #: TMR, whose extra copies are full re-executions).
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


@dataclass(frozen=True)
class RedundancyMode:
    """Declarative spec of one redundancy mode.

    ``campaign_sites`` lists the :class:`repro.fault.injector.FaultSite`
    *values* this mode's fault campaign exercises (plain strings to
    keep the core layer free of a fault-layer import).

    ``config_transform`` maps a base :class:`SlipstreamConfig` to this
    mode's effective config; it is excluded from equality/fingerprints
    (callables are identity, not value) — mode identity is the name.
    """

    name: str
    n_streams: int
    campaign_sites: Tuple[str, ...] = ()
    allows_n_override: bool = False
    config_transform: Optional[
        Callable[[Optional[SlipstreamConfig]], SlipstreamConfig]
    ] = field(default=None, compare=False, repr=False)

    def transformed_config(
        self, base: Optional[SlipstreamConfig] = None
    ) -> SlipstreamConfig:
        if self.config_transform is not None:
            return self.config_transform(base)
        return base or SlipstreamConfig()


REDUNDANCY_MODES: Dict[str, RedundancyMode] = {
    spec.name: spec
    for spec in (
        RedundancyMode(name="throughput", n_streams=1),
        RedundancyMode(
            name="slipstream",
            n_streams=2,
            campaign_sites=("a_result", "r_transient", "r_arch"),
        ),
        RedundancyMode(
            name="reliable",
            n_streams=2,
            campaign_sites=("a_result", "r_transient", "r_arch"),
            config_transform=reliable_config,
        ),
        RedundancyMode(
            name="tmr",
            n_streams=3,
            campaign_sites=("r_transient", "r_arch"),
            allows_n_override=True,
        ),
        RedundancyMode(
            name="replay",
            n_streams=1,
            campaign_sites=("r_transient", "r_arch"),
        ),
        RedundancyMode(
            name="decorrelated",
            n_streams=2,
            campaign_sites=("a_result", "r_transient", "r_arch", "correlated"),
            config_transform=decorrelated_config,
        ),
    )
}

#: Modes the fault campaign can sweep (`--modes all`).
CAMPAIGN_MODES: Tuple[str, ...] = ("slipstream", "tmr", "replay", "decorrelated")


def resolve_mode(mode: Union[OperatingMode, str]) -> RedundancyMode:
    """Look up the :class:`RedundancyMode` spec for a mode name/enum."""
    name = mode.value if isinstance(mode, OperatingMode) else str(mode)
    spec = REDUNDANCY_MODES.get(name)
    if spec is None:
        raise ModeError(
            name, 0, f"unknown mode; known modes: {sorted(REDUNDANCY_MODES)}"
        )
    return spec


def run_mode(
    mode: Union[OperatingMode, str],
    programs: Sequence[Program],
    core: CoreConfig = SS_64x4,
    config: Optional[SlipstreamConfig] = None,
    n_streams: Optional[int] = None,
) -> ModeResult:
    """Run the chip in the requested mode.

    ``THROUGHPUT`` takes one or two programs (two cores, one each); all
    redundancy modes take exactly one program (every context runs it).
    ``n_streams`` overrides the spec's stream count for modes that
    allow it (TMR: any odd count >= 3).
    """
    spec = resolve_mode(mode)
    op_mode = OperatingMode(spec.name)
    streams = spec.n_streams
    if n_streams is not None:
        if not spec.allows_n_override:
            raise ModeError(
                spec.name, len(programs),
                f"mode is fixed at {spec.n_streams} stream(s); "
                "n_streams override not supported",
            )
        if n_streams < 3 or n_streams % 2 == 0:
            raise ModeError(
                spec.name, len(programs),
                "n_streams must be an odd count of at least 3",
            )
        streams = n_streams

    if op_mode is OperatingMode.THROUGHPUT:
        if not 1 <= len(programs) <= 2:
            raise ModeError(
                spec.name, len(programs),
                "throughput mode takes one or two programs",
            )
        results: List[CoreRunResult] = [
            SuperscalarCore(core, program).run() for program in programs
        ]
        return ModeResult(
            mode=op_mode,
            useful_instructions=sum(r.retired for r in results),
            cycles=max(r.cycles for r in results),
            redundancy=0.0,
            core_results=results,
        )

    if len(programs) != 1:
        raise ModeError(
            spec.name, len(programs),
            f"{spec.name} mode takes exactly one program",
        )
    program = programs[0]

    if op_mode is OperatingMode.TMR:
        base = SuperscalarCore(core, program).run()
        tmr = TMRProcessor(
            program, n_streams=streams, base_cycles=base.cycles
        ).run()
        return ModeResult(
            mode=op_mode,
            useful_instructions=tmr.retired,
            cycles=tmr.cycles,
            redundancy=float(streams - 1),
            core_results=[base, tmr],
        )

    if op_mode is OperatingMode.REPLAY:
        base = SuperscalarCore(core, program).run()
        rep = ReplayWindowProcessor(program, base_cycles=base.cycles).run()
        redundancy = (
            rep.replayed_instructions / rep.retired if rep.retired else 0.0
        )
        return ModeResult(
            mode=op_mode,
            useful_instructions=rep.retired,
            cycles=rep.cycles,
            redundancy=min(redundancy, 1.0),
            core_results=[base, rep],
        )

    slip_config = spec.transformed_config(config)
    result: SlipstreamResult = SlipstreamProcessor(program, slip_config).run()
    redundancy = result.a_executed / result.retired if result.retired else 0.0
    return ModeResult(
        mode=op_mode,
        useful_instructions=result.retired,
        cycles=result.cycles,
        redundancy=min(redundancy, 1.0),
        core_results=[result],
    )
