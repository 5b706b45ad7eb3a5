"""Fault-injection campaigns and outcome classification.

Each campaign point runs the full slipstream machine with one injected
fault and classifies the run against a fault-free reference:

* ``DETECTED_RECOVERED`` — the machinery flagged a deviation (an extra
  "IR-misprediction") and the program output is correct.
* ``ECC_CORRECTED`` — the strike landed in ECC-protected architectural
  state (:mod:`repro.fault.ecc`) and was corrected before use; the
  output is correct.  Only produced when the campaign models ECC.
* ``MASKED`` — no deviation flagged, output correct anyway (the
  corrupted value never influenced architectural results, or the flip
  hit a value that is re-derived).
* ``SILENT_CORRUPTION`` — no deviation flagged and the output is
  wrong: the fault escaped the sphere of replication (scenario #2, or
  an R-stream architectural hit).
* ``DETECTED_UNRECOVERABLE`` — a deviation was flagged but the output
  is still wrong: detection happened, recovery used corrupted
  R-stream state (the paper's argument for ECC on the R-stream's
  register file and data cache).
* ``HANG`` — the injected run exceeded its *deterministic* instruction
  budget (:func:`hang_budget`, a fixed multiple of the fault-free run's
  retirement count).  A strike that corrupts loop-control state can
  make the program retire orders of magnitude more instructions than
  the clean run — or never halt at all.  No watchdog is modelled, so a
  hang is harmful and unhandled.  The budget is a function of the
  reference run, never of wall-clock, which keeps campaign artifacts
  byte-deterministic across hosts.  A slipstream run whose R-stream
  outlives the clean run is decided early, and exactly, on the
  functional engine
  (:meth:`~repro.fault.injector.FaultInjector._prove_hang`), so a
  hanging point costs about one clean run rather than four.

* ``NOT_FIRED`` — the sampled strike point was never reached (the
  stream retired fewer instructions, or the A-stream skipped past the
  targeted sequence number).  Not a fault at all: explicitly excluded
  from every coverage denominator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.arch.compiled import resolve_engine
from repro.arch.functional import FunctionalSimulator
from repro.core.slipstream import (
    SimulationError,
    SlipstreamConfig,
    SlipstreamProcessor,
    SlipstreamResult,
)
from repro.fault.ecc import ECCModel
from repro.fault.injector import (
    A_NUMBERED_SITES,
    FaultInjector,
    FaultSite,
    TransientFault,
)
from repro.isa.program import Program


class FaultOutcome(enum.Enum):
    DETECTED_RECOVERED = "detected_recovered"
    ECC_CORRECTED = "ecc_corrected"
    #: A voting mode (TMR) outvoted the corrupted stream at retirement:
    #: the strike mattered (a replica's result was wrong) but the voter
    #: masked it in place, with no rollback and no ECC involvement.
    MASKED_BY_VOTE = "masked_by_vote"
    MASKED = "masked"
    SILENT_CORRUPTION = "silent_corruption"
    DETECTED_UNRECOVERABLE = "detected_unrecoverable"
    HANG = "hang"
    NOT_FIRED = "not_fired"


#: Outcomes where the fault actually changed a value that mattered —
#: the denominator of every coverage number.  ``MASKED`` strikes are
#: harmless by definition and ``NOT_FIRED`` points are not faults.
HARMFUL_OUTCOMES = frozenset({
    FaultOutcome.DETECTED_RECOVERED,
    FaultOutcome.ECC_CORRECTED,
    FaultOutcome.MASKED_BY_VOTE,
    FaultOutcome.SILENT_CORRUPTION,
    FaultOutcome.DETECTED_UNRECOVERABLE,
    FaultOutcome.HANG,
})

#: Harmful outcomes the design handled safely.
HANDLED_OUTCOMES = frozenset({
    FaultOutcome.DETECTED_RECOVERED,
    FaultOutcome.ECC_CORRECTED,
    FaultOutcome.MASKED_BY_VOTE,
})


@dataclass
class InjectionResult:
    """Outcome of one fault injection.

    ``detect_latency`` is the number of R-stream retirements between
    the strike and the deviation being flagged (None when nothing was
    detected, or the strike hit the A-stream where the numbering is
    approximate and a detection never followed); ``recovery_penalty``
    is that recovery's latency in cycles.
    """

    fault: TransientFault
    outcome: FaultOutcome
    struck_compared: Optional[bool]
    detections: int
    detect_latency: Optional[int] = None
    recovery_penalty: Optional[int] = None
    ecc_corrected: bool = False
    #: Redundancy mode the injection ran under (see
    #: ``repro.core.modes.CAMPAIGN_MODES``).
    mode: str = "slipstream"


@dataclass
class CampaignResult:
    """Aggregate of a fault-injection campaign."""

    results: List[InjectionResult] = field(default_factory=list)

    def counts(self) -> Dict[FaultOutcome, int]:
        tally: Dict[FaultOutcome, int] = {}
        for result in self.results:
            tally[result.outcome] = tally.get(result.outcome, 0) + 1
        return tally

    def by_site(self) -> Dict[FaultSite, Dict[FaultOutcome, int]]:
        grouped: Dict[FaultSite, Dict[FaultOutcome, int]] = {}
        for result in self.results:
            site = grouped.setdefault(result.fault.site, {})
            site[result.outcome] = site.get(result.outcome, 0) + 1
        return grouped

    @property
    def fired(self) -> int:
        """Points whose fault actually struck (``NOT_FIRED`` excluded)."""
        return sum(
            1 for r in self.results if r.outcome is not FaultOutcome.NOT_FIRED
        )

    @property
    def harmful(self) -> int:
        """Fired, non-masked faults: the coverage denominator."""
        return sum(1 for r in self.results if r.outcome in HARMFUL_OUTCOMES)

    @property
    def coverage(self) -> Optional[float]:
        """Fraction of harmful faults the design handled safely
        (detected-and-recovered, or ECC-corrected).

        ``NOT_FIRED`` points and ``MASKED`` strikes are explicitly
        excluded from the denominator.  When the campaign produced *no*
        harmful fault at all, there is no coverage to speak of — the
        property is ``None``, never a vacuous (and misleading) ``1.0``.
        """
        harmful = [r for r in self.results if r.outcome in HARMFUL_OUTCOMES]
        if not harmful:
            return None
        good = sum(1 for r in harmful if r.outcome in HANDLED_OUTCOMES)
        return good / len(harmful)


def classify_run(
    reference_output: Sequence[int],
    injector: FaultInjector,
    result_output: Sequence[int],
    baseline_detections: int,
    detections: int,
) -> FaultOutcome:
    """Classify one injected run against the fault-free reference."""
    if not injector.report.fired:
        return FaultOutcome.NOT_FIRED
    correct = list(result_output) == list(reference_output)
    if injector.report.ecc_corrected and correct:
        return FaultOutcome.ECC_CORRECTED
    detected = detections > baseline_detections
    if correct and detected:
        return FaultOutcome.DETECTED_RECOVERED
    if correct:
        return FaultOutcome.MASKED
    if detected:
        return FaultOutcome.DETECTED_UNRECOVERABLE
    return FaultOutcome.SILENT_CORRUPTION


def _detection_span(run, report):
    """(detect_latency, recovery_penalty) of the first recovery at or
    after the strike, from the run's recovery log.

    The log holds ``(retired_at_detection, latency_cycles)`` per
    recovery.  The strike's position in R-stream retirement numbering
    is ``report.seq + 1`` (the hook fires just after the retirement
    counter advances); A-stream strikes use the same numbering as an
    approximation — the streams retire in near lockstep.  A baseline
    (fault-independent) recovery landing between strike and detection
    would be misattributed; baseline IR-misps are rare enough (paper:
    <0.05/1000) that the first post-strike recovery is the detection.
    """
    if report.seq is None:
        return None, None
    strike_retired = report.seq + 1
    for retired_at, latency in run.recoveries:
        if retired_at >= strike_retired:
            return max(0, retired_at - strike_retired), latency
    return None, None


def hang_budget(reference_retired: int) -> int:
    """Deterministic instruction budget for one injected run.

    A corrupted loop bound can make the injected program retire
    unboundedly many instructions; an injected run past this budget
    classifies as :attr:`FaultOutcome.HANG`.  The budget is a pure
    function of the fault-free run's retirement count (generous 4x
    headroom plus a floor for tiny programs), never of wall-clock, so
    campaign results stay byte-deterministic across hosts.  The
    slipstream machine need not simulate up to it: once the R-stream
    retires past the clean run's length, the injector proves on the
    functional engine whether the architectural tail overruns it
    (:meth:`~repro.fault.injector.FaultInjector._prove_hang`).
    """
    return 4 * reference_retired + 10_000


class CleanTimeline:
    """One live fault-free slipstream machine, forked for struck runs.

    A struck run is the clean run up to the strike: until then the
    injector hands every record back untouched and changes nothing, and
    ``max_instructions`` only enters the limit check, which the clean
    prefix never trips.  So instead of re-simulating that prefix, a
    struck run starts from a :meth:`SlipstreamProcessor.fork` of a live
    clean machine stopped at a trace boundary before the strike.

    Fork-boundary rule: one :meth:`~SlipstreamProcessor.step` executes
    at most ``trace_length`` instructions per stream, so the live
    machine steps while the struck stream's next seq plus
    ``trace_length`` is still at most the target seq; then no
    instruction at or past the target has run.  Requests served in
    ascending target order share one machine; a request behind it
    (its target already executed) restarts the machine from the
    program's entry.  The machine advances under the request's config,
    so a request whose limit the prefix overruns raises where a
    from-scratch run would.

    The machine handed out is the live one itself, and a fork of it
    becomes the new live machine: the two are interchangeable.  Any
    exception while advancing (an inline job timeout can fire
    mid-trace) drops the live machine.
    """

    def __init__(self, program: Program, config: SlipstreamConfig, engine: str):
        self.program = program
        #: ``config`` with ``max_instructions`` normalised: the key.
        self.config = _timeline_config(config)
        self.engine = engine
        self._live: Optional[SlipstreamProcessor] = None
        self._started = False

    def clean_result(self, config: SlipstreamConfig) -> SlipstreamResult:
        """The fault-free run under ``config``: a fork of the live
        machine run to the end with no hook."""
        live = self._live
        if live is None or live.retired > config.max_instructions:
            live = self._start(config)
        return self._hand_off(live, config).run()

    def fork_before(self, fault: TransientFault,
                    config: SlipstreamConfig) -> SlipstreamProcessor:
        """A clean machine under ``config`` at a trace boundary before
        ``fault`` strikes (see the fork-boundary rule above)."""
        if fault.site in A_NUMBERED_SITES:
            def next_seq(machine: SlipstreamProcessor) -> int:
                return machine._a_seq
        else:
            def next_seq(machine: SlipstreamProcessor) -> int:
                return machine._r_seq
        target = fault.target_seq
        live = self._live
        if (live is None or next_seq(live) > target
                or live.retired > config.max_instructions):
            live = self._start(config)
        live.config = config
        step = config.trace_length
        try:
            while not live.r_state.halted and next_seq(live) + step <= target:
                live.step()
        except BaseException:
            self._live = None
            raise
        return self._hand_off(live, config)

    def _start(self, config: SlipstreamConfig) -> SlipstreamProcessor:
        if self._started:
            _TALLY["restarts"] += 1
        self._started = True
        _TALLY["starts"] += 1
        live = self._live = SlipstreamProcessor(self.program, config,
                                                engine=self.engine)
        return live

    def _hand_off(self, live: SlipstreamProcessor,
                  config: SlipstreamConfig) -> SlipstreamProcessor:
        self._live = live.fork()
        _TALLY["forks"] += 1
        _TALLY["skipped_instructions"] += live.retired
        live.config = config
        return live


#: Process-wide timeline tallies (see :func:`timeline_snapshot`).
_TALLY: Dict[str, int] = {
    "starts": 0, "restarts": 0, "forks": 0, "skipped_instructions": 0,
}

#: The process's one timeline (at most one live clean machine).
_TIMELINE: Optional[CleanTimeline] = None


def _timeline_config(config: SlipstreamConfig) -> SlipstreamConfig:
    return replace(config, max_instructions=SlipstreamConfig.max_instructions)


def clean_timeline(program: Program, config: SlipstreamConfig) -> CleanTimeline:
    """The process's timeline for ``program`` (by identity), ``config``
    (``max_instructions`` aside) and the selected engine; it replaces
    the previous timeline if that was for anything else."""
    global _TIMELINE
    timeline = _TIMELINE
    engine = resolve_engine(None)
    if (timeline is None or timeline.program is not program
            or timeline.engine != engine
            or timeline.config != _timeline_config(config)):
        timeline = _TIMELINE = CleanTimeline(program, config, engine)
    return timeline


def release_timeline() -> None:
    """Drop the process's timeline and its live machine."""
    global _TIMELINE
    _TIMELINE = None


def timeline_snapshot() -> Dict[str, int]:
    """Process-wide timeline tallies since :func:`reset_timeline_tally`:
    machines started from the program's entry (``starts``), of which
    ``restarts`` were a timeline's second or later, ``forks`` handed
    out, and ``skipped_instructions``, the R-stream retirements those
    forks did not re-simulate.  Observers only: no result, payload or
    cache reads them."""
    return dict(_TALLY)


def reset_timeline_tally() -> None:
    for name in _TALLY:
        _TALLY[name] = 0


def inject_one(
    program: Program,
    fault: TransientFault,
    config: Optional[SlipstreamConfig] = None,
    reference_output: Optional[Sequence[int]] = None,
    baseline_detections: Optional[int] = None,
    ecc: bool = False,
    max_instructions: Optional[int] = None,
    reference_retired: Optional[int] = None,
) -> InjectionResult:
    """Run the slipstream machine with one injected fault.

    ``ecc`` models ECC on the R-stream's architectural state
    (:class:`repro.fault.ecc.ECCModel`): protected strikes are corrected
    and classify as ``ECC_CORRECTED``.

    ``max_instructions`` bounds the injected run (see
    :func:`hang_budget`); when the reference is computed here it
    defaults to the reference's budget, and an injected run exceeding
    it classifies as ``HANG``.

    ``reference_retired`` is the fault-free run's retirement count.
    The reference (output, detections and retirement count) is computed
    here by a clean run unless all three are given.  The injector stops
    a run whose R-stream provably overruns the budget as soon as it
    retires past the clean run's length
    (:meth:`~repro.fault.injector.FaultInjector._prove_hang`); the
    result is the one the full co-simulation would give.

    The clean run and the struck run both start from the process's
    :class:`CleanTimeline` for ``program`` and ``config``: the struck
    run is a fork of a live clean machine taken just before the strike,
    so injections served in ascending target order simulate the
    fault-free prefix once between them.  The result is the one
    ``SlipstreamProcessor(program, config, fault_hook=injector).run()``
    gives.
    """
    run_config = config if config is not None else SlipstreamConfig()
    timeline = clean_timeline(program, run_config)
    if (reference_output is None or baseline_detections is None
            or reference_retired is None):
        clean = timeline.clean_result(run_config)
        reference_output = clean.output
        baseline_detections = clean.ir_mispredictions
        reference_retired = clean.retired
        if max_instructions is None:
            max_instructions = hang_budget(clean.retired)
        reference = FunctionalSimulator(program).run()
        assert list(reference.output) == list(reference_output)
    if max_instructions is not None:
        run_config = replace(run_config, max_instructions=max_instructions)
    injector = FaultInjector(
        fault, ecc=ECCModel() if ecc else None,
        decorrelated=bool(run_config.decorrelated),
        program=program, clean_retired=reference_retired, config=run_config,
    )

    def struck_run():
        machine = timeline.fork_before(fault, run_config)
        machine.fault_hook = injector
        run = machine.run()
        return run, run.ir_mispredictions

    return _classify_struck_run(fault, "slipstream", injector, struck_run,
                                reference_output, baseline_detections)


def inject_one_nstream(
    program: Program,
    fault: TransientFault,
    mode: str,
    reference_output: Optional[Sequence[int]] = None,
    baseline_detections: Optional[int] = None,
    ecc: bool = False,
    max_instructions: Optional[int] = None,
) -> InjectionResult:
    """Run an N-stream redundancy engine with one injected fault.

    ``mode`` selects the engine: ``"tmr"`` (three-stream
    :class:`repro.core.nstream.TMRProcessor`) or ``"replay"``
    (:class:`repro.core.nstream.ReplayWindowProcessor`).

    Under TMR the voter claims every single-stream strike *at
    retirement*, before any ECC scrub of architectural state could run
    — so the injector is built **without** the ECC model even when the
    campaign enables ECC, and a correct-output detected run classifies
    as ``MASKED_BY_VOTE``, never ``ECC_CORRECTED``.  The replay mode
    has no voter; its ECC model applies as in the slipstream machine.

    The reference (output, and zero baseline detections) is the
    functional run unless both are given; ``max_instructions`` bounds
    the struck run and, when the reference is computed here, defaults
    to that run's :func:`hang_budget`, as in :func:`inject_one`.

    The struck run starts at the strike: the engine reads the
    injector's ``quiet_until`` and runs the fault-free prefix on the
    functional engine (replay from the window boundary before it), and
    a TMR run whose replicas are clean again after the vote finishes
    there too.  The result is the one offering the injector every
    retirement from the entry gives.
    """
    from repro.core.nstream import (
        DEFAULT_MAX_INSTRUCTIONS,
        ReplayWindowProcessor,
        TMRProcessor,
    )

    if mode not in ("tmr", "replay"):
        raise ValueError(f"unknown N-stream mode {mode!r}")
    if reference_output is None or baseline_detections is None:
        clean = FunctionalSimulator(program).run()
        reference_output = clean.output
        baseline_detections = 0
        if max_instructions is None:
            max_instructions = hang_budget(clean.instruction_count)
    ecc_model = ECCModel() if (ecc and mode != "tmr") else None
    injector = FaultInjector(fault, ecc=ecc_model)
    budget = (
        max_instructions
        if max_instructions is not None
        else DEFAULT_MAX_INSTRUCTIONS
    )
    if mode == "tmr":
        engine = TMRProcessor(program, fault_hook=injector,
                              max_instructions=budget)
    else:
        engine = ReplayWindowProcessor(program, fault_hook=injector,
                                       max_instructions=budget)

    def struck_run():
        run = engine.run()
        return run, run.detections

    return _classify_struck_run(fault, mode, injector, struck_run,
                                reference_output, baseline_detections)


def _classify_struck_run(
    fault: TransientFault,
    mode: str,
    injector: FaultInjector,
    struck_run,
    reference_output: Sequence[int],
    baseline_detections: int,
) -> InjectionResult:
    """Run ``struck_run`` (``() -> (run, detections)``) and classify it.

    A :class:`SimulationError` after the strike (the hang budget ran
    out, or the injector proved it would) classifies as ``HANG``; one
    before the strike is a simulator bug and propagates.  Otherwise
    :func:`classify_run` decides, except that under TMR a correct,
    detected run is ``MASKED_BY_VOTE``: the detection *is* the masking
    vote (replay's detection is a successful rollback, so it stays
    ``DETECTED_RECOVERED``).
    """
    try:
        run, detections = struck_run()
    except SimulationError:
        report = injector.report
        if not report.fired:
            # The budget covers the clean run with 4x headroom; running
            # out *before* the strike is a simulator bug, not a fault
            # effect.
            raise
        return InjectionResult(
            fault=fault,
            outcome=FaultOutcome.HANG,
            struck_compared=report.struck_compared,
            detections=0,
            ecc_corrected=report.ecc_corrected,
            mode=mode,
        )
    report = injector.report
    outcome = classify_run(reference_output, injector, run.output,
                           baseline_detections, detections)
    if mode == "tmr" and outcome is FaultOutcome.DETECTED_RECOVERED:
        outcome = FaultOutcome.MASKED_BY_VOTE
    detect_latency = recovery_penalty = None
    if outcome in (FaultOutcome.DETECTED_RECOVERED,
                   FaultOutcome.DETECTED_UNRECOVERABLE,
                   FaultOutcome.MASKED_BY_VOTE):
        detect_latency, recovery_penalty = _detection_span(run, report)
    return InjectionResult(
        fault=fault,
        outcome=outcome,
        struck_compared=report.struck_compared,
        detections=detections,
        detect_latency=detect_latency,
        recovery_penalty=recovery_penalty,
        ecc_corrected=report.ecc_corrected,
        mode=mode,
    )
