"""The paper's three transient-fault scenarios (section 3, Figure 5).

Each scenario is packaged as a runnable experiment on a small workload
so tests (and the fault-coverage bench) can demonstrate the claimed
behaviour:

* **scenario 1** — the fault strikes a *redundantly executed*
  instruction: the operands of the first erroneous instruction differ
  between the streams, the deviation is handled as an
  IR-misprediction, and recovery from the R-stream's state succeeds.
* **scenario 2** — the fault strikes an instruction in a region the
  A-stream bypassed: there is nothing to compare against, the
  R-stream's architectural state is silently corrupted.
* **scenario 3** — the fault strikes the A-stream after it diverged:
  the IR-misprediction machinery flushes the corrupted work before it
  can do damage (in this model, any A-stream fault is repaired by the
  same recovery path, diverged or not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.slipstream import (
    SlipstreamConfig,
    SlipstreamProcessor,
    SlipstreamResult,
)
from repro.fault.coverage import (
    FaultOutcome,
    InjectionResult,
    hang_budget,
    inject_one,
)
from repro.fault.injector import FaultSite, TransientFault
from repro.isa.program import Program


@dataclass(frozen=True)
class Scenario:
    """One of the paper's fault scenarios."""

    name: str
    description: str
    site: FaultSite
    #: Strike an instruction the A-stream executed (True), skipped
    #: (False), or either (None).
    require_compared: Optional[bool]
    #: Outcomes consistent with the paper's analysis of this scenario.
    expected: tuple


SCENARIOS: Dict[str, Scenario] = {
    "redundant": Scenario(
        name="redundant",
        description="fault on a redundantly-executed instruction: "
                    "detected as a deviation, recovered from R-stream state",
        site=FaultSite.R_TRANSIENT,
        require_compared=True,
        expected=(FaultOutcome.DETECTED_RECOVERED, FaultOutcome.MASKED),
    ),
    "bypassed": Scenario(
        name="bypassed",
        description="fault in a region the A-stream bypassed: "
                    "no redundant execution to compare against at the "
                    "faulted instruction.  The R-stream state is "
                    "corrupted (silently, or detected too late to "
                    "recover).  One strengthening over the paper's "
                    "informal analysis: when the fault strikes a "
                    "predicted-ineffectual store, the IR-detector's "
                    "predicted-vs-computed ir-vec verification can "
                    "still flag it (the store stops being silent), in "
                    "which case recovery resynchronises both contexts "
                    "before any consumer reads the bad value.",
        site=FaultSite.R_TRANSIENT,
        require_compared=False,
        expected=(FaultOutcome.SILENT_CORRUPTION,
                  FaultOutcome.DETECTED_UNRECOVERABLE,
                  FaultOutcome.DETECTED_RECOVERED,
                  FaultOutcome.MASKED),
    ),
    "astream": Scenario(
        name="astream",
        description="fault in the A-stream: flushed/repaired by the "
                    "IR-misprediction recovery path",
        site=FaultSite.A_RESULT,
        require_compared=None,
        expected=(FaultOutcome.DETECTED_RECOVERED, FaultOutcome.MASKED),
    ),
}


def find_target_seq(
    program: Program,
    compared: Optional[bool],
    config: Optional[SlipstreamConfig] = None,
    after_seq: int = 0,
    stream: str = "R",
) -> Optional[int]:
    """Find a dynamic-instruction seq (in ``stream``'s numbering) whose
    instruction was executed/compared (True) or skipped (False) by the
    A-stream, and which produces a value.  Runs the machine once with a
    recording hook.
    """
    return _find_target(program, compared, config, after_seq, stream)[0]


def _find_target(
    program: Program,
    compared: Optional[bool],
    config: Optional[SlipstreamConfig],
    after_seq: int,
    stream: str,
) -> Tuple[Optional[int], SlipstreamResult]:
    """:func:`find_target_seq` plus the recording run's result.  The
    recording hook hands every record back untouched, so that run is
    the fault-free run."""
    found: list = []

    def probe(hook_stream, dyn, state, is_compared):
        if (
            hook_stream == stream
            and not found
            and dyn.seq >= after_seq
            and (compared is None or is_compared == compared)
            and dyn.value is not None
            and (dyn.dest_reg is not None or dyn.is_store)
        ):
            found.append(dyn.seq)
        return dyn

    clean = SlipstreamProcessor(program, config, fault_hook=probe).run()
    return (found[0] if found else None), clean


def run_scenario(
    scenario: Scenario,
    program: Program,
    config: Optional[SlipstreamConfig] = None,
    after_seq: int = 0,
    bit: int = 7,
) -> InjectionResult:
    """Execute one scenario: locate a qualifying target and inject.

    The run that locates the target is the fault-free reference, so the
    whole scenario simulates the clean run once plus the struck run
    (which forks from :func:`~repro.fault.coverage.inject_one`'s clean
    timeline, not from the program's entry)."""
    if scenario.site is FaultSite.A_RESULT:
        seq, clean = _find_target(program, None, config, after_seq, "A")
    else:
        seq, clean = _find_target(program, scenario.require_compared,
                                  config, after_seq, "R")
    if seq is None:
        raise ValueError(
            f"no qualifying target for scenario {scenario.name!r}; "
            "the workload may lack skipped stores or removal never engaged"
        )
    fault = TransientFault(site=scenario.site, target_seq=seq, bit=bit)
    return inject_one(
        program, fault, config,
        reference_output=clean.output,
        baseline_detections=clean.ir_mispredictions,
        max_instructions=hang_budget(clean.retired),
        reference_retired=clean.retired,
    )
