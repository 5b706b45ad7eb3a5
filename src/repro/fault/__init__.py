"""Transient-fault injection and coverage analysis (paper, section 3).

The slipstream fault-tolerance story: a transient fault manifesting as
an erroneous value is indistinguishable from an IR-misprediction, so
the existing detection/recovery machinery transparently handles faults
that strike *redundantly executed* instructions.  Coverage is partial:
instructions the A-stream skipped are not compared, and faults that
corrupt the R-stream's architectural state are unrecoverable (the
R-stream is the recovery source).

* :mod:`repro.fault.injector` — deterministic single-fault injection
  at a chosen dynamic instruction, at one of three sites (A-stream
  result, R-stream transient, R-stream architectural).
* :mod:`repro.fault.scenarios` — the paper's three analysis scenarios
  as runnable experiments.
* :mod:`repro.fault.coverage` — fault-injection campaigns classifying
  outcomes (detected+recovered / ecc-corrected / masked / silent
  corruption / detected-unrecoverable).
* :mod:`repro.fault.ecc` — ECC on the R-stream's architectural state,
  the paper's fix for the unrecoverable hole.
* :mod:`repro.fault.campaign` — seeded campaigns scaled across the
  benchmark suite, fanned through the experiment runner
  (``python -m repro.fault``).
"""

from repro.fault.injector import FaultInjector, FaultSite, TransientFault
from repro.fault.coverage import (
    HANDLED_OUTCOMES,
    HARMFUL_OUTCOMES,
    FaultOutcome,
    classify_run,
    hang_budget,
    inject_one,
)
from repro.fault.ecc import ECCModel, PROTECTED_SITES
from repro.fault.campaign import (
    CampaignConfig,
    CampaignPoint,
    ScaledCampaignResult,
    run_scaled_campaign,
    sample_points,
    write_fault_bench,
)
from repro.fault.scenarios import run_scenario, SCENARIOS

__all__ = [
    "FaultInjector",
    "FaultSite",
    "TransientFault",
    "FaultOutcome",
    "HANDLED_OUTCOMES",
    "HARMFUL_OUTCOMES",
    "ECCModel",
    "PROTECTED_SITES",
    "CampaignConfig",
    "CampaignPoint",
    "ScaledCampaignResult",
    "run_scaled_campaign",
    "sample_points",
    "write_fault_bench",
    "hang_budget",
    "inject_one",
    "classify_run",
    "run_scenario",
    "SCENARIOS",
]
