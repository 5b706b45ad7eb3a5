"""The ledger benchmark's workloads: job lists, set-up, one timed pass,
and the correctness check against the golden results.

* ``cmp-ir`` — CMP(2x64x4) slipstream, default removal triggers, on
  ``m88ksim`` and ``vortex``: the most removal and the most
  IR-mispredictions, so the IR-predictor, IR-detector, delay buffer and
  recovery do most of their work here.
* ``ss-base`` — SS(64x4) and SS(128x8) on ``gcc`` and ``compress``:
  functional execution, trace selection/prediction and the timing memo
  only.  No slipstream component runs, so it is the negative control
  for every slipstream-side change.
* ``fault-slice`` — one seeded ``run_scaled_campaign`` on ``jpeg``
  across all four redundancy modes and all three default sites, inline
  (``jobs=1``).  A fault hook turns the timing memo off for the struck
  runs, so the hand-inlined scalar loops, the interpreter, the N-stream
  processors, the fault classifier and the eval layer (runner, disk
  cache, duration oracle) all run here.

Every job is driven through a public entry point
(``SlipstreamProcessor.run``, ``SuperscalarCore.run``,
``FunctionalSimulator.run``, ``run_scaled_campaign``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

from repro.arch.compiled import compiled_for
from repro.arch.functional import FunctionalSimulator
from repro.core.modes import CAMPAIGN_MODES
from repro.core.slipstream import SlipstreamProcessor
from repro.eval import jobs as eval_jobs
from repro.eval import models
from repro.fault.campaign import CampaignConfig, run_scaled_campaign
from repro.isa.program import Program
from repro.uarch import SS_64x4, SS_128x8
from repro.uarch.compiled_timing import timing_meta_for
from repro.uarch.core import SuperscalarCore
from repro.workloads.suite import get_benchmark

WORKLOADS: Tuple[str, ...] = ("cmp-ir", "ss-base", "fault-slice")

CMP_BENCHMARKS = ("m88ksim", "vortex")
SS_BENCHMARKS = ("gcc", "compress")
SS_MODELS = {"ss64": SS_64x4, "ss128": SS_128x8}
FAULT_BENCHMARK = "jpeg"
#: Strike points per (mode, workload).  Sites rotate round-robin, so
#: three points strike each of the three default sites once in the
#: slipstream mode; the other modes rotate over their own site lists.
FAULT_POINTS = 3
#: The campaign seed of the checked-in ``BENCH_fault.json``.
DEFAULT_FAULT_SEED = 2000


@dataclasses.dataclass(frozen=True)
class Job:
    """One simulation of the pass: a model on a benchmark."""

    model: str
    benchmark: str

    @property
    def label(self) -> str:
        return f"{self.model}/{self.benchmark}"


def job_list(workload: str, seed: int) -> List[Job]:
    """The workload's jobs in the order ``seed`` gives them.

    The job set is fixed; the seed only shuffles the order, so every
    seed measures the same work and any seed can be checked against
    the golden results.
    """
    if workload == "cmp-ir":
        jobs = [Job("cmp", name) for name in CMP_BENCHMARKS]
    elif workload == "ss-base":
        jobs = [Job(model, name) for name in SS_BENCHMARKS for model in SS_MODELS]
    elif workload == "fault-slice":
        return [Job("campaign", FAULT_BENCHMARK)]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(jobs)
    return jobs


def benchmarks_of(workload: str) -> Tuple[str, ...]:
    return tuple(dict.fromkeys(job.benchmark for job in job_list(workload, 0)))


def fault_config(seed: int) -> CampaignConfig:
    return CampaignConfig(
        benchmarks=(FAULT_BENCHMARK,),
        points_per_benchmark=FAULT_POINTS,
        seed=seed,
        modes=CAMPAIGN_MODES,
    )


def set_up(workload: str) -> Dict[str, Program]:
    """Build the workload's programs (assembler and build-time lint) and
    warm the per-program memos, from scratch.

    Fresh program objects make the identity-keyed memos cold again, so
    every pass pays its own set-up and a memo that a later change fills
    lazily shows up in the timed pass.  The fault slice reaches its
    program through the eval layer's per-process program memo, which is
    emptied and refilled here for the same reason.
    """
    programs: Dict[str, Program] = {}
    for name in benchmarks_of(workload):
        if workload == "fault-slice":
            eval_jobs._PROGRAM_MEMO.clear()
            program = eval_jobs.benchmark_program(name, 1)
        else:
            program = get_benchmark(name).program(1)
        compiled_for(program)
        timing_meta_for(program)
        programs[name] = program
    return programs


def prepare_cold(workload: str, cache_root: str) -> None:
    """Empty the eval layer's in-process cache and point its disk cache
    at a fresh private root (untimed; only the fault slice uses them)."""
    if workload == "fault-slice":
        models.clear_cache()
        models.configure_disk_cache(True, cache_root)


def run_job(job: Job, programs: Dict[str, Program], fault_seed: int):
    """Run one job cold through its public entry point."""
    program = programs[job.benchmark]
    if job.model == "cmp":
        return SlipstreamProcessor(program).run()
    if job.model in SS_MODELS:
        return SuperscalarCore(SS_MODELS[job.model], program).run()
    if job.model == "campaign":
        result, _stats = run_scaled_campaign(fault_config(fault_seed), jobs=1)
        return result
    raise ValueError(f"unknown job model {job.model!r}")


def eval_job_count() -> int:
    """Jobs the eval layer simulated since :func:`prepare_cold`: each one
    lands in its in-process cache, which the pass started empty."""
    return len(models._CACHE)


def canonical_digest(document) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Digest of every field of a simulator result dataclass."""
    return canonical_digest(dataclasses.asdict(result))


def result_summary(result) -> Dict[str, object]:
    """The few fields of a result worth printing on a mismatch."""
    fields = ("retired", "cycles", "a_removed", "ir_mispredictions",
              "branch_mispredictions")
    return {name: getattr(result, name) for name in fields if hasattr(result, name)}


def campaign_summary(result) -> Dict[str, object]:
    payload = result.to_payload()
    return {"points": payload["points"], "completed": payload["completed"],
            "coverage": payload["coverage"], "outcomes": payload["outcomes"]}


@dataclasses.dataclass
class References:
    """Everything a pass's results are checked against."""

    #: ``{workload: {job label or campaign seed: {"digest": ..., ...}}}``.
    golden: Dict[str, Dict[str, Dict[str, object]]]
    #: The functional simulator's run of each benchmark.
    functional: Dict[str, object]
    #: First-pass payload digest of a campaign seed with no golden entry.
    seen_payloads: Dict[int, str] = dataclasses.field(default_factory=dict)


def functional_references(programs: Dict[str, Program]) -> Dict[str, object]:
    return {name: FunctionalSimulator(program).run()
            for name, program in programs.items()}


def check_job(workload: str, job: Job, result, refs: References,
              fault_seed: int) -> Optional[str]:
    """None when ``result`` is right, else what is wrong with it."""
    if job.model == "campaign":
        return _check_campaign(result, refs, fault_seed)
    golden = refs.golden.get(workload, {}).get(job.label)
    if golden is None:
        return f"{job.label}: no golden result recorded"
    if result_digest(result) != golden["digest"]:
        return (f"{job.label}: result differs from golden "
                f"(got {result_summary(result)}, golden {golden['summary']})")
    reference = refs.functional[job.benchmark]
    if job.model == "cmp" and result.output != reference.output:
        return f"{job.label}: R-stream output differs from the functional simulator"
    if result.retired != reference.instruction_count:
        return (f"{job.label}: retired {result.retired} instructions, the "
                f"functional simulator {reference.instruction_count}")
    return None


def _check_campaign(result, refs: References, seed: int) -> Optional[str]:
    if result.failed_points:
        return f"campaign: failed points {sorted(result.failed_points)}"
    if len(result.results) != len(result.points) or any(
            r.outcome is None for r in result.results):
        return (f"campaign: {len(result.results)} outcomes for "
                f"{len(result.points)} points")
    digest = canonical_digest(result.to_payload())
    golden = refs.golden.get("fault-slice", {}).get(str(seed))
    if golden is not None:
        if digest != golden["digest"]:
            return (f"campaign seed {seed}: payload differs from golden "
                    f"(got {campaign_summary(result)}, golden {golden['summary']})")
        return None
    first = refs.seen_payloads.setdefault(seed, digest)
    if digest != first:
        return f"campaign seed {seed}: payload differs between passes"
    return None


def pass_instructions(job: Job, result, refs: References,
                      eval_jobs_run: int) -> int:
    """Architectural instructions the job retired.

    A campaign counts every eval job it ran as one whole stream of its
    benchmark, struck runs included (a strike that crashes a stream
    early still counts the whole stream).
    """
    if job.model == "campaign":
        return eval_jobs_run * refs.functional[job.benchmark].instruction_count
    return result.retired


def job_tally(job: Job, result, error: Optional[str],
              eval_jobs_run: int) -> Tuple[int, int]:
    """(jobs attempted, jobs failed) of one job of the pass.

    A campaign counts its eval jobs (references and strike points):
    each failed point fails one, and a wrong payload fails at least one.
    """
    if job.model != "campaign":
        return 1, int(error is not None)
    if result is None:
        return max(eval_jobs_run, 1), max(eval_jobs_run, 1)
    attempted = max(eval_jobs_run, len(result.points))
    failed = len(result.failed_points)
    if error is not None:
        failed = max(failed, 1)
    return attempted, failed
