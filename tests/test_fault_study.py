"""The section 3 fault study runs as cached ``finj`` strike points.

``fault_coverage_study`` spreads its targets over the run, makes one
``injection_spec`` per (site, target) and runs them through one
``ExperimentRunner`` pass against the default ``cmp`` reference, the
same path as the scaled campaign.  Its results must be the per-point
``inject_one`` results in (site, target) order, inline and on a pool,
and a warm reference must not be simulated again.
"""

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.core.slipstream import SlipstreamProcessor
from repro.eval import jobs, models
from repro.eval.experiments import fault_coverage_study
from repro.eval.jobs import injection_spec
from repro.fault.coverage import (
    CleanTimeline,
    hang_budget,
    inject_one,
    reset_timeline_tally,
    timeline_snapshot,
)
from repro.fault.injector import FaultSite, TransientFault
from repro.workloads.suite import get_benchmark

BENCH = "jpeg"
POINTS = 3
SITES = (FaultSite.A_RESULT, FaultSite.R_TRANSIENT)


@pytest.fixture
def fresh_caches(tmp_path):
    saved = (models._DISK, models._DISK_ENABLED)
    models.clear_cache()
    jobs.reset_simulation_count()
    models.configure_disk_cache(enabled=True, cache_dir=str(tmp_path / "cache"))
    yield tmp_path / "cache"
    models.clear_cache()
    models._DISK, models._DISK_ENABLED = saved


def _targets(program, points):
    total = FunctionalSimulator(program).run().instruction_count
    start = total // 4
    stride = max((total - start) // (points + 1), 1)
    return [start + i * stride for i in range(points)]


def _per_point_injections():
    program = get_benchmark(BENCH).program(1)
    clean = SlipstreamProcessor(program).run()
    return [
        inject_one(
            program, TransientFault(site=site, target_seq=seq),
            reference_output=clean.output,
            baseline_detections=clean.ir_mispredictions,
            max_instructions=hang_budget(clean.retired),
            reference_retired=clean.retired,
        )
        for site in SITES
        for seq in _targets(program, POINTS)
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_study_equals_per_point_injections(fresh_caches, workers):
    study = fault_coverage_study(BENCH, points=POINTS, sites=SITES,
                                 jobs=workers)
    assert study.results == _per_point_injections()
    program = get_benchmark(BENCH).program(1)
    for site in SITES:
        for seq in _targets(program, POINTS):
            assert injection_spec(BENCH, site, seq).key in models._CACHE


def test_study_reuses_the_cached_reference(fresh_caches, monkeypatch):
    """With ``cmp/jpeg`` warm, no clean slipstream machine runs from the
    entry: every run is a struck fork of the clean timeline."""
    models.run_instruction_count(BENCH)
    models.run_slipstream_model(BENCH)
    runs = []
    real_run = SlipstreamProcessor.run

    def recording_run(self):
        runs.append(self.fault_hook is not None)
        return real_run(self)

    monkeypatch.setattr(SlipstreamProcessor, "run", recording_run)
    study = fault_coverage_study(BENCH, points=2, sites=SITES)
    assert len(study.results) == 2 * len(SITES)
    assert runs and all(runs), runs


def test_study_points_share_one_clean_timeline(fresh_caches):
    """``cmp/jpeg`` ran before the study, as in the report sweep, and
    laid no checkpoints: both sites' points are submitted in strike
    order, so one clean machine from the entry serves all of them; in
    (site, target) order the second site's first point would be behind
    it and restart it."""
    models.run_instruction_count(BENCH)
    models.run_slipstream_model(BENCH)
    reset_timeline_tally()
    study = fault_coverage_study(BENCH, points=POINTS, sites=SITES)
    tally = timeline_snapshot()
    assert (tally["starts"], tally["restarts"]) == (1, 0), tally
    assert tally["forks"] == len(study.results) == POINTS * len(SITES)


def test_study_points_fork_the_checkpoints_of_a_cold_reference(
        fresh_caches):
    """With ``cmp/jpeg`` cold, the study opens the clean timeline before
    its reference runs, so the reference lays the checkpoints and every
    point forks from one: no clean machine starts from the entry."""
    models.run_instruction_count(BENCH)
    cleaned = []
    real_clean_result = CleanTimeline.clean_result

    def recording_clean_result(self, run_config):
        cleaned.append(self)
        return real_clean_result(self, run_config)

    reset_timeline_tally()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CleanTimeline, "clean_result", recording_clean_result)
        study = fault_coverage_study(BENCH, points=POINTS, sites=SITES)
    tally = timeline_snapshot()
    # The reference's clean run is the one machine from the entry.
    assert len(cleaned) == 1
    assert (tally["starts"], tally["restarts"]) == (1, 0), tally
    assert tally["forks"] == len(study.results) == POINTS * len(SITES)
