"""Struck runs forked from clean checkpoints.

``inject_one`` serves every struck slipstream run from the process's
clean timeline (``repro.fault.coverage.CleanTimeline``): a clean
machine stopped at a trace boundary before the strike, taken from the
checkpoints that the fault-free run leaves behind, instead of a run
from the program's entry.  The fork must be exact: every case here is
checked against the from-scratch oracle,
``SlipstreamProcessor(program, config, fault_hook=injector).run()``.
CI also runs this file under ``REPRO_COMPILED=0``, so both engines
fork correctly.
"""

from dataclasses import replace

import pytest

from repro import assemble
from repro.core.modes import CAMPAIGN_MODES, decorrelated_config
from repro.core.slipstream import (
    SimulationError,
    SlipstreamConfig,
    SlipstreamProcessor,
)
from repro.eval import jobs, models
from repro.fault import coverage
from repro.fault.campaign import CampaignConfig, run_scaled_campaign
from repro.fault.coverage import (
    CHECKPOINTS,
    CleanTimeline,
    FaultOutcome,
    InjectionResult,
    _detection_span,
    classify_run,
    clean_timeline,
    current_timeline,
    hang_budget,
    inject_one,
    release_timeline,
    reset_timeline_tally,
    timeline_snapshot,
)
from repro.fault.ecc import ECCModel
from repro.fault.injector import FaultInjector, FaultSite, TransientFault
from repro.fault.scenarios import SCENARIOS, run_scenario
from tests.test_fault_campaign import fresh_caches  # noqa: F401 - fixture

#: Silent and dead writes in a loop: removal engages, so A- and R-stream
#: numbering drift apart and some R strikes land on skipped
#: instructions.
REMOVAL_LOOP = """
main:
    addi r1, r0, 300
    addi r10, r0, 0x100000
loop:
    addi r2, r0, 7
    sw   r2, 0(r10)
    addi r3, r0, 1
    addi r3, r0, 2
    add  r4, r4, r3
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r4
    halt
"""

#: A branch stable for most of the run, then flipping, over an array
#: walk: IR-mispredictions and recoveries in the clean run.
PHASE_WALK = """
main:
    addi r1, r0, 240
    addi r10, r0, 0x100000
loop:
    slti r5, r1, 40
    beq  r5, r0, common
    addi r6, r6, 1
common:
    sw   r1, 0(r10)
    lw   r7, 0(r10)
    add  r4, r4, r7
    addi r10, r10, 4
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r4
    out  r6
    halt
"""

WORKLOADS = {"removal-loop": REMOVAL_LOOP, "phase-walk": PHASE_WALK}

#: (name, config, ecc).  A low confidence threshold makes removal engage
#: within these short runs.
CONFIGS = [
    ("slipstream", SlipstreamConfig(confidence_threshold=2), False),
    ("decorrelated",
     decorrelated_config(SlipstreamConfig(confidence_threshold=2)), False),
    ("ecc", SlipstreamConfig(confidence_threshold=2), True),
]

SITES = (FaultSite.A_RESULT, FaultSite.R_TRANSIENT, FaultSite.R_ARCH,
         FaultSite.CORRELATED)


@pytest.fixture(autouse=True)
def fresh_timeline():
    release_timeline()
    reset_timeline_tally()
    yield
    release_timeline()


def _program(name):
    return assemble(WORKLOADS[name], name=name)


def _settle(fn):
    """The result of ``fn()``, or the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc).__name__, str(exc))


def _injector(program, fault, config, clean, ecc):
    return FaultInjector(fault, ecc=ECCModel() if ecc else None,
                         decorrelated=config.decorrelated, program=program,
                         clean_retired=clean.retired, config=config)


def scratch_inject(program, fault, config, ecc):
    """``inject_one`` with the struck run started from the program's
    entry: the oracle."""
    clean = SlipstreamProcessor(program, config).run()
    run_config = replace(config, max_instructions=hang_budget(clean.retired))
    injector = _injector(program, fault, run_config, clean, ecc)
    try:
        run = SlipstreamProcessor(program, run_config,
                                  fault_hook=injector).run()
    except SimulationError:
        assert injector.report.fired
        return InjectionResult(
            fault=fault, outcome=FaultOutcome.HANG,
            struck_compared=injector.report.struck_compared, detections=0,
            ecc_corrected=injector.report.ecc_corrected,
        )
    outcome = classify_run(clean.output, injector, run.output,
                           clean.ir_mispredictions, run.ir_mispredictions)
    detect_latency = recovery_penalty = None
    if outcome in (FaultOutcome.DETECTED_RECOVERED,
                   FaultOutcome.DETECTED_UNRECOVERABLE):
        detect_latency, recovery_penalty = _detection_span(
            run, injector.report)
    return InjectionResult(
        fault=fault, outcome=outcome,
        struck_compared=injector.report.struck_compared,
        detections=run.ir_mispredictions, detect_latency=detect_latency,
        recovery_penalty=recovery_penalty,
        ecc_corrected=injector.report.ecc_corrected,
    )


def _targets(clean):
    """Strikes in the first trace, mid-run, near the end and past it."""
    n = clean.retired
    return sorted({0, 5, 31, 32, 33, n // 3, n // 2, (3 * n) // 4, n - 3,
                   n + 50})


def _struck_pair(program, fault, config, clean, ecc):
    """(forked struck run, from-scratch struck run): full results."""
    run_config = replace(config, max_instructions=hang_budget(clean.retired))

    def forked():
        machine = clean_timeline(program, config).fork_before(fault,
                                                              run_config)
        machine.fault_hook = _injector(program, fault, run_config, clean, ecc)
        return machine.run()

    def scratch():
        return SlipstreamProcessor(
            program, run_config,
            fault_hook=_injector(program, fault, run_config, clean, ecc),
        ).run()

    return _settle(forked), _settle(scratch)


class TestForkMatchesScratch:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("name, config, ecc", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_every_site_and_target(self, workload, name, config, ecc):
        program = _program(workload)
        clean = SlipstreamProcessor(program, config).run()
        assert clean.a_removed > 0
        checked = 0
        for site in SITES:
            for bit in (3, 20):
                for seq in _targets(clean):
                    fault = TransientFault(site=site, target_seq=seq, bit=bit)
                    got, want = _struck_pair(program, fault, config, clean,
                                             ecc)
                    assert got == want, (site, seq, bit)
                    checked += 1
        assert checked == len(SITES) * 2 * len(_targets(clean))
        tally = timeline_snapshot()
        assert tally["forks"] == checked
        assert tally["skipped_instructions"] > 0

    @pytest.mark.parametrize("name, config, ecc", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_inject_one_matches_oracle(self, name, config, ecc):
        program = _program("phase-walk")
        clean = SlipstreamProcessor(program, config).run()
        outcomes = set()
        for site in SITES:
            for seq in _targets(clean):
                fault = TransientFault(site=site, target_seq=seq, bit=20)
                got = _settle(lambda: inject_one(program, fault, config,
                                                 ecc=ecc))
                want = _settle(lambda: scratch_inject(program, fault, config,
                                                      ecc))
                assert got == want, (site, seq)
                outcomes.add(got.outcome)
        assert FaultOutcome.NOT_FIRED in outcomes
        assert len(outcomes) >= 3

    def test_out_of_order_requests_restart_and_agree(self):
        """With the reference given, no clean pass lays checkpoints: the
        first request starts a machine from the entry and keeps a fork
        of it, which serves the ascending requests after it; in
        descending order a request behind every checkpoint restarts."""
        program = _program("removal-loop")
        config = SlipstreamConfig(confidence_threshold=2)
        clean = SlipstreamProcessor(program, config).run()
        reference = dict(reference_output=clean.output,
                         baseline_detections=clean.ir_mispredictions,
                         max_instructions=hang_budget(clean.retired),
                         reference_retired=clean.retired)
        faults = [TransientFault(site=site, target_seq=seq, bit=20)
                  for seq in _targets(clean)
                  for site in (FaultSite.R_ARCH, FaultSite.A_RESULT)]

        def serve(order):
            release_timeline()
            reset_timeline_tally()
            results = [inject_one(program, f, config, **reference)
                       for f in order]
            return results, timeline_snapshot()

        ascending, up = serve(faults)
        assert (up["starts"], up["restarts"]) == (1, 0)
        descending, down = serve(faults[::-1])
        assert down["restarts"] > 0
        assert descending[::-1] == ascending
        assert ascending == [scratch_inject(program, f, config, False)
                             for f in faults]


def _marks(timeline):
    """(A seq, R seq) of each checkpoint, in order."""
    return [(c._a_seq, c._r_seq) for c in timeline._checkpoints]


class TestCheckpoints:
    """The clean pass leaves at most ``CHECKPOINTS`` machines behind, and
    a struck run forked from any of them is the from-scratch run."""

    CONFIG = SlipstreamConfig(confidence_threshold=2)

    def _laid(self, program):
        timeline = clean_timeline(program, self.CONFIG)
        clean = timeline.clean_result(self.CONFIG)
        assert clean == SlipstreamProcessor(program, self.CONFIG).run()
        assert len(timeline._checkpoints) == CHECKPOINTS
        return timeline, clean

    def _faults(self, timeline, clean):
        """Strikes before the first checkpoint, between the second and
        the third, at a checkpoint and after the last, on A- and
        R-numbered sites."""
        marks = _marks(timeline)
        faults = []
        for site, stream in ((FaultSite.A_RESULT, 0), (FaultSite.R_ARCH, 1),
                             (FaultSite.R_TRANSIENT, 1)):
            first, second, third = (marks[i][stream] for i in range(3))
            last = marks[-1][stream]
            end = clean.retired - clean.a_removed if stream == 0 \
                else clean.retired
            for seq in (first // 2, (second + third) // 2, third,
                        (last + end) // 2, end - 3):
                faults.append(TransientFault(site=site, target_seq=seq,
                                             bit=20))
        return faults

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_forks_from_checkpoints_match_scratch(self, workload, order):
        program = _program(workload)
        timeline, clean = self._laid(program)
        faults = sorted(self._faults(timeline, clean),
                        key=lambda f: f.target_seq,
                        reverse=order == "descending")
        reset_timeline_tally()
        for fault in faults:
            got, want = _struck_pair(program, fault, self.CONFIG, clean,
                                     False)
            assert got == want, fault
            assert len(timeline._checkpoints) <= CHECKPOINTS
        tally = timeline_snapshot()
        assert tally["forks"] == len(faults)
        # Only strikes behind every checkpoint start from the entry.
        assert tally["starts"] < len(faults)

    def test_never_more_than_checkpoints_machines(self, monkeypatch):
        """A checkpoint is forked only while a place is free, through the
        clean pass's laying and thinning and the strikes' hand-offs."""
        program = _program("phase-walk")
        timeline = clean_timeline(program, self.CONFIG)
        held = []
        real_fork = SlipstreamProcessor.fork

        def counting_fork(self):
            held.append(len(timeline._checkpoints))
            return real_fork(self)

        monkeypatch.setattr(SlipstreamProcessor, "fork", counting_fork)
        clean = timeline.clean_result(self.CONFIG)
        laid = len(held)
        assert laid > CHECKPOINTS  # the pass made room at least once
        for fault in self._faults(timeline, clean):
            timeline.fork_before(fault, replace(
                self.CONFIG, max_instructions=hang_budget(clean.retired)))
        assert len(held) > laid
        assert max(held) < CHECKPOINTS
        assert len(timeline._checkpoints) <= CHECKPOINTS

    def test_checkpoints_spread_over_the_run(self):
        """Near-even spacing: no gap between checkpoints (or from the
        entry to the first, or from the last to the end) is more than
        twice the even share of the run's steps."""
        program = _program("phase-walk")
        timeline = clean_timeline(program, self.CONFIG)
        machine = SlipstreamProcessor(program, self.CONFIG)
        while not machine.r_state.halted:
            machine.step()
        steps = machine._obs_seq
        timeline.clean_result(self.CONFIG)
        bounds = [0, *(c._obs_seq for c in timeline._checkpoints), steps]
        gaps = [b - a for a, b in zip(bounds, bounds[1:])]
        assert min(gaps) > 0
        assert max(gaps) <= 2 * steps / CHECKPOINTS

    def test_clean_result_again_runs_from_the_last_checkpoint(self):
        program = _program("phase-walk")
        timeline, clean = self._laid(program)
        checkpoints = list(timeline._checkpoints)
        reset_timeline_tally()
        assert timeline.clean_result(self.CONFIG) == clean
        assert timeline_snapshot()["starts"] == 0
        assert timeline._checkpoints == checkpoints


class TestFork:
    def _midway(self, program, config=None):
        machine = SlipstreamProcessor(program, config)
        while machine.retired < 1000:
            machine.step()
        return machine

    def test_clean_fork_equals_clean_run(self):
        for workload in WORKLOADS:
            program = _program(workload)
            config = SlipstreamConfig(confidence_threshold=2)
            clean = SlipstreamProcessor(program, config).run()
            machine = SlipstreamProcessor(program, config)
            forks = [machine.fork()]
            while not machine.r_state.halted:
                machine.step()
                if machine._obs_seq % 17 == 0:
                    forks.append(machine.fork())
            forks.append(machine.fork())
            assert len(forks) > 3
            for fork in forks:
                assert fork.run() == clean

    def test_advancing_the_parent_leaves_the_fork_alone(self):
        program = _program("phase-walk")
        config = SlipstreamConfig(confidence_threshold=2)
        clean = SlipstreamProcessor(program, config).run()
        machine = self._midway(program, config)
        fork = machine.fork()
        assert machine.run() == clean
        assert fork.run() == clean

    def test_struck_fork_leaves_the_parent_alone(self):
        program = _program("removal-loop")
        config = SlipstreamConfig(confidence_threshold=2)
        clean = SlipstreamProcessor(program, config).run()
        machine = self._midway(program, config)
        fork = machine.fork()
        fork.fault_hook = FaultInjector(TransientFault(
            site=FaultSite.R_ARCH, target_seq=machine._r_seq + 40, bit=4))
        assert fork.run().output != clean.output
        assert machine.run() == clean

    def test_no_mutable_state_is_shared(self):
        """Every attribute a run mutates is a distinct object in the
        fork; only the documented immutable parts are shared."""
        program = _program("phase-walk")
        machine = self._midway(program, SlipstreamConfig(confidence_threshold=2))
        fork = machine.fork()
        shared = {"program", "config", "fault_hook", "_step_funcs",
                  "_sched_meta", "walker", "_hint_branch_taken",
                  "_hint_pcs", "a_core", "r_core"}
        immutable = (int, bool, str, tuple, frozenset, type(None))
        for name, value in vars(machine).items():
            if name in shared or isinstance(value, immutable):
                continue
            assert getattr(fork, name) is not value, name
        # Aliasing inside the copied components follows the originals':
        # queued path updates point at the copy's own table entries.
        tables = fork.ir_predictor.trace_predictor
        entries = {id(e) for e in tables._correlated._entries.values()}
        entries |= {id(e) for e in tables._simple._entries.values()}
        for _tid, correlated, simple in fork.ir_predictor._pending:
            assert id(correlated) in entries and id(simple) in entries
        owners = {id(t) for t in fork.detector._scope}
        assert all(id(entry[1]) not in {id(t) for t in machine.detector._scope}
                   for entry in fork.detector._entries.values())
        assert any(id(entry[1]) in owners
                   for entry in fork.detector._entries.values())
        assert fork._obs is None


class TestTimeline:
    def test_exception_mid_step_drops_only_that_checkpoint(self,
                                                          monkeypatch):
        program = _program("removal-loop")
        config = SlipstreamConfig(confidence_threshold=2)
        timeline = clean_timeline(program, config)
        clean = timeline.clean_result(config)
        assert clean == SlipstreamProcessor(program, config).run()
        reference = dict(reference_output=clean.output,
                         baseline_detections=clean.ir_mispredictions,
                         max_instructions=hang_budget(clean.retired),
                         reference_retired=clean.retired)
        # Just short of the fourth checkpoint: the third steps to it.
        target = timeline._checkpoints[3]._r_seq - 1
        fault = TransientFault(site=FaultSite.R_ARCH, target_seq=target,
                               bit=20)
        want = scratch_inject(program, fault, config, False)
        kept = list(timeline._checkpoints)
        calls = []
        real_step = SlipstreamProcessor.step

        def interrupted(self):
            calls.append(self)
            if len(calls) == 2:
                raise KeyboardInterrupt("inline job timeout")
            real_step(self)

        monkeypatch.setattr(SlipstreamProcessor, "step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            inject_one(program, fault, config, **reference)
        assert calls[0] is kept[2]
        assert coverage._TIMELINE is timeline
        assert timeline._checkpoints == kept[:2] + kept[3:]
        monkeypatch.setattr(SlipstreamProcessor, "step", real_step)
        reset_timeline_tally()
        assert inject_one(program, fault, config, **reference) == want
        # The second checkpoint serves the request now; nothing restarts.
        assert timeline_snapshot()["starts"] == 0

    def test_one_timeline_per_process(self):
        a, b = _program("removal-loop"), _program("phase-walk")
        config = SlipstreamConfig()
        first = clean_timeline(a, config)
        assert first.program is a
        assert clean_timeline(a, replace(config, max_instructions=10**6)) \
            is first
        second = clean_timeline(b, config)
        assert second is not first and coverage._TIMELINE is second
        assert isinstance(second, CleanTimeline)
        assert clean_timeline(b, decorrelated_config()) is not second
        assert current_timeline(b, config) is None
        assert current_timeline(b, replace(decorrelated_config(),
                                           max_instructions=10**6)) \
            is coverage._TIMELINE
        assert current_timeline(a, decorrelated_config()) is None
        release_timeline()
        assert coverage._TIMELINE is None
        assert current_timeline(b, decorrelated_config()) is None


def test_a_cmp_job_outside_a_campaign_lays_no_checkpoints(
        fresh_caches):  # noqa: F811
    """A ``cmp`` job with no timeline open for its program and config
    (the report sweep's) is a plain run: it opens no timeline and forks
    nothing.  One whose timeline is open leaves its checkpoints there,
    and its result is the plain run's."""
    release_timeline()
    reset_timeline_tally()
    plain = models.run_slipstream_model("jpeg")
    assert coverage._TIMELINE is None
    assert timeline_snapshot()["starts"] == 0
    spec = jobs.reference_spec("jpeg", "slipstream")
    jobs.open_timeline(spec)
    timeline = coverage._TIMELINE
    assert jobs.simulate(spec) == plain
    assert timeline_snapshot()["starts"] == 1
    assert 0 < len(timeline._checkpoints) <= CHECKPOINTS
    release_timeline()


def test_campaign_forks_every_slipstream_point(fresh_caches):  # noqa: F811
    """An inline campaign's reference run is its only clean machine
    from the entry: the slipstream points fork from the checkpoints it
    left behind, and the round releases them at the end and keeps the
    tallies out of the payload."""
    config = CampaignConfig(benchmarks=("jpeg",), points_per_benchmark=3,
                            seed=2000, modes=("slipstream",))
    cleaned = []
    real_clean_result = CleanTimeline.clean_result

    def recording_clean_result(self, run_config):
        cleaned.append(self)
        return real_clean_result(self, run_config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CleanTimeline, "clean_result", recording_clean_result)
        result, _stats = run_scaled_campaign(config, jobs=1,
                                             use_disk_cache=False)
    assert len(cleaned) == 1
    assert coverage._TIMELINE is None
    tally = timeline_snapshot()
    assert tally["forks"] == len(result.points) == 3
    assert tally["starts"] == 1 and tally["restarts"] == 0
    assert tally["skipped_instructions"] > 0
    payload = result.to_payload()
    assert "forks" not in str(payload)
    assert [r.fault for r in result.results] == [p.fault for p in result.points]


def test_campaign_steps_the_clean_prefix_once(fresh_caches):  # noqa: F811
    """Hook-less steps of an inline jpeg campaign over every mode: the
    two clean reference runs (slipstream and decorrelated), plus for
    each struck point at most one gap between checkpoints of its
    config.  Starting every config's struck runs from the entry, as
    when the reference pass and the strikes had a clean machine each,
    steps the prefix up to the last strike a second time."""
    config = CampaignConfig(benchmarks=("jpeg",), points_per_benchmark=3,
                            seed=2000, modes=CAMPAIGN_MODES)
    steps = [0]
    passes = []
    real_step = SlipstreamProcessor.step
    real_clean_result = CleanTimeline.clean_result

    def counting_step(self):
        if self.fault_hook is None:
            steps[0] += 1
        real_step(self)

    def recording_clean_result(self, run_config):
        before = steps[0]
        result = real_clean_result(self, run_config)
        run_steps = steps[0] - before
        bounds = [0, *(c._obs_seq for c in self._checkpoints), run_steps]
        passes.append((run_steps,
                       max(b - a for a, b in zip(bounds, bounds[1:]))))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SlipstreamProcessor, "step", counting_step)
        patch.setattr(CleanTimeline, "clean_result", recording_clean_result)
        result, _stats = run_scaled_campaign(config, jobs=1,
                                             use_disk_cache=False)
    assert not result.failed_points
    assert len(passes) == 2  # slipstream and decorrelated references
    points = config.points_per_benchmark
    bound = sum(run_steps + points * gap for run_steps, gap in passes)
    assert steps[0] <= bound, (steps[0], passes)


def test_two_benchmark_campaign_steps_the_first_struck_prefix_once(
        fresh_caches):  # noqa: F811
    """``strike_order`` takes a mode's benchmarks by name, so ``go`` is
    struck first although ``jpeg``'s reference runs last.  The round
    opens ``go``'s timeline before the reference pass: its reference
    lays the checkpoints and its struck runs step the clean prefix once
    (the clean run plus at most one gap per point).  Were the last
    reference's timeline kept instead, ``go``'s struck runs would step
    their prefix again from the entry.  ``jpeg``'s reference is a plain
    run, and its struck runs step one machine from the entry."""
    config = CampaignConfig(benchmarks=("go", "jpeg"), points_per_benchmark=3,
                            seed=2000, modes=("slipstream",))
    first = jobs.benchmark_program("go")
    steps = [0]
    passes = []
    real_step = SlipstreamProcessor.step
    real_clean_result = CleanTimeline.clean_result

    def counting_step(self):
        if self.fault_hook is None and self.program is first:
            steps[0] += 1
        real_step(self)

    def recording_clean_result(self, run_config):
        before = steps[0]
        result = real_clean_result(self, run_config)
        run_steps = steps[0] - before
        bounds = [0, *(c._obs_seq for c in self._checkpoints), run_steps]
        passes.append((self.program, run_steps,
                       max(b - a for a, b in zip(bounds, bounds[1:]))))
        return result

    reset_timeline_tally()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SlipstreamProcessor, "step", counting_step)
        patch.setattr(CleanTimeline, "clean_result", recording_clean_result)
        result, _stats = run_scaled_campaign(config, jobs=1,
                                             use_disk_cache=False)
    assert not result.failed_points
    assert [program for program, _, _ in passes] == [first]
    _, run_steps, gap = passes[0]
    assert steps[0] <= run_steps + config.points_per_benchmark * gap, \
        (steps[0], passes)
    tally = timeline_snapshot()
    assert (tally["starts"], tally["restarts"]) == (2, 0), tally
    assert tally["forks"] == len(result.points) == 6


def test_scenario_simulates_the_clean_run_once(monkeypatch):
    """``run_scenario``'s target search is the clean reference run; the
    struck run forks from the timeline instead of starting over."""
    program = _program("phase-walk")
    started, runs = [], []
    real_init, real_run = SlipstreamProcessor.__init__, SlipstreamProcessor.run

    def counting_init(self, *args, **kwargs):
        started.append(self)
        real_init(self, *args, **kwargs)

    def counting_run(self):
        runs.append(self)
        return real_run(self)

    monkeypatch.setattr(SlipstreamProcessor, "__init__", counting_init)
    monkeypatch.setattr(SlipstreamProcessor, "run", counting_run)
    result = run_scenario(SCENARIOS["redundant"], program, after_seq=500)
    monkeypatch.undo()
    # The recording run, and the timeline's live machine, which advanced
    # to the strike and ran the struck run: two runs, not three.
    assert len(started) == 2 and len(runs) == 2
    assert runs[1] is started[1]
    assert timeline_snapshot()["forks"] == 1
    assert result.fault.target_seq >= 500
    assert result == scratch_inject(program, result.fault, SlipstreamConfig(),
                                    False)
