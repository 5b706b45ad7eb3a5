"""Struck runs forked from a live clean machine.

``inject_one`` serves every struck slipstream run from a fork of the
process's clean timeline (``repro.fault.coverage.CleanTimeline``)
instead of from the program's entry.  The fork must be exact: every
case here is checked against the from-scratch oracle,
``SlipstreamProcessor(program, config, fault_hook=injector).run()``.
CI also runs this file under ``REPRO_COMPILED=0``, so both engines
fork correctly.
"""

from dataclasses import replace

import pytest

from repro import assemble
from repro.core.modes import decorrelated_config
from repro.core.slipstream import (
    SimulationError,
    SlipstreamConfig,
    SlipstreamProcessor,
)
from repro.fault import coverage
from repro.fault.campaign import CampaignConfig, run_scaled_campaign
from repro.fault.coverage import (
    FaultOutcome,
    InjectionResult,
    _detection_span,
    classify_run,
    clean_timeline,
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
        program = _program("removal-loop")
        config = SlipstreamConfig(confidence_threshold=2)
        clean = SlipstreamProcessor(program, config).run()
        faults = [TransientFault(site=site, target_seq=seq, bit=20)
                  for seq in _targets(clean)
                  for site in (FaultSite.R_ARCH, FaultSite.A_RESULT)]
        ascending = [inject_one(program, f, config) for f in faults]
        assert timeline_snapshot()["restarts"] == 0
        release_timeline()
        descending = [inject_one(program, f, config)
                      for f in reversed(faults)]
        assert timeline_snapshot()["restarts"] > 0
        assert descending[::-1] == ascending
        assert ascending == [scratch_inject(program, f, config, False)
                             for f in faults]


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
    def test_exception_mid_advance_drops_the_live_machine(self, monkeypatch):
        program = _program("removal-loop")
        config = SlipstreamConfig(confidence_threshold=2)
        clean = SlipstreamProcessor(program, config).run()
        fault = TransientFault(site=FaultSite.R_ARCH,
                               target_seq=clean.retired // 2, bit=20)
        reference = dict(reference_output=clean.output,
                         baseline_detections=clean.ir_mispredictions,
                         max_instructions=hang_budget(clean.retired),
                         reference_retired=clean.retired)
        want = inject_one(program, fault, config, **reference)
        release_timeline()
        timeline = clean_timeline(program, config)
        calls = []
        real_step = SlipstreamProcessor.step

        def interrupted(self):
            calls.append(self)
            if len(calls) == 5:
                raise KeyboardInterrupt("inline job timeout")
            real_step(self)

        monkeypatch.setattr(SlipstreamProcessor, "step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            inject_one(program, fault, config, **reference)
        assert coverage._TIMELINE is timeline
        assert timeline._live is None
        monkeypatch.setattr(SlipstreamProcessor, "step", real_step)
        assert inject_one(program, fault, config, **reference) == want
        assert timeline_snapshot()["restarts"] == 1

    def test_one_live_machine_per_process(self):
        a, b = _program("removal-loop"), _program("phase-walk")
        config = SlipstreamConfig()
        first = clean_timeline(a, config)
        assert clean_timeline(a, replace(config, max_instructions=10**6)) \
            is first
        second = clean_timeline(b, config)
        assert second is not first and coverage._TIMELINE is second
        assert clean_timeline(b, decorrelated_config()) is not second
        release_timeline()
        assert coverage._TIMELINE is None


def test_campaign_forks_every_slipstream_point(fresh_caches):  # noqa: F811
    """A campaign pass serves its slipstream points from one live machine
    per (mode, benchmark), releases it at the end, and keeps the
    tallies out of its payload."""
    config = CampaignConfig(benchmarks=("jpeg",), points_per_benchmark=3,
                            seed=2000, modes=("slipstream",))
    result, _stats = run_scaled_campaign(config, jobs=1,
                                         use_disk_cache=False)
    assert coverage._TIMELINE is None
    tally = timeline_snapshot()
    assert tally["forks"] == len(result.points) == 3
    assert tally["starts"] == 1 and tally["restarts"] == 0
    assert tally["skipped_instructions"] > 0
    payload = result.to_payload()
    assert "forks" not in str(payload)
    assert [r.fault for r in result.results] == [p.fault for p in result.points]


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
