"""Tests of the layer-ledger benchmark itself (not part of the tier-1 suite).

    python3 -m pytest ledgerbench
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import os
import pstats
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import ledger  # noqa: E402
import repro  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.slipstream import SlipstreamProcessor  # noqa: E402
from repro.fingerprint import fingerprint  # noqa: E402
from repro.uarch import SS_64x4  # noqa: E402
from repro.uarch.core import SuperscalarCore  # noqa: E402
from repro.workloads.suite import get_benchmark  # noqa: E402

PACKAGE_DIR = str(Path(repro.__file__).resolve().parent)
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))


def repro_modules():
    return [ledger.module_of(str(path), PACKAGE_DIR)
            for path in sorted(Path(PACKAGE_DIR).rglob("*.py"))]


def test_every_module_maps_to_exactly_one_layer():
    for module in repro_modules():
        matches = ledger.layer_matches(module)
        assert matches, f"{module} is in no layer"
        longest = max(length for length, _ in matches)
        winners = {layer for length, layer in matches if length == longest}
        assert len(winners) == 1, f"{module} is in layers {winners}"


def test_layer_map_has_no_duplicate_or_stale_prefix():
    prefixes = [prefix for group in ledger.LAYERS.values() for prefix in group]
    assert len(prefixes) == len(set(prefixes))
    modules = repro_modules()
    for prefix in prefixes:
        assert any(m == prefix or m.startswith(prefix + ".") for m in modules), prefix


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_deterministic_per_seed(workload):
    for seed in range(20):
        assert workloads.job_list(workload, seed) == workloads.job_list(workload, seed)
        assert sorted(workloads.job_list(workload, seed), key=lambda j: j.label) == sorted(
            workloads.job_list(workload, 0), key=lambda j: j.label)


def test_seed_orders_jobs():
    orders = {tuple(workloads.job_list("ss-base", seed)) for seed in range(20)}
    assert len(orders) > 1


@pytest.mark.parametrize("env", [
    {"REPRO_OBS": "1"},
    {"REPRO_OBS_TRACE_DIR": "traces"},
    {"REPRO_COMPILED": "0"},
    {"REPRO_COMPILED_TIMING": "off"},
    {"REPRO_EVAL_REMOTE": "127.0.0.1:8000"},
    {"REPRO_WORKLOAD_LINT": "0"},
])
def test_guard_rejects_engine_and_observability_settings(env):
    assert run.guard(env)


def test_guard_accepts_default_settings():
    assert run.guard({}) == []
    assert run.guard({"REPRO_OBS": "0", "REPRO_COMPILED": "1",
                      "REPRO_COMPILED_TIMING": "1"}) == []


def _run_cli(cwd, extra_env=None):
    env = dict(os.environ, **(extra_env or {}))
    return subprocess.run(
        [sys.executable, "ledgerbench/run.py", "--workload", "cmp-ir",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_cli_refuses_a_guarded_environment():
    done = _run_cli(ROOT, {"REPRO_COMPILED_TIMING": "0"})
    assert done.returncode == 2
    assert done.stdout == ""


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "ledgerbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = _run_cli(tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _busy(cpu_seconds):
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        sum(range(1000))


def test_host_speed_sampler_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    sampler = hostspeed.Sampler()
    sampler.switch(True)
    _busy(20 * hostspeed.PERIOD)
    sampler.switch(False)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.samples) >= 10
    assert sampler.cpu_s == pytest.approx(sum(sampler.samples))
    assert 0 < sampler.cpu_s < 1.0
    assert 0.1 < sampler.factor() < 10.0
    sampler.reset()
    with pytest.raises(RuntimeError, match="too short"):
        sampler.factor()


def test_host_speed_factor_is_the_mean_probe_time_over_the_reference():
    sampler = hostspeed.Sampler()
    reference = hostspeed.REFERENCE_US * 1e-6
    sampler.samples.extend([reference, 2 * reference, 3 * reference])
    assert sampler.factor() == pytest.approx(2.0)


def _refs(programs):
    return workloads.References(
        golden=GOLDEN, functional=workloads.functional_references(programs))


def test_golden_check_catches_a_perturbed_core_result():
    programs = workloads.set_up("ss-base")
    refs = _refs(programs)
    job = workloads.Job("ss64", "gcc")
    result = workloads.run_job(job, programs, 0)
    assert workloads.check_job("ss-base", job, result, refs, 0) is None
    for field in ("cycles", "branch_mispredictions", "dcache_misses"):
        perturbed = dataclasses.replace(result, **{field: getattr(result, field) + 1})
        assert workloads.check_job("ss-base", job, perturbed, refs, 0)


def test_golden_check_catches_a_perturbed_slipstream_result():
    programs = workloads.set_up("cmp-ir")
    refs = _refs(programs)
    job = workloads.Job("cmp", "vortex")
    result = workloads.run_job(job, programs, 0)
    assert workloads.check_job("cmp-ir", job, result, refs, 0) is None
    removed = dict(result.removed_by_category)
    removed[next(iter(removed))] += 1
    for perturbed in (
        dataclasses.replace(result, output=result.output + [0]),
        dataclasses.replace(result, removed_by_category=removed),
        dataclasses.replace(result, recoveries=result.recoveries[1:]),
        dataclasses.replace(result, r_cycles=result.r_cycles + 1),
    ):
        assert workloads.check_job("cmp-ir", job, perturbed, refs, 0)


@dataclasses.dataclass
class _FakeOutcome:
    outcome: object = "masked"


@dataclasses.dataclass
class _FakeCampaign:
    points: list
    results: list
    failed_points: list
    payload: dict

    def to_payload(self):
        return self.payload


def test_campaign_check_needs_every_point_and_the_golden_payload():
    payload = {"points": 2, "completed": 2, "coverage": 0.5, "outcomes": {}}
    refs = workloads.References(
        golden={"fault-slice": {"7": {"digest": workloads.canonical_digest(payload),
                                      "summary": {}}}},
        functional={})
    good = _FakeCampaign([1, 2], [_FakeOutcome(), _FakeOutcome()], [], payload)
    job = workloads.Job("campaign", "jpeg")
    assert workloads.check_job("fault-slice", job, good, refs, 7) is None
    for bad in (
        dataclasses.replace(good, failed_points=["finj/jpeg#1"]),
        dataclasses.replace(good, results=[_FakeOutcome()]),
        dataclasses.replace(good, results=[_FakeOutcome(), _FakeOutcome(None)]),
        dataclasses.replace(good, payload=dict(payload, coverage=0.25)),
    ):
        assert workloads.check_job("fault-slice", job, bad, refs, 7)
    # A seed with no golden entry must at least repeat across passes.
    assert workloads.check_job("fault-slice", job, good, refs, 8) is None
    changed = dataclasses.replace(good, payload=dict(payload, coverage=0.25))
    assert workloads.check_job("fault-slice", job, changed, refs, 8)


def test_fault_slice_matches_the_held_out_seed_golden(tmp_path):
    programs = workloads.set_up("fault-slice")
    refs = _refs(programs)
    workloads.prepare_cold("fault-slice", str(tmp_path))
    job = workloads.Job("campaign", "jpeg")
    result = workloads.run_job(job, programs, 2001)
    assert "2001" in GOLDEN["fault-slice"]
    assert workloads.check_job("fault-slice", job, result, refs, 2001) is None


def test_ledger_closes_and_charges_stdlib_to_the_calling_layer():
    document = {"rows": [{"k": i, "v": [i] * 20} for i in range(200)]}
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(20):
        fingerprint(document)
    profiler.disable()
    stats = pstats.Stats(profiler)
    charged = ledger.charge_layers(stats, PACKAGE_DIR)
    total = ledger.profile_total(stats)
    assert sum(charged.values()) == pytest.approx(total, rel=1e-9)
    json_self = sum(entry[2] for key, entry in stats.stats.items()
                    if "json" in key[0] or key[2] in ("dumps", "encode", "iterencode"))
    assert charged["eval"] >= json_self > 0


def test_counter_tap_folds_run_counters_and_restores_the_classes():
    original = SuperscalarCore.run, SlipstreamProcessor.run
    program = get_benchmark("jpeg").program(1)
    with ledger.CounterTap() as tap:
        result = SuperscalarCore(SS_64x4, program).run()
    assert (SuperscalarCore.run, SlipstreamProcessor.run) == original
    assert tap.totals["arch_instrs"] == result.retired
    assert tap.totals["timing_instrs"] == result.retired
    assert tap.totals["branch_mispredicts"] == result.branch_mispredictions


def test_every_metric_has_a_declared_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert run.per_layer_unit(metric["name"]) == metric["unit"]
