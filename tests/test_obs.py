"""The observability layer (repro.obs): metrics registry, JSONL event
trace schema, RunReport aggregation, behavior-neutrality, and the
``python -m repro.obs`` CLI.

The load-bearing guarantees tested here (DESIGN.md §7.6):

* instrumentation is **behavior-neutral** — a run with observability on
  is bit-identical to the same run with it off;
* a :class:`~repro.obs.RunReport`'s headline counters equal the values
  the experiments already compute from the result object;
* traces are deterministic, schema-valid and index-contiguous.
"""

import io
import json

import pytest

from repro.core.slipstream import SlipstreamProcessor
from repro.eval.jobs import (
    baseline_spec,
    count_spec,
    job_label,
    simulate,
    simulate_with_report,
    slipstream_spec,
)
from repro.obs import (
    EVENT_FIELDS,
    MetricsRegistry,
    Observability,
    RunReport,
    TraceSchemaError,
    TraceWriter,
    build_report,
    diff_reports,
    job_observability,
    obs_enabled,
    read_trace,
    sanitize_label,
    summarize_events,
    validate_event,
    validate_trace,
)
from repro.obs.session import ENV_ENABLE, ENV_TRACE_DIR, for_path
from repro.uarch.config import SS_64x4
from repro.uarch.core import SuperscalarCore
from repro.workloads.suite import get_benchmark

BENCH = "jpeg"  # the cheapest workload in the suite


def program():
    return get_benchmark(BENCH).program(1)


# ----------------------------------------------------------------------
# Metrics registry.
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_inc_and_set(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.snapshot() == {"x": 5}
        reg.counter("x").set(2)
        assert reg.snapshot() == {"x": 2}

    def test_gauge_tracks_extremes(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("occ")
        for value in (3, 9, 1):
            gauge.set(value)
        snap = reg.snapshot()
        assert snap == {"occ.last": 1, "occ.min": 1, "occ.max": 9}
        assert gauge.updates == 3

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        for value in (1, 2, 3, 10):
            hist.observe(value)
        snap = reg.snapshot()
        assert snap["lat.count"] == 4
        assert snap["lat.mean"] == 4.0
        assert snap["lat.max"] == 10

    def test_instruments_are_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_set_counters_folds_component_tallies(self):
        reg = MetricsRegistry()
        reg.set_counters({"pushes": 7, "stalls": 2}, prefix="db.")
        assert reg.snapshot() == {"db.pushes": 7, "db.stalls": 2}

    def test_snapshot_is_deterministically_ordered(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert list(reg.snapshot()) == ["a", "b"]


# ----------------------------------------------------------------------
# Trace schema + writer.
# ----------------------------------------------------------------------

class TestTraceSchema:
    def test_unknown_type_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event({"t": "nope", "i": 0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event({"t": "predict", "i": 0, "seq": 1})

    def test_missing_index_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event({"t": "start", "benchmark": "li", "model": "cmp"})

    def test_extra_fields_allowed(self):
        validate_event({"t": "trace_retired", "i": 0, "seq": 1,
                        "retired": 4, "a_cycle": 9, "anything": "extra"})

    def test_writer_validates_on_emit(self):
        writer = TraceWriter(io.StringIO())
        with pytest.raises(TraceSchemaError):
            writer.emit("predict", seq=1)

    def test_writer_emits_sorted_contiguous_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        writer.emit("start", benchmark="li", model="cmp")
        writer.emit("redirect", seq=3, stream="A")
        writer.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["i"] for line in lines] == [0, 1]
        # Keys are sorted -> byte-deterministic output.
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True)
        assert validate_trace(path) == 2

    def test_validate_trace_flags_index_gap(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        path.write_text(
            json.dumps({"t": "start", "i": 0, "benchmark": "b", "model": "m"})
            + "\n"
            + json.dumps({"t": "redirect", "i": 5, "seq": 1, "stream": "A"})
            + "\n"
        )
        with pytest.raises(TraceSchemaError):
            validate_trace(path)

    def test_iter_trace_flags_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(TraceSchemaError):
            read_trace(path)


# ----------------------------------------------------------------------
# Environment-driven session config.
# ----------------------------------------------------------------------

class TestSession:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        monkeypatch.delenv(ENV_TRACE_DIR, raising=False)
        assert not obs_enabled()
        assert job_observability("x") is None

    def test_enable_via_env(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        obs = job_observability("cmp/li@1")
        assert isinstance(obs, Observability)
        assert obs.trace is None  # metrics-only mode

    def test_trace_dir_implies_enabled(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path))
        assert obs_enabled()
        obs = job_observability("cmp/li@1[BR]#abcd")
        assert obs.trace_path == tmp_path / "cmp-li@1-BR-abcd.jsonl"

    def test_sanitize_label(self):
        assert sanitize_label("cmp/li@1[BR,WW]#ab") == "cmp-li@1-BR-WW-ab"


# ----------------------------------------------------------------------
# Behavior neutrality: observed run == unobserved run, bit for bit.
# ----------------------------------------------------------------------

class TestBehaviorNeutrality:
    def test_slipstream_identical_with_tracing(self, tmp_path):
        spec = slipstream_spec(BENCH)
        plain = simulate(spec)
        obs = for_path(tmp_path / "cmp.jsonl")
        observed = SlipstreamProcessor(program(), spec.config, obs=obs).run()
        obs.close()
        assert observed == plain

    def test_superscalar_identical_with_tracing(self, tmp_path):
        plain = SuperscalarCore(SS_64x4, program()).run()
        obs = for_path(tmp_path / "ss.jsonl")
        observed = SuperscalarCore(SS_64x4, program(), obs=obs).run()
        obs.close()
        assert observed == plain

    def test_traces_are_deterministic(self, tmp_path):
        spec = slipstream_spec(BENCH)
        for name in ("a", "b"):
            obs = for_path(tmp_path / f"{name}.jsonl")
            SlipstreamProcessor(program(), spec.config, obs=obs).run()
            obs.close()
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()


# ----------------------------------------------------------------------
# Trace content of one small slipstream run.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def slip_trace(tmp_path_factory):
    """One traced slipstream run: (result, events, trace path)."""
    path = tmp_path_factory.mktemp("trace") / "cmp.jsonl"
    spec = slipstream_spec(BENCH)
    obs = for_path(path)
    result = SlipstreamProcessor(program(), spec.config, obs=obs).run()
    obs.close()
    return result, read_trace(path), path


class TestSlipstreamTrace:
    def test_trace_is_schema_valid_and_contiguous(self, slip_trace):
        _, events, path = slip_trace
        assert validate_trace(path) == len(events) > 0

    def test_lifecycle_events(self, slip_trace):
        _, events, _ = slip_trace
        assert events[0]["t"] == "start"
        assert events[0]["benchmark"] == BENCH
        assert events[0]["model"] == "cmp"
        assert events[-1]["t"] == "summary"

    def test_only_known_event_types(self, slip_trace):
        _, events, _ = slip_trace
        assert {e["t"] for e in events} <= set(EVENT_FIELDS)

    def test_per_trace_events_present(self, slip_trace):
        _, events, _ = slip_trace
        by_type = {e["t"] for e in events}
        assert {"predict", "trace_retired", "cache"} <= by_type

    def test_trace_retired_count_matches_result(self, slip_trace):
        """``retired`` is the cumulative R-stream total: non-decreasing,
        ending at the result's count."""
        result, events, _ = slip_trace
        retired = [e["retired"] for e in events if e["t"] == "trace_retired"]
        assert retired == sorted(retired)
        assert retired[-1] == result.retired

    def test_backpressure_events_match_result(self, slip_trace):
        result, events, _ = slip_trace
        count = sum(1 for e in events if e["t"] == "backpressure")
        assert count == result.delay_buffer_backpressure

    def test_recovery_events_match_result(self, slip_trace):
        result, events, _ = slip_trace
        recoveries = [e for e in events if e["t"] == "recovery"]
        assert len(recoveries) == result.ir_mispredictions
        assert sum(e["latency"] for e in recoveries) == result.ir_penalty_total

    def test_removal_events_match_result(self, slip_trace):
        result, events, _ = slip_trace
        removals = [e for e in events if e["t"] == "removal"]
        assert sum(e["removed"] for e in removals) == result.a_removed
        by_kind = {}
        for event in removals:
            for kind, count in event["by_kind"].items():
                by_kind[kind] = by_kind.get(kind, 0) + count
        assert by_kind == {k: v for k, v in
                           result.removed_by_category.items() if v}

    def test_removal_by_kind_matches_result_with_removal(self, tmp_path):
        """The jpeg trace above removes nothing; m88ksim removes most of
        its instructions, so every ``removal`` event's ``by_kind`` (read
        from the outcome group's ``kinds`` column) is exercised."""
        path = tmp_path / "m88ksim.jsonl"
        obs = for_path(path)
        result = SlipstreamProcessor(
            get_benchmark("m88ksim").program(1),
            slipstream_spec("m88ksim").config, obs=obs,
        ).run()
        obs.close()
        removals = [e for e in read_trace(path) if e["t"] == "removal"]
        by_kind = {}
        for event in removals:
            assert sum(event["by_kind"].values()) == event["removed"]
            for kind, count in event["by_kind"].items():
                by_kind[kind] = by_kind.get(kind, 0) + count
        assert result.a_removed > 0
        assert sum(e["removed"] for e in removals) == result.a_removed
        assert by_kind == result.removed_by_category

    def test_summary_counters_match_result(self, slip_trace):
        result, events, _ = slip_trace
        counters = events[-1]["counters"]
        assert counters["delay_buffer.backpressure_events"] == \
            result.delay_buffer_backpressure
        assert counters["recovery.recoveries"] == result.ir_mispredictions
        assert counters["slip.traces"] > 0

    def test_summarize_events(self, slip_trace):
        _, events, _ = slip_trace
        summary = summarize_events(events)
        assert summary["benchmark"] == BENCH
        assert summary["model"] == "cmp"
        assert summary["events"] == len(events)
        assert summary["by_type"]["start"] == 1


# ----------------------------------------------------------------------
# RunReport: counters equal what the experiments compute.
# ----------------------------------------------------------------------

class TestRunReport:
    def test_report_counters_equal_result_values(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        spec = slipstream_spec(BENCH)
        result, report = simulate_with_report(spec)
        assert isinstance(report, RunReport)
        assert report.job == job_label(spec.key)
        assert report.model == "cmp"
        assert report.benchmark == BENCH
        # The acceptance triple: IR-misp, removal fraction, backpressure.
        assert report.counters["ir_mispredictions"] == \
            result.ir_mispredictions
        assert report.counters["removal_fraction"] == \
            result.removal_fraction
        assert report.counters["delay_buffer_backpressure"] == \
            result.delay_buffer_backpressure
        assert report.counters["ipc"] == result.ipc
        for category, count in result.removed_by_category.items():
            assert report.counters[f"removed.{category}"] == count

    def test_registry_agrees_with_result(self, monkeypatch):
        """The independently-maintained registry tallies equal the
        result's own counters (cross-check, not just duplication)."""
        monkeypatch.setenv(ENV_ENABLE, "1")
        result, report = simulate_with_report(slipstream_spec(BENCH))
        assert report.counters["delay_buffer.backpressure_events"] == \
            result.delay_buffer_backpressure
        assert report.counters["recovery.recoveries"] == \
            result.ir_mispredictions

    def test_count_job_report(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        result, report = simulate_with_report(count_spec(BENCH))
        assert report.counters["instructions"] == result

    def test_baseline_report_and_trace(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path))
        result, report = simulate_with_report(baseline_spec(BENCH))
        assert report.counters["retired"] == result.retired
        assert report.counters["cycles"] == result.cycles
        assert report.events > 0
        assert validate_trace(report.trace_path) == report.events

    def test_disabled_returns_no_report(self, monkeypatch):
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        monkeypatch.delenv(ENV_TRACE_DIR, raising=False)
        result, report = simulate_with_report(count_spec(BENCH))
        assert report is None
        assert result > 0

    def test_json_round_trip(self):
        report = RunReport("cmp/li@1", "cmp", "li",
                           counters={"ipc": 1.5}, events=3,
                           trace_path="/tmp/t.jsonl")
        assert RunReport.from_json(report.to_json()) == report

    def test_diff_reports(self):
        a = RunReport("j", "m", "b", counters={"x": 1, "y": 2})
        b = RunReport("j", "m", "b", counters={"x": 1, "y": 5})
        assert diff_reports(a, b) == {"y": {"a": 2, "b": 5, "delta": 3}}

    def test_build_report_merges_registry(self):
        obs = Observability()
        obs.counter("extra.thing").inc(9)
        report = build_report("j", "count", "b", 42, obs)
        assert report.counters["instructions"] == 42
        assert report.counters["extra.thing"] == 9


# ----------------------------------------------------------------------
# The python -m repro.obs CLI.
# ----------------------------------------------------------------------

class TestCli:
    def test_summarize_and_validate(self, slip_trace, capsys):
        from repro.obs.__main__ import main
        _, _, path = slip_trace
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cmp" in out and "final counters" in out
        assert main(["validate", str(path)]) == 0

    def test_diff_identical_and_different(self, slip_trace, tmp_path,
                                          capsys):
        from repro.obs.__main__ import main
        _, _, path = slip_trace
        assert main(["diff", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out

        other = tmp_path / "ss.jsonl"
        obs = for_path(other)
        SuperscalarCore(SS_64x4, program(), obs=obs).run()
        obs.close()
        assert main(["diff", str(path), str(other)]) == 1

    def test_validate_rejects_malformed(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": "nope", "i": 0}\n')
        assert main(["validate", str(bad)]) == 2
        assert "INVALID" in capsys.readouterr().err
