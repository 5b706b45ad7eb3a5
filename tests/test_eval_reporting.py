"""Unit tests for eval metrics, reporting and cheap experiment pieces."""

import pytest

from repro.eval.experiments import PAPER, table2
from repro.eval.metrics import (
    arithmetic_mean,
    geometric_mean_speedup,
    per_1000,
    rank_order,
)
from repro.eval.reporting import (
    render_bar_series,
    render_stacked_fractions,
    render_table,
)


class TestMetrics:
    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_arithmetic_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_geometric_mean_speedup(self):
        assert geometric_mean_speedup([0.0, 0.0]) == pytest.approx(0.0)
        assert geometric_mean_speedup([100.0]) == pytest.approx(100.0)
        # geomean of (2x, 0.5x) is 1x.
        assert geometric_mean_speedup([100.0, -50.0]) == pytest.approx(0.0)

    def test_geometric_mean_speedup_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean_speedup([])

    def test_geometric_mean_speedup_impossible_gain_rejected(self):
        """Gains at or below -100% have no real geometric mean; the
        error must name the offending gain instead of surfacing as a
        math-domain error (regression: used to raise from math.pow or
        silently return a complex-derived value)."""
        with pytest.raises(ValueError, match="-100"):
            geometric_mean_speedup([10.0, -100.0])
        with pytest.raises(ValueError, match="-250"):
            geometric_mean_speedup([-250.0])
        # Just above the boundary is still legal.
        assert geometric_mean_speedup([-99.9]) == pytest.approx(-99.9)

    def test_per_1000(self):
        assert per_1000(5, 1000) == 5.0
        assert per_1000(5, 0) == 0.0

    def test_rank_order(self):
        assert rank_order({"a": 1.0, "b": 3.0, "c": 2.0}) == ["b", "c", "a"]


class TestRendering:
    ROWS = [
        {"benchmark": "m88ksim", "gain_pct": 27.1},
        {"benchmark": "go", "gain_pct": -0.5},
    ]

    def test_render_table_contains_rows_and_headers(self):
        text = render_table(self.ROWS, ["benchmark", "gain_pct"],
                            headers=["bench", "gain"], title="T")
        assert "bench" in text and "m88ksim" in text and "27.10" in text
        assert text.startswith("T\n=")

    def test_render_bar_series_scales_and_signs(self):
        text = render_bar_series(self.ROWS, "benchmark", "gain_pct")
        lines = text.splitlines()
        assert "27.1%" in lines[0]
        assert "-" in lines[1]  # negative bar marked

    def test_render_stacked_fractions(self):
        rows = [{
            "benchmark": "x",
            "total_fraction": 0.5,
            "categories": {"BR": 0.2, "SV": 0.3},
        }]
        text = render_stacked_fractions(rows, ["BR", "SV"])
        assert "50.0" in text and "20.0" in text and "30.0" in text


class TestCheapExperiments:
    def test_table2_structure(self):
        config = table2()
        assert "single_processor" in config
        assert "slipstream_components" in config
        assert config["single_processor"]["rob"] == 64
        assert config["slipstream_components"]["confidence_threshold"] == 32
        assert "21-cycle minimum" in config["slipstream_components"]["recovery"]

    def test_paper_reference_numbers_complete(self):
        for key in ("base_ipc", "base_misp_per_1000", "slip_gain_pct",
                    "removal_fraction", "instr_count_millions"):
            assert set(PAPER[key]) == {
                "compress", "gcc", "go", "jpeg", "li", "m88ksim",
                "perl", "vortex",
            }


class TestFrontierJobs:
    """``python -m repro.eval --jobs N`` runs the report's frontier
    campaign on N workers too."""

    def test_frontier_study_passes_jobs_to_the_campaign(self, monkeypatch):
        import repro.fault.campaign as campaign
        from repro.eval.experiments import redundancy_frontier_study

        seen = {}

        def fake_campaign(config, jobs=1, **kwargs):
            seen["jobs"] = jobs
            return "result", None

        monkeypatch.setattr(campaign, "run_scaled_campaign", fake_campaign)
        assert redundancy_frontier_study(jobs=3) == "result"
        assert seen == {"jobs": 3}

    def test_cli_passes_jobs_to_the_report(self, monkeypatch, capsys):
        import repro.eval.__main__ as cli

        seen = {}

        def fake_report(scale, jobs=1):
            seen["args"] = (scale, jobs)
            return "report"

        monkeypatch.setattr(cli, "enumerate_artifact_jobs", lambda scale: [])
        monkeypatch.setattr(cli, "render_report", fake_report)
        cli.main(["--jobs", "2", "--bench-out", "-"])
        assert seen == {"args": (1, 2)}
        assert "report" in capsys.readouterr().out
