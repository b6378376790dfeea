"""Tests for the extension experiments and chart renderers."""

import pytest

from repro.experiments import figure7, figure10, figure12, related_work, reno

SMALL = dict(measure=1200, warmup=5000)


class TestRelatedWork:
    @pytest.fixture(scope="class")
    def results(self):
        return related_work.run(benchmarks=["hmmer", "gcc"], **SMALL)

    def test_all_corners_present(self, results):
        assert set(results) == {"BIG", "CA/dependence", "CA/roundrobin",
                                "HALF+FX"}

    def test_big_is_baseline(self, results):
        assert results["BIG"]["ipc"] == pytest.approx(1.0)
        assert results["BIG"]["energy"] == pytest.approx(1.0)

    def test_only_ca_forwards(self, results):
        assert results["BIG"]["xforwards"] == 0.0
        assert results["HALF+FX"]["xforwards"] == 0.0
        assert results["CA/dependence"]["xforwards"] > 0.0

    def test_naive_steering_forwards_more(self, results):
        assert (results["CA/roundrobin"]["xforwards"]
                > results["CA/dependence"]["xforwards"])

    def test_fxa_spends_less_than_clustering(self, results):
        """Paper VII-A: FXA beats the clustered core on energy."""
        assert (results["HALF+FX"]["energy"]
                < results["CA/dependence"]["energy"])

    def test_format(self, results):
        text = related_work.format_table(results)
        assert "Related work" in text and "CA/dependence" in text


class TestReno:
    @pytest.fixture(scope="class")
    def results(self):
        return reno.run(benchmarks=["gcc", "libquantum"], **SMALL)

    def test_elimination_only_with_reno(self, results):
        assert results["BIG"]["eliminated_per_kinst"] == 0.0
        assert results["BIG+RENO"]["eliminated_per_kinst"] > 5.0
        assert results["HALF+FX+RENO"]["eliminated_per_kinst"] > 5.0

    def test_reno_never_hurts_energy(self, results):
        assert (results["BIG+RENO"]["energy"]
                <= results["BIG"]["energy"] + 0.005)

    def test_reno_composes_with_fxa(self, results):
        """Paper VII-C: RENO on FXA is at least as good as FXA alone on
        both axes."""
        assert (results["HALF+FX+RENO"]["ipc"]
                >= results["HALF+FX"]["ipc"] - 0.01)
        assert (results["HALF+FX+RENO"]["energy"]
                <= results["HALF+FX"]["energy"] + 0.005)

    def test_format(self, results):
        text = reno.format_table(results)
        assert "RENO" in text and "HALF+FX+RENO" in text


class TestChartRenderers:
    def test_figure7_chart(self):
        results = {
            "BIG": {"hmmer": 1.0, "mean": 1.0},
            "HALF+FX": {"hmmer": 1.05, "mean": 1.05},
        }
        chart = figure7.format_chart(results)
        assert "Figure 7" in chart and "█" in chart

    def test_figure10_chart(self):
        results = {"BIG": {"ALL": 1.0}, "LITTLE": {"ALL": 0.6}}
        chart = figure10.format_chart(results)
        assert "PER" in chart

    def test_figure12_chart(self):
        results = {"INT": {1: 0.4, 3: 0.6}, "ALL": {1: 0.35, 3: 0.55},
                   "FP": {1: 0.3, 3: 0.5}}
        chart = figure12.format_chart(results)
        assert "Figure 12" in chart and "0.600" in chart

    def test_cli_chart_flag(self, capsys):
        from repro.experiments.cli import main

        main(["figure7", "--benchmarks", "hmmer",
              "--measure", "600", "--warmup", "2500", "--chart"])
        out = capsys.readouterr().out
        assert "geomean IPC" in out
