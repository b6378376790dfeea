"""Tests for the experiment harness (small workloads, small intervals)."""

import pytest

from repro.core import model_config
from repro.experiments import geomean, run_benchmark
from repro.experiments import (
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    headline,
    tables,
)
from repro.experiments.runner import clear_cache

SMALL = dict(measure=1500, warmup=6000)
BENCHES = ["hmmer", "lbm"]


class TestRunner:
    def test_run_benchmark(self):
        run = run_benchmark(model_config("BIG"), "hmmer", **SMALL)
        assert run.ipc > 0
        assert run.total_energy > 0
        assert run.per > 0
        assert run.stats.benchmark == "hmmer"

    def test_cache_hits(self):
        clear_cache()
        first = run_benchmark(model_config("BIG"), "hmmer", **SMALL)
        second = run_benchmark(model_config("BIG"), "hmmer", **SMALL)
        assert first is second

    def test_cache_respects_config_changes(self):
        big = run_benchmark(model_config("BIG"), "hmmer", **SMALL)
        half = run_benchmark(model_config("HALF"), "hmmer", **SMALL)
        assert big is not half

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestTables:
    def test_table1_has_all_models(self):
        grid = tables.table1()
        assert set(grid) == {"LITTLE", "BIG", "BIG+FX", "HALF",
                             "HALF+FX"}
        assert grid["BIG"]["issue queue"] == "64 entries"
        assert grid["HALF"]["issue queue"] == "32 entries"
        assert grid["LITTLE"]["issue queue"] == "N/A"
        assert grid["HALF+FX"]["issue queue"] == "32 entries"
        assert "IXU" in grid["HALF+FX"]

    def test_table1_penalties(self):
        grid = tables.table1()
        assert grid["BIG"]["br. mispred. penalty"] == "~11 cycles"
        assert grid["LITTLE"]["br. mispred. penalty"] == "~8 cycles"

    def test_table2_values(self):
        rows = tables.table2()
        assert rows["temperature"] == "320 K"
        assert rows["VDD"] == "0.8 V"
        assert "127.0" in rows["device type (core)"]
        assert "low standby power" in rows["device type (L2)"]

    def test_formatting(self):
        assert "Table I" in tables.format_table1(tables.table1())
        assert "Table II" in tables.format_table2(tables.table2())


class TestFigures:
    def test_figure7_structure(self):
        results = figure7.run(benchmarks=BENCHES, **SMALL)
        assert set(results) == {"LITTLE", "BIG", "BIG+FX", "HALF",
                                "HALF+FX"}
        for model, row in results.items():
            assert "mean" in row
            for bench in BENCHES:
                assert row[bench] > 0
        # BIG is its own baseline, exactly.
        assert results["BIG"]["mean"] == 1.0
        text = figure7.format_table(results)
        assert "Figure 7" in text and "hmmer" in text

    def test_figure8_structure(self):
        results = figure8.run(benchmarks=BENCHES, **SMALL)
        figure8a = results["figure8a"]
        assert sum(figure8a["BIG"].values()) == pytest.approx(1.0)
        assert figure8a["HALF+FX"]["IQ"] < figure8a["BIG"]["IQ"]
        assert figure8a["LITTLE"]["IQ"] == 0.0
        # The L2 is nearly invisible in the energy stack.
        assert figure8a["BIG"]["L2"] < 0.10
        figure8b = results["figure8b"]
        assert figure8b["BIG"]["ixu_dynamic"] == 0.0
        assert figure8b["HALF+FX"]["ixu_dynamic"] > 0.0
        assert figure8b["HALF+FX"]["ixu_static"] > 0.0
        assert "Figure 8" in figure8.format_table(results)

    def test_figure9_structure(self):
        results = figure9.run()
        figure9a = results["figure9a"]
        assert sum(figure9a["BIG"].values()) == pytest.approx(1.0)
        total_halffx = sum(figure9a["HALF+FX"].values())
        assert 1.01 < total_halffx < 1.05
        # Paper: L2 ~44% and FPU ~24% of HALF+FX's area.
        assert 0.40 < figure9a["HALF+FX"]["L2"] / total_halffx < 0.50
        assert 0.20 < figure9a["HALF+FX"]["FPU"] / total_halffx < 0.28
        assert "Figure 9" in figure9.format_table(results)

    def test_figure10_structure(self):
        results = figure10.run(benchmarks=BENCHES, **SMALL)
        assert results["BIG"]["ALL"] == pytest.approx(1.0)
        for model in results:
            assert results[model]["ALL"] > 0
        assert "Figure 10" in figure10.format_table(results)

    def test_figure11_structure(self):
        results = figure11.run(
            benchmarks=["hmmer"], sweep=((3, 3, 3), (3, 1, 1), (1, 1, 1)),
            **SMALL
        )
        assert results["full"]["[3, 3, 3]"] == 1.0
        assert set(results) == {"full", "opt"}
        # Paper: [3,1,1]/opt loses only ~0.5% against [3,3,3]/full, and
        # shrinking the first stage costs more than the later ones.
        assert results["opt"]["[3, 1, 1]"] > 0.95
        assert results["full"]["[1, 1, 1]"] <= results["full"]["[3, 1, 1]"]
        assert "Figure 11" in figure11.format_table(results)

    def test_figure12_structure(self):
        results = figure12.run(
            benchmarks=BENCHES, depths=(1, 3, 6), **SMALL
        )
        rates = results["ALL"]
        # Paper shape: substantial at one stage, growing with depth and
        # holding past three; INT programs use the IXU more than FP.
        assert rates[1] > 0.20
        assert rates[3] > rates[1]
        assert rates[6] >= rates[3] - 0.02
        assert results["INT"][3] > results["FP"][3]
        assert "Figure 12" in figure12.format_table(results)

    def test_figure13_structure(self):
        results = figure13.run(
            benchmarks=["hmmer"], depths=(1, 3, 6), **SMALL
        )
        rel = results["ALL"]
        assert rel[1] > 0
        # Paper shape: IPC grows with depth, then saturates past three.
        assert rel[3] >= rel[1] - 0.02
        assert abs(rel[6] - rel[3]) < 0.10
        assert "Figure 13" in figure13.format_table(results)

    def test_headline_structure(self):
        results = headline.run(benchmarks=BENCHES, **SMALL)
        assert set(headline.PAPER_VALUES) <= set(results)
        assert results["halffx_area_growth"] == pytest.approx(
            0.025, abs=0.01)
        assert "paper" in headline.format_table(results)


class TestCLI:
    def test_cli_table(self, capsys):
        from repro.experiments.cli import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_cli_figure_with_subset(self, capsys):
        from repro.experiments.cli import main

        code = main(["figure7", "--benchmarks", "hmmer",
                     "--measure", "800", "--warmup", "3000"])
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_cli_rejects_unknown_benchmark(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["figure7", "--benchmarks", "bogus"])
