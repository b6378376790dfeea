"""Unit tests for the simspeed telemetry/guard module (no timing —
the measured numbers live in benchmarks/ and the CI guard)."""

import io
import json
import sys

import pytest

from repro.experiments import runner, simspeed
from repro.obs.diffrun import append_history_entry


class TestMath:
    def test_geomean(self):
        assert simspeed.geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert simspeed.geomean([]) == 0.0
        assert simspeed.geomean([0.0, 4.0]) == pytest.approx(4.0)

    def test_pair_speedups_skips_unknown_pairs(self):
        current = {"BIG/mcf": 200.0, "BIG/new": 100.0}
        baseline = {"BIG/mcf": 100.0}
        assert simspeed.pair_speedups(current, baseline) == {
            "BIG/mcf": 2.0}

    def test_family_speedups_are_harmonic(self):
        # 1x on a 100-insts/s benchmark and 3x on an equally-sized
        # slow one: total-time aggregation, not the 2.0 arithmetic
        # mean of the ratios.
        current = {"BIG/fast": 100.0, "BIG/slow": 300.0}
        baseline = {"BIG/fast": 100.0, "BIG/slow": 100.0}
        expected = (1 / 100 + 1 / 100) / (1 / 100 + 1 / 300)
        got = simspeed.family_speedups(current, baseline)
        assert got == {"BIG": pytest.approx(expected)}

    def test_costs_vs_big_are_harmonic_per_family(self):
        # HALF+FX takes 1/100 + 1/300 s per instruction pair where BIG
        # takes 1/200 + 1/200: total time over total time, not a mean
        # of per-benchmark ratios.
        rates = {"BIG/fast": 200.0, "BIG/slow": 200.0,
                 "HALF+FX/fast": 100.0, "HALF+FX/slow": 300.0,
                 "LITTLE/fast": 400.0}
        got = simspeed.costs_vs_big(rates)
        assert got["BIG"] == pytest.approx(1.0)
        assert got["HALF+FX"] == pytest.approx(
            (1 / 100 + 1 / 300) / (1 / 200 + 1 / 200))
        # Only the benchmarks both families ran are compared.
        assert got["LITTLE"] == pytest.approx(0.5)
        assert "CA" not in got
        # The inverse of family_speedups against BIG's rates.
        speedups = simspeed.family_speedups(
            {"HALF+FX/fast": 100.0, "HALF+FX/slow": 300.0},
            {"HALF+FX/fast": 200.0, "HALF+FX/slow": 200.0})
        assert got["HALF+FX"] == pytest.approx(1 / speedups["HALF+FX"])

    def test_costs_vs_big_without_big_is_empty(self):
        assert simspeed.costs_vs_big({"HALF+FX/mcf": 100.0}) == {}

    def test_family_speedups_benchmark_filter(self):
        current = {"BIG/mcf": 300.0, "BIG/hmmer": 100.0}
        baseline = {"BIG/mcf": 100.0, "BIG/hmmer": 100.0}
        got = simspeed.family_speedups(current, baseline,
                                       benchmarks=("mcf",))
        assert got == {"BIG": pytest.approx(3.0)}


class TestEntry:
    def test_build_entry_and_history_roundtrip(self, tmp_path):
        pairs = {f"{m}/{b}": 100.0
                 for m in simspeed.SUITE_MODELS
                 for b in simspeed.SUITE_BENCHMARKS}
        baseline = {pair: 50.0 for pair in pairs}
        entry = simspeed.build_entry(
            pairs, baseline, "pinned", measure=1000, warmup=100,
            rounds=2, wall_seconds=1.5)
        assert entry["geomean_speedup"] == pytest.approx(2.0)
        assert entry["guard_geomean_speedup"] == pytest.approx(2.0)
        assert entry["guard_benchmarks"] == list(
            simspeed.GUARD_BENCHMARKS)
        assert set(entry["family_speedups"]) == set(
            simspeed.SUITE_MODELS)
        assert entry["cost_vs_big"] == {
            model: pytest.approx(1.0) for model in simspeed.SUITE_MODELS}
        path = tmp_path / "BENCH_simspeed.json"
        append_history_entry(entry, str(path))
        append_history_entry(entry, str(path))
        history = json.loads(path.read_text())
        assert len(history["entries"]) == 2
        assert history["entries"][0] == entry

    def test_pinned_rates_cover_the_suite(self):
        for model in simspeed.SUITE_MODELS:
            for bench in simspeed.SUITE_BENCHMARKS:
                assert simspeed.SEED_RATES[f"{model}/{bench}"] > 0

    def test_report_formats(self):
        pairs = {"BIG/mcf": 200.0, "HALF+FX/mcf": 160.0}
        entry = simspeed.build_entry(
            pairs, {"BIG/mcf": 100.0, "HALF+FX/mcf": 100.0},
            "pinned", 1000, 100, 1, 0.1)
        assert entry["cost_vs_big"] == {"BIG": 1.0, "HALF+FX": 1.25}
        text = simspeed.format_report(entry)
        assert "BIG/mcf" in text and "2.00x" in text
        assert ("host time per instruction vs BIG: BIG 1.00x  "
                "HALF+FX 1.25x") in text


class TestCLI:
    def test_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            simspeed.main(["--measure", "0"])
        with pytest.raises(SystemExit):
            simspeed.main(["--guard", "-1"])


class TestMeasureScript:
    def test_every_timed_call_runs_one_functional_warmup(
            self, monkeypatch):
        """The protocol times warm-up plus simulation: the warmed states
        the trace memo keeps must not let a timed round skip warm-up,
        which would inflate this tree's rate against the seed tree's."""
        monkeypatch.setattr(runner, "_TRACE_MEMO", {})
        out = io.StringIO()
        warmups = []  # timed rounds finished when each warm-up ran
        functional_warmup = runner.functional_warmup

        def counting(core, trace):
            warmups.append(out.getvalue().count("\n"))
            functional_warmup(core, trace)

        monkeypatch.setattr(runner, "functional_warmup", counting)
        pairs = [["BIG", "hmmer"], ["HALF", "hmmer"], ["BIG", "lbm"]]
        spec = {"pairs": pairs, "measure": 200, "warmup": 300}
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            json.dumps(spec) + "\ngo\ngo\n"))
        monkeypatch.setattr(sys, "stdout", out)
        exec(simspeed._MEASURE_SCRIPT, {"__name__": "simspeed_probe"})
        rounds = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [sorted(r) for r in rounds] == [
            ["BIG/hmmer", "BIG/lbm", "HALF/hmmer"]] * 2
        # One warm-up per memoised trace before timing starts, then one
        # per timed call in each round.
        assert [warmups.count(done) for done in range(3)] == [
            2 + 3, 3, 0]
