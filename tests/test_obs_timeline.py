"""Tests for interval timeline telemetry (repro.obs.timeline)."""

import pytest

from repro import build_core, generate_trace
from repro.core import model_config
from repro.core.stats import EventCounts
from repro.energy import EnergyModel
from repro.experiments.textchart import sparkline
from repro.obs import Observability, TimelineCollector
from repro.obs.stall import STALL_CAUSES
from repro.obs.timeline import (
    IntervalSample,
    detect_phases,
    dominant_stall,
    format_timeline_report,
)

MODELS = ("LITTLE", "HALF", "HALF+FX", "CA")
INSTS = 3000


def observed_run(model, insts=INSTS, interval=500, benchmark="hmmer",
                 metrics=False, stalls=False):
    collector = TimelineCollector(interval=interval)
    obs = Observability(metrics=metrics, stalls=stalls,
                        timeline=collector)
    core = build_core(model, obs=obs)
    stats = core.run(generate_trace(benchmark, insts))
    collector.benchmark = benchmark
    return collector, stats


class TestSampling:
    @pytest.mark.parametrize("model", MODELS)
    def test_samples_partition_the_run(self, model):
        """Interval commits sum exactly to the run's committed count
        and intervals tile the cycle axis without gaps or overlaps."""
        collector, stats = observed_run(model)
        samples = collector.samples
        assert samples
        assert sum(s.committed for s in samples) == stats.committed
        assert samples[0].start_cycle == 0
        for before, after in zip(samples, samples[1:]):
            assert before.end_cycle == after.start_cycle
        for index, sample in enumerate(samples):
            assert sample.index == index
            assert sample.cycles == sample.end_cycle - sample.start_cycle
        # Every full interval holds exactly `interval` commits (the
        # final partial one holds the remainder).
        for sample in samples[:-1]:
            assert sample.committed >= collector.interval

    @pytest.mark.parametrize("model", MODELS)
    def test_cycles_and_stalls_match_stats(self, model):
        """Samples cover every cycle of the run, the in-order drain
        tail included, and every stall cycle the stall table charges."""
        collector, stats = observed_run(model, stalls=True)
        assert sum(s.cycles for s in collector.samples) == stats.cycles
        assert sum(sum(s.stalls.values()) for s in collector.samples) \
            == stats.stall_cycles

    def test_stalls_cover_every_zero_commit_cycle(self):
        """Per-interval stall cycles account for every cycle in which
        nothing committed, with causes from the fixed taxonomy."""
        collector, stats = observed_run("HALF")
        for sample in collector.samples:
            assert set(sample.stalls) <= set(STALL_CAUSES)
            commit_cycles = sample.cycles - sum(sample.stalls.values())
            assert 0 < commit_cycles <= sample.cycles
            assert sample.committed >= commit_cycles

    def test_occupancy_tracks_match_core_shape(self):
        ooo, _ = observed_run("HALF")
        assert set(ooo.samples[0].occupancy) == {"iq", "rob", "lq", "sq"}
        inorder, _ = observed_run("LITTLE")
        assert set(inorder.samples[0].occupancy) == {"frontend_queue"}
        for sample in ooo.samples:
            config = model_config("HALF")
            assert 0 <= sample.occupancy["iq"] <= config.iq_entries
            assert 0 <= sample.occupancy["rob"] <= config.rob_entries

    def test_ixu_coverage_only_on_fxa(self):
        fxa, fxa_stats = observed_run("HALF+FX")
        assert sum(s.ixu_executed for s in fxa.samples) == \
            fxa_stats.ixu_executed
        assert any(s.ixu_coverage > 0 for s in fxa.samples)
        plain, _ = observed_run("HALF")
        assert all(s.ixu_executed == 0 for s in plain.samples)

    def test_energy_deltas_sum_to_full_breakdown(self):
        """Pricing each interval's event delta and summing equals
        pricing the whole run — nothing double-counted or dropped."""
        for model in MODELS:
            collector, stats = observed_run(model)
            full = EnergyModel(model_config(model)).evaluate(stats)
            interval_sum = sum(s.energy_total for s in collector.samples)
            assert interval_sum == pytest.approx(full.total, rel=1e-9)

    def test_branch_and_cache_counters_sum(self):
        collector, stats = observed_run("HALF")
        assert sum(s.branches for s in collector.samples) == \
            stats.branches
        assert sum(s.mispredictions for s in collector.samples) == \
            stats.mispredictions
        assert sum(s.l1d_accesses for s in collector.samples) == \
            stats.events.l1d_accesses
        assert sum(s.l2_misses for s in collector.samples) == \
            stats.events.l2_misses

    def test_interval_one_and_large_interval(self):
        tiny, stats = observed_run("HALF", insts=200, interval=1)
        assert sum(s.committed for s in tiny.samples) == stats.committed
        huge, stats = observed_run("HALF", insts=200, interval=10**6)
        assert len(huge.samples) == 1  # one final partial sample
        assert huge.samples[0].committed == stats.committed

    def test_collector_is_single_use(self):
        collector, _ = observed_run("HALF", insts=200)
        with pytest.raises(RuntimeError, match="exactly one core run"):
            Observability(metrics=False, stalls=False,
                          timeline=collector).attach(
                build_core("HALF"))

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TimelineCollector(interval=0)


class TestBitIdentity:
    @pytest.mark.parametrize("model", MODELS)
    def test_timeline_does_not_perturb_results(self, model):
        """A timeline-observed run's CoreStats round-trips bit-identical
        to an unobserved run of the same trace."""
        trace = generate_trace("hmmer", INSTS)
        baseline = build_core(model).run(list(trace)).to_dict()
        obs = Observability(metrics=False, stalls=False,
                            timeline=TimelineCollector(interval=250))
        observed = build_core(model, obs=obs).run(list(trace)).to_dict()
        # Observed runs legitimately differ only in the stall dict when
        # stalls are enabled; here they are off, so nothing may differ.
        assert observed == baseline

    def test_timeline_composes_with_other_collectors(self):
        """Timeline + stalls + metrics in one bundle: samples appear
        and the stall attribution still sums to zero-commit cycles."""
        collector, stats = observed_run("HALF+FX", metrics=True,
                                        stalls=True)
        assert collector.samples
        assert stats.stalls
        assert sum(stats.stalls.values()) > 0
        timeline_stalls = sum(
            sum(s.stalls.values()) for s in collector.samples)
        assert timeline_stalls == sum(stats.stalls.values())

    def test_samples_deterministic_across_runs(self):
        one, _ = observed_run("HALF+FX")
        two, _ = observed_run("HALF+FX")
        assert [s.to_dict() for s in one.samples] == \
            [s.to_dict() for s in two.samples]


class TestRoundTrip:
    def test_sample_and_collector_round_trip(self):
        collector, _ = observed_run("HALF", insts=600)
        data = collector.to_dict()
        back = TimelineCollector.from_dict(data)
        assert back.model == collector.model
        assert back.interval == collector.interval
        assert [s.to_dict() for s in back.samples] == \
            [s.to_dict() for s in collector.samples]

    def test_sample_properties(self):
        sample = IntervalSample(cycles=100, committed=50,
                                ixu_executed=25, branches=10,
                                mispredictions=1, l1d_accesses=20,
                                l1d_misses=5,
                                energy={"iq": 1.5, "l1d": 2.5})
        assert sample.ipc == 0.5
        assert sample.ixu_coverage == 0.5
        assert sample.branch_miss_rate == 0.1
        assert sample.l1d_miss_rate == 0.25
        assert sample.energy_total == 4.0
        assert sample.energy_per_instruction == pytest.approx(0.08)
        empty = IntervalSample()
        assert empty.ipc == empty.ixu_coverage == 0.0
        assert empty.branch_miss_rate == empty.l2_miss_rate == 0.0


class TestPhases:
    def _sample(self, ipc, stall_cause=None, stall_cycles=0):
        cycles = 1000
        return IntervalSample(
            cycles=cycles, committed=int(ipc * cycles),
            stalls={stall_cause: stall_cycles} if stall_cause else {})

    def test_detects_a_behaviour_break(self):
        samples = ([self._sample(0.2, "dcache_miss", 700)] * 6
                   + [self._sample(1.8)] * 6)
        starts = detect_phases(samples, window=3, threshold=0.25)
        assert starts[0] == 0
        assert 6 in starts

    def test_stable_run_is_one_phase(self):
        samples = [self._sample(1.0)] * 10
        assert detect_phases(samples) == [0]

    def test_empty_and_validation(self):
        assert detect_phases([]) == []
        with pytest.raises(ValueError):
            detect_phases([self._sample(1.0)], window=0)

    def test_dominant_stall(self):
        samples = [self._sample(0.5, "iq_full", 100),
                   self._sample(0.5, "dcache_miss", 300)]
        assert dominant_stall(samples) == "dcache_miss"
        assert dominant_stall([self._sample(1.0)]) == "-"

    def test_report_renders(self):
        collector, _ = observed_run("HALF+FX", insts=1500, interval=250)
        text = format_timeline_report([collector])
        assert "HALF+FX/hmmer" in text
        assert "IPC" in text and "pJ/in" in text
        assert "phase 1:" in text
        assert "dominant stall" in text


class TestSparkline:
    def test_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▅▅▅"
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_bucketing_long_series(self):
        line = sparkline(list(range(600)), width=60)
        assert len(line) == 60
        assert line[0] == "▁" and line[-1] == "█"


class TestEventDelta:
    def test_delta_is_fieldwise_subtraction(self):
        before = EventCounts(cycles=10, fetched=5, wrongpath_ops=1.5)
        after = EventCounts(cycles=25, fetched=9, wrongpath_ops=4.0)
        diff = after.delta(before)
        assert diff.cycles == 15
        assert diff.fetched == 4
        assert diff.wrongpath_ops == 2.5
        assert diff.l2_misses == 0

    @pytest.mark.parametrize("model", MODELS)
    def test_snapshot_events_fresh_and_repeatable(self, model):
        """snapshot_events builds a fresh object each call — calling it
        twice must not double-count (the clustered core's FU merge is
        the hazard)."""
        core = build_core(model)
        core.run(generate_trace("hmmer", 400))
        first = core.snapshot_events()
        second = core.snapshot_events()
        assert first.to_dict() == second.to_dict()
        assert first is not second
        assert first.to_dict() == core.stats.events.to_dict()
