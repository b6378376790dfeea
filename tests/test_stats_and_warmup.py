"""Tests for CoreStats helpers and the functional warm-up pass."""

import dataclasses
import json

import pytest

from repro.core import CoreStats, build_core, model_config
from repro.core.stats import EventCounts
from repro.core.warmup import functional_warmup, reset_event_counters
from repro.experiments.runner import simulate
from repro.obs import Observability
from repro.workloads import generate_trace


def _asdict_reference(stats):
    """``CoreStats.to_dict`` as it was built on ``dataclasses.asdict``."""
    data = dataclasses.asdict(stats)
    data["events"] = dataclasses.asdict(stats.events)
    data["ixu_by_stage"] = {str(k): v for k, v in stats.ixu_by_stage.items()}
    return data


class TestCoreStats:
    def test_ipc(self):
        stats = CoreStats(cycles=200, committed=100)
        assert stats.ipc == 0.5
        assert CoreStats().ipc == 0.0

    def test_ixu_rate(self):
        stats = CoreStats(committed=100, ixu_executed=54)
        assert stats.ixu_executed_rate == pytest.approx(0.54)
        assert CoreStats().ixu_executed_rate == 0.0

    def test_misprediction_rate(self):
        stats = CoreStats(branches=50, mispredictions=5)
        assert stats.misprediction_rate == pytest.approx(0.1)
        assert CoreStats().misprediction_rate == 0.0

    def test_summary_mentions_ixu_when_present(self):
        stats = CoreStats(model="HALF+FX", benchmark="gcc", cycles=10,
                          committed=10, ixu_executed=5)
        text = stats.summary()
        assert "HALF+FX" in text and "IXU" in text

    def test_event_counts_default_zero(self):
        events = EventCounts()
        assert events.iq_dispatches == 0
        assert events.wrongpath_ops == 0.0

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["unobserved", "observed"])
    def test_to_dict_matches_asdict(self, observed):
        """Same keys, order, values and JSON as ``asdict``, and a copy:
        mutating the dict leaves the record as it was."""
        obs = Observability() if observed else None
        stats = simulate(model_config("HALF+FX"), "hmmer", 600, 2000,
                         obs=obs).stats
        assert stats.ixu_by_stage
        assert bool(stats.stalls) == bool(stats.metrics) == observed
        reference = _asdict_reference(stats)
        data = stats.to_dict()
        assert data == reference
        assert json.dumps(data) == json.dumps(reference)
        assert list(data["events"]) == list(reference["events"])
        assert stats.events.to_dict() == reference["events"]
        data["ixu_by_stage"]["1"] = -1
        data["events"]["cycles"] = -1
        for name in ("stalls", "metrics"):
            data[name]["planted"] = -1
        if observed:
            counters = data["metrics"]["counters"]
            counters[next(iter(counters))] = -1
        assert _asdict_reference(stats) == reference


class TestFunctionalWarmup:
    def test_counters_reset_after_warmup(self):
        core = build_core("BIG")
        functional_warmup(core, generate_trace("gcc", 5000))
        assert core.predictor.lookups == 0
        assert core.predictor.mispredictions == 0
        assert core.hierarchy.l1d.stats.accesses == 0
        assert core.hierarchy.mem_accesses == 0

    def test_all_hierarchy_event_counters_zero_after_warmup(self):
        # Regression: ``prefetches`` was once left out of the reset, so
        # warm-up-issued prefetches leaked into the measured interval
        # and inflated the energy model's prefetch traffic.
        core = build_core("BIG")
        trace = generate_trace("lbm", 5000)  # memory-heavy: prefetches
        hierarchy = core.hierarchy
        # The warm-up must actually have perturbed what it claims to
        # reset, or the assertions below are vacuous.
        for inst in trace:
            if inst.is_load:
                hierarchy.load(inst.mem_addr)
        assert hierarchy.prefetches > 0
        functional_warmup(core, trace)
        assert hierarchy.prefetches == 0
        assert hierarchy.mem_accesses == 0
        for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
            assert cache.stats.accesses == 0
            assert cache.stats.misses == 0
            assert cache.stats.writebacks == 0

    def test_warmup_trains_predictor(self):
        trace = generate_trace("hmmer", 6000)
        cold = build_core("BIG")
        cold_stats = cold.run(trace)

        warm = build_core("BIG")
        functional_warmup(warm, trace)
        warm_stats = warm.run(trace)
        assert warm_stats.mispredictions <= cold_stats.mispredictions
        assert warm_stats.cycles <= cold_stats.cycles

    def test_warmup_fills_caches(self):
        trace = generate_trace("hmmer", 6000)
        core = build_core("BIG")
        functional_warmup(core, trace)
        stats = core.run(trace)
        # Re-running the same footprint after warm-up: high hit rates.
        events = stats.events
        assert events.l1d_misses < 0.3 * max(1, events.l1d_accesses)

    def test_warmup_works_on_all_models(self):
        trace = generate_trace("gcc", 3000)
        for model in ("BIG", "LITTLE", "HALF+FX"):
            core = build_core(model)
            functional_warmup(core, trace)
            stats = core.run(trace)
            assert stats.committed == 3000

    def test_reset_event_counters_standalone(self):
        core = build_core("BIG")
        core.hierarchy.load(0x1000)
        core.predictor.lookups = 5
        reset_event_counters(core)
        assert core.hierarchy.l1d.stats.accesses == 0
        assert core.predictor.lookups == 0
