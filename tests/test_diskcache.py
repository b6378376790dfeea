"""Tests for the persistent on-disk result cache and its fingerprints."""

import json
from dataclasses import replace

import pytest

from repro.core import model_config
from repro.experiments.diskcache import DiskCache, fingerprint
from repro.experiments.pool import SimJob
from repro.experiments.runner import (
    BenchmarkRun,
    clear_cache,
    run_benchmark,
    set_disk_cache,
)

SMALL = dict(measure=600, warmup=1500)


@pytest.fixture
def cache(tmp_path):
    disk = DiskCache(tmp_path / "cache")
    set_disk_cache(disk)
    clear_cache()
    yield disk
    set_disk_cache(None)
    clear_cache()


def _params(config):
    return (config, "hmmer", SMALL["measure"], SMALL["warmup"], 0)


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        assert fingerprint(*_params(model_config("BIG"))) == fingerprint(
            *_params(model_config("BIG"))
        )

    def test_differs_across_run_parameters(self):
        base = fingerprint(model_config("BIG"), "hmmer", 600, 1500, 0)
        assert base != fingerprint(model_config("BIG"), "lbm", 600, 1500, 0)
        assert base != fingerprint(model_config("BIG"), "hmmer", 601, 1500, 0)
        assert base != fingerprint(model_config("BIG"), "hmmer", 600, 1501, 0)
        assert base != fingerprint(model_config("BIG"), "hmmer", 600, 1500, 1)

    @pytest.mark.parametrize("change", [
        # Regression: these fields were once missing from the memo key,
        # so configs differing only here could alias to one cached run.
        dict(lq_entries=16),
        dict(sq_entries=16),
        dict(int_prf_entries=64),
        dict(fp_prf_entries=48),
        dict(pht_entries=1024),
        dict(btb_entries=128),
    ])
    def test_every_config_field_participates(self, change):
        big = model_config("BIG")
        altered = replace(big, **change)
        assert fingerprint(*_params(big)) != fingerprint(*_params(altered))

    def test_hierarchy_participates(self):
        big = model_config("BIG")
        altered = replace(
            big, hierarchy=replace(big.hierarchy,
                                   l1d_kb=big.hierarchy.l1d_kb * 2)
        )
        assert fingerprint(*_params(big)) != fingerprint(*_params(altered))


class TestDiskCache:
    def test_miss_then_hit(self, cache):
        big = model_config("BIG")
        assert cache.load(SimJob(*_params(big))) is None
        assert cache.misses == 1
        run = run_benchmark(big, "hmmer", **SMALL)
        assert cache.stores == 1
        loaded = cache.load(SimJob(*_params(big)))
        assert cache.hits == 1
        assert loaded.to_dict() == run.to_dict()

    def test_survives_memory_cache_clear(self, cache):
        big = model_config("BIG")
        first = run_benchmark(big, "hmmer", **SMALL)
        clear_cache()
        second = run_benchmark(big, "hmmer", **SMALL)
        assert second is not first
        assert second.to_dict() == first.to_dict()
        assert cache.hits == 1
        assert cache.stores == 1  # the disk hit is not re-stored

    def test_config_change_is_a_miss(self, cache):
        big = model_config("BIG")
        run_benchmark(big, "hmmer", **SMALL)
        altered = replace(big, lq_entries=big.lq_entries // 2)
        assert cache.load(SimJob(*_params(altered))) is None

    def test_corrupt_entry_is_dropped(self, cache):
        big = model_config("BIG")
        run_benchmark(big, "hmmer", **SMALL)
        entry = next(cache.root.glob("*/*.json"))
        entry.write_text("{ torn json")
        assert cache.load(SimJob(*_params(big))) is None
        assert not entry.exists()

    def test_clear_and_len(self, cache):
        run_benchmark(model_config("BIG"), "hmmer", **SMALL)
        run_benchmark(model_config("HALF"), "hmmer", **SMALL)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestRoundTrip:
    def test_benchmark_run_round_trips_through_json(self, cache):
        run = run_benchmark(model_config("HALF+FX"), "hmmer", **SMALL)
        payload = json.loads(json.dumps(run.to_dict()))
        restored = BenchmarkRun.from_dict(payload)
        assert restored.to_dict() == run.to_dict()
        assert restored.ipc == run.ipc
        assert restored.total_energy == run.total_energy
        assert restored.stats.events.cycles == run.stats.events.cycles
        assert restored.stats.ixu_by_stage == run.stats.ixu_by_stage
