"""Tests for run manifests (provenance records)."""

import dataclasses
import json
import os
from datetime import datetime
from types import SimpleNamespace

import pytest

from repro.core import MODEL_NAMES
from repro.experiments import runner
from repro.experiments.cli import main as cli_main
from repro.experiments.diskcache import DiskCache
from repro.experiments.pool import FaultSpec, set_fault_injector
from repro.obs import (
    JobRecord,
    RunManifest,
    aggregate_entry,
    host_info,
    manifest_path_for,
)
from repro.obs.diffrun import main as repro_exp_main
from repro.serve.client import ServeClient
from repro.serve.server import start_in_background


def sample_manifest():
    return RunManifest(
        command=["headline", "--jobs", "2"],
        experiments=["headline"],
        benchmarks=["hmmer", "lbm"],
        measure=500,
        warmup=2000,
        code_version="abc123",
        repro_version="1.0.0",
        started_at="2026-01-01T00:00:00+0000",
        finished_at="2026-01-01T00:01:00+0000",
        wall_seconds=60.0,
        workers=2,
        jobs_simulated=3,
        job_records=[
            JobRecord(job="BIG/hmmer", wall_seconds=2.0, worker_pid=11),
            JobRecord(job="BIG/lbm", wall_seconds=5.0, worker_pid=12),
            JobRecord(job="LITTLE/lbm", wall_seconds=1.0, worker_pid=11),
        ],
        cache={"hits": 1, "misses": 3, "stores": 3, "root": "/tmp/c"},
        outputs={"json": "out.json"},
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        manifest = sample_manifest()
        back = RunManifest.from_dict(manifest.to_dict())
        assert back == manifest

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        manifest = sample_manifest()
        manifest.write(path)
        assert RunManifest.read(path) == manifest
        # The on-disk form is plain, indented, key-sorted JSON.
        data = json.loads(path.read_text())
        assert data["cache"]["hits"] == 1
        assert data["job_records"][1]["wall_seconds"] == 5.0

    def test_unknown_keys_are_ignored(self):
        data = sample_manifest().to_dict()
        data["added_in_a_future_version"] = True
        assert RunManifest.from_dict(data) == sample_manifest()


class TestAccounting:
    def test_slowest_jobs_orders_by_wall_time(self):
        slowest = sample_manifest().slowest_jobs(2)
        assert [r.job for r in slowest] == ["BIG/lbm", "BIG/hmmer"]

    def test_host_info_shape(self):
        info = host_info()
        assert set(info) == {"hostname", "platform", "python",
                             "cpu_count"}
        assert info["cpu_count"] >= 1

    def test_job_record_started_ts_round_trips(self):
        record = JobRecord(job="BIG/hmmer", wall_seconds=2.0,
                           worker_pid=11, started_ts=1722844800.25)
        assert JobRecord.from_dict(record.to_dict()) == record
        # Old manifests predate the field; it defaults to 0.
        legacy = dict(record.to_dict())
        del legacy["started_ts"]
        assert JobRecord.from_dict(legacy).started_ts == 0.0

    def test_aggregates_round_trip(self, tmp_path):
        manifest = sample_manifest()
        manifest.aggregates = [{
            "model": "HALF+FX", "benchmark": "hmmer", "ipc": 1.5,
            "cycles": 10000, "committed": 15000,
            "energy_total": 3.0e5, "energy_per_instruction": 20.0,
            "stalls": {"dcache_miss": 600},
            "wall_seconds": 0.5, "insts_per_second": 30000.0,
        }]
        path = tmp_path / "run.manifest.json"
        manifest.write(path)
        back = RunManifest.read(path)
        assert back.aggregates == manifest.aggregates

    def test_old_manifest_without_new_fields_loads(self):
        data = sample_manifest().to_dict()
        del data["aggregates"]
        del data["host"]
        manifest = RunManifest.from_dict(data)
        assert manifest.aggregates == []
        assert manifest.host == host_info()


class TestAtomicWrite:
    def test_failed_write_leaves_existing_manifest_intact(self,
                                                          tmp_path):
        # Regression for the torn-manifest bug: write used to stream
        # straight into the destination, so a crash mid-serialisation
        # left a reader-visible half-written file.  Now the tmp +
        # os.replace publication means a failed write changes nothing.
        path = tmp_path / "run.manifest.json"
        good = sample_manifest()
        good.write(path)
        before = path.read_bytes()
        bad = sample_manifest()
        bad.outputs = {"oops": object()}  # not JSON-serialisable
        with pytest.raises(TypeError):
            bad.write(path)
        assert path.read_bytes() == before
        assert RunManifest.read(path) == good

    def test_failed_write_leaves_no_tmp_litter(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        bad = sample_manifest()
        bad.outputs = {"oops": object()}
        with pytest.raises(TypeError):
            bad.write(path)
        assert list(tmp_path.iterdir()) == []

    def test_tmp_names_are_collision_free(self, tmp_path):
        # Shared-filesystem safety: two processes on different hosts
        # can share a pid, so the tmp suffix carries hostname + pid +
        # a per-process monotonic counter.
        from repro.atomicio import tmp_path_for

        names = {tmp_path_for(tmp_path / "x.json") for _ in range(100)}
        assert len(names) == 100
        name = names.pop()
        assert str(os.getpid()) in name

    def test_aggregate_entry_matches_manifest_schema(self):
        # The helper shared by the CLI sweep and the job server must
        # emit exactly the documented aggregate keys.
        run = SimpleNamespace(
            model="BIG", benchmark="hmmer", ipc=1.5,
            stats=SimpleNamespace(cycles=10_000, committed=15_000,
                                  stalls={"iq_full": 3}),
            total_energy=3.0e5,
            energy=SimpleNamespace(energy_per_instruction=20.0))
        entry = aggregate_entry(run, wall_seconds=0.5)
        assert set(entry) == {
            "model", "benchmark", "ipc", "cycles", "committed",
            "energy_total", "energy_per_instruction", "stalls",
            "wall_seconds", "insts_per_second", "ff_skipped_cycles",
            "topdown"}
        assert entry["insts_per_second"] == 30_000.0
        assert aggregate_entry(run)["insts_per_second"] == 0.0


class TestPathHelper:
    def test_json_suffix_is_replaced(self):
        assert (manifest_path_for("results/out.json")
                == "results/out.manifest.json")

    def test_other_suffixes_are_appended(self):
        assert manifest_path_for("out.dat") == "out.dat.manifest.json"


class TestJobCounts:
    """``jobs_simulated`` counts the jobs a run simulated to success and
    ``jobs_failed`` the distinct jobs it answered as failed, a failure
    record replayed from the cache included, in every producer.

    The probe: the five models (the DSE: the ten smoke-space configs)
    on hmmer and lbm with every lbm job crashing, run cold and then
    warm on one cache directory.  Each producer returns the two
    manifests and, when it is a server, its ``/v1/status`` after both
    batches."""

    PROBE = {"measure": 300, "warmup": 600}
    #: (jobs_simulated, jobs_failed) of each producer's cold run.
    COLD = {"cli": (5, 5), "serve": (5, 5), "dse": (10, 10)}

    def _cli(self, tmp_path):
        manifests = []
        for run in ("cold", "warm"):
            runner.clear_cache()  # as a new process: only the disk cache
            path = tmp_path / f"{run}.manifest.json"
            assert cli_main([
                "figure7", "--benchmarks", "hmmer", "lbm",
                "--measure", "300", "--warmup", "600",
                "--cache-dir", str(tmp_path / "cache"),
                "--inject-fault", "crash:lbm",
                "--manifest", str(path)]) == 0
            manifests.append(json.loads(path.read_text()))
        runner.clear_cache()
        return manifests, None

    def _dse(self, tmp_path):
        manifests = []
        for run in ("cold", "warm"):
            runner.clear_cache()
            path = tmp_path / f"{run}.manifest.json"
            # One rung at the probe's interval: 300 measured
            # instructions after a warm-up of 2 x 300.
            assert repro_exp_main([
                "dse", "--space", "smoke", "--benchmarks", "hmmer", "lbm",
                "--budget", "300", "--rungs", "1", "--warmup-factor", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--inject-fault", "crash:lbm",
                "--out", str(tmp_path / f"{run}.json"),
                "--manifest", str(path)]) == 0
            manifests.append(json.loads(path.read_text()))
        runner.clear_cache()
        return manifests, None

    def _serve(self, tmp_path):
        batch = {"jobs": [
            {"benchmark": bench, "model": model, **self.PROBE}
            for model in MODEL_NAMES for bench in ("hmmer", "lbm")]}
        set_fault_injector(FaultSpec("crash", "lbm"))
        try:
            server, stop = start_in_background(
                cache=DiskCache(tmp_path / "cache"), workers=1)
            try:
                client = ServeClient(server.host, server.port, timeout=300)
                manifests = [client.run_batch(batch)[-1]["manifest"]
                             for _ in ("cold", "warm")]
                return manifests, client.status()
            finally:
                stop()
        finally:
            set_fault_injector(None)

    @pytest.mark.parametrize("producer", ["cli", "serve", "dse"])
    def test_counts_cold_and_warm(self, tmp_path, producer):
        (cold, warm), status = getattr(self, f"_{producer}")(tmp_path)
        simulated, failed = self.COLD[producer]
        assert (cold["jobs_simulated"], cold["jobs_failed"]) == (
            simulated, failed)
        assert (warm["jobs_simulated"], warm["jobs_failed"]) == (0, failed)
        if status is not None:
            # /v1/status counts successful answers by source and every
            # failed answer, replayed ones included, as quarantined.
            metrics = status["metrics"]
            assert (metrics["serve.jobs_simulated"],
                    metrics["serve.jobs_cache"],
                    metrics["serve.jobs_quarantined"]) == (5, 5, 10)
            assert "serve.jobs_quarantine" not in metrics

    def test_counts_cover_one_invocation(self, tmp_path):
        # A second run in the same process, without the fault and the
        # cache, simulates lbm again instead of counting the first
        # run's failures.
        runner.clear_cache()
        manifests = []
        for fault in (["--inject-fault", "crash:lbm"], []):
            path = tmp_path / f"run{len(manifests)}.manifest.json"
            assert cli_main([
                "figure7", "--benchmarks", "hmmer", "lbm",
                "--measure", "300", "--warmup", "600", "--no-cache",
                "--manifest", str(path)] + fault) == 0
            manifests.append(json.loads(path.read_text()))
        runner.clear_cache()
        first, second = manifests
        assert (first["jobs_simulated"], first["jobs_failed"]) == (5, 5)
        assert (second["jobs_simulated"], second["jobs_failed"]) == (5, 0)

    def test_every_producer_builds_one_record(self, tmp_path):
        # One builder: the same keys, timestamp format, versions,
        # worker count, fault-policy keys and cache keys everywhere.
        manifests = [
            manifest
            for producer in ("cli", "serve", "dse")
            for manifest in getattr(self, f"_{producer}")(
                tmp_path / producer)[0]]
        fields = {field.name for field in dataclasses.fields(RunManifest)}
        for manifest in manifests:
            assert set(manifest) == fields
            for stamp in (manifest["started_at"], manifest["finished_at"]):
                # Local time with its UTC offset, to the second.
                datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%S%z")
        for key in ("code_version", "repro_version", "workers"):
            assert len({manifest[key] for manifest in manifests}) == 1
        for key in ("fault_policy", "cache"):
            assert len({frozenset(manifest[key])
                        for manifest in manifests}) == 1
