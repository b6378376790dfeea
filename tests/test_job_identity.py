"""One identity per job: ``SimJob.digest`` keys the disk cache, stream
events and spool entries, and is computed once per job in each process.

The count tests wrap :func:`repro.experiments.diskcache.fingerprint`,
the one function that computes a digest, wherever a module holds it, so
a call through any imported name is counted too.
"""

import os
import sys
import threading
import time

import pytest

from repro.core import model_config
from repro.experiments import diskcache, runner
from repro.experiments.diskcache import DiskCache, fingerprint
from repro.experiments.dse import apply_overrides
from repro.experiments.pool import (
    FaultSpec,
    JobFailure,
    SimJob,
    set_fault_injector,
)
from repro.experiments.runner import JobFailedError, SweepSettings, run_sweep
from repro.serve.client import ServeClient
from repro.serve.protocol import parse_job
from repro.serve.server import start_in_background
from repro.serve.spool import Spool, run_worker

TINY = {"measure": 150, "warmup": 150}

#: Digests of the parent commit's ``fingerprint()`` under the code
#: version below; the fingerprint format must never move.
CODE_VERSION = "0123456789abcdef"
GOLDEN = [
    (("BIG", None), "hmmer", 600, 1500, 0,
     "b5ea4c4e1535bf0622c394633a0a432959c753a943d4aad0fdbbc1e0db1346be"),
    (("HALF+FX", None), "mcf", 8000, 30000, 3,
     "4e67ae700f719ed2fa0f8d2d7463e7bf74f171bea630c2607bd66aa1739bfb6e"),
    (("CA", None), "lbm", 1250, 312, 1,
     "666f7e34ca257066f05e21c3e3bce9b7e38e41cbf9389f9e7ae4839e80f11a7e"),
    (("HALF+FX", {"iq_entries": 16, "hierarchy.l2_kb": 256}), "gcc",
     400, 800, 0,
     "711c88baa6c740cbe4f92f10c7428cb05487d600db8084616ffb539ce4450e64"),
]


def _config(model, overrides):
    base = model_config(model)
    if overrides is None:
        return base
    return apply_overrides(base, overrides, f"serve/{model}")


@pytest.fixture(autouse=True)
def _clean_state():
    runner.clear_cache()
    runner.pop_job_records()
    yield
    set_fault_injector(None)
    runner.clear_cache()
    runner.pop_job_records()


@pytest.fixture
def fingerprints(monkeypatch, tmp_path):
    """Count digest computations: one ``pid benchmark`` line per call,
    appended to a file so that forked pool workers report theirs too."""
    log = tmp_path / "fingerprints.log"
    original = diskcache.fingerprint

    def counting(config, benchmark, measure, warmup, seed):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {benchmark}\n".encode())
        finally:
            os.close(fd)
        return original(config, benchmark, measure, warmup, seed)

    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        if namespace.get("fingerprint") is original:
            monkeypatch.setattr(module, "fingerprint", counting)

    def calls():
        if not log.exists():
            return []
        return [line.split() for line in log.read_text().splitlines()]

    return calls


def _jobs(benches=("hmmer", "lbm"), models=("LITTLE", "BIG")):
    return [SimJob(model_config(model), bench, **TINY)
            for model in models for bench in benches]


class TestDigest:
    @pytest.mark.parametrize("case", GOLDEN, ids=[
        "BIG", "HALF+FX", "CA", "HALF+FX-overrides"])
    def test_pinned_golden(self, monkeypatch, case):
        monkeypatch.setattr(diskcache, "code_version",
                            lambda: CODE_VERSION)
        (model, overrides), bench, measure, warmup, seed, digest = case
        job = SimJob(_config(model, overrides), bench, measure, warmup,
                     seed)
        assert job.digest == digest
        assert fingerprint(job.config, bench, measure, warmup,
                           seed) == digest

    def test_digest_is_not_part_of_equality(self):
        job = _jobs()[0]
        twin = SimJob(job.config, job.benchmark, job.measure, job.warmup)
        assert job.digest  # computed on one side only
        assert job == twin and hash(job) == hash(twin)
        assert twin.digest == job.digest

    def test_in_order_fetch_override_names_one_machine(self):
        # The in-order fetch always breaks at a taken branch, so a
        # served LITTLE spec that says it does not is the same job.
        jobs = [parse_job({"benchmark": "hmmer", "model": "LITTLE",
                           "measure": 500, "warmup": 2000,
                           "overrides": {"fetch_breaks_on_taken": value}})
                .sim_job() for value in (False, True)]
        assert jobs[0].digest == jobs[1].digest
        stats = [runner.simulate(job.config, job.benchmark, job.measure,
                                 job.warmup).stats for job in jobs]
        assert stats[0] == stats[1]


class TestOneFingerprintPerJob:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_sweep_computes_one_per_job(self, tmp_path,
                                             fingerprints, workers):
        jobs = _jobs()
        outcomes = run_sweep(jobs + jobs[:1], workers=workers,
                             cache=DiskCache(tmp_path / "cache"))
        assert [o.source for o in outcomes] == ["simulated"] * 5
        calls = fingerprints()
        assert len(calls) == len(jobs)
        # The digest travels with the job over the pool's pipes: the
        # workers compute none.
        assert {pid for pid, _ in calls} == {str(os.getpid())}

    def test_warm_sweep_shares_duplicate_outcomes(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        jobs = _jobs()
        run_sweep(jobs, cache=cache)
        outcomes = run_sweep(jobs + jobs, cache=cache)
        assert [o.source for o in outcomes] == ["cache"] * 8
        assert outcomes[0] is outcomes[4]

    def test_served_warm_batch_computes_one_per_job(self, tmp_path,
                                                    fingerprints):
        jobs = _jobs(benches=("hmmer", "lbm", "mcf", "gcc"),
                     models=("LITTLE", "BIG", "HALF", "HALF+FX"))
        cache = DiskCache(tmp_path / "cache")
        run_sweep(jobs, cache=cache)
        before = len(fingerprints())
        batch = {"jobs": [{"model": job.config.name,
                           "benchmark": job.benchmark, **TINY}
                          for job in jobs]}
        server, stop = start_in_background(cache=cache, workers=1)
        try:
            events = ServeClient(server.host, server.port,
                                 timeout=120).run_batch(batch)
        finally:
            stop()
        assert events[-1]["by_source"] == {"cache": 16}
        assert len(fingerprints()) - before == 16

    def test_served_cold_job_computes_one(self, tmp_path, fingerprints):
        server, stop = start_in_background(
            cache=DiskCache(tmp_path / "cache"), workers=1)
        try:
            events = ServeClient(server.host, server.port,
                                 timeout=120).run_batch(
                {"jobs": [{"model": "BIG", "benchmark": "hmmer",
                           **TINY}]})
        finally:
            stop()
        assert events[-1]["by_source"] == {"simulated": 1}
        assert len(fingerprints()) == 1


class TestRunBenchmarkMiss:
    def test_miss_runs_under_the_active_fault_policy(self):
        job = SimJob(model_config("BIG"), "hmmer", **TINY)
        with runner.configured(SweepSettings(),
                               injector=FaultSpec("crash", "hmmer")):
            assert runner.run_benchmark(job.config, "hmmer", **TINY,
                                        missing_ok=True) is None
            assert [f.job for f in runner.failed_runs()] == [job]
            with pytest.raises(JobFailedError, match="injected crash"):
                runner.run_benchmark(job.config, "hmmer", **TINY)
            records = runner.pop_job_records()
        # Quarantined once: the second lookup did not re-crash the job.
        assert [record.cause for record in records] == ["exception"]


def _wait_for(predicate, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


class TestSpoolQuarantine:
    """Spool mode answers a persisted failure record as ``quarantine``
    without enqueueing; ``resume`` clears the record and the spool's
    ``failed/`` marker and requeues the job."""

    def test_replay_then_resume(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        spool = Spool(tmp_path / "spool")
        spec = {"model": "LITTLE", "benchmark": "hmmer", **TINY}
        job = parse_job(spec).sim_job()
        cache.store_failure(job, JobFailure(
            job=job, cause="exception", error="boom", attempts=2).to_dict())
        spool.enqueue(job.digest, {"job": spec})
        spool.fail(spool.claim(), {"status": "failed"})
        server, stop = start_in_background(cache=cache, spool=spool,
                                           spool_poll=0.02)
        client = ServeClient(server.host, server.port, timeout=120)
        try:
            replay = client.run_batch({"jobs": [spec]})
            event = next(e for e in replay if e["event"] == "job")
            assert (event["source"], event["status"]) == (
                "quarantine", "failed")
            assert event["failure"]["error"] == "boom"
            assert event["attempts"] == 2
            assert spool.depth()["queued"] == 0
            assert spool.state(job.digest)[0] == "failed"

            submitted = client.submit({"jobs": [spec], "resume": True})
            _wait_for(lambda: spool.state(job.digest)[0] == "queued")
            assert cache.load_failure(job) is None
            worker = threading.Thread(
                target=run_worker, args=(Spool(tmp_path / "spool"),),
                kwargs={"cache": DiskCache(tmp_path / "cache"),
                        "poll": 0.02, "max_jobs": 1}, daemon=True)
            worker.start()
            resumed = list(client.stream(submitted["batch_id"]))
            worker.join(timeout=60)
        finally:
            stop()
        assert not worker.is_alive()
        event = next(e for e in resumed if e["event"] == "job")
        assert (event["source"], event["status"]) == ("simulated", "ok")
        # Both batches read the record, as a local-mode sweep would.
        assert resumed[-1]["manifest"]["cache"]["failures_seen"] == 2
        assert cache.load(job) is not None
