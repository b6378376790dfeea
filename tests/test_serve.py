"""Tests for simulation-as-a-service (repro.serve)."""

import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core import model_config
from repro.experiments import runner
from repro.experiments.diskcache import DiskCache, fingerprint
from repro.experiments.pool import (
    FaultSpec,
    JobResult,
    SimJob,
    set_fault_injector,
)
from repro.experiments.runner import run_sweep
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    ProtocolError,
    parse_batch,
    parse_job,
)
from repro.serve.quota import (
    QuotaExceeded,
    QuotaRegistry,
    TenantPolicy,
)
from repro.serve.server import FINISHED_BATCHES_KEPT, start_in_background
from repro.serve.spool import Spool, execute_claim, run_worker

SMALL = {"measure": 600, "warmup": 1500}
SRC = str(Path(__file__).resolve().parents[1] / "src")


def job_spec(benchmark="hmmer", model="LITTLE", **extra):
    spec = {"benchmark": benchmark, "model": model, **SMALL}
    spec.update(extra)
    return spec


class TestProtocol:
    def test_parse_job_fills_defaults(self):
        spec = parse_job({"benchmark": "hmmer"})
        assert spec.model == "HALF+FX"
        assert spec.seed == 0
        assert spec.overrides == ()

    def test_unknown_job_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job key"):
            parse_job({"benchmark": "hmmer", "modle": "BIG"})

    def test_unknown_benchmark_and_model_rejected(self):
        with pytest.raises(ProtocolError, match="unknown benchmark"):
            parse_job({"benchmark": "quake3"})
        with pytest.raises(ProtocolError, match="unknown model"):
            parse_job({"benchmark": "hmmer", "model": "HUGE"})

    def test_int_fields_validated(self):
        with pytest.raises(ProtocolError, match="'measure'"):
            parse_job({"benchmark": "hmmer", "measure": "lots"})
        with pytest.raises(ProtocolError, match="'measure'"):
            parse_job({"benchmark": "hmmer", "measure": 0})
        with pytest.raises(ProtocolError, match="'seed'"):
            parse_job({"benchmark": "hmmer", "seed": True})

    def test_bad_override_key_rejected(self):
        with pytest.raises(ProtocolError):
            parse_job({"benchmark": "hmmer",
                       "overrides": {"warp_drive": 9}})

    def test_overrides_change_the_digest(self):
        plain = parse_job(job_spec())
        tweaked = parse_job(job_spec(overrides={"iq_entries": 64}))
        assert plain.sim_job().digest != tweaked.sim_job().digest
        assert tweaked.config().iq_entries == 64

    def test_digest_matches_cli_sweep_fingerprint(self):
        # No-override specs must hash to the exact fingerprint a CLI
        # sweep of the same preset produces, so the two share cache
        # entries bidirectionally.
        spec = parse_job(job_spec())
        assert spec.sim_job().digest == fingerprint(
            model_config("LITTLE"), "hmmer", SMALL["measure"],
            SMALL["warmup"], 0)

    def test_bare_job_promoted_to_batch(self):
        batch = parse_batch(job_spec())
        assert len(batch.jobs) == 1
        assert batch.tenant == "default"

    def test_batch_validation(self):
        with pytest.raises(ProtocolError, match="non-empty array"):
            parse_batch({"jobs": []})
        with pytest.raises(ProtocolError, match="unknown batch key"):
            parse_batch({"jobs": [job_spec()], "priority": 9})
        with pytest.raises(ProtocolError, match="'tenant'"):
            parse_batch({"jobs": [job_spec()], "tenant": ""})
        with pytest.raises(ProtocolError, match="'resume'"):
            parse_batch({"jobs": [job_spec()], "resume": "yes"})


class TestQuota:
    def test_admit_reserves_and_release_frees(self):
        quotas = QuotaRegistry(TenantPolicy(max_queued=4))
        quotas.admit("a", 3)
        with pytest.raises(QuotaExceeded, match="max_queued"):
            quotas.admit("a", 2)
        quotas.release("a", 3)
        quotas.admit("a", 4)

    def test_max_batch_enforced(self):
        quotas = QuotaRegistry(TenantPolicy(max_batch=2))
        with pytest.raises(QuotaExceeded, match="max_batch"):
            quotas.admit("a", 3)

    def test_tenants_are_isolated(self):
        quotas = QuotaRegistry(TenantPolicy(max_queued=2))
        quotas.admit("a", 2)
        quotas.admit("b", 2)  # b's budget is untouched by a

    def test_from_file_and_snapshot(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({
            "default": {"max_queued": 8},
            "tenants": {"ci": {"priority": 10, "max_batch": 4}},
        }))
        quotas = QuotaRegistry.from_file(path)
        assert quotas.policy("ci").priority == 10
        assert quotas.policy("ci").max_queued == 8  # inherits default
        assert quotas.policy("anon").max_queued == 8
        quotas.admit("ci", 2)
        with pytest.raises(QuotaExceeded):
            quotas.admit("ci", 5)
        snap = quotas.snapshot()
        assert snap["ci"]["active_jobs"] == 2
        assert snap["ci"]["rejected_batches"] == 1

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text('{"tenants": {"x": {"max_qeued": 4}}}')
        with pytest.raises(ValueError, match="unknown quota key"):
            QuotaRegistry.from_file(path)


class TestSpoolUnit:
    def test_enqueue_is_idempotent_per_digest(self, tmp_path):
        spool = Spool(tmp_path)
        assert spool.enqueue("d1", {"job": {}}) == "queued"
        assert spool.enqueue("d1", {"job": {}}) == "queued"
        assert spool.depth()["queued"] == 1

    def test_claim_moves_exactly_one_winner(self, tmp_path):
        spool_a = Spool(tmp_path)
        spool_b = Spool(tmp_path)
        spool_a.enqueue("d1", {"job": {"x": 1}})
        claim_a = spool_a.claim()
        claim_b = spool_b.claim()
        assert claim_a is not None and claim_a.digest == "d1"
        assert claim_b is None  # the rename already happened
        assert spool_a.state("d1")[0] == "claimed"

    def test_complete_and_fail_publish_payloads(self, tmp_path):
        spool = Spool(tmp_path)
        spool.enqueue("d1", {"job": {}})
        claim = spool.claim()
        spool.complete(claim, {"status": "ok", "answer": 42})
        state, payload = spool.state("d1")
        assert state == "done" and payload["answer"] == 42
        spool.enqueue("d2", {"job": {}})
        claim = spool.claim()
        spool.fail(claim, {"status": "failed"})
        assert spool.state("d2")[0] == "failed"
        assert spool.depth() == {"queued": 0, "claimed": 0,
                                 "done": 1, "failed": 1}

    def test_reclaim_stale_requeues_dead_workers_claims(self, tmp_path):
        spool = Spool(tmp_path)
        spool.enqueue("d1", {"job": {}})
        spool.claim()  # never completed: the "worker" died here
        assert spool.reclaim_stale(max_age_seconds=3600) == 0
        assert spool.reclaim_stale(max_age_seconds=0) == 1
        assert spool.state("d1")[0] == "queued"

    def test_claim_age_counts_from_the_claim(self, tmp_path):
        # A job that waited in the queue past the reclaim age and was
        # just claimed belongs to a live worker.
        spool = Spool(tmp_path)
        spool.enqueue("d1", {"job": {}})
        waited = time.time() - 60
        os.utime(tmp_path / "queued" / "d1.json", (waited, waited))
        spool.claim()
        assert spool.reclaim_stale(max_age_seconds=30) == 0
        assert spool.state("d1")[0] == "claimed"

    def test_forget_failure_clears_the_marker(self, tmp_path):
        spool = Spool(tmp_path)
        spool.enqueue("d1", {"job": {}})
        spool.fail(spool.claim(), {"status": "failed"})
        assert spool.forget_failure("d1") is True
        assert spool.forget_failure("d1") is False
        assert spool.state("d1") == (None, None)

    @pytest.mark.parametrize("entry", ["null", "[]", '"x"',
                                       '{"request": 5}'])
    def test_claim_quarantines_a_poison_entry(self, tmp_path, entry):
        """A queued entry that parses but holds no request object gets
        a failed marker and loses its claim; the worker goes on."""
        spool = Spool(tmp_path)
        (tmp_path / "queued" / "d1.json").write_text(entry)
        assert spool.claim() is None
        state, payload = spool.state("d1")
        assert state == "failed"
        assert payload["failure"]["error"] == "unreadable spool entry"
        assert spool.depth()["claimed"] == 0
        assert run_worker(spool, poll=0, idle_exit=0) == 0

    def test_claim_skips_an_entry_claimed_while_listing(
            self, tmp_path, monkeypatch):
        """Another worker may rename a listed entry away before this
        one reads its age; the claim moves on to the next entry."""
        spool = Spool(tmp_path)
        spool.enqueue("d1", {"job": {}})
        spool.enqueue("d2", {"job": {}})
        victim = tmp_path / "queued" / "d1.json"
        stat, exists = Path.stat, Path.exists
        probing = []

        def racing_stat(path, *args, **kwargs):
            if path == victim and not probing and os.path.isfile(victim):
                os.replace(victim, tmp_path / "claimed" / "d1.other.json")
            return stat(path, *args, **kwargs)

        def probing_exists(path, *args, **kwargs):
            probing.append(path)
            try:
                return exists(path, *args, **kwargs)
            finally:
                probing.pop()

        monkeypatch.setattr(Path, "stat", racing_stat)
        monkeypatch.setattr(Path, "exists", probing_exists)
        claim = spool.claim()
        assert claim is not None and claim.digest == "d2"

    def test_done_marker_round_trips_a_job_result(self, tmp_path):
        """A done marker carries the result's wire form, keys in the
        order markers have always had, and rehydrates to the same
        result."""
        spool = Spool(tmp_path / "spool")
        spec = parse_job(job_spec())
        job = spec.sim_job()
        spool.enqueue(job.digest, {"job": spec.to_dict()})
        payload = json.loads(json.dumps(execute_claim(
            spool.claim(), DiskCache(tmp_path / "cache"))))
        assert list(payload) == ["digest", "status", "source", "run",
                                 "wall_seconds", "attempts", "worker"]
        result = JobResult.from_dict(job, payload)
        assert result.job is job and result.worker_pid == 0
        assert result.to_dict() == {key: payload[key] for key in (
            "source", "run", "wall_seconds", "attempts")}

    def test_worker_executes_a_real_job(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        cache = DiskCache(tmp_path / "cache")
        spec = parse_job(job_spec())
        spool.enqueue(spec.sim_job().digest, {"job": spec.to_dict()})
        executed = run_worker(spool, cache=cache, poll=0.01,
                              max_jobs=1)
        assert executed == 1
        state, payload = spool.state(spec.sim_job().digest)
        assert state == "done"
        assert payload["status"] == "ok"
        assert payload["run"]["benchmark"] == "hmmer"
        # The result also landed in the shared content-addressed cache.
        assert cache.load(spec.sim_job()) is not None


class TestRunSweep:
    def _jobs(self):
        return [SimJob(config=model_config(model), benchmark=bench,
                       **SMALL)
                for model in ("LITTLE",) for bench in ("hmmer", "lbm")]

    def test_duplicates_share_one_execution(self, tmp_path):
        cache = DiskCache(tmp_path)
        jobs = self._jobs()
        outcomes = run_sweep(jobs + jobs, cache=cache)
        assert len(outcomes) == 4
        assert outcomes[0] is outcomes[2]
        assert outcomes[1] is outcomes[3]
        assert all(o.source == "simulated" for o in outcomes)

    def test_warm_sweep_is_pure_cache_replay(self, tmp_path):
        cache = DiskCache(tmp_path)
        cold = run_sweep(self._jobs(), cache=cache)
        warm = run_sweep(self._jobs(), cache=cache)
        assert all(o.source == "cache" for o in warm)
        for before, after in zip(cold, warm):
            assert before.run.to_dict() == after.run.to_dict()

    def test_outcome_callback_fires_once_per_distinct_job(self,
                                                          tmp_path):
        seen = []
        jobs = self._jobs()
        run_sweep(jobs + jobs, cache=DiskCache(tmp_path),
                  on_outcome=lambda o: seen.append(o))
        assert len(seen) == 2

    @pytest.mark.parametrize("record", [
        {"attempts": "many"}, {"wall_seconds": None}, ["attempts"]])
    def test_failure_record_that_does_not_rehydrate_is_dropped(
            self, tmp_path, record):
        # Valid JSON of the wrong shape is treated like a record that
        # does not parse: dropped, not counted as seen, and the job
        # runs.
        cache = DiskCache(tmp_path)
        job = self._jobs()[0]
        cache.store_failure(job, record)
        [outcome] = run_sweep([job], cache=cache)
        assert outcome.ok and outcome.source == "simulated"
        assert cache.counters()["failures_seen"] == 0
        assert cache.load_failure(job) is None
        assert list(tmp_path.rglob("*.fail.json")) == []


@pytest.fixture()
def serve(tmp_path):
    """A live in-process server plus its client and cache."""
    cache = DiskCache(tmp_path / "cache")
    server, stop = start_in_background(
        cache=cache, workers=1,
        manifest_dir=str(tmp_path / "manifests"))
    client = ServeClient(server.host, server.port, timeout=300)
    try:
        yield server, client, cache
    finally:
        stop()


class TestServeEndToEnd:
    def test_cold_then_warm_batch(self, serve, tmp_path):
        server, client, cache = serve
        batch = {"jobs": [job_spec(),
                          job_spec(benchmark="lbm"),
                          job_spec()]}  # a duplicate, dedup'd away
        submitted = client.submit(batch)
        assert submitted["jobs"] == 3
        assert submitted["distinct_jobs"] == 2
        events = list(client.stream(submitted["batch_id"]))
        assert events[0]["event"] == "batch_start"
        end = events[-1]
        assert end["event"] == "batch_end"
        assert end["by_source"] == {"simulated": 2}
        assert end["ok"] == 2 and end["failed"] == 0
        assert end["manifest"]["jobs_simulated"] == 2
        # Warm resubmission: identical digests, zero simulation.
        warm = client.run_batch(batch)
        warm_end = warm[-1]
        assert warm_end["by_source"] == {"cache": 2}
        assert warm_end["manifest"]["jobs_simulated"] == 0
        assert warm_end["manifest"]["job_records"] == []
        # Per-job payloads are identical cold vs warm.
        cold_results = {e["digest"]: e["result"]["ipc"]
                        for e in events if e["event"] == "job"}
        warm_results = {e["digest"]: e["result"]["ipc"]
                        for e in warm if e["event"] == "job"}
        assert cold_results == warm_results
        # The per-batch manifest landed on disk too.
        manifest_path = warm_end["manifest_path"]
        assert json.load(open(manifest_path))["jobs_simulated"] == 0

    def test_cached_batch_is_answered_while_a_cold_one_runs(
            self, tmp_path, monkeypatch):
        # A batch the cache answers in full never queues behind a
        # simulation, and the server process builds no trace: every
        # simulation runs in a forked pool worker.
        cache = DiskCache(tmp_path / "cache")
        warm = {"jobs": [job_spec(benchmark="lbm")]}
        run_sweep([parse_job(job).sim_job() for job in warm["jobs"]],
                  cache=cache)
        monkeypatch.setattr(runner, "_TRACE_MEMO", {})
        set_fault_injector(FaultSpec.parse("sleep:hmmer:1.0"))
        try:
            server, stop = start_in_background(
                cache=cache, workers=1, trace_dir=str(tmp_path / "traces"))
            client = ServeClient(server.host, server.port, timeout=300)
            try:
                cold_id = client.submit({"jobs": [job_spec()]})["batch_id"]
                end = client.run_batch(warm)[-1]
                assert end["by_source"] == {"cache": 1}
                assert client.batch(cold_id)["done"] is False
                cold_end = list(client.stream(cold_id))[-1]
                assert cold_end["by_source"] == {"simulated": 1}
                assert runner._TRACE_MEMO == {}
                again = client.run_batch(
                    {"jobs": [job_spec(model="BIG")]})[-1]
                assert again["by_source"] == {"simulated": 1}
                assert runner._TRACE_MEMO == {}
            finally:
                stop()
        finally:
            set_fault_injector(None)
        slices = [e for e in json.load(open(end["trace_path"]))[
            "traceEvents"] if e["ph"] == "X"]
        waits = [e for e in slices if e["name"] == "queue-wait"]
        assert len(waits) == 1 and waits[0]["dur"] == 0

    def test_finished_batches_are_bounded(self, serve):
        # The most recent FINISHED_BATCHES_KEPT finished batches stay
        # listed; an older id answers 404 like one never issued.
        server, client, cache = serve
        batch = {"jobs": [job_spec()]}
        client.run_batch(batch)
        ids = [client.submit(batch)["batch_id"]
               for _ in range(FINISHED_BATCHES_KEPT + 1)]
        assert len(server.batches) == FINISHED_BATCHES_KEPT
        status = client.status()["queue"]
        assert status["batches_total"] == FINISHED_BATCHES_KEPT + 2
        for gone in (ids[0], "b000001"):
            with pytest.raises(ServeError) as err:
                client.batch(gone)
            assert err.value.status == 404
        history = list(client.stream(ids[-1]))
        assert [e["event"] for e in history] == [
            "batch_start", "job", "batch_end"]
        assert history[-1]["by_source"] == {"cache": 1}

    def test_results_byte_identical_to_direct_sweep(self, serve,
                                                    tmp_path):
        # Acceptance: a batch served over HTTP and the same sweep run
        # directly against a fresh cache produce byte-identical cache
        # entries.
        server, client, cache = serve
        spec = parse_job(job_spec(benchmark="milc"))
        client.run_batch({"jobs": [job_spec(benchmark="milc")]})
        direct_cache = DiskCache(tmp_path / "direct")
        run_sweep([spec.sim_job()], cache=direct_cache)
        digest = spec.sim_job().digest
        served = (cache.root / digest[:2] / f"{digest}.json")
        direct = (direct_cache.root / digest[:2] / f"{digest}.json")
        assert served.read_bytes() == direct.read_bytes()

    def test_unreadable_failure_record_is_dropped_and_job_runs(
            self, serve):
        # Valid JSON that does not rehydrate into a failure record is
        # dropped like a torn one: the job simulates, the batch ends
        # without an error, and its quota is released.
        server, client, cache = serve
        cache.store_failure(parse_job(job_spec()).sim_job(),
                            {"attempts": "many"})
        end = client.run_batch({"jobs": [job_spec()], "tenant": "t"})[-1]
        assert "error" not in end
        assert end["by_source"] == {"simulated": 1}
        assert end["ok"] == 1 and end["failed"] == 0
        assert end["manifest"]["cache"]["failures_seen"] == 0
        assert client.status()["tenants"]["t"]["active_jobs"] == 0

    def test_batch_manifest_records_the_repro_version(self, serve):
        server, client, cache = serve
        end = client.run_batch({"jobs": [job_spec()]})[-1]
        assert end["manifest"]["repro_version"] == repro.__version__
        with open(end["manifest_path"]) as stream:
            written = json.load(stream)
        assert written["repro_version"] == repro.__version__

    def test_streaming_replays_history_for_late_subscribers(self,
                                                            serve):
        server, client, cache = serve
        submitted = client.submit(job_spec())
        first = list(client.stream(submitted["batch_id"]))
        again = list(client.stream(submitted["batch_id"]))
        assert first == again

    def test_malformed_submissions_answer_400(self, serve):
        server, client, cache = serve
        with pytest.raises(ServeError) as err:
            client.submit({"jobs": [{"benchmark": "quake3"}]})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.submit({"jobs": [job_spec()], "turbo": True})
        assert err.value.status == 400

    def test_unknown_batch_answers_404(self, serve):
        server, client, cache = serve
        with pytest.raises(ServeError) as err:
            client.batch("b999999")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            list(client.stream("b999999"))
        assert err.value.status == 404

    def test_status_counters(self, serve):
        server, client, cache = serve
        client.run_batch({"jobs": [job_spec()], "tenant": "alice"})
        client.run_batch({"jobs": [job_spec()], "tenant": "alice"})
        status = client.status()
        assert status["metrics"]["serve.jobs_simulated"] == 1
        assert status["metrics"]["serve.jobs_cache"] == 1
        assert status["cache"]["stores"] == 1
        assert status["queue"]["depth"] == 0
        assert status["tenants"]["alice"]["admitted_jobs"] == 2
        assert status["tenants"]["alice"]["active_jobs"] == 0
        assert status["server"]["mode"] == "local"
        assert status["spool"] is None

    def test_batch_snapshot_counts_sources(self, serve):
        server, client, cache = serve
        submitted = client.submit(job_spec())
        list(client.stream(submitted["batch_id"]))
        snap = client.batch(submitted["batch_id"])
        assert snap["done"] is True
        assert snap["completed_ok"] == 1
        assert snap["by_source"] == {"simulated": 1}


class TestServeQuota:
    def test_over_quota_answers_429(self, tmp_path):
        quotas = QuotaRegistry(TenantPolicy(max_batch=1))
        server, stop = start_in_background(
            cache=DiskCache(tmp_path / "cache"), quotas=quotas)
        client = ServeClient(server.host, server.port, timeout=60)
        try:
            with pytest.raises(ServeError) as err:
                client.submit({"jobs": [job_spec(),
                                        job_spec(benchmark="lbm")]})
            assert err.value.status == 429
            status = client.status()
            assert status["metrics"]["serve.rejected_quota"] == 1
            assert (status["tenants"]["default"]["rejected_batches"]
                    == 1)
        finally:
            stop()


class TestServeFaults:
    def test_injected_fault_quarantines_then_replays_sticky(
            self, tmp_path):
        # The e2e fault path: a crash-injected job exhausts its (zero)
        # retry budget, streams a failed event, persists the failure
        # record — and a resubmission replays the quarantine from disk
        # without re-crashing anything.  resume=True retries it.
        cache = DiskCache(tmp_path / "cache")
        set_fault_injector(FaultSpec.parse("crash:mcf"))
        try:
            server, stop = start_in_background(cache=cache, workers=1)
            client = ServeClient(server.host, server.port, timeout=300)
            try:
                batch = {"jobs": [job_spec(benchmark="mcf"),
                                  job_spec(benchmark="hmmer")]}
                events = client.run_batch(batch)
                jobs = {e["job"]: e for e in events
                        if e["event"] == "job"}
                failed = next(e for e in jobs.values()
                              if e["status"] == "failed")
                assert "mcf" in failed["job"]
                assert failed["failure"]["cause"] == "exception"
                assert "injected crash" in failed["failure"]["error"]
                end = events[-1]
                assert end["ok"] == 1 and end["failed"] == 1
                assert end["manifest"]["jobs_failed"] == 1
                # Resubmit: the failure is sticky (served from the
                # quarantine record, not re-crashed).
                replay = client.run_batch(batch)
                sources = {e["job"]: e["source"] for e in replay
                           if e["event"] == "job"}
                assert any(s == "quarantine" for s in sources.values())
                # resume=True clears the record and re-runs the job;
                # the injector still fires, so it fails fresh.
                resumed = client.run_batch({**batch, "resume": True})
                mcf = next(e for e in resumed if e["event"] == "job"
                           and "mcf" in e["job"])
                assert mcf["source"] == "simulated"
                assert mcf["status"] == "failed"
            finally:
                stop()
        finally:
            set_fault_injector(None)


@contextlib.contextmanager
def serve_process(tmp_path, *flags):
    """A ``repro-exp serve --jobs 1`` subprocess and a client for it, so
    that a fault which kills the server kills it and not pytest."""
    log_path = tmp_path / "serve.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.obs.diffrun", "serve",
             "--port", "0", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache"), *flags],
            stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=env)
    try:
        deadline = time.monotonic() + 60
        while True:
            match = re.search(r"listening on http://[^:\s]+:(\d+)",
                              log_path.read_text())
            if match:
                break
            assert proc.poll() is None and time.monotonic() < deadline, (
                log_path.read_text())
            time.sleep(0.05)
        yield proc, ServeClient("127.0.0.1", int(match.group(1)),
                                timeout=30)
    finally:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class TestServeFaultContainment:
    """A served job runs in a pool worker even at ``--jobs 1``."""

    def test_a_dying_job_costs_only_its_worker(self, tmp_path):
        with serve_process(tmp_path, "--inject-fault", "die:lbm") as (
                proc, client):
            events = client.run_batch(
                {"jobs": [job_spec(), job_spec(benchmark="lbm")]})
            failed = [e for e in events
                      if e["event"] == "job" and e["status"] == "failed"]
            assert [e["job"] for e in failed] == [
                parse_job(job_spec(benchmark="lbm")).sim_job().describe()]
            assert failed[0]["failure"]["cause"] == "worker-death"
            assert events[-1]["ok"] == 1 and events[-1]["failed"] == 1
            # The same server answers the next batch.
            again = client.run_batch({"jobs": [job_spec(model="BIG")]})
            assert again[-1]["by_source"] == {"simulated": 1}
            assert client.status()["queue"]["depth"] == 0
            assert proc.poll() is None

    def test_a_wedged_job_times_out_instead_of_wedging_the_queue(
            self, tmp_path):
        with serve_process(tmp_path, "--inject-fault", "hang:mcf:60",
                           "--timeout", "2") as (proc, client):
            started = time.monotonic()
            events = client.run_batch(
                {"jobs": [job_spec(benchmark="mcf")]})
            assert time.monotonic() - started < 20
            job = next(e for e in events if e["event"] == "job")
            assert job["status"] == "failed"
            assert job["failure"]["cause"] == "timeout"
            again = client.run_batch({"jobs": [job_spec()]})
            assert again[-1]["by_source"] == {"simulated": 1}


class TestServeSpool:
    def test_spool_batch_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        spool = Spool(tmp_path / "spool")
        server, stop = start_in_background(
            cache=cache, spool=spool, spool_poll=0.02)
        worker = threading.Thread(
            target=run_worker,
            args=(Spool(tmp_path / "spool"),),
            kwargs={"cache": DiskCache(tmp_path / "cache"),
                    "poll": 0.02, "max_jobs": 1, "idle_exit": 10.0},
            daemon=True)
        worker.start()
        client = ServeClient(server.host, server.port, timeout=300)
        try:
            events = client.run_batch({"jobs": [job_spec()]})
            end = events[-1]
            assert end["by_source"] == {"simulated": 1}
            assert end["ok"] == 1
            status = client.status()
            assert status["server"]["mode"] == "spool"
            assert status["spool"]["done"] == 1
            # Warm resubmission is answered by the server's own cache
            # lookup: nothing new reaches the queue.
            warm = client.run_batch({"jobs": [job_spec()]})
            assert warm[-1]["by_source"] == {"cache": 1}
            assert client.status()["spool"]["queued"] == 0
        finally:
            stop()
        worker.join(timeout=30)
        assert not worker.is_alive()

    def test_server_requeues_a_dead_workers_claim(self, tmp_path):
        # The server's --spool-reclaim loop is the one reclaim path: a
        # claim left behind by a dead worker goes back to queued/ and a
        # live worker finishes the batch.
        spec = job_spec(measure=300, warmup=600)
        digest = parse_job(spec).sim_job().digest
        spool = Spool(tmp_path / "spool")
        queued = spool.root / "queued" / f"{digest}.json"
        server, stop = start_in_background(
            cache=DiskCache(tmp_path / "cache"), spool=spool,
            spool_poll=0.02, spool_reclaim=0.5)
        worker = threading.Thread(
            target=run_worker, args=(Spool(tmp_path / "spool"),),
            kwargs={"cache": DiskCache(tmp_path / "cache"),
                    "poll": 0.02, "max_jobs": 1, "idle_exit": 10.0},
            daemon=True)
        client = ServeClient(server.host, server.port, timeout=60)
        try:
            batch_id = client.submit({"jobs": [spec]})["batch_id"]
            deadline = time.monotonic() + 10
            while not queued.exists():
                assert time.monotonic() < deadline, "never enqueued"
                time.sleep(0.02)
            dead = spool.root / "claimed" / f"{digest}.deadhost.1.json"
            os.replace(queued, dead)
            stale = time.time() - 3600
            os.utime(dead, (stale, stale))
            deadline = time.monotonic() + 10
            while not queued.exists():
                assert time.monotonic() < deadline, "never reclaimed"
                time.sleep(0.02)
            assert not dead.exists()
            worker.start()
            end = list(client.stream(batch_id))[-1]
            status = client.status()
        finally:
            stop()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert end["by_source"] == {"simulated": 1}
        assert end["ok"] == 1
        assert status["spool"]["reclaimed"] == 1

    @pytest.mark.parametrize("publish, marker", [
        ("fail", {"failure": {"attempts": "many"}}),
        ("complete", {"status": "ok", "run": {"model": "x"}}),
        ("fail", None),
    ], ids=["failed", "done", "null"])
    def test_marker_that_does_not_rehydrate_is_requeued(
            self, tmp_path, publish, marker):
        # As with a disk-cache failure record: a spool marker that
        # parses but does not rehydrate is dropped and its job queued
        # again, instead of failing every batch that names the job.
        spec = job_spec(measure=300, warmup=600)
        spool = Spool(tmp_path / "spool")
        spool.enqueue(parse_job(spec).sim_job().digest, {"job": spec})
        getattr(spool, publish)(spool.claim(), marker)
        server, stop = start_in_background(
            cache=DiskCache(tmp_path / "cache"), spool=spool,
            spool_poll=0.02)
        worker = threading.Thread(
            target=run_worker, args=(Spool(tmp_path / "spool"),),
            kwargs={"cache": DiskCache(tmp_path / "cache"),
                    "poll": 0.02, "max_jobs": 1, "idle_exit": 10.0},
            daemon=True)
        worker.start()
        client = ServeClient(server.host, server.port, timeout=60)
        try:
            first = client.run_batch({"jobs": [spec]})[-1]
            second = client.run_batch({"jobs": [spec]})[-1]
        finally:
            stop()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert "error" not in first
        assert first["by_source"] == {"simulated": 1}
        assert first["ok"] == 1
        assert "error" not in second
        assert second["by_source"] == {"cache": 1}
