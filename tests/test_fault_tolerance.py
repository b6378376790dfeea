"""Fault tolerance: retries, crash isolation, quarantine and resume.

Exercises the issue's acceptance scenario end to end: a sweep with
injected crashes and hangs completes, healthy results are bit-identical
to a fault-free serial run, failures land in the quarantine records with
attempt counts, and a subsequent resume re-executes only the failed
subset (witnessed by the disk cache's hit counters).
"""

import argparse

import pytest

from repro.core import model_config
from repro.experiments.diskcache import DiskCache
from repro.experiments.pool import (
    FaultSpec,
    JobFailure,
    JobResult,
    JobTimeoutError,
    SimJob,
    SweepAborted,
    run_jobs,
    set_fault_injector,
    split_outcomes,
)
from repro.experiments import pool, runner, sweepflags
from repro.experiments.runner import (
    JobFailedError,
    clear_cache,
    failed_runs,
    prefetch,
    run_benchmark,
    run_grid,
    set_disk_cache,
    set_fault_policy,
    set_jobs,
)

SMALL = dict(measure=600, warmup=1500)
BENCHES = ("hmmer", "lbm", "mcf")


@pytest.fixture(autouse=True)
def _clean_state():
    clear_cache()
    runner.pop_job_records()
    yield
    set_fault_injector(None)
    set_fault_policy()
    set_jobs(1)
    set_disk_cache(None)
    clear_cache()
    runner.pop_job_records()


def _jobs(benches=BENCHES, model="BIG"):
    return [
        SimJob(config=model_config(model), benchmark=bench, **SMALL)
        for bench in benches
    ]


class TestFaultSpec:
    def test_parse_kind_only(self):
        spec = FaultSpec.parse("crash")
        assert spec.kind == "crash"
        assert spec.benchmark is None

    def test_parse_with_benchmark_and_param(self):
        spec = FaultSpec.parse("flaky:mcf:2")
        assert (spec.kind, spec.benchmark, spec.param) == (
            "flaky", "mcf", 2.0)

    def test_parse_wildcard_benchmark(self):
        assert FaultSpec.parse("crash:*").benchmark is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("explode")


class TestCrashIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_quarantined_sweep_completes(self, workers):
        set_fault_injector(FaultSpec.parse("crash:lbm"))
        outcomes = run_jobs(_jobs(), workers=workers)
        set_fault_injector(None)
        assert len(outcomes) == len(BENCHES)
        results, failures = split_outcomes(outcomes)
        assert [f.job.benchmark for f in failures] == ["lbm"]
        assert failures[0].cause == "exception"
        assert "injected crash" in failures[0].error
        assert failures[0].attempts == 1
        # Healthy jobs are bit-identical to a fault-free serial run.
        clean = run_jobs(_jobs(("hmmer", "mcf")), workers=1)
        for faulty, fault_free in zip(results, clean):
            assert faulty.run.to_dict() == fault_free.run.to_dict()

    def test_worker_death_quarantined(self):
        set_fault_injector(FaultSpec.parse("die:lbm"))
        outcomes = run_jobs(_jobs(), workers=2)
        _, failures = split_outcomes(outcomes)
        assert [f.job.benchmark for f in failures] == ["lbm"]
        assert failures[0].cause == "worker-death"

    def test_hang_times_out(self):
        set_fault_injector(FaultSpec.parse("hang:lbm:30"))
        outcomes = run_jobs(_jobs(), workers=2, timeout=1.0)
        _, failures = split_outcomes(outcomes)
        assert [f.job.benchmark for f in failures] == ["lbm"]
        assert failures[0].cause == "timeout"


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_flaky_job_succeeds_on_retry(self, workers):
        set_fault_injector(FaultSpec.parse("flaky:lbm:2"))
        outcomes = run_jobs(_jobs(), workers=workers, retries=2,
                            retry_backoff=0.0)
        results, failures = split_outcomes(outcomes)
        assert not failures
        by_bench = {r.job.benchmark: r for r in results}
        assert by_bench["lbm"].attempts == 3  # failed twice, then ran
        assert by_bench["hmmer"].attempts == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_budget_exhaustion(self, workers):
        set_fault_injector(FaultSpec.parse("crash:lbm"))
        outcomes = run_jobs(_jobs(), workers=workers, retries=2,
                            retry_backoff=0.0)
        _, failures = split_outcomes(outcomes)
        assert len(failures) == 1
        assert failures[0].attempts == 3  # retries + 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_jobs(_jobs(("hmmer",)), retries=-1)


class TestTimeoutAccounting:
    def test_queue_wait_not_charged(self):
        # Regression: the timeout clock used to start at submission, so
        # with more jobs than workers the tail jobs were charged their
        # queue wait and timed out spuriously.  Six slowed-but-healthy
        # jobs on two workers must all pass a timeout that any single
        # job fits inside but the whole sweep does not.
        # Each job runs ~1s (sleep + short sim), well under the 2.5s
        # timeout, but the sweep's third wave starts >2.5s after
        # submission — the old semantics would kill it in the queue.
        set_fault_injector(FaultSpec.parse("sleep::1.0"))
        jobs = [
            SimJob(config=model_config(model), benchmark=bench, **SMALL)
            for model in ("BIG", "HALF")
            for bench in BENCHES
        ]
        outcomes = run_jobs(jobs, workers=2, timeout=2.5)
        results, failures = split_outcomes(outcomes)
        assert not failures
        assert len(results) == 6

    def test_serial_posthoc_timeout_keeps_prior_results(self):
        outcomes = run_jobs(_jobs(), workers=1, timeout=0.0)
        # Every job completes before its overrun is observed; each is
        # quarantined post-hoc but never torn down mid-sweep.
        assert all(isinstance(o, JobFailure) for o in outcomes)
        assert all(o.cause == "timeout" for o in outcomes)


class TestFailFast:
    def test_fail_fast_preserves_completed(self):
        set_fault_injector(FaultSpec.parse("crash:mcf"))
        with pytest.raises(SweepAborted) as excinfo:
            run_jobs(_jobs(), workers=1, fail_fast=True)
        aborted = excinfo.value
        assert aborted.failure.job.benchmark == "mcf"
        assert [r.job.benchmark for r in aborted.completed] == [
            "hmmer", "lbm"]
        for result in aborted.completed:
            assert isinstance(result, JobResult)

    def test_fail_fast_timeout_raises_subclass(self):
        with pytest.raises(JobTimeoutError):
            run_jobs(_jobs(("hmmer",)), workers=1, timeout=0.0,
                     fail_fast=True)


class TestRunnerQuarantine:
    def _sweep_with_crash(self):
        set_fault_injector(FaultSpec.parse("crash:lbm"))
        pairs = [(model_config("BIG"), b) for b in BENCHES]
        simulated = prefetch(pairs, **SMALL)
        set_fault_injector(None)
        return simulated

    def test_missing_ok_returns_none(self):
        self._sweep_with_crash()
        big = model_config("BIG")
        assert run_benchmark(big, "lbm", missing_ok=True,
                             **SMALL) is None
        assert run_benchmark(big, "hmmer", missing_ok=True,
                             **SMALL) is not None

    def test_plain_lookup_raises_job_failed(self):
        self._sweep_with_crash()
        with pytest.raises(JobFailedError) as excinfo:
            run_benchmark(model_config("BIG"), "lbm", **SMALL)
        assert excinfo.value.failure.cause == "exception"

    def test_failed_runs_lists_quarantine(self):
        self._sweep_with_crash()
        failures = failed_runs()
        assert [f.job.benchmark for f in failures] == ["lbm"]

    def test_grid_complete_drops_failed_benchmark(self):
        self._sweep_with_crash()
        big = model_config("BIG")
        grid = run_grid([big], BENCHES, **SMALL)
        assert grid[big, "lbm"] is None
        assert grid.complete() == ["hmmer", "mcf"]
        with pytest.raises(RuntimeError, match="nothing to aggregate"):
            run_grid([big], ["lbm"], **SMALL).complete()

    def test_quarantine_not_rerun_without_resume(self):
        self._sweep_with_crash()
        pairs = [(model_config("BIG"), b) for b in BENCHES]
        # No injector installed now; without resume the quarantined job
        # must be skipped, not silently retried.
        assert prefetch(pairs, **SMALL) == 0
        assert [f.job.benchmark for f in failed_runs()] == ["lbm"]


class TestResume:
    def test_resume_reruns_only_failed_subset(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        pairs = [(model_config("BIG"), b) for b in BENCHES]
        set_fault_injector(FaultSpec.parse("crash:lbm"))
        assert prefetch(pairs, **SMALL) == 3
        set_fault_injector(None)
        assert [f.job.benchmark for f in failed_runs()] == ["lbm"]
        # The failure is persisted: a fresh process would see it too.
        clear_cache()
        assert run_benchmark(model_config("BIG"), "lbm",
                             missing_ok=True, **SMALL) is None

        clear_cache()
        before = cache.counters()
        set_fault_policy(resume=True)
        simulated = prefetch(pairs, **SMALL)
        after = cache.counters()
        # Witness: only the failed job simulates; the two healthy jobs
        # replay from the disk cache.
        assert simulated == 1
        assert after["hits"] - before["hits"] == 2
        assert not failed_runs()
        assert run_benchmark(model_config("BIG"), "lbm",
                             **SMALL) is not None

    def test_failure_record_cleared_by_later_success(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        pairs = [(model_config("BIG"), "lbm")]
        set_fault_injector(FaultSpec.parse("crash:lbm"))
        prefetch(pairs, **SMALL)
        set_fault_injector(None)
        assert cache.counters()["failures_stored"] == 1
        set_fault_policy(resume=True)
        prefetch(pairs, **SMALL)
        set_fault_policy()
        clear_cache()
        # The stale failure record is gone; the result loads cleanly.
        assert run_benchmark(model_config("BIG"), "lbm",
                             **SMALL) is not None


class TestSweepFlags:
    def test_applied_flags_are_restored_after_the_block(self, tmp_path):
        parser = argparse.ArgumentParser()
        sweepflags.add_sweep_args(parser)
        args = parser.parse_args([
            "--jobs", "2", "--cache-dir", str(tmp_path), "--retries", "1",
            "--timeout", "9", "--resume", "--inject-fault", "crash:mcf"])
        outer = FaultSpec.parse("sleep")
        set_jobs(3)
        set_fault_injector(outer)
        with sweepflags.applied(args) as settings:
            assert runner._SETTINGS is settings
            assert (settings.workers, settings.retries, settings.timeout,
                    settings.resume, settings.fail_fast) == (
                        2, 1, 9.0, True, False)
            assert settings.cache.root == tmp_path
            assert pool._FAULT_INJECTOR is args.inject_fault
        assert runner._SETTINGS.workers == 3
        assert runner._SETTINGS.cache is None
        assert pool._FAULT_INJECTOR is outer

    @pytest.mark.parametrize("field, value", [
        ("workers", 0), ("retries", -1), ("retry_backoff", -1),
        ("timeout", 0)])
    def test_settings_out_of_bounds_are_rejected(self, field, value):
        # Every way to a sweep's policy, configured() included, goes
        # through the record, so its bounds hold everywhere.
        with pytest.raises(ValueError, match=field):
            runner.SweepSettings(**{field: value})


class TestIncrementalPersistence:
    def test_completed_results_stored_before_abort(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        set_fault_injector(FaultSpec.parse("crash:mcf"))
        set_fault_policy(fail_fast=True)
        pairs = [(model_config("BIG"), b) for b in BENCHES]
        with pytest.raises(SweepAborted):
            prefetch(pairs, **SMALL)
        set_fault_policy()
        set_fault_injector(None)
        # Both jobs that finished before the abort hit the disk.
        assert cache.counters()["stores"] == 2
        clear_cache()
        assert run_benchmark(model_config("BIG"), "hmmer",
                             **SMALL) is not None
        assert cache.counters()["hits"] == 1

    def test_run_sweep_fail_fast_stores_completed_before_abort(
            self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_fault_injector(FaultSpec.parse("crash:mcf"))
        with pytest.raises(SweepAborted) as excinfo:
            runner.run_sweep(_jobs(), cache=cache, fail_fast=True)
        assert [r.job.benchmark for r in excinfo.value.completed] == [
            "hmmer", "lbm"]
        assert cache.counters()["stores"] == 2
        assert cache.counters()["failures_stored"] == 0
        assert cache.load(SimJob(model_config("BIG"), "lbm",
                                 SMALL["measure"], SMALL["warmup"],
                                 0)) is not None
