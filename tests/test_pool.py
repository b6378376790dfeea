"""Tests for the parallel experiment pool (determinism, accounting)."""

import multiprocessing
import os
import time

import pytest

from repro.core import model_config
from repro.experiments import runner
from repro.experiments.pool import (
    MAX_RETRY_DELAY,
    FaultSpec,
    JobFailure,
    JobResult,
    JobTimeoutError,
    SimJob,
    retry_delay,
    run_jobs,
    set_fault_injector,
    total_wall_seconds,
)
from repro.experiments.runner import (
    clear_cache,
    prefetch,
    run_benchmark,
    set_jobs,
)

SMALL = dict(measure=600, warmup=1500)


def _jobs():
    return [
        SimJob(config=model_config(model), benchmark=bench, **SMALL)
        for model in ("BIG", "HALF+FX")
        for bench in ("hmmer", "lbm")
    ]


class TestRunJobs:
    def test_empty_job_list(self):
        assert run_jobs([]) == []

    def test_serial_results_in_submission_order(self):
        jobs = _jobs()
        results = run_jobs(jobs, workers=1)
        assert [r.job for r in results] == jobs
        for result in results:
            assert result.run.model == result.job.config.name
            assert result.run.benchmark == result.job.benchmark

    def test_parallel_matches_serial_bit_for_bit(self):
        jobs = _jobs()
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=4)
        assert [r.job for r in parallel] == jobs
        for s, p in zip(serial, parallel):
            assert s.run.to_dict() == p.run.to_dict()

    def test_wall_clock_accounting(self):
        results = run_jobs(_jobs()[:2], workers=1)
        for result in results:
            assert result.wall_seconds > 0
            assert result.worker_pid > 0
        assert total_wall_seconds(results) == pytest.approx(
            sum(r.wall_seconds for r in results)
        )

    def test_serial_timeout_quarantines(self):
        outcomes = run_jobs(_jobs()[:2], workers=1, timeout=0.0)
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome, JobFailure)
            assert outcome.cause == "timeout"
            assert outcome.attempts == 1  # post-hoc: never retried

    def test_serial_timeout_fail_fast_raises(self):
        with pytest.raises(JobTimeoutError):
            run_jobs(_jobs()[:2], workers=1, timeout=0.0,
                     fail_fast=True)

    def test_parallel_timeout_fail_fast_raises(self):
        jobs = [
            SimJob(config=model_config("BIG"), benchmark="hmmer",
                   measure=4000, warmup=12000),
            SimJob(config=model_config("HALF+FX"), benchmark="lbm",
                   measure=4000, warmup=12000),
        ]
        with pytest.raises(JobTimeoutError):
            run_jobs(jobs, workers=2, timeout=1e-4, fail_fast=True)


class TestRetryDelay:
    def _job(self):
        return SimJob(config=model_config("BIG"), benchmark="hmmer",
                      **SMALL)

    def test_zero_backoff_means_no_delay(self):
        assert retry_delay(0.0, 5) == 0.0
        assert retry_delay(0.0, 5, self._job()) == 0.0

    def test_exponential_growth_without_jitter(self):
        assert retry_delay(0.25, 1) == 0.25
        assert retry_delay(0.25, 2) == 0.5
        assert retry_delay(0.25, 3) == 1.0

    def test_delay_is_capped(self):
        # Regression: the old unbounded 2**n backoff reached minutes
        # within a dozen attempts and hours soon after.
        assert retry_delay(0.25, 60) == MAX_RETRY_DELAY
        assert retry_delay(0.25, 60, self._job()) <= MAX_RETRY_DELAY
        assert retry_delay(1.0, 6, cap=4.0) == 4.0

    def test_jitter_is_deterministic_per_job_and_attempt(self):
        job = self._job()
        assert (retry_delay(0.25, 2, job)
                == retry_delay(0.25, 2, job))
        # Different attempts (and different jobs) spread differently.
        other = SimJob(config=model_config("LITTLE"),
                       benchmark="hmmer", **SMALL)
        delays = {retry_delay(0.25, attempt, job)
                  for attempt in (1, 2, 3)}
        assert len(delays) == 3
        assert (retry_delay(0.25, 2, job)
                != retry_delay(0.25, 2, other))

    def test_jitter_stays_within_half_to_full_delay(self):
        job = self._job()
        for attempt in range(1, 12):
            base = min(MAX_RETRY_DELAY, 0.25 * 2.0 ** (attempt - 1))
            delay = retry_delay(0.25, attempt, job)
            assert 0.5 * base <= delay <= base


class TestPrefetchParallel:
    def test_parallel_prefetch_matches_serial_runs(self):
        pairs = [
            (model_config(model), bench)
            for model in ("BIG", "HALF+FX")
            for bench in ("hmmer", "lbm")
        ]
        clear_cache()
        serial = {
            (c.name, b): run_benchmark(c, b, **SMALL).to_dict()
            for c, b in pairs
        }
        clear_cache()
        set_jobs(4)
        try:
            simulated = prefetch(pairs, **SMALL)
        finally:
            set_jobs(1)
        assert simulated == len(pairs)
        for config, bench in pairs:
            run = run_benchmark(config, bench, **SMALL)
            assert run.to_dict() == serial[(config.name, bench)]

    def test_prefetch_skips_cached_pairs(self):
        clear_cache()
        pairs = [(model_config("BIG"), "hmmer")]
        assert prefetch(pairs, **SMALL) == 1
        assert prefetch(pairs, **SMALL) == 0


class _FirstAttemptOnly:
    """Picklable injector: apply ``fault`` on a job's first attempt."""

    def __init__(self, fault):
        self.fault = fault

    def __call__(self, job, attempt):
        if attempt == 1:
            self.fault(job, attempt)


class TestSharedTraces:
    """A parallel call's workers build its traces, the parent none, and
    the parent's memo keeps exactly the entries it had before."""

    @pytest.fixture
    def parent_builds(self, monkeypatch):
        """An empty trace memo; yields the benchmarks whose programs
        this (the parent) process builds.  Forked workers append to
        their own copy of the list, which the parent never sees."""
        monkeypatch.setattr(runner, "_TRACE_MEMO", {})
        built = []
        build_program = runner.build_program

        def counting(profile, seed=0):
            built.append(profile.name)
            return build_program(profile, seed=seed)

        monkeypatch.setattr(runner, "build_program", counting)
        return built

    @pytest.fixture
    def builds(self, monkeypatch, tmp_path):
        """An empty trace memo; yields a reader of every program build
        as ``(pid, benchmark)``, in this process or any worker forked
        from it (each appends one line to a shared ``O_APPEND`` file)."""
        monkeypatch.setattr(runner, "_TRACE_MEMO", {})
        log = tmp_path / "builds.log"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        build_program = runner.build_program

        def logging(profile, seed=0):
            os.write(fd, f"{os.getpid()} {profile.name}\n".encode())
            return build_program(profile, seed=seed)

        monkeypatch.setattr(runner, "build_program", logging)

        def read():
            return [(int(pid), name) for pid, name in
                    (line.split() for line in log.read_text().splitlines())]

        yield read
        os.close(fd)

    def test_workers_build_each_trace_the_parent_none(self, builds):
        jobs = _jobs()
        parallel = run_jobs(jobs, workers=2)
        pids, names = zip(*builds())
        assert os.getpid() not in pids
        assert set(names) == {"hmmer", "lbm"}
        # Two workers on two traces: at most one tail steal rebuilds one.
        assert len(names) in (2, 3)
        assert list(runner._TRACE_MEMO) == []
        serial = run_jobs(jobs, workers=1)
        assert [r.job for r in parallel] == jobs
        assert ([r.run.to_dict() for r in parallel]
                == [r.run.to_dict() for r in serial])

    def test_unshared_traces_are_built_in_the_workers(self, parent_builds):
        jobs = [SimJob(config=model_config("BIG"), benchmark=bench,
                       **SMALL) for bench in ("hmmer", "lbm")]
        assert all(r.ok for r in run_jobs(jobs, workers=2))
        assert parent_builds == []
        assert list(runner._TRACE_MEMO) == []

    def test_trace_memoised_before_the_call_is_used_and_kept(
            self, builds):
        key = _jobs()[0].trace_key
        traces = runner.trace_pair(*key)
        assert all(r.ok for r in run_jobs(_jobs(), workers=2))
        pids, names = zip(*builds())
        assert pids.count(os.getpid()) == 1  # the trace_pair call above
        assert set(names[1:]) == {"lbm"} and len(names) in (2, 3)
        assert list(runner._TRACE_MEMO) == [key]
        assert runner._TRACE_MEMO[key] is traces

    def test_full_memo_is_left_alone(self, parent_builds, monkeypatch):
        monkeypatch.setattr(runner, "TRACE_MEMO_LIMIT", 1)
        key = _jobs()[0].trace_key
        runner.trace_pair(*key)
        del parent_builds[:]
        assert all(r.ok for r in run_jobs(_jobs(), workers=2))
        assert parent_builds == []
        assert list(runner._TRACE_MEMO) == [key]

    def test_failed_parent_build_fails_the_jobs_not_the_sweep(
            self, parent_builds):
        jobs = [SimJob(config=model_config(model), benchmark="nope",
                       **SMALL) for model in ("BIG", "HALF+FX")]
        outcomes = run_jobs(jobs, workers=2)
        assert [o.cause for o in outcomes] == ["exception", "exception"]
        assert list(runner._TRACE_MEMO) == []

    @pytest.mark.parametrize("fault", [
        FaultSpec("flaky", "hmmer"),
        _FirstAttemptOnly(FaultSpec("die", "hmmer")),
    ], ids=["flaky", "die"])
    def test_retry_after_the_trace_is_released_matches_serial(
            self, parent_builds, fault):
        jobs = _jobs()
        serial = run_jobs(jobs, workers=1)
        runner._TRACE_MEMO.clear()
        previous = set_fault_injector(fault)
        try:
            parallel = run_jobs(jobs, workers=2, retries=1,
                                retry_backoff=0.0)
        finally:
            set_fault_injector(previous)
        assert all(isinstance(r, JobResult) for r in parallel)
        assert [r.attempts for r in parallel] == [
            2 if job.benchmark == "hmmer" else 1 for job in jobs]
        assert ([r.run.to_dict() for r in parallel]
                == [r.run.to_dict() for r in serial])
        assert list(runner._TRACE_MEMO) == []


class _OnAttempts(list):
    """``on_attempt`` hook recording ``(benchmark, status, worker_pid)``."""

    def __call__(self, job, attempt, started_ts, duration, status, pid):
        self.append((job.benchmark, status, pid))


class TestPersistentWorkers:
    """A parallel call forks at most ``workers`` processes and feeds
    them one job after another; a fault costs at most its own worker."""

    def test_fault_free_jobs_share_the_workers(self):
        outcomes = run_jobs(_jobs(), workers=2)
        pids = {o.worker_pid for o in outcomes}
        assert len(pids) <= 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_exception_keeps_its_worker(self):
        previous = set_fault_injector(FaultSpec("crash", "hmmer"))
        try:
            outcomes = run_jobs(_jobs(), workers=2)
        finally:
            set_fault_injector(previous)
        assert [o.ok for o in outcomes] == [
            job.benchmark != "hmmer" for job in _jobs()]
        pids = {o.worker_pid for o in outcomes}
        assert len(pids) <= 2 and os.getpid() not in pids

    def test_more_workers_than_cores_match_serial(self):
        jobs = [SimJob(config=model_config(model), benchmark=bench,
                       measure=300, warmup=600)
                for model in ("LITTLE", "BIG", "HALF+FX")
                for bench in ("hmmer", "lbm", "mcf", "gcc")]
        serial = run_jobs(jobs, workers=1)
        workers = 2 * (os.cpu_count() or 1) + 1
        previous = set_fault_injector(FaultSpec("flaky", "lbm"))
        try:
            parallel = run_jobs(jobs, workers=workers, timeout=60.0,
                                retries=1, retry_backoff=0.0)
        finally:
            set_fault_injector(previous)
        assert [r.job for r in parallel] == jobs
        assert ([r.run.to_dict() for r in parallel]
                == [r.run.to_dict() for r in serial])
        assert len({r.worker_pid for r in parallel}) <= workers
        assert multiprocessing.active_children() == []

    def test_result_waiting_in_its_pipe_is_not_charged_a_timeout(self):
        # The parent sits in on_result past the other job's deadline
        # while that job's result already waits in its pipe.
        jobs = [SimJob(config=model_config("BIG"), benchmark=bench,
                       measure=200, warmup=500)
                for bench in ("hmmer", "lbm")]
        results = []

        def slow(result):
            results.append(result.job.benchmark)
            if len(results) == 1:
                time.sleep(2.5)

        previous = set_fault_injector(FaultSpec("sleep", "lbm", 0.2))
        try:
            outcomes = run_jobs(jobs, workers=2, timeout=1.5,
                                on_result=slow)
        finally:
            set_fault_injector(previous)
        assert [o.ok for o in outcomes] == [True, True]
        assert sorted(results) == ["hmmer", "lbm"]

    @pytest.mark.parametrize("fault, status, timeout", [
        (FaultSpec("die", "hmmer"), "worker-death", None),
        (FaultSpec("hang", "hmmer", 60), "timeout", 2.0),
    ], ids=["die", "hang"])
    def test_lost_worker_costs_one_replacement(self, fault, status,
                                               timeout):
        jobs = [job for job in _jobs()
                if job.benchmark == "lbm" or job.config.name == "BIG"]
        serial = run_jobs(jobs, workers=1)
        attempts = _OnAttempts()
        previous = set_fault_injector(_FirstAttemptOnly(fault))
        try:
            parallel = run_jobs(jobs, workers=2, timeout=timeout,
                                retries=1, retry_backoff=0.0,
                                on_attempt=attempts)
        finally:
            set_fault_injector(previous)
        assert ([r.run.to_dict() for r in parallel]
                == [r.run.to_dict() for r in serial])
        assert [r.attempts for r in parallel] == [2, 1, 1]
        lost = [pid for _, seen, pid in attempts if seen == status]
        assert len(lost) == 1
        pids = [pid for _, _, pid in attempts]
        assert pids.count(lost[0]) == 1
        assert len(set(pids)) <= 3 and os.getpid() not in pids
        assert multiprocessing.active_children() == []
