"""Shared simulation driver for the experiment modules.

Mirrors the paper's methodology at Python scale: the paper skips 4 G
instructions and measures 100 M; we functionally warm the predictor and
caches on a prefix of the same instruction stream and measure a cycle-
accurate interval after it.

Results are cached at two levels.  A per-process memo keeps the figures
sharing a (model, benchmark) pair from re-simulating within one run; an
optional persistent :class:`~repro.experiments.diskcache.DiskCache`
(enabled by the CLI, see :func:`set_disk_cache`) survives the process so
repeated invocations skip simulation entirely.  ``run_benchmark`` checks
memory -> disk -> simulate.

:func:`run_sweep` is the one sweep engine: disk cache, sticky failure
records, then the fault-tolerant pool.  The job server and spool worker
call it directly; experiment modules declare their whole job list up
front via :func:`prefetch`, which hands the unmemoised jobs to
:func:`run_sweep` under the active :class:`SweepSettings` (worker count,
cache, fault policy) and seeds the memo, so the per-benchmark
``run_benchmark`` calls that follow are pure lookups.

Sweeps are fault tolerant: a job that crashes, hangs past the per-job
timeout or kills its worker is retried per :func:`set_fault_policy` and,
once its attempt budget is exhausted, *quarantined* — the sweep still
completes, the failure is recorded (in-process and, when a disk cache is
installed, as a persistent failure record), and later lookups see the
gap instead of re-paying the crash: ``run_benchmark(..., missing_ok=
True)`` returns None for a quarantined job, plain ``run_benchmark``
raises :class:`JobFailedError`, and :func:`complete_subset` filters a
benchmark list down to the rows every config has a result for.  Results
are persisted to the disk cache as they land (completion order), so an
interrupted sweep loses nothing and a resumed one re-runs only the
missing or failed jobs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import CoreConfig, CoreStats, build_core
from repro.core.warmup import functional_warmup
from repro.energy import EnergyBreakdown, EnergyModel
from repro.workloads import (
    TraceGenerator,
    build_program,
    get_profile,
    renumber_trace,
)

#: Default measured-interval length (dynamic instructions).
DEFAULT_MEASURE = 8_000
#: Default functional warm-up length.
DEFAULT_WARMUP = 30_000


@dataclass(frozen=True)
class BenchmarkRun:
    """One (model, benchmark) simulation plus its energy breakdown."""

    model: str
    benchmark: str
    stats: CoreStats
    energy: EnergyBreakdown

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def total_energy(self) -> float:
        return self.energy.total

    @property
    def per(self) -> float:
        """Performance/energy ratio = 1 / EDP (unnormalised)."""
        edp = self.energy.edp()
        return 1.0 / edp if edp else 0.0

    def to_dict(self) -> Dict:
        """Plain-dict form shared by the disk cache and CLI ``--json``."""
        return {
            "model": self.model,
            "benchmark": self.benchmark,
            "stats": self.stats.to_dict(),
            "energy": self.energy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BenchmarkRun":
        """Inverse of :meth:`to_dict`."""
        return cls(
            model=data["model"],
            benchmark=data["benchmark"],
            stats=CoreStats.from_dict(data["stats"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
        )


@dataclass(frozen=True)
class SweepSettings:
    """How :func:`prefetch` sweeps run.

    The fields are the :func:`run_sweep` keywords of the same names:
    ``workers`` processes, the persistent ``cache`` (a
    :class:`~repro.experiments.diskcache.DiskCache`, None = disabled)
    and the fault policy (see :func:`set_fault_policy`).
    :func:`set_jobs`, :func:`set_disk_cache` and :func:`set_fault_policy`
    replace fields of the active record; :func:`configured` swaps in a
    whole record for a block.
    """

    workers: int = 1
    cache: Optional[object] = None
    timeout: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 0.25
    resume: bool = False
    fail_fast: bool = False


_CACHE: Dict[Tuple, BenchmarkRun] = {}
#: Generated (warm, measure) trace pairs keyed by (benchmark, measure,
#: warmup, seed); every model simulating the same benchmark interval
#: replays the identical immutable trace.  See :func:`trace_pair`.
_TRACE_MEMO: Dict[Tuple, Tuple[list, list]] = {}
#: Most traces :data:`_TRACE_MEMO` holds; a miss on a full memo empties
#: it first, which bounds memory on long sweeps.
TRACE_MEMO_LIMIT = 64
#: Accounting for every job actually simulated by this process (pool
#: fan-outs and cache-miss ``run_benchmark`` calls alike); drained by
#: :func:`pop_job_records` for the CLI's manifest and slowest-jobs view.
#: Holds both ``JobResult`` and (quarantined) ``JobFailure`` records.
_JOB_RECORDS: List = []
#: Quarantined jobs, keyed like :data:`_CACHE`; see :func:`failed_runs`.
_FAILED: Dict[Tuple, object] = {}
#: Every run :func:`run_benchmark` served since the last drain — from
#: the memory cache, the disk cache, or a fresh simulation alike.  The
#: CLI drains it via :func:`pop_served_runs` to build the manifest's
#: per-(model, benchmark) aggregates, which must also cover sweeps that
#: replayed entirely from cache.
_SERVED: Dict[Tuple, BenchmarkRun] = {}
#: The active sweep settings.
_SETTINGS = SweepSettings()


class JobFailedError(RuntimeError):
    """A requested run was quarantined as failed by the last sweep.

    Raised by :func:`run_benchmark` (without ``missing_ok``) instead of
    re-running a job the pool already crashed/hung on; ``failure`` is
    the structured :class:`~repro.experiments.pool.JobFailure`.
    """

    def __init__(self, failure):
        self.failure = failure
        super().__init__(failure.describe())


def _config_key(config: CoreConfig) -> Tuple:
    """Memo key covering the *complete* configuration.

    Derived from every ``CoreConfig`` field (``dataclasses.astuple``
    recurses into the IXU / cluster / hierarchy sub-configs), so two
    configs differing in any parameter — LSQ or PRF capacity, predictor
    geometry, cache sizes, ... — can never alias to one cached run.
    """
    return dataclasses.astuple(config)


def trace_pair(benchmark: str, measure: int, warmup: int,
               seed: int = 0) -> Tuple[list, list]:
    """The (warm-up, measured) traces of one benchmark interval.

    Served from the process memo :data:`_TRACE_MEMO`, else derived from
    the benchmark profile and seed and memoised.  :func:`simulate`
    reads its traces here, in a parallel sweep's workers too, each of
    which keeps the trace it built for as long as it runs that trace's
    jobs (see :mod:`repro.experiments.pool`).
    """
    key = (benchmark, measure, warmup, seed)
    traces = _TRACE_MEMO.get(key)
    if traces is None:
        generator = TraceGenerator(
            build_program(get_profile(benchmark), seed=seed), seed=seed
        )
        traces = (generator.generate(warmup),
                  renumber_trace(generator.generate(measure)))
        if len(_TRACE_MEMO) >= TRACE_MEMO_LIMIT:
            _TRACE_MEMO.clear()
        _TRACE_MEMO[key] = traces
    return traces


def retain_traces(keys: Iterable[Tuple]) -> None:
    """Drop every :data:`_TRACE_MEMO` entry whose key is not in ``keys``.

    A long-lived process that serves one sweep after another (the job
    server) calls this before each sweep with the trace keys it
    replays, so the memo holds at most one sweep's traces while a sweep
    over the same intervals as the one before still reuses them.
    """
    keep = set(keys)
    for key in [key for key in _TRACE_MEMO if key not in keep]:
        del _TRACE_MEMO[key]


def simulate(
    config: CoreConfig,
    benchmark: str,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    obs=None,
) -> BenchmarkRun:
    """Simulate one benchmark on one core model, bypassing all caches.

    A pure function of its arguments (the trace is re-derived from the
    benchmark profile and seed), which is what makes the result safe to
    compute in a worker process or load back from disk.  Traces come
    from :func:`trace_pair`: ``DynInst`` records are immutable and the
    cores never mutate the trace list, so every model simulating the
    same benchmark interval replays one shared trace, memoised in this
    process: in a parallel sweep, the worker that runs the trace's jobs
    (its memo also holds what the parent's held when it was forked).

    ``obs`` optionally attaches a :class:`repro.obs.Observability`
    bundle to the simulated core (stall attribution, occupancy metrics,
    pipeline traces); observed runs are never cached, so the caching
    entry points don't take it.
    """
    warm_trace, measure_trace = trace_pair(benchmark, measure, warmup,
                                           seed)
    core = build_core(config, obs=obs)
    functional_warmup(core, warm_trace)
    stats = core.run(measure_trace)
    stats.benchmark = benchmark
    energy = EnergyModel(config).evaluate(stats)
    return BenchmarkRun(model=config.name, benchmark=benchmark,
                        stats=stats, energy=energy)


def run_benchmark(
    config: CoreConfig,
    benchmark: str,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    use_cache: bool = True,
    missing_ok: bool = False,
) -> Optional[BenchmarkRun]:
    """Simulate one benchmark on one core model (memory -> disk -> sim).

    A job quarantined as failed (by this invocation's sweep or by a
    persisted failure record from an earlier one) is **not** re-run:
    with ``missing_ok`` the lookup returns None (figure modules render
    the gap), otherwise :class:`JobFailedError` is raised.  Pass
    ``use_cache=False`` to force a fresh in-process simulation
    regardless of caches and quarantine records.
    """
    from repro.experiments.pool import JobFailure, JobResult, SimJob

    key = (_config_key(config), benchmark, measure, warmup, seed)
    if use_cache:
        hit = _CACHE.get(key)
        if hit is not None:
            _SERVED[key] = hit
            return hit
        disk = _SETTINGS.cache
        if disk is not None:
            run = disk.load(config, benchmark, measure, warmup, seed)
            if run is not None:
                _CACHE[key] = run
                _FAILED.pop(key, None)
                _SERVED[key] = run
                return run
            if key not in _FAILED and not _SETTINGS.resume:
                record = disk.load_failure(
                    config, benchmark, measure, warmup, seed)
                if record is not None:
                    _FAILED[key] = JobFailure.from_dict(
                        SimJob(config=config, benchmark=benchmark,
                               measure=measure, warmup=warmup,
                               seed=seed),
                        record)
        failure = _FAILED.get(key)
        if failure is not None:
            if missing_ok:
                return None
            raise JobFailedError(failure)

    started_ts = time.time()
    started = time.perf_counter()
    run = simulate(config, benchmark, measure, warmup, seed)
    _JOB_RECORDS.append(JobResult(
        job=SimJob(config=config, benchmark=benchmark, measure=measure,
                   warmup=warmup, seed=seed),
        run=run, wall_seconds=time.perf_counter() - started,
        started_ts=started_ts,
    ))
    _SERVED[key] = run
    if use_cache:
        _CACHE[key] = run
        if _SETTINGS.cache is not None:
            _SETTINGS.cache.store(config, benchmark, measure, warmup,
                                  seed, run)
    return run


@dataclass
class SweepOutcome:
    """One job's answer from :func:`run_sweep`, whatever served it.

    ``source`` records where the answer came from: ``"cache"`` (disk
    hit, zero simulation), ``"quarantine"`` (a sticky failure record
    from an earlier sweep; the job was not re-crashed), or
    ``"simulated"`` (the pool ran it — ``failure`` is set if it
    exhausted its retry budget this time).
    """

    job: object                       # pool.SimJob
    source: str                       # "cache" | "quarantine" | "simulated"
    run: Optional[BenchmarkRun] = None
    failure: Optional[object] = None  # pool.JobFailure
    wall_seconds: float = 0.0
    attempts: int = 0
    worker_pid: int = 0
    started_ts: float = 0.0

    @property
    def ok(self) -> bool:
        return self.run is not None


def run_sweep(
    jobs,
    workers: int = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 0,
    retry_backoff: float = 0.25,
    resume: bool = False,
    fail_fast: bool = False,
    on_outcome=None,
    on_attempt=None,
) -> List[SweepOutcome]:
    """Serve a job list end to end: cache dedup, quarantine, pool.

    The sweep engine: :func:`prefetch` runs the experiment modules'
    sweeps through it, and the ``repro.serve`` job server and spool
    worker call it directly.  No module globals are read or written,
    so concurrent sweeps can run on different threads against
    different caches.  Every job is answered — straight from ``cache``
    when its fingerprint is already stored (identical digest ⇒ zero
    simulation), from a sticky quarantine record (unless ``resume``
    clears it), or by fanning the misses over the fault-tolerant pool
    under the given retry/timeout policy.  Fresh successes and failures
    are persisted back to ``cache`` as they land.  With ``fail_fast``
    the first job to exhaust its retry budget aborts the sweep with
    :class:`~repro.experiments.pool.SweepAborted`; the successes before
    it are already persisted.

    ``on_outcome`` fires once per *distinct* job in serving order —
    cache hits and quarantine replays first, then pool completions in
    completion order — which is what the server streams to clients.
    ``on_attempt`` is the pool's per-attempt telemetry hook (see
    :func:`repro.experiments.pool.run_jobs`), passed through verbatim
    so the serving layer can record one trace span per execution
    attempt, retries included.  Returns one :class:`SweepOutcome` per
    input job in submission order; duplicate (equal) jobs share a
    single execution and outcome.
    """
    from repro.experiments.pool import JobFailure, SimJob, run_jobs

    jobs = list(jobs)
    outcomes: List[Optional[SweepOutcome]] = [None] * len(jobs)
    indices: Dict[SimJob, List[int]] = {}
    misses: List[SimJob] = []

    def _emit(job: SimJob, outcome: SweepOutcome) -> None:
        for index in indices[job]:
            outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    for index, job in enumerate(jobs):
        if job in indices:
            indices[job].append(index)
            continue
        indices[job] = [index]
        if cache is not None:
            run = cache.load(job.config, job.benchmark, job.measure,
                             job.warmup, job.seed)
            if run is not None:
                _emit(job, SweepOutcome(job=job, source="cache",
                                        run=run))
                continue
            record = cache.load_failure(job.config, job.benchmark,
                                        job.measure, job.warmup, job.seed)
            if record is not None:
                if resume:
                    cache.clear_failure(job.config, job.benchmark,
                                        job.measure, job.warmup, job.seed)
                else:
                    failure = JobFailure.from_dict(job, record)
                    _emit(job, SweepOutcome(
                        job=job, source="quarantine", failure=failure,
                        attempts=failure.attempts,
                        wall_seconds=failure.wall_seconds,
                        worker_pid=failure.worker_pid))
                    continue
        misses.append(job)
    if not misses:
        return outcomes  # type: ignore[return-value]

    def _landed(result) -> None:
        # Completion-order incremental persistence + streaming: an
        # interrupted sweep loses nothing.  In pool mode the JobResult
        # crossed a process boundary, so its job is an equal (not
        # identical) copy — which still finds its slots in ``indices``.
        job = result.job
        if cache is not None:
            cache.store(job.config, job.benchmark, job.measure,
                        job.warmup, job.seed, result.run)
        _emit(job, SweepOutcome(
            job=job, source="simulated", run=result.run,
            wall_seconds=result.wall_seconds, attempts=result.attempts,
            worker_pid=result.worker_pid, started_ts=result.started_ts))

    pool_outcomes = run_jobs(misses, workers=workers, timeout=timeout,
                             retries=retries,
                             retry_backoff=retry_backoff,
                             fail_fast=fail_fast, on_result=_landed,
                             on_attempt=on_attempt)
    for job, outcome in zip(misses, pool_outcomes):
        if isinstance(outcome, JobFailure):
            if cache is not None:
                cache.store_failure(job.config, job.benchmark,
                                    job.measure, job.warmup, job.seed,
                                    outcome.to_dict())
            _emit(job, SweepOutcome(
                job=job, source="simulated", failure=outcome,
                attempts=outcome.attempts,
                wall_seconds=outcome.wall_seconds,
                worker_pid=outcome.worker_pid))
    return outcomes  # type: ignore[return-value]


def prefetch(
    pairs: Iterable[Tuple[CoreConfig, str]],
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
) -> int:
    """Simulate every uncached (config, benchmark) pair via the pool.

    Experiment modules call this with their complete job list before
    reading any individual result.  Pairs already memoised — or
    quarantined in this process, outside resume mode — are skipped;
    the rest go to :func:`run_sweep` under the active
    :class:`SweepSettings`, and its outcomes seed the memo and the
    quarantine map so the ``run_benchmark`` calls that follow never
    simulate.  Returns the number of jobs the pool actually ran
    (successes plus quarantined failures); their
    :class:`~repro.experiments.pool.JobResult` / ``JobFailure`` records
    join :func:`pop_job_records` in submission order.

    Jobs with a persisted disk failure record are quarantined, not
    re-crashed; resume mode (:func:`set_fault_policy` ``resume=True``)
    clears those records and re-runs exactly the missing/failed subset.
    Successful results are persisted to the disk cache as they
    complete, so an interrupted or ``fail_fast``-aborted sweep keeps
    everything already finished.
    """
    from repro.experiments.pool import JobResult, SimJob, SweepAborted

    settings = _SETTINGS
    todo: Dict[Tuple, SimJob] = {}
    for config, benchmark in pairs:
        key = (_config_key(config), benchmark, measure, warmup, seed)
        if key in _CACHE or key in todo:
            continue
        if key in _FAILED:
            if not settings.resume:
                continue
            del _FAILED[key]
        todo[key] = SimJob(config=config, benchmark=benchmark,
                           measure=measure, warmup=warmup, seed=seed)
    if not todo:
        return 0
    try:
        outcomes = run_sweep(list(todo.values()), **vars(settings))
    except SweepAborted as aborted:
        # run_sweep already persisted the completed results; memoise
        # them too so the caller can salvage them.
        _JOB_RECORDS.extend(aborted.completed)
        _JOB_RECORDS.append(aborted.failure)
        for result in aborted.completed:
            job = result.job
            _CACHE[(_config_key(job.config), job.benchmark, job.measure,
                    job.warmup, job.seed)] = result.run
        raise
    simulated = 0
    for key, outcome in zip(todo, outcomes):
        if outcome.ok:
            _CACHE[key] = outcome.run
        else:
            _FAILED[key] = outcome.failure
        if outcome.source == "simulated":
            simulated += 1
            _JOB_RECORDS.append(outcome.failure or JobResult(
                job=outcome.job, run=outcome.run,
                wall_seconds=outcome.wall_seconds,
                worker_pid=outcome.worker_pid, attempts=outcome.attempts,
                started_ts=outcome.started_ts))
    return simulated


def complete_subset(
    configs: Iterable[CoreConfig],
    benchmarks: Iterable[str],
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
) -> List[str]:
    """Benchmarks for which *every* config has a non-quarantined run.

    Figure modules call this right after :func:`prefetch` to degrade
    gracefully: a benchmark any model failed on is dropped from the
    aggregates (its absence is the explicit gap) instead of crashing
    the figure.  Pure bookkeeping — never triggers a simulation.
    """
    config_keys = [_config_key(config) for config in configs]
    return [
        benchmark for benchmark in benchmarks
        if not any(
            (config_key, benchmark, measure, warmup, seed) in _FAILED
            for config_key in config_keys
        )
    ]


def failed_runs() -> List:
    """Every currently-quarantined
    :class:`~repro.experiments.pool.JobFailure`, submission order not
    guaranteed.  The CLI renders these as the failure summary table."""
    return list(_FAILED.values())


def pop_job_records() -> List:
    """Drain the accumulated :class:`~repro.experiments.pool.JobResult`
    accounting (every job this process simulated since the last drain).

    The CLI calls this once per invocation to build the run manifest
    and the slowest-jobs summary; tests use it to assert what actually
    simulated versus came from a cache.
    """
    records = list(_JOB_RECORDS)
    _JOB_RECORDS.clear()
    return records


def pop_served_runs() -> List[BenchmarkRun]:
    """Drain every :class:`BenchmarkRun` served since the last drain
    (cache replays included), deduplicated per job key.

    The CLI builds the manifest's per-(model, benchmark) aggregates
    from this, so a warm-cache invocation still records what its tables
    were computed from.
    """
    runs = list(_SERVED.values())
    _SERVED.clear()
    return runs


def set_fault_policy(
    retries: int = 0,
    retry_backoff: float = 0.25,
    fail_fast: bool = False,
    timeout: Optional[float] = None,
    resume: bool = False,
) -> None:
    """Configure how :func:`prefetch` sweeps treat failing jobs.

    Args:
        retries: Attempts beyond the first before a job is quarantined.
        retry_backoff: Base exponential-backoff delay between attempts.
        fail_fast: Abort the sweep on the first quarantined job
            (:class:`~repro.experiments.pool.SweepAborted`) instead of
            degrading gracefully.
        timeout: Per-job execution-time limit in seconds (None = no
            limit); see :func:`repro.experiments.pool.run_jobs` for the
            exact semantics.
        resume: Retry jobs previously quarantined (clearing their
            persisted failure records) instead of skipping them.

    Calling with no arguments restores the defaults.
    """
    global _SETTINGS
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    _SETTINGS = dataclasses.replace(
        _SETTINGS, retries=retries, retry_backoff=retry_backoff,
        fail_fast=fail_fast, timeout=timeout, resume=resume)


def get_fault_policy() -> Dict:
    """The active :func:`set_fault_policy` settings as a plain dict."""
    return {name: getattr(_SETTINGS, name) for name in
            ("retries", "retry_backoff", "fail_fast", "timeout", "resume")}


def set_jobs(jobs: int) -> None:
    """Set the worker-process count :func:`prefetch` fans out over."""
    global _SETTINGS
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _SETTINGS = dataclasses.replace(_SETTINGS, workers=jobs)


def set_disk_cache(cache) -> None:
    """Install (or with None remove) the persistent result cache."""
    global _SETTINGS
    _SETTINGS = dataclasses.replace(_SETTINGS, cache=cache)


@contextlib.contextmanager
def configured(settings: SweepSettings, injector=None):
    """Run a block under ``settings`` and the fault ``injector`` (see
    :func:`repro.experiments.pool.set_fault_injector`).

    The block starts and ends with empty :func:`pop_job_records` /
    :func:`pop_served_runs` accounting, so it reads only its own jobs;
    the previous settings and injector come back on exit.
    """
    global _SETTINGS
    from repro.experiments.pool import set_fault_injector

    previous = _SETTINGS
    previous_injector = set_fault_injector(injector)
    _SETTINGS = settings
    _JOB_RECORDS.clear()
    _SERVED.clear()
    try:
        yield settings
    finally:
        _SETTINGS = previous
        set_fault_injector(previous_injector)
        _JOB_RECORDS.clear()
        _SERVED.clear()


def clear_cache() -> None:
    """Drop all memoised runs and quarantined failures in this process
    (tests use this).

    Only the in-memory state is cleared; use ``DiskCache.clear()`` to
    purge the persistent store (including disk failure records).
    """
    _CACHE.clear()
    _FAILED.clear()
    _SERVED.clear()


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper aggregates every figure this way.

    Accepts any iterable, including one-pass generators.  Non-positive
    entries have no geometric mean; the error names the offending value
    and its position so a broken upstream metric is findable.
    """
    log_sum = 0.0
    count = 0
    for index, value in enumerate(values):
        if value <= 0:
            raise ValueError(
                f"geomean requires positive values; entry {index} "
                f"is {value!r}"
            )
        log_sum += math.log(value)
        count += 1
    if not count:
        return 0.0
    return math.exp(log_sum / count)
