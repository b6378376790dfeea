"""Shared simulation driver for the experiment modules.

Mirrors the paper's methodology at Python scale: the paper skips 4 G
instructions and measures 100 M; we functionally warm the predictor and
caches on a prefix of the same instruction stream and measure a cycle-
accurate interval after it.  Each interval's measured trace, and the
warmed caches and predictor of every geometry that has replayed it, are
memoised per process (:func:`interval`), so the models sharing an
interval and a geometry build and warm up once between them.

Results are cached at two levels.  A per-process memo keeps the figures
sharing a (model, benchmark) pair from re-simulating within one run; an
optional persistent :class:`~repro.experiments.diskcache.DiskCache`
(enabled by the CLI, see :func:`set_disk_cache`) survives the process so
repeated invocations skip simulation entirely.  Both key on the job's
one identity, :class:`~repro.experiments.pool.SimJob`.

:func:`run_sweep` is the one sweep engine: :func:`cached_outcome` (disk
cache, then sticky failure records), then the fault-tolerant pool.  The
job server and spool worker call it directly.  Experiment modules sweep
one configs x benchmarks grid each through :func:`run_grid`: its
:func:`prefetch` hands the unmemoised jobs to :func:`run_sweep` under
the active :class:`SweepSettings` (worker count, cache, fault policy)
and seeds the memo, so the ``run_benchmark`` reads that follow are pure
lookups; a lookup that misses goes through :func:`prefetch` itself.

Sweeps are fault tolerant: a job that crashes, hangs past the per-job
timeout or kills its worker is retried per :func:`set_fault_policy` and,
once its attempt budget is exhausted, *quarantined* — the sweep still
completes, the failure is recorded (in-process and, when a disk cache is
installed, as a persistent failure record), and later lookups see the
gap instead of re-paying the crash: ``run_benchmark(..., missing_ok=
True)`` returns None for a quarantined job, plain ``run_benchmark``
raises :class:`JobFailedError`, and :meth:`Grid.complete` lists the
benchmarks every config of a grid has a result for.  Results
are persisted to the disk cache as they land (completion order), so an
interrupted sweep loses nothing and a resumed one re-runs only the
missing or failed jobs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import pickle
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import repro
from repro.core import CoreConfig, CoreStats, build_core
from repro.core.warmup import functional_warmup
from repro.energy import EnergyBreakdown, EnergyModel
from repro.experiments.diskcache import code_version
from repro.experiments.pool import (
    JobFailure,
    JobResult,
    SimJob,
    SweepAborted,
    run_jobs,
    set_fault_injector,
)
from repro.workloads import TraceGenerator, build_program, get_profile

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
    """A sweep's policy: how :func:`prefetch` and the job server run.

    The fields are the :func:`run_sweep` keywords of the same names:
    ``workers`` processes, the persistent ``cache`` (a
    :class:`~repro.experiments.diskcache.DiskCache`, None = disabled)
    and the fault policy (see :func:`set_fault_policy`); a value out of
    bounds raises ValueError.  :func:`set_jobs`, :func:`set_disk_cache`
    and :func:`set_fault_policy` replace fields of the active record;
    :func:`configured` swaps in a whole record for a block.
    """

    workers: int = 1
    cache: Optional[object] = None
    timeout: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 0.25
    resume: bool = False
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")


def timestamp(seconds: float) -> str:
    """Every timestamp the harness writes (a manifest's ``started_at``
    and ``finished_at``, a BENCH_simspeed entry's ``finished_at``, the
    server's ``/v1/status`` ``started_at``): local time with its UTC
    offset, to the second, e.g. ``2026-10-19T10:38:26+0000``."""
    return time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(seconds))


def build_manifest(settings: SweepSettings, answers, failures,
                   started: float, *, command, experiments, benchmarks,
                   measure: int, warmup: int, runs, seed: int = 0,
                   outputs: Optional[Dict[str, str]] = None,
                   observed: Optional[Dict] = None):
    """The :class:`~repro.obs.manifest.RunManifest` of one harness
    invocation: a CLI run, a DSE run or one served batch.

    ``settings`` is the :class:`SweepSettings` it ran under, ``answers``
    the pool ``JobResult``/``JobFailure`` records of the jobs it
    simulated (as :func:`pop_job_records` returns them), ``failures``
    the distinct jobs it answered as failed, and ``started`` its start,
    host wall-clock epoch seconds; the wall-clock fields end now.
    ``runs`` are the ``(SimJob, BenchmarkRun)`` pairs the aggregates
    describe, in the order they are recorded: an aggregate's
    ``wall_seconds`` is its job's in ``answers``, 0.0 for a job
    answered without simulating.  ``observed`` maps a ``(model,
    benchmark)`` pair to more :func:`~repro.obs.manifest.aggregate_entry`
    keywords, from an observed pass.  The other keywords are the
    manifest fields of the same names.
    """
    # Here, not at the top: a sweep that records no manifest never
    # loads repro.obs.
    from repro.obs.manifest import JobRecord, RunManifest, aggregate_entry

    finished = time.time()
    wall = {answer.job: answer.wall_seconds
            for answer in answers if answer.ok}
    observed = observed or {}
    return RunManifest(
        command=list(command),
        experiments=list(experiments),
        benchmarks=benchmarks,
        measure=measure,
        warmup=warmup,
        seed=seed,
        code_version=code_version(),
        repro_version=repro.__version__,
        started_at=timestamp(started),
        finished_at=timestamp(finished),
        wall_seconds=finished - started,
        workers=settings.workers,
        jobs_simulated=sum(1 for answer in answers if answer.ok),
        jobs_failed=len(failures),
        fault_policy={name: getattr(settings, name) for name in (
            "retries", "retry_backoff", "fail_fast", "timeout", "resume")},
        job_records=[JobRecord.from_pool(answer) for answer in answers],
        cache=(settings.cache.counters()
               if settings.cache is not None else {}),
        outputs=dict(outputs or {}),
        aggregates=[
            aggregate_entry(run, wall_seconds=wall.get(job, 0.0),
                            **observed.get((run.model, run.benchmark), {}))
            for job, run in runs],
    )


class Interval:
    """One benchmark interval as :data:`_TRACE_MEMO` holds it.

    ``trace`` is the measured trace, numbered from 0.  ``warm_states``
    maps a :func:`warm_state_key` to the pickled ``(CacheHierarchy,
    BranchPredictor)`` pair that a functional warm-up on the interval's
    warm-up stream leaves behind; the stream itself is not kept, and
    :meth:`warm_up` regenerates it from ``program`` when its caller does
    not hold it.  Every model replaying the interval shares ``trace``: the
    cores never write to a trace record.
    """

    __slots__ = ("program", "seed", "warmup", "trace", "warm_states")

    def __init__(self, program, seed: int, warmup: int, trace: list):
        self.program = program
        self.seed = seed
        self.warmup = warmup
        self.trace = trace
        self.warm_states: Dict[Tuple, bytes] = {}

    def warmed_core(self, config: CoreConfig, obs=None,
                    warm_trace: Optional[list] = None):
        """A core for ``config`` whose caches and predictor stand as a
        functional warm-up on this interval leaves them: built around a
        copy of the pair memoised for its :func:`warm_state_key`, or,
        while no core of that key has warmed up here, built cold and
        warmed up (:meth:`warm_up`).  (A pickle round trip is several
        times faster than ``copy.deepcopy`` of the same state.)
        """
        state = self.warm_states.get(warm_state_key(config))
        if state is not None:
            return build_core(config, obs=obs,
                              warm_state=pickle.loads(state))
        core = build_core(config, obs=obs)
        self.warm_up(core, warm_trace)
        return core

    def warm_up(self, core, warm_trace: Optional[list] = None) -> None:
        """Run a functional warm-up of ``core`` on this interval and
        memoise the caches and predictor it leaves under the core's
        :func:`warm_state_key`.

        ``warm_trace`` is the warm-up stream when the caller already
        has it.
        """
        if warm_trace is None:
            warm_trace = TraceGenerator(
                self.program, seed=self.seed).generate(self.warmup)
        functional_warmup(core, warm_trace)
        self.warm_states[warm_state_key(core.config)] = pickle.dumps(
            (core.hierarchy, core.predictor), pickle.HIGHEST_PROTOCOL)


def warm_state_key(config: CoreConfig) -> Tuple:
    """The configuration fields a functional warm-up depends on: those
    that :func:`~repro.core.warmup.functional_warmup` and the
    ``CacheHierarchy`` and ``BranchPredictor`` constructors read."""
    return (config.hierarchy, config.pht_entries, config.btb_entries,
            config.ras_depth, config.predictor_kind)


#: Memoised runs, keyed by :class:`~repro.experiments.pool.SimJob`.
_CACHE: Dict[SimJob, BenchmarkRun] = {}
#: :class:`Interval` entries keyed by (benchmark, measure, warmup,
#: seed); see :func:`interval`.
_TRACE_MEMO: Dict[Tuple, Interval] = {}
#: Most entries :data:`_TRACE_MEMO` holds; a miss on a full memo empties
#: it first, which bounds memory on long sweeps.
TRACE_MEMO_LIMIT = 64
#: Accounting for every job actually simulated by this process's
#: sweeps; drained by :func:`pop_job_records` for the CLI's manifest and
#: slowest-jobs view.  Holds both ``JobResult`` and (quarantined)
#: ``JobFailure`` records.
_JOB_RECORDS: List = []
#: Quarantined jobs, keyed like :data:`_CACHE`; see :func:`failed_runs`.
_FAILED: Dict[SimJob, JobFailure] = {}
#: Every run :func:`run_benchmark` served since the last drain — from
#: the memory cache, the disk cache, or a fresh simulation alike.  The
#: CLI drains it via :func:`pop_served_runs` to build the manifest's
#: per-(model, benchmark) aggregates, which must also cover sweeps that
#: replayed entirely from cache.
_SERVED: Dict[SimJob, BenchmarkRun] = {}
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


def interval(benchmark: str, measure: int, warmup: int,
             seed: int = 0) -> Interval:
    """The :class:`Interval` of one benchmark interval.

    Served from the process memo :data:`_TRACE_MEMO`, else derived from
    the benchmark profile and seed and memoised.  :func:`simulate`
    reads its trace and warm state here, in a parallel sweep's workers
    too, each of which keeps the entry it built for as long as it runs
    that interval's jobs (see :mod:`repro.experiments.pool`).
    """
    return _interval(benchmark, measure, warmup, seed)[0]


def _interval(benchmark: str, measure: int, warmup: int,
              seed: int) -> Tuple[Interval, Optional[list]]:
    """:func:`interval`, plus the warm-up stream when this call built
    the entry (else None)."""
    key = (benchmark, measure, warmup, seed)
    entry = _TRACE_MEMO.get(key)
    if entry is not None:
        return entry, None
    program = build_program(get_profile(benchmark), seed=seed)
    generator = TraceGenerator(program, seed=seed)
    warm_trace = generator.generate(warmup)
    generator.seq = 0
    entry = Interval(program, seed, warmup, generator.generate(measure))
    if len(_TRACE_MEMO) >= TRACE_MEMO_LIMIT:
        _TRACE_MEMO.clear()
    _TRACE_MEMO[key] = entry
    return entry, warm_trace


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
    compute in a worker process or load back from disk.  The trace and
    the warmed caches and predictor come from :func:`interval`: every
    model simulating the same benchmark interval replays one shared
    trace, and every model of the same :func:`warm_state_key` starts
    from one memoised warm-up, both memoised in this process: in a
    parallel sweep, the worker that runs the interval's jobs (its memo
    also holds what the parent's held when it was forked).  A core
    after the first of its key is built around a copy of that warm
    state, so it constructs no caches or predictor of its own.

    ``obs`` optionally attaches a :class:`repro.obs.Observability`
    bundle to the simulated core (stall attribution, occupancy metrics,
    pipeline traces); observed runs are never cached, so the caching
    entry points don't take it.
    """
    entry, warm_trace = _interval(benchmark, measure, warmup, seed)
    core = entry.warmed_core(config, obs, warm_trace)
    stats = core.run(entry.trace)
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
    missing_ok: bool = False,
) -> Optional[BenchmarkRun]:
    """One benchmark on one core model, from the memo.

    A job neither memoised nor quarantined in this process is first
    handed to :func:`prefetch`, so it is answered as any sweep job is:
    from the disk cache, a sticky failure record, or the pool under the
    active :class:`SweepSettings` and fault injector.  A quarantined job
    is **not** re-run: with ``missing_ok`` the lookup returns None
    (figure modules render the gap), otherwise :class:`JobFailedError`
    is raised.
    """
    job = SimJob(config=config, benchmark=benchmark, measure=measure,
                 warmup=warmup, seed=seed)
    run = _CACHE.get(job)
    if run is None and job not in _FAILED:
        prefetch([(config, benchmark)], measure, warmup, seed)
        run = _CACHE.get(job)
    if run is None:
        if missing_ok:
            return None
        raise JobFailedError(_FAILED[job])
    _SERVED[job] = run
    return run


def cached_outcome(job: SimJob, cache,
                   resume: bool) -> Optional[Union[JobResult, JobFailure]]:
    """Answer ``job`` without simulating it, or None when it must run.

    The one cache/quarantine step of every sweep, shared by
    :func:`run_sweep` and the job server: a hit in the disk ``cache`` is
    a ``"cache"`` :class:`~repro.experiments.pool.JobResult`; else a
    persisted failure record is its
    :class:`~repro.experiments.pool.JobFailure`, as a ``"quarantine"``
    answer, unless ``resume``, which clears the record so the job runs
    again.
    """
    run = cache.load(job)
    if run is not None:
        return JobResult(job=job, run=run, source="cache", attempts=0,
                         worker_pid=0)
    failure = cache.load_failure(job)
    if failure is None:
        return None
    if resume:
        cache.clear_failure(job)
        return None
    failure.source = "quarantine"
    return failure


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
    isolate: bool = False,
) -> List[Union[JobResult, JobFailure]]:
    """Serve a job list end to end: cache dedup, quarantine, pool.

    The sweep engine: :func:`prefetch` runs the experiment modules'
    sweeps through it, and the ``repro.serve`` job server and spool
    worker call it directly.  No module globals are read or written,
    so concurrent sweeps can run on different threads against
    different caches.  Every job is answered — by :func:`cached_outcome`
    when ``cache`` already holds its digest (zero simulation) or a
    sticky quarantine record (unless ``resume`` clears it), else by
    fanning the misses over the fault-tolerant pool under the given
    retry/timeout policy.  Fresh successes and failures are persisted
    back to ``cache`` as they land.  With ``fail_fast`` the first job
    to exhaust its retry budget aborts the sweep with
    :class:`~repro.experiments.pool.SweepAborted`; the successes before
    it are already persisted.

    ``on_outcome`` fires once per *distinct* job in serving order —
    cache hits and quarantine replays first, then pool completions in
    completion order — which is what the server streams to clients.
    ``on_attempt`` is the pool's per-attempt telemetry hook (see
    :func:`repro.experiments.pool.run_jobs`), passed through verbatim
    so the serving layer can record one trace span per execution
    attempt, retries included; so is ``isolate``, with which the job
    server keeps every simulation out of its own process.  Returns one
    answer per input job in submission order, the pool's or
    :func:`cached_outcome`'s :class:`~repro.experiments.pool.JobResult`
    or :class:`~repro.experiments.pool.JobFailure` as it is, its
    ``source`` telling which; duplicate (equal) jobs share a single
    execution and record.
    """
    jobs = list(jobs)
    outcomes: List[Optional[Union[JobResult, JobFailure]]] = (
        [None] * len(jobs))
    indices: Dict[SimJob, List[int]] = {}
    misses: List[SimJob] = []

    def _emit(job: SimJob, outcome: Union[JobResult, JobFailure]) -> None:
        for index in indices[job]:
            outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    for index, job in enumerate(jobs):
        indices.setdefault(job, []).append(index)
    for job in indices:
        outcome = (None if cache is None
                   else cached_outcome(job, cache, resume))
        if outcome is None:
            misses.append(job)
        else:
            _emit(job, outcome)
    if not misses:
        return outcomes  # type: ignore[return-value]

    def _landed(result: JobResult) -> None:
        # Completion-order incremental persistence + streaming: an
        # interrupted sweep loses nothing.  The result's job is the
        # miss itself (the pool reattaches the job it sent), so its
        # digest is the one computed for the cache lookup above.
        if cache is not None:
            cache.store(result.job, result.run)
        _emit(result.job, result)

    pool_outcomes = run_jobs(misses, workers=workers, timeout=timeout,
                             retries=retries,
                             retry_backoff=retry_backoff,
                             fail_fast=fail_fast, on_result=_landed,
                             on_attempt=on_attempt, isolate=isolate)
    for job, outcome in zip(misses, pool_outcomes):
        if isinstance(outcome, JobFailure):
            if cache is not None:
                cache.store_failure(job, outcome.to_dict())
            _emit(job, outcome)
    return outcomes  # type: ignore[return-value]


def prefetch(
    pairs: Iterable[Tuple[CoreConfig, str]],
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
) -> int:
    """Simulate every uncached (config, benchmark) pair via the pool.

    :func:`run_grid` calls this with a figure's whole job list before
    it reads any individual result.  Pairs already memoised — or
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
    settings = _SETTINGS
    todo: Dict[SimJob, None] = {}
    for config, benchmark in pairs:
        job = SimJob(config=config, benchmark=benchmark, measure=measure,
                     warmup=warmup, seed=seed)
        if job in _CACHE or job in todo:
            continue
        if job in _FAILED:
            if not settings.resume:
                continue
            del _FAILED[job]
        todo[job] = None
    if not todo:
        return 0
    try:
        outcomes = run_sweep(list(todo), **vars(settings))
    except SweepAborted as aborted:
        # run_sweep already persisted the completed results; memoise
        # them too so the caller can salvage them.
        _JOB_RECORDS.extend(aborted.completed)
        _JOB_RECORDS.append(aborted.failure)
        for result in aborted.completed:
            _CACHE[result.job] = result.run
        raise
    simulated = 0
    for job, outcome in zip(todo, outcomes):
        if outcome.ok:
            _CACHE[job] = outcome.run
        else:
            _FAILED[job] = outcome
        if outcome.source == "simulated":
            simulated += 1
            _JOB_RECORDS.append(outcome)
    return simulated


class Grid(dict):
    """The runs of one configs x benchmarks sweep (see :func:`run_grid`),
    keyed by ``(config, benchmark)``; a quarantined job's cell is None."""

    def __init__(self, configs: List[CoreConfig], benchmarks: List[str],
                 cells) -> None:
        super().__init__(cells)
        self.configs = configs
        self.benchmarks = benchmarks

    def complete(self) -> List[str]:
        """The benchmarks every config has a run for, in sweep order.

        A figure that sums or averages across configs reads only these
        rows, so a benchmark any config's job was quarantined on is
        dropped from every aggregate (its absence is the explicit gap).
        Raises RuntimeError when no benchmark is left.
        """
        rows = [bench for bench in self.benchmarks
                if all(self[config, bench] is not None
                       for config in self.configs)]
        if not rows:
            raise RuntimeError(
                "no benchmark completed on every config; nothing to "
                "aggregate (see the failure summary)")
        return rows


def run_grid(
    configs: Iterable[CoreConfig],
    benchmarks: Iterable[str],
    measure: int,
    warmup: int,
    seed: int = 0,
) -> Grid:
    """Sweep every (config, benchmark) pair, then read each cell once.

    The one sweep step of the experiment modules: the whole grid goes
    to :func:`prefetch` in config-major order before any cell is read,
    and each cell is then a memo lookup (``run_benchmark(...,
    missing_ok=True)``), so a quarantined job's cell is None.  A figure
    that shows gaps reads the cells; one that aggregates reads the rows
    of :meth:`Grid.complete`.
    """
    configs = list(configs)
    benchmarks = list(benchmarks)
    prefetch([(config, bench) for config in configs
              for bench in benchmarks], measure, warmup, seed)
    return Grid(configs, benchmarks, {
        (config, bench): run_benchmark(config, bench, measure, warmup,
                                       seed, missing_ok=True)
        for config in configs for bench in benchmarks})


def failed_runs() -> List:
    """Every currently-quarantined
    :class:`~repro.experiments.pool.JobFailure`, submission order not
    guaranteed.  The CLI renders these as the failure summary table, and
    the CLI and DSE manifests count them as ``jobs_failed``."""
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


def pop_served_runs() -> List[Tuple[SimJob, BenchmarkRun]]:
    """Drain every :class:`BenchmarkRun` served since the last drain
    (cache replays included), one ``(job, run)`` pair per job.

    The CLI builds the manifest's per-(model, benchmark) aggregates
    from this (see :func:`build_manifest`), so a warm-cache invocation
    still records what its tables were computed from.
    """
    runs = list(_SERVED.items())
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

    Calling with no arguments restores the defaults; a value out of
    bounds raises ValueError (see :class:`SweepSettings`).
    """
    global _SETTINGS
    _SETTINGS = dataclasses.replace(
        _SETTINGS, retries=retries, retry_backoff=retry_backoff,
        fail_fast=fail_fast, timeout=timeout, resume=resume)


def set_jobs(jobs: int) -> None:
    """Set the worker-process count :func:`prefetch` fans out over."""
    global _SETTINGS
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
    :func:`pop_served_runs` accounting and an empty quarantine map
    (:func:`failed_runs`), so it reads only its own jobs and failures;
    the previous settings and injector come back on exit.
    """
    global _SETTINGS
    previous = _SETTINGS
    previous_injector = set_fault_injector(injector)
    _SETTINGS = settings
    _JOB_RECORDS.clear()
    _SERVED.clear()
    _FAILED.clear()
    try:
        yield settings
    finally:
        _SETTINGS = previous
        set_fault_injector(previous_injector)
        _JOB_RECORDS.clear()
        _SERVED.clear()
        _FAILED.clear()


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
