"""Parallel simulation driver: fan (config, benchmark) jobs over workers.

Design-space evaluation is embarrassingly parallel across (model,
benchmark) pairs — every figure in the reproduction is a static job list
with no cross-job data flow.  :func:`run_jobs` maps such a list over
worker processes:

* **Deterministic**: a job's trace is a pure function of (benchmark,
  measure, warmup, seed), so a job's result is a pure function of the
  job tuple, whichever process generated the trace: the worker itself,
  or, for a trace two or more jobs of the call share, the parent, just
  before forking the first of them (the workers inherit it; the parent
  drops it after forking the last).  Results return in submission
  order and are bit-for-bit identical to a serial run regardless of
  worker count or scheduling.
* **Fault tolerant**: a worker exception, a wedged (timed-out) job or a
  worker process dying outright produces a structured
  :class:`JobFailure` in the job's result slot instead of tearing down
  the sweep; every healthy job still completes.  A per-job retry budget
  (``retries``, exponential ``retry_backoff``) re-runs transient
  failures before quarantining them; ``fail_fast`` instead aborts on the
  first exhausted job with :class:`SweepAborted`, which carries every
  result completed before the abort.
* **Graceful fallback**: ``workers <= 1``, a single job, or a platform
  without ``fork`` (no start method at all) degrades to a plain serial
  loop in-process.
* **Accounted**: every :class:`JobResult`/:class:`JobFailure` carries
  the job's wall-clock seconds, the worker pid and the attempt count.

Timeout semantics: ``timeout`` bounds a job's *execution* time, measured
from the moment a worker actually starts it — time spent queued behind
other jobs while ``workers < len(jobs)`` is never charged (each job is
scheduled into a free worker slot and its deadline starts at its own
worker-side start signal).  In the serial path the check is necessarily
post-hoc: the job has already run to completion in-process when the
over-budget wall time is observed, so it is quarantined without retry
(a deterministic job would only run long again) and all prior completed
results are kept.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue as queue_lib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import CoreConfig

#: Parent-side poll interval while waiting on worker results.
_POLL_SECONDS = 0.02
#: How long a silently-exited worker may owe its (possibly in-flight)
#: result message before the parent declares a worker-death.
_DEATH_GRACE_SECONDS = 0.5
#: Extra allowance on top of ``timeout`` for a worker that never even
#: reported its execution start (covers process startup / import cost).
_START_GRACE_SECONDS = 5.0
#: Ceiling on the exponential retry backoff.  Uncapped,
#: ``backoff * 2**(n-1)`` passes an hour by attempt 14 — a generous
#: retry budget must never strand a job that long between attempts.
MAX_RETRY_DELAY = 60.0


def retry_delay(retry_backoff: float, attempts: int,
                job: Optional["SimJob"] = None,
                cap: float = MAX_RETRY_DELAY) -> float:
    """Delay before re-running a job whose ``attempts``-th try failed.

    Exponential in the attempt count but capped at ``cap``, then scaled
    into ``[delay/2, delay)`` by a jitter derived deterministically from
    the job identity and attempt number: when a shared-resource hiccup
    fails a whole sweep at once, the retries spread out instead of
    waking in lockstep and hammering the same resource again.  No RNG
    state and no wall clock participate, so a re-run schedules
    identically — the delay only shapes timing, never results, which
    stay bit-identical.
    """
    if retry_backoff <= 0:
        return 0.0
    delay = min(cap, retry_backoff * (2.0 ** (attempts - 1)))
    if job is not None:
        token = f"{job.describe()}#{attempts}".encode()
        word = int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big")
        delay *= 0.5 + 0.5 * (word / 2.0 ** 64)
    return delay


@dataclass(frozen=True)
class SimJob:
    """One simulation request: a pure function of these five fields."""

    config: CoreConfig
    benchmark: str
    measure: int
    warmup: int
    seed: int = 0

    def describe(self) -> str:
        return (f"{self.config.name}/{self.benchmark}"
                f"(measure={self.measure}, warmup={self.warmup},"
                f" seed={self.seed})")

    @property
    def trace_key(self) -> Tuple[str, int, int, int]:
        """The trace this job replays, as
        :func:`~repro.experiments.runner.trace_pair` arguments."""
        return (self.benchmark, self.measure, self.warmup, self.seed)


@dataclass
class JobResult:
    """One finished job plus its execution accounting."""

    job: SimJob
    run: object                  # BenchmarkRun (import cycle avoided)
    wall_seconds: float = 0.0
    worker_pid: int = field(default_factory=os.getpid)
    attempts: int = 1
    started_ts: float = 0.0      # host wall clock (time.time) at start

    @property
    def ok(self) -> bool:
        return True


@dataclass
class JobFailure:
    """One job the sweep gave up on: quarantined, not fatal.

    ``cause`` is one of ``"exception"`` (the worker raised),
    ``"timeout"`` (the job exceeded the per-job execution deadline) or
    ``"worker-death"`` (the worker process exited without reporting a
    result — OOM kill, segfault, ``os._exit``).  ``attempts`` counts
    every try, including retries.
    """

    job: SimJob
    cause: str
    error: str = ""
    error_type: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        text = (f"{self.job.describe()}: {self.cause} after "
                f"{self.attempts} attempt(s)")
        if self.error:
            text += f" — {self.error}"
        return text

    def to_dict(self) -> Dict:
        """Scalar fields only (the job is recorded as its description)."""
        return {
            "job": self.job.describe(),
            "cause": self.cause,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "worker_pid": self.worker_pid,
        }

    @classmethod
    def from_dict(cls, job: SimJob, data: Dict) -> "JobFailure":
        """Rehydrate a persisted record against the live ``job``."""
        return cls(
            job=job,
            cause=data.get("cause", "exception"),
            error=data.get("error", ""),
            error_type=data.get("error_type", ""),
            attempts=int(data.get("attempts", 1)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            worker_pid=int(data.get("worker_pid", 0)),
        )


class SweepAborted(RuntimeError):
    """``fail_fast`` abort: the first quarantined job stopped the sweep.

    ``completed`` holds every :class:`JobResult` finished before the
    abort (in submission order) so callers can persist the work already
    done; ``failure`` is the job that exhausted its retry budget.
    """

    def __init__(self, failure: JobFailure,
                 completed: Sequence[JobResult]):
        self.failure = failure
        self.completed = list(completed)
        super().__init__(failure.describe())


class JobTimeoutError(SweepAborted):
    """A ``fail_fast`` abort whose cause was the per-job timeout."""


class FaultSpec:
    """Deterministic, picklable fault injector for tests and CI smoke.

    Spec syntax ``KIND[:BENCHMARK[:PARAM]]`` — an empty or ``*``
    benchmark matches every job:

    * ``crash[:bench]`` — raise inside the worker on every attempt.
    * ``flaky[:bench[:n]]`` — raise on the first ``n`` attempts
      (default 1), then succeed; exercises the retry path.
    * ``die[:bench]`` — ``os._exit`` the worker (no result message),
      exercising worker-death isolation.
    * ``hang[:bench[:seconds]]`` — sleep (default 3600 s) so the job
      trips the execution timeout.
    * ``sleep[:bench[:seconds]]`` — sleep (default 0.05 s) then run
      normally; makes job durations controllable in timing tests.
    """

    KINDS = ("crash", "flaky", "die", "hang", "sleep")

    def __init__(self, kind: str, benchmark: Optional[str] = None,
                 param: Optional[float] = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r} "
                             f"(expected one of {self.KINDS})")
        self.kind = kind
        self.benchmark = benchmark or None
        self.param = param

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.split(":")
        kind = parts[0]
        benchmark = parts[1] if len(parts) > 1 else None
        if benchmark in ("", "*"):
            benchmark = None
        param = float(parts[2]) if len(parts) > 2 else None
        return cls(kind, benchmark, param)

    def __call__(self, job: SimJob, attempt: int) -> None:
        if self.benchmark is not None and job.benchmark != self.benchmark:
            return
        if self.kind == "crash":
            raise RuntimeError(
                f"injected crash ({job.benchmark}, attempt {attempt})")
        if self.kind == "flaky":
            budget = 1 if self.param is None else int(self.param)
            if attempt <= budget:
                raise RuntimeError(
                    f"injected flake ({job.benchmark}, attempt {attempt}"
                    f" of {budget} failing)")
        elif self.kind == "die":
            os._exit(23)
        elif self.kind == "hang":
            time.sleep(3600.0 if self.param is None else self.param)
        elif self.kind == "sleep":
            time.sleep(0.05 if self.param is None else self.param)


#: Optional callable(job, attempt) run in the worker before simulation;
#: see :func:`set_fault_injector`.
_FAULT_INJECTOR: Optional[Callable[[SimJob, int], None]] = None


def set_fault_injector(
        injector: Optional[Callable[[SimJob, int], None]],
) -> Optional[Callable[[SimJob, int], None]]:
    """Install (or with None remove) a fault-injection hook; returns
    the hook it replaces.

    The hook runs inside the worker, before the simulation, on every
    attempt.  It is shipped to workers by value (pickled with the job),
    so it must be picklable — :class:`FaultSpec` instances and top-level
    functions qualify.  Test and CI machinery only.
    """
    global _FAULT_INJECTOR
    previous, _FAULT_INJECTOR = _FAULT_INJECTOR, injector
    return previous


def _available_start_method() -> Optional[str]:
    """Prefer fork (cheap, inherits warm imports); else spawn; else None."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    if methods:
        return methods[0]
    return None


def _execute_job(job: SimJob) -> JobResult:
    """Worker body: simulate one job (no caching — the parent caches)."""
    from repro.experiments.runner import simulate

    started_ts = time.time()
    started = time.perf_counter()
    run = simulate(job.config, job.benchmark, job.measure, job.warmup,
                   job.seed)
    return JobResult(job=job, run=run,
                     wall_seconds=time.perf_counter() - started,
                     started_ts=started_ts)


def _worker_main(job: SimJob, attempt: int, index: int, results,
                 injector) -> None:
    """Per-job worker process: report start, simulate, report outcome."""
    pid = os.getpid()
    started = time.perf_counter()
    try:
        results.put((index, attempt, "started", pid))
        if injector is not None:
            injector(job, attempt)
        result = _execute_job(job)
        results.put((index, attempt, "ok", result))
    except BaseException as exc:  # noqa: BLE001 — isolation is the point
        try:
            results.put((index, attempt, "error",
                         (type(exc).__name__, str(exc), pid,
                          time.perf_counter() - started)))
        except BaseException:
            os._exit(1)


def _terminate(proc) -> None:
    """Stop a worker process, escalating SIGTERM -> SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(0.5)
    if proc.is_alive():
        proc.kill()
        proc.join(0.5)


class _Running:
    """Parent-side state of one in-flight attempt."""

    __slots__ = ("proc", "attempt", "launched", "launched_ts",
                 "exec_started", "exec_started_ts", "deadline",
                 "dead_since")

    def __init__(self, proc, attempt: int):
        self.proc = proc
        self.attempt = attempt
        self.launched = time.monotonic()
        self.launched_ts = time.time()
        self.exec_started: Optional[float] = None
        self.exec_started_ts: Optional[float] = None
        self.deadline: Optional[float] = None
        self.dead_since: Optional[float] = None


def _notify_attempt(on_attempt, job: SimJob, attempt: int,
                    started_ts: float, duration: float, status: str,
                    worker_pid: int) -> None:
    """Fire the per-attempt telemetry hook; never let it fail a sweep."""
    if on_attempt is None:
        return
    try:
        on_attempt(job, attempt, started_ts, duration, status,
                   worker_pid)
    except Exception:
        pass


def _run_parallel(
    jobs: Sequence[SimJob],
    workers: int,
    timeout: Optional[float],
    retries: int,
    retry_backoff: float,
    fail_fast: bool,
    on_result,
    context,
    on_attempt=None,
) -> List[Union[JobResult, JobFailure]]:
    """Slot-based scheduler: one process per attempt, deadline per job.

    At most ``workers`` attempts run at once; a job's execution deadline
    starts at its worker's "started" signal, so queue wait is never
    charged against ``timeout``.  Outcomes are reassembled into
    submission order regardless of completion order.

    First attempts are dispatched grouped by trace, groups in order of
    first appearance.  A trace two or more jobs share is built into the
    runner's memo just before its group's first fork and dropped right
    after its last, so those workers inherit it instead of each
    generating it, and the parent holds one such trace at a time.  A
    trace already memoised is used and kept; so is a full memo, whose
    workers generate their own.
    """
    from repro.experiments import runner

    results_q = context.Queue()
    injector = _FAULT_INJECTOR
    outcomes: List[Optional[Union[JobResult, JobFailure]]] = (
        [None] * len(jobs))
    groups: Dict[Tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(job.trace_key, []).append(index)
    pending = deque((index, 1) for group in groups.values()
                    for index in group)
    waiting: List[Tuple[float, int, int]] = []  # (ready_at, idx, attempt)
    running: Dict[int, _Running] = {}
    # The last job of each shared trace's group, by submission index.
    last = {key: group[-1] for key, group in groups.items()
            if len(group) > 1}
    built: Optional[Tuple] = None  # the shared trace this call memoised
    memo = runner._TRACE_MEMO

    def completed() -> List[JobResult]:
        return [o for o in outcomes if isinstance(o, JobResult)]

    def settle(index: int, failure: JobFailure) -> None:
        """Retry a failed attempt, or quarantine / abort the sweep."""
        if failure.attempts <= retries:
            delay = retry_delay(retry_backoff, failure.attempts,
                                failure.job)
            waiting.append((time.monotonic() + delay, index,
                            failure.attempts + 1))
            return
        outcomes[index] = failure
        if fail_fast:
            error = (JobTimeoutError if failure.cause == "timeout"
                     else SweepAborted)
            raise error(failure, completed())

    try:
        while pending or waiting or running:
            now = time.monotonic()
            if waiting:
                due = [entry for entry in waiting if entry[0] <= now]
                waiting = [e for e in waiting if e[0] > now]
                for _, index, attempt in due:
                    pending.append((index, attempt))
            while pending and len(running) < workers:
                index, attempt = pending.popleft()
                key = jobs[index].trace_key
                shared = attempt == 1 and key in last
                if (shared and key not in memo
                        and len(memo) < runner.TRACE_MEMO_LIMIT):
                    try:
                        runner.trace_pair(*key)
                    except Exception:
                        pass  # each worker re-raises it as its failure
                    else:
                        built = key
                proc = context.Process(
                    target=_worker_main,
                    args=(jobs[index], attempt, index, results_q,
                          injector),
                )
                proc.daemon = True
                proc.start()
                running[index] = _Running(proc, attempt)
                if shared and index == last[key] and built == key:
                    memo.pop(key, None)
                    built = None
            if not running:
                time.sleep(_POLL_SECONDS)
                continue
            block = True
            while True:
                try:
                    message = results_q.get(
                        timeout=_POLL_SECONDS if block else 0.0)
                except (queue_lib.Empty, OSError, EOFError):
                    break
                block = False
                index, attempt, kind, payload = message
                state = running.get(index)
                if state is None or attempt != state.attempt:
                    continue  # stale message from a terminated attempt
                if kind == "started":
                    state.exec_started = time.monotonic()
                    state.exec_started_ts = time.time()
                    if timeout is not None:
                        state.deadline = state.exec_started + timeout
                elif kind == "ok":
                    del running[index]
                    state.proc.join(5.0)
                    payload.attempts = attempt
                    outcomes[index] = payload
                    _notify_attempt(on_attempt, jobs[index], attempt,
                                    payload.started_ts,
                                    payload.wall_seconds, "ok",
                                    payload.worker_pid)
                    if on_result is not None:
                        on_result(payload)
                else:  # "error"
                    del running[index]
                    state.proc.join(5.0)
                    error_type, error, pid, wall = payload
                    _notify_attempt(
                        on_attempt, jobs[index], attempt,
                        state.exec_started_ts or state.launched_ts,
                        wall, "exception", pid)
                    settle(index, JobFailure(
                        job=jobs[index], cause="exception", error=error,
                        error_type=error_type, attempts=attempt,
                        wall_seconds=wall, worker_pid=pid))
            now = time.monotonic()
            for index, state in list(running.items()):
                proc = state.proc
                ran_for = now - (state.exec_started
                                 if state.exec_started is not None
                                 else state.launched)
                deadline = state.deadline
                if deadline is None and timeout is not None:
                    deadline = state.launched + timeout + _START_GRACE_SECONDS
                if (deadline is not None and now > deadline
                        and proc.is_alive()):
                    _terminate(proc)
                    del running[index]
                    _notify_attempt(
                        on_attempt, jobs[index], state.attempt,
                        state.exec_started_ts or state.launched_ts,
                        ran_for, "timeout", proc.pid or 0)
                    settle(index, JobFailure(
                        job=jobs[index], cause="timeout",
                        error=(f"exceeded the {timeout:.1f}s per-job "
                               f"execution timeout"),
                        error_type="JobTimeoutError",
                        attempts=state.attempt, wall_seconds=ran_for,
                        worker_pid=proc.pid or 0))
                elif not proc.is_alive():
                    # Exited without an ok/error message: give any
                    # in-flight message a grace period, then declare a
                    # worker-death (OOM kill, segfault, os._exit).
                    if state.dead_since is None:
                        state.dead_since = now
                    elif now - state.dead_since > _DEATH_GRACE_SECONDS:
                        proc.join(1.0)
                        del running[index]
                        _notify_attempt(
                            on_attempt, jobs[index], state.attempt,
                            state.exec_started_ts or state.launched_ts,
                            ran_for, "worker-death", proc.pid or 0)
                        settle(index, JobFailure(
                            job=jobs[index], cause="worker-death",
                            error=(f"worker pid {proc.pid} exited with "
                                   f"code {proc.exitcode} before "
                                   f"returning a result"),
                            error_type="WorkerDeath",
                            attempts=state.attempt,
                            wall_seconds=ran_for,
                            worker_pid=proc.pid or 0))
        return list(outcomes)
    finally:
        if built is not None:
            memo.pop(built, None)
        for state in running.values():
            _terminate(state.proc)
        results_q.close()


def _run_serial(
    jobs: Sequence[SimJob],
    timeout: Optional[float],
    retries: int,
    retry_backoff: float,
    fail_fast: bool,
    on_result,
    on_attempt=None,
) -> List[Union[JobResult, JobFailure]]:
    injector = _FAULT_INJECTOR
    outcomes: List[Union[JobResult, JobFailure]] = []

    def completed() -> List[JobResult]:
        return [o for o in outcomes if isinstance(o, JobResult)]

    for job in jobs:
        attempt = 1
        while True:
            started_ts = time.time()
            started = time.perf_counter()
            failure = None
            try:
                if injector is not None:
                    injector(job, attempt)
                result = _execute_job(job)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 — isolate
                failure = JobFailure(
                    job=job, cause="exception", error=str(exc),
                    error_type=type(exc).__name__, attempts=attempt,
                    wall_seconds=time.perf_counter() - started,
                    worker_pid=os.getpid())
                _notify_attempt(on_attempt, job, attempt, started_ts,
                                failure.wall_seconds, "exception",
                                os.getpid())
            else:
                if timeout is not None and result.wall_seconds > timeout:
                    # Post-hoc by construction: the job already ran to
                    # completion in-process.  Quarantine without retry —
                    # a deterministic job would only run long again.
                    failure = JobFailure(
                        job=job, cause="timeout",
                        error=(f"took {result.wall_seconds:.1f}s "
                               f"(> {timeout:.1f}s timeout; serial "
                               f"timeouts are post-hoc)"),
                        error_type="JobTimeoutError", attempts=attempt,
                        wall_seconds=result.wall_seconds,
                        worker_pid=os.getpid())
                    _notify_attempt(on_attempt, job, attempt,
                                    started_ts, result.wall_seconds,
                                    "timeout", os.getpid())
                    attempt = retries + 1
                else:
                    result.attempts = attempt
                    outcomes.append(result)
                    _notify_attempt(on_attempt, job, attempt,
                                    started_ts, result.wall_seconds,
                                    "ok", result.worker_pid)
                    if on_result is not None:
                        on_result(result)
                    break
            if attempt <= retries:
                delay = retry_delay(retry_backoff, attempt, job)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            if fail_fast:
                error = (JobTimeoutError if failure.cause == "timeout"
                         else SweepAborted)
                raise error(failure, completed())
            outcomes.append(failure)
            break
    return outcomes


def run_jobs(
    jobs: Sequence[SimJob],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    retry_backoff: float = 0.25,
    fail_fast: bool = False,
    on_result: Optional[Callable[[JobResult], None]] = None,
    on_attempt: Optional[Callable[..., None]] = None,
) -> List[Union[JobResult, JobFailure]]:
    """Run every job; outcomes in submission order.

    Args:
        jobs: Job list (order is preserved in the outcome list).
        workers: Concurrent worker-process count; ``<= 1`` runs serially
            in-process.
        timeout: Per-job wall-clock limit in seconds, charged against
            the job's own *execution* time only — never the time it
            spent queued behind other jobs waiting for a worker slot.
            In the serial path the check is post-hoc (the job has
            already completed when the overrun is observed).
        retries: How many times a failed attempt (exception, timeout,
            worker death) is re-run before the job is quarantined as a
            :class:`JobFailure`; the total attempt budget is
            ``retries + 1``.  Serial post-hoc timeouts are never
            retried.
        retry_backoff: Base delay in seconds before retry ``n``, scaled
            exponentially (``retry_backoff * 2**(n-1)``), capped at
            :data:`MAX_RETRY_DELAY` and deterministically jittered per
            job (see :func:`retry_delay`).
        fail_fast: Abort the sweep on the first quarantined job by
            raising :class:`SweepAborted` (or its subclass
            :class:`JobTimeoutError`), carrying every already-completed
            result, instead of degrading gracefully.
        on_result: Optional callback invoked in the parent, in
            completion order, for each successful :class:`JobResult`
            as it lands — e.g. to persist results incrementally so an
            interrupted sweep loses nothing.
        on_attempt: Optional telemetry hook ``(job, attempt,
            started_ts, duration, status, worker_pid)`` fired in the
            parent for *every* terminal attempt — including ones that
            will be retried — with ``status`` one of ``"ok"``,
            ``"exception"``, ``"timeout"``, ``"worker-death"``.
            ``started_ts`` is host wall-clock epoch seconds.  The hook
            is observation-only: exceptions it raises are swallowed
            and it must never affect results.

    Returns:
        One entry per job, in submission order: :class:`JobResult` for
        successes, :class:`JobFailure` for quarantined jobs.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be >= 0")
    method = _available_start_method()
    if workers <= 1 or len(jobs) == 1 or method is None:
        return _run_serial(jobs, timeout, retries, retry_backoff,
                           fail_fast, on_result, on_attempt)
    context = multiprocessing.get_context(method)
    return _run_parallel(jobs, min(workers, len(jobs)), timeout,
                         retries, retry_backoff, fail_fast, on_result,
                         context, on_attempt)


def split_outcomes(
    outcomes: Sequence[Union[JobResult, JobFailure]],
) -> Tuple[List[JobResult], List[JobFailure]]:
    """Partition a :func:`run_jobs` outcome list into (results, failures)."""
    results = [o for o in outcomes if isinstance(o, JobResult)]
    failures = [o for o in outcomes if isinstance(o, JobFailure)]
    return results, failures


def total_wall_seconds(results: Sequence[JobResult]) -> float:
    """Summed per-job simulation time (CPU-side cost of a sweep)."""
    return sum(r.wall_seconds for r in results)
