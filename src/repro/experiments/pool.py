"""Parallel simulation driver: fan (config, benchmark) jobs over workers.

Design-space evaluation is embarrassingly parallel across (model,
benchmark) pairs — every figure in the reproduction is a static job list
with no cross-job data flow.  :func:`run_jobs` maps such a list over
worker processes:

* **Deterministic**: a job's trace is a pure function of (benchmark,
  measure, warmup, seed), so a job's result is a pure function of the
  job tuple, whichever process generated the trace: the worker running
  it (for itself or for an earlier job of the same trace), or the
  parent before the call (the workers inherit its memo).  Results
  return in submission order and are bit-for-bit identical to a serial
  run regardless of worker count or scheduling.
* **Fault tolerant**: a worker exception, a wedged (timed-out) job or a
  worker process dying outright produces a structured
  :class:`JobFailure` in the job's result slot instead of tearing down
  the sweep; every healthy job still completes.  An exception leaves
  its worker serving; a timeout or a death costs that worker only,
  and a replacement is forked if work remains.  A per-job retry budget
  (``retries``, exponential ``retry_backoff``) re-runs transient
  failures before quarantining them; ``fail_fast`` instead aborts on the
  first exhausted job with :class:`SweepAborted`, which carries every
  result completed before the abort.
* **Kept busy**: while more jobs than workers are left, a busy worker
  holds one more job of its own trace (or of one no worker is on) in
  its pipe, so it starts the next job as soon as it hands its result
  back instead of waiting for the parent; the hand-back carries the
  run, not the job, which the parent already holds.
* **Graceful fallback**: ``workers <= 1`` or a single job runs as a
  plain serial loop in-process, unless ``isolate`` asks for a worker
  process anyway; so does a platform with no start method at all.
* **Accounted**: every :class:`JobResult`/:class:`JobFailure` carries
  the job's wall-clock seconds, the worker pid and the attempt count.

Timeout semantics: ``timeout`` bounds a job's *execution* time, measured
from the moment a worker actually starts it — time spent queued behind
other jobs while ``workers < len(jobs)`` is never charged, whether in
the parent or in a worker's pipe behind its running job (a job's
deadline starts at its worker's start message for that job).  A job
past its deadline has its worker terminated (SIGTERM, then SIGKILL);
a job waiting behind it goes back to the parent's queue uncharged.  In
the serial path the check is necessarily post-hoc: the job has already
run to completion in-process when the over-budget wall time is
observed, so it is quarantined without retry (a deterministic job would
only run long again) and all prior completed results are kept.  A
caller that must enforce the deadline, or survive a job that kills its
process, passes ``isolate=True``.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import CoreConfig
from repro.experiments import diskcache

#: Extra allowance on top of ``timeout`` for a worker that never even
#: reported its execution start (covers process startup / import cost).
_START_GRACE_SECONDS = 5.0
#: Jobs a busy worker holds in its pipe behind the one it runs, so it
#: goes straight on to the next instead of waiting for the parent to
#: read its result and send more (see :func:`_run_parallel`).
_JOBS_AHEAD = 1
#: Ceiling on the exponential retry backoff.  Uncapped,
#: ``backoff * 2**(n-1)`` passes an hour by attempt 14 — a generous
#: retry budget must never strand a job that long between attempts.
MAX_RETRY_DELAY = 60.0


def retry_delay(retry_backoff: float, attempts: int,
                job: Optional["SimJob"] = None) -> float:
    """Delay before re-running a job whose ``attempts``-th try failed.

    Exponential in the attempt count but capped at
    :data:`MAX_RETRY_DELAY`, then scaled into ``[delay/2, delay)`` by a
    jitter derived deterministically from the job identity and attempt
    number: when a shared-resource hiccup fails a whole sweep at once,
    the retries spread out instead of waking in lockstep and hammering
    the same resource again.  No RNG state and no wall clock
    participate, so a re-run schedules identically — the delay only
    shapes timing, never results, which stay bit-identical.
    """
    if retry_backoff <= 0:
        return 0.0
    delay = min(MAX_RETRY_DELAY, retry_backoff * (2.0 ** (attempts - 1)))
    if job is not None:
        token = f"{job.describe()}#{attempts}".encode()
        word = int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big")
        delay *= 0.5 + 0.5 * (word / 2.0 ** 64)
    return delay


@dataclass(frozen=True)
class SimJob:
    """One simulation request: a pure function of these five fields.

    A job's one identity: the runner's memo and quarantine map, the disk
    cache, the job server's stream events and spool entries all key on
    it, the latter three through :attr:`digest`.
    """

    config: CoreConfig
    benchmark: str
    measure: int
    warmup: int
    seed: int = 0

    def describe(self) -> str:
        return (f"{self.config.name}/{self.benchmark}"
                f"(measure={self.measure}, warmup={self.warmup},"
                f" seed={self.seed})")

    @functools.cached_property
    def digest(self) -> str:
        """The disk cache's content address of this job
        (:func:`~repro.experiments.diskcache.fingerprint`), computed on
        first use; a pickled job carries it along."""
        return diskcache.fingerprint(self.config, self.benchmark,
                                     self.measure, self.warmup, self.seed)

    @property
    def trace_key(self) -> Tuple[str, int, int, int]:
        """The interval this job replays, as
        :func:`~repro.experiments.runner.interval` arguments."""
        return (self.benchmark, self.measure, self.warmup, self.seed)


@dataclass
class JobResult:
    """One finished job plus its execution accounting.

    ``source`` says what answered the job: ``"simulated"`` (a sweep ran
    it) or ``"cache"`` (a disk-cache hit, built with ``attempts=0`` and
    ``worker_pid=0``: nothing ran).
    """

    job: SimJob
    run: object                  # BenchmarkRun (import cycle avoided)
    wall_seconds: float = 0.0
    worker_pid: int = field(default_factory=os.getpid)
    attempts: int = 1
    started_ts: float = 0.0      # host wall clock (time.time) at start
    source: str = "simulated"

    @property
    def ok(self) -> bool:
        return True

    def to_dict(self) -> Dict:
        """``source``, the run and the attempt accounting: the result
        part of a spool ``done/`` marker.  The job, pid and start time
        stay out (the reader holds the live job; another host's pid
        names no process here)."""
        return {
            "source": self.source,
            "run": self.run.to_dict(),
            "wall_seconds": self.wall_seconds,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, job: SimJob, data: Dict) -> "JobResult":
        """Rehydrate :meth:`to_dict`'s form against the live ``job``,
        with ``worker_pid`` 0."""
        from repro.experiments.runner import BenchmarkRun

        return cls(
            job=job,
            run=BenchmarkRun.from_dict(data["run"]),
            source=data.get("source", "simulated"),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            attempts=int(data.get("attempts", 0)),
            worker_pid=0,
        )


@dataclass
class JobFailure:
    """One job the sweep gave up on: quarantined, not fatal.

    ``cause`` is one of ``"exception"`` (the worker raised),
    ``"timeout"`` (the job exceeded the per-job execution deadline) or
    ``"worker-death"`` (the worker process exited without reporting a
    result — OOM kill, segfault, ``os._exit``).  ``attempts`` counts
    every try, including retries.  ``source`` is ``"simulated"`` for a
    failure a sweep ran into and ``"quarantine"`` for a persisted record
    that answered the job without running it; :meth:`to_dict` leaves it
    out, so persisted records keep their keys.
    """

    job: SimJob
    cause: str
    error: str = ""
    error_type: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0
    worker_pid: int = 0
    source: str = "simulated"

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
        """Scalar fields but ``source`` (the job is recorded as its
        description)."""
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
    attempt.  Each worker process gets it as it starts (pickled under a
    start method other than fork), so it must be picklable —
    :class:`FaultSpec` instances and top-level functions qualify.  Test
    and CI machinery only.
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


def _worker_loop(conn, parent_end, injector) -> None:
    """Persistent worker body: run the tasks ``conn`` brings, in order.

    A task is ``(job, attempt)``; the next one may already wait in the
    pipe while this one runs.  The worker answers ``("started", None)``
    and then ``("ok", (run, seconds, started_ts))`` (the parent holds
    the job and reattaches it) or ``("error", (type, message,
    seconds))``, and stops at the ``None`` sentinel or when the parent's
    end closes.  Its trace memo holds what the parent's held when it
    forked, plus at most one trace this worker generated: that one is
    dropped when the worker moves on to a job of another trace.
    """
    import signal

    from repro.experiments import runner

    # Ctrl-C is the parent's to handle; it terminates its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Without this the worker's own copy of the parent's end would keep
    # it from seeing EOF should the parent die.
    parent_end.close()
    memo = runner._TRACE_MEMO
    built = None  # the trace key this worker memoised itself
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            job, attempt = task
            key = job.trace_key
            if built is not None and built != key:
                memo.pop(built, None)
                built = None
            inherited = key in memo
            started = time.perf_counter()
            try:
                conn.send(("started", None))
                if injector is not None:
                    injector(job, attempt)
                result = _execute_job(job)
                conn.send(("ok", (result.run, result.wall_seconds,
                                  result.started_ts)))
            except Exception as exc:  # isolation is the point: serve on
                conn.send(("error", (type(exc).__name__, str(exc),
                                     time.perf_counter() - started)))
            if not inherited and key in memo:
                built = key
    except (EOFError, OSError):
        pass  # the parent has gone; there is no one left to report to


def _terminate(proc) -> None:
    """Stop a worker process, escalating SIGTERM -> SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(0.5)
    if proc.is_alive():
        proc.kill()
        proc.join(0.5)


class _Worker:
    """Parent-side handle on one worker process and its tasks in flight.

    ``tasks`` holds the ``(index, attempt)`` pairs sent and not yet
    answered, in the order sent: the head is running (or about to), the
    rest wait in the pipe behind it.  The clock fields time the head.
    """

    __slots__ = ("proc", "conn", "key", "tasks", "launched",
                 "launched_ts", "exec_started", "exec_started_ts",
                 "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.key: Optional[Tuple] = None   # trace of the latest task
        self.tasks: deque = deque()        # empty = idle
        self.deadline: Optional[float] = None

    def assign(self, index: int, attempt: int, key: Tuple,
               timeout: Optional[float]) -> None:
        self.tasks.append((index, attempt))
        self.key = key
        if len(self.tasks) == 1:
            self._start_clock(timeout)

    def finish(self, timeout: Optional[float]) -> Tuple[int, int]:
        """Pop the head task; the next one, if any, runs from now."""
        task = self.tasks.popleft()
        if self.tasks:
            self._start_clock(timeout)
        else:
            self.deadline = None
        return task

    def _start_clock(self, timeout: Optional[float]) -> None:
        self.launched = time.monotonic()
        self.launched_ts = time.time()
        self.exec_started: Optional[float] = None
        self.exec_started_ts: Optional[float] = None
        # Until the worker reports the start, allow for a slow start.
        self.deadline = (None if timeout is None
                         else self.launched + timeout
                         + _START_GRACE_SECONDS)


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
    """Persistent-worker scheduler: at most ``workers`` processes, forked
    at first need, each fed over its own pipe.

    An idle worker gets the next job.  While more jobs than ``workers``
    remain unassigned, a busy worker also gets :data:`_JOBS_AHEAD` more,
    which wait in its pipe, so it starts the next job as soon as it
    sends a result.  A job sent cannot be taken back, so the last
    ``workers`` jobs go to idle workers only: none waits behind a long
    job while another worker has nothing to do.  A job's execution
    deadline starts at its worker's "started" message for that job, so
    queue wait is never charged against ``timeout``.  Outcomes are
    reassembled into submission order regardless of completion order.

    Jobs queue per trace, traces in order of first appearance.  A worker
    takes the next job of the trace it was sent last, else the first
    trace no busy worker is on, else one from the trace with the most
    jobs left, so a trace's jobs mostly share the worker that generated
    it (see :func:`_worker_loop`); the parent's memo is only read.
    Every worker that runs a trace's jobs generates that trace, so
    workers beyond the number of traces, which start on a trace another
    worker is on, trade one generation each for parallelism; only an
    idle worker makes that trade, so a busy one is sent a job ahead
    only from its own trace or from one no worker is on.  An
    exception leaves its worker serving.  A timeout terminates the
    worker; EOF on a worker's pipe, read after all it sent, means it
    died.  Either way the running job fails (a timeout, or a death with
    the exit code), and any job waiting behind it goes back to the
    front of its trace's queue with no attempt charged.  A lost worker
    is replaced only when a pending job finds no free one.
    """
    from multiprocessing.connection import wait

    injector = _FAULT_INJECTOR
    outcomes: List[Optional[Union[JobResult, JobFailure]]] = (
        [None] * len(jobs))
    pending: Dict[Tuple, deque] = {}  # trace key -> (index, attempt)s
    for index, job in enumerate(jobs):
        pending.setdefault(job.trace_key, deque()).append((index, 1))
    waiting: List[Tuple[float, int, int]] = []  # (ready_at, idx, attempt)
    pool: List[_Worker] = []

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

    def take(worker: _Worker) -> Tuple[int, int]:
        """The next (index, attempt) for ``worker``."""
        queue = pending.get(worker.key)
        if not queue:
            busy = {w.key for w in pool if w.tasks}
            queue = next((q for key, q in pending.items()
                          if q and key not in busy),
                         None) or max(pending.values(), key=len)
        return queue.popleft()

    def next_worker() -> Optional[_Worker]:
        """The worker to send the next job to: an idle one, else a new
        one, else, while more jobs than ``workers`` are unassigned, a
        busy one with room in its pipe and a job to take that no other
        worker's trace holds: one of its own trace, or one of a trace
        no worker is on; None when there is none."""
        ready = [w for w in pool if not w.tasks]
        if not ready:
            if len(pool) < workers:
                return spawn()
            if sum(map(len, pending.values())) <= workers:
                return None
            keys = {w.key for w in pool}
            free_trace = any(q and key not in keys
                             for key, q in pending.items())
            ready = [w for w in pool if len(w.tasks) <= _JOBS_AHEAD
                     and (free_trace or pending.get(w.key))]
        return next((w for w in ready if pending.get(w.key)),
                    ready[0] if ready else None)

    def spawn() -> _Worker:
        ours, theirs = context.Pipe()
        proc = context.Process(target=_worker_loop,
                               args=(theirs, ours, injector), daemon=True)
        proc.start()
        theirs.close()
        worker = _Worker(proc, ours)
        pool.append(worker)
        return worker

    def retire(worker: _Worker) -> None:
        pool.remove(worker)
        worker.conn.close()
        _terminate(worker.proc)

    def fail(worker: _Worker, cause: str, error: str, error_type: str,
             wall: float) -> None:
        """Charge ``worker``'s running task with a failed attempt."""
        started_ts = worker.exec_started_ts or worker.launched_ts
        index, attempt = worker.finish(timeout)
        pid = worker.proc.pid
        _notify_attempt(on_attempt, jobs[index], attempt, started_ts,
                        wall, cause, pid)
        settle(index, JobFailure(
            job=jobs[index], cause=cause, error=error,
            error_type=error_type, attempts=attempt, wall_seconds=wall,
            worker_pid=pid))

    def lose(worker: _Worker, cause: str, error: str,
             error_type: str) -> None:
        """Retire ``worker``: the tasks waiting behind its running one go
        back to the front of their queues uncharged, and the running
        one fails."""
        retire(worker)
        while len(worker.tasks) > 1:
            index, attempt = worker.tasks.pop()
            pending[jobs[index].trace_key].appendleft((index, attempt))
        if worker.tasks:
            fail(worker, cause, error, error_type, ran_for(worker))

    def ran_for(worker: _Worker) -> float:
        return time.monotonic() - (worker.exec_started
                                   if worker.exec_started is not None
                                   else worker.launched)

    try:
        while None in outcomes:
            now = time.monotonic()
            if waiting:
                due = [entry for entry in waiting if entry[0] <= now]
                waiting = [e for e in waiting if e[0] > now]
                for _, index, attempt in due:
                    pending[jobs[index].trace_key].append((index, attempt))
            while any(pending.values()):
                worker = next_worker()
                if worker is None:
                    break
                index, attempt = take(worker)
                try:
                    worker.conn.send((jobs[index], attempt))
                except OSError:
                    # It died: nobody is charged for this job.  An idle
                    # worker is replaced now; a busy one's EOF, read
                    # below, fails the job it was running.
                    pending[jobs[index].trace_key].appendleft(
                        (index, attempt))
                    if worker.tasks:
                        break
                    retire(worker)
                    continue
                worker.assign(index, attempt, jobs[index].trace_key,
                              timeout)
            wakeups = [ready_at for ready_at, _, _ in waiting] + [
                w.deadline for w in pool if w.deadline is not None]
            wait_for = (max(0.0, min(wakeups) - time.monotonic())
                        if wakeups else None)
            by_conn = {w.conn: w for w in pool}
            for conn in wait(list(by_conn), wait_for):
                worker = by_conn[conn]
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    worker.proc.join(1.0)  # reap it for its exit code
                    lose(worker, "worker-death",
                         f"worker pid {worker.proc.pid} exited with "
                         f"code {worker.proc.exitcode} before "
                         f"returning a result", "WorkerDeath")
                    continue
                if kind == "started":
                    worker.exec_started = time.monotonic()
                    worker.exec_started_ts = time.time()
                    if timeout is not None:
                        worker.deadline = worker.exec_started + timeout
                elif kind == "ok":
                    index, attempt = worker.finish(timeout)
                    run, wall, started_ts = payload
                    result = JobResult(
                        job=jobs[index], run=run, wall_seconds=wall,
                        worker_pid=worker.proc.pid, attempts=attempt,
                        started_ts=started_ts)
                    outcomes[index] = result
                    _notify_attempt(on_attempt, jobs[index], attempt,
                                    started_ts, wall, "ok",
                                    result.worker_pid)
                    if on_result is not None:
                        on_result(result)
                else:  # "error"
                    error_type, error, wall = payload
                    fail(worker, "exception", error, error_type, wall)
            now = time.monotonic()
            for worker in [w for w in pool if w.deadline is not None]:
                # A message already in the pipe (a result that came in
                # while the parent was busy) is read next round first.
                if now > worker.deadline and not worker.conn.poll():
                    lose(worker, "timeout",
                         f"exceeded the {timeout:.1f}s per-job "
                         f"execution timeout", "JobTimeoutError")
        return list(outcomes)
    finally:
        for worker in pool:
            if not worker.tasks:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for worker in pool:
            if not worker.tasks:
                worker.proc.join(1.0)
            _terminate(worker.proc)
            worker.conn.close()


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
    isolate: bool = False,
) -> List[Union[JobResult, JobFailure]]:
    """Run every job; outcomes in submission order.

    Args:
        jobs: Job list (order is preserved in the outcome list).
        workers: Concurrent worker-process count; ``<= 1`` runs serially
            in-process unless ``isolate``.
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
        isolate: Run even one job, or ``workers <= 1``, in a worker
            process, so that this process simulates nothing: the
            timeout is enforced and a dying job costs only its worker.
            A long-lived caller that must stay responsive (the job
            server) passes it.

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
    if method is None or (not isolate
                          and (workers <= 1 or len(jobs) == 1)):
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
