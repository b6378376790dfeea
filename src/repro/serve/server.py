"""Simulation as a service: an asyncio HTTP/JSON job server.

``repro-exp serve`` turns the sweep engine into a long-lived service:
clients POST batches of job specs (see :mod:`repro.serve.protocol`)
and stream back per-job progress as the results land.  Everything
between the socket and the simulator is the machinery the CLI already
uses — the content-addressed :class:`DiskCache`, the slot-based
fault-tolerant pool with its retry/quarantine semantics, and the
:class:`RunManifest` provenance record — which is the point: a batch
submitted over HTTP and the same sweep run with ``fxa-experiments
--jobs`` produce byte-identical cached results and share cache entries
bidirectionally.

Endpoints (all JSON; the stream is newline-delimited JSON over
chunked transfer encoding):

    POST /v1/batches             submit a batch (or bare job spec)
    GET  /v1/batches/<id>        batch snapshot (counts per source)
    GET  /v1/batches/<id>/events stream job events until batch_end
    GET  /v1/status              cache/quarantine/queue/tenant counters

Batches are admitted against per-tenant quotas
(:mod:`repro.serve.quota`).  Admission looks every job up in the disk
cache by fingerprint: a batch answered in full (cache hits and sticky
failure records) streams its whole history at once and never queues;
any other batch is scheduled highest-priority-first, one at a time.
Local mode runs each miss in a forked pool worker, never in the server
process, so the event loop stays responsive, ``--timeout`` holds at
``--jobs 1`` and a crashing job costs only its worker.  With ``--spool
DIR`` the server enqueues cache misses into a shared spool directory
(:mod:`repro.serve.spool`) instead, and any number of ``repro-exp
spool-worker`` processes — on this host or others sharing the
filesystem — claim and execute them.

The HTTP layer is deliberately stdlib-only (``asyncio.start_server``
plus hand-rolled HTTP/1.1): the repo takes no third-party runtime
dependencies, and the protocol surface is four routes.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import dataclasses
import heapq
import http.client
import itertools
import json
import os
import threading
import time
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.atomicio import _HOST
from repro.experiments.diskcache import DiskCache, code_version
from repro.experiments.pool import (
    JobFailure,
    JobResult,
    SimJob,
    set_fault_injector,
)
from repro.experiments.runner import (
    BenchmarkRun,
    SweepSettings,
    build_manifest,
    cached_outcome,
    run_sweep,
    timestamp,
)
from repro.experiments.sweepflags import (
    add_sweep_args,
    float_at_least,
    int_at_least,
)
from repro.obs import slog
from repro.obs.manifest import RunManifest, aggregate_entry
from repro.serve.protocol import (
    BatchSpec,
    JobSpec,
    ProtocolError,
    parse_batch,
)
from repro.serve.quota import QuotaExceeded, QuotaRegistry
from repro.serve.spool import Spool
from repro.serve.telemetry import (
    CONTENT_TYPE,
    ServeTelemetry,
    TraceContext,
    normalize_route,
    write_perfetto_trace,
)

_MAX_BODY = 16 * 1024 * 1024
_MAX_LINE = 64 * 1024
#: Finished batches kept listed, the most recent ones, for snapshots
#: and late subscribers; an older id answers 404.  A finished 16-job
#: batch (event log, ``batch_end`` manifest, spans, result entries)
#: holds about 58 KiB, so this bounds them near 15 MiB.
FINISHED_BATCHES_KEPT = 256


class _RequestError(Exception):
    """A request we could parse far enough to answer with an error."""

    def __init__(self, status: int, reason: str,
                 method: str = "-", path: str = "-"):
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.method = method
        self.path = path


class Batch:
    """One admitted submission: its spec, event log and stream fan-out.

    Events append on the server's event loop only; every subscriber
    replays the log from the start, so a client that connects after
    completion still sees the full history.
    """

    def __init__(self, batch_id: str, spec: BatchSpec,
                 distinct_jobs: int, priority: int,
                 trace: Optional[TraceContext] = None):
        self.id = batch_id
        self.spec = spec
        self.distinct_jobs = distinct_jobs
        self.priority = priority
        self.events: List[Dict] = []
        self.done = False
        self.trace = trace if trace is not None else TraceContext.new()
        self.spans: List[Dict] = []
        self.trace_path: Optional[str] = None
        self.admitted_ts = time.time()
        self.admitted_monotonic = time.monotonic()
        self.subscribers: Dict[int, int] = {}   # subscriber -> cursor
        self._next_subscriber = itertools.count(1)
        self._cond = asyncio.Condition()

    async def push(self, event: Dict) -> None:
        async with self._cond:
            self.events.append(event)
            if event.get("event") in ("batch_end",):
                self.done = True
            self._cond.notify_all()

    async def stream(self):
        subscriber = next(self._next_subscriber)
        self.subscribers[subscriber] = 0
        index = 0
        try:
            while True:
                async with self._cond:
                    while index >= len(self.events):
                        await self._cond.wait()
                    fresh = self.events[index:]
                    index = len(self.events)
                    self.subscribers[subscriber] = index
                for event in fresh:
                    yield event
                    if event.get("event") == "batch_end":
                        return
        finally:
            self.subscribers.pop(subscriber, None)

    def stream_backlog(self) -> int:
        """Events appended but not yet delivered to live subscribers."""
        return sum(len(self.events) - cursor
                   for cursor in self.subscribers.values())

    def snapshot(self) -> Dict:
        """Counts per source/status for the non-streaming GET."""
        by_source: Dict[str, int] = {}
        ok = failed = 0
        for event in self.events:
            if event.get("event") != "job":
                continue
            source = event.get("source", "?")
            by_source[source] = by_source.get(source, 0) + 1
            if event.get("status") == "ok":
                ok += 1
            else:
                failed += 1
        return {
            "batch_id": self.id,
            "tenant": self.spec.tenant,
            "trace_id": self.trace.trace_id,
            "priority": self.priority,
            "jobs": len(self.spec.jobs),
            "distinct_jobs": self.distinct_jobs,
            "done": self.done,
            "events": len(self.events),
            "completed_ok": ok,
            "completed_failed": failed,
            "by_source": by_source,
        }


class SimServer:
    """The job server: admission, scheduling, execution, streaming.

    A batch the disk cache answers in full is answered at admission.
    The others execute one at a time (each sweep fans out over
    ``workers`` pool processes); the waiting queue is ordered by tenant
    priority, FIFO within a priority level.
    """

    def __init__(self, cache: Optional[DiskCache] = None,
                 workers: int = 1, timeout: Optional[float] = None,
                 retries: int = 0, retry_backoff: float = 0.25,
                 quotas: Optional[QuotaRegistry] = None,
                 spool: Optional[Spool] = None,
                 manifest_dir=None,
                 host: str = "127.0.0.1", port: int = 0,
                 spool_poll: float = 0.2,
                 trace_dir=None,
                 spool_reclaim: Optional[float] = None):
        self.cache = cache if cache is not None else DiskCache()
        #: Every batch's sweep policy but ``resume``, which its spec
        #: sets; see :meth:`_settings_for`.
        self.settings = SweepSettings(
            workers=workers, cache=self.cache, timeout=timeout,
            retries=retries, retry_backoff=retry_backoff)
        self.quotas = quotas or QuotaRegistry()
        self.spool = spool
        self.manifest_dir = manifest_dir
        self.host = host
        self.port = port
        self.spool_poll = spool_poll
        self.trace_dir = trace_dir
        self.spool_reclaim = spool_reclaim
        self.telemetry = ServeTelemetry()
        self.log = slog.get_logger("repro.serve")
        self.access_log = slog.get_logger("repro.serve.access")
        self.batches: Dict[str, Batch] = {}
        #: Ids of finished batches still in :attr:`batches`, oldest
        #: first; see :data:`FINISHED_BATCHES_KEPT`.
        self._finished: Deque[str] = collections.deque()
        self.started_monotonic = time.monotonic()
        self.started_at = timestamp(time.time())
        #: ``(-priority, seq, batch, jobs)``: ``jobs`` holds one
        #: :class:`SimJob` per spec, built at admission, and lives only
        #: until the batch has run.
        self._queue: List[Tuple[int, int, Batch, List[SimJob]]] = []
        self._seq = itertools.count(1)
        self._ids = itertools.count(1)
        self._running: Optional[str] = None
        self._wake: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._reclaim_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "SimServer":
        loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._scheduler_task = loop.create_task(self._scheduler())
        if self.spool is not None and self.spool_reclaim is not None:
            self._reclaim_task = loop.create_task(self._reclaim_loop())
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        for task in (self._scheduler_task, self._reclaim_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _reclaim_loop(self) -> None:
        """Periodically requeue spool claims whose worker died."""
        assert self.spool is not None and self.spool_reclaim is not None
        interval = max(self.spool_reclaim / 2.0, self.spool_poll)
        while True:
            await asyncio.sleep(interval)
            requeued = self.spool.reclaim_stale(self.spool_reclaim)
            if requeued:
                self.log.warning(
                    "reclaimed stale spool claims",
                    extra={"requeued": requeued,
                           "spool": str(self.spool.root)})

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------

    async def _scheduler(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._queue:
                _, _, batch, jobs = heapq.heappop(self._queue)
                self._running = batch.id
                run = (self._run_batch_spool if self.spool is not None
                       else self._run_batch_local)
                try:
                    await self._execute(
                        batch, time.monotonic() - batch.admitted_monotonic,
                        run(batch, jobs))
                finally:
                    self._running = None

    async def _execute(self, batch: Batch, wait: float, body) -> None:
        """Run ``body``, the coroutine that streams ``batch``'s job
        events and ``batch_end``, after ``wait`` seconds in the queue
        (0 for a batch answered at admission); then release the batch's
        quota and list it among the finished batches."""
        self.telemetry.observe_queue_wait(wait)
        self.telemetry.batch_event("started")
        batch.spans.append(batch.trace.span(
            "queue-wait", batch.admitted_ts, wait,
            args={"batch_id": batch.id}))
        self.log.info(
            "batch scheduled",
            extra={"batch_id": batch.id,
                   "trace_id": batch.trace.trace_id,
                   "tenant": batch.spec.tenant,
                   "queue_wait_seconds": round(wait, 6)})
        try:
            await body
            self.telemetry.batch_event("completed")
        except asyncio.CancelledError:
            raise
        except Exception as error:  # keep serving other batches
            self.telemetry.batch_event("errored")
            self.log.error(
                "batch failed",
                extra={"batch_id": batch.id,
                       "trace_id": batch.trace.trace_id,
                       "error": f"{type(error).__name__}: {error}"})
            await batch.push({
                "event": "batch_end", "batch_id": batch.id,
                "trace_id": batch.trace.trace_id,
                "error": f"{type(error).__name__}: {error}"})
        finally:
            self.quotas.release(batch.spec.tenant, len(batch.spec.jobs))
            self._finished.append(batch.id)
            while len(self._finished) > FINISHED_BATCHES_KEPT:
                del self.batches[self._finished.popleft()]

    def _settings_for(self, batch: Batch) -> SweepSettings:
        """The server's settings under ``batch``'s ``resume`` flag."""
        return dataclasses.replace(self.settings, resume=batch.spec.resume)

    def _job_event(self, batch: Batch,
                   outcome: Union[JobResult, JobFailure]) -> Dict:
        """One streamed JSON-lines record per distinct job answer."""
        digest = outcome.job.digest
        status = "ok" if outcome.ok else "failed"
        self.telemetry.observe_job(outcome.source, status,
                                   outcome.wall_seconds)
        now = time.time()
        if outcome.source in ("cache", "quarantine"):
            batch.spans.append(batch.trace.span(
                "dedup", now, 0.0,
                args={"digest": digest, "source": outcome.source}))
        batch.spans.append(batch.trace.span(
            "publish", now, 0.0,
            args={"digest": digest, "source": outcome.source,
                  "status": status}))
        self.log.info(
            "job %s", status,
            extra={"batch_id": batch.id,
                   "trace_id": batch.trace.trace_id,
                   "tenant": batch.spec.tenant, "digest": digest,
                   "source": outcome.source,
                   "attempts": outcome.attempts,
                   "wall_seconds": round(outcome.wall_seconds, 6)})
        event = {
            "event": "job",
            "batch_id": batch.id,
            "trace_id": batch.trace.trace_id,
            "digest": digest,
            "job": outcome.job.describe(),
            "source": outcome.source,
            "status": status,
            "wall_seconds": outcome.wall_seconds,
            "attempts": outcome.attempts,
        }
        if outcome.ok:
            event["result"] = aggregate_entry(
                outcome.run,
                wall_seconds=(outcome.wall_seconds
                              if outcome.source == "simulated" else 0.0))
        else:
            event["failure"] = outcome.to_dict()
        return event

    def _manifest_for(self, batch: Batch,
                      distinct: List[Union[JobResult, JobFailure]],
                      started: float) -> RunManifest:
        """Provenance for one batch, from its distinct answers in
        submission order, in the CLI sweep's exact schema (``repro-exp
        diff`` and ``report`` consume it unchanged)."""
        specs = batch.spec.jobs
        measures = {spec.measure for spec in specs}
        warmups = {spec.warmup for spec in specs}
        seeds = {spec.seed for spec in specs}
        return build_manifest(
            self._settings_for(batch),
            [outcome for outcome in distinct
             if outcome.source == "simulated"],
            [outcome for outcome in distinct if not outcome.ok], started,
            command=["repro-exp", "serve", f"batch:{batch.id}"],
            experiments=[f"serve/{batch.spec.tenant}/{batch.id}"],
            benchmarks=sorted({spec.benchmark for spec in specs}),
            measure=measures.pop() if len(measures) == 1 else 0,
            warmup=warmups.pop() if len(warmups) == 1 else 0,
            seed=seeds.pop() if len(seeds) == 1 else 0,
            runs=[(outcome.job, outcome.run) for outcome in distinct
                  if outcome.ok])

    async def _finish_batch(self, batch: Batch,
                            outcomes: List[Union[JobResult, JobFailure]],
                            started: float) -> None:
        """Tally the distinct answers once (submission order; duplicate
        specs share one record) into ``batch_end`` and the manifest;
        ``started`` is the batch's start, host wall-clock epoch
        seconds."""
        distinct = list({outcome.job.digest: outcome
                         for outcome in outcomes}.values())
        by_source = dict(collections.Counter(
            outcome.source for outcome in distinct))
        manifest = self._manifest_for(batch, distinct, started)
        manifest_path = None
        if self.manifest_dir is not None:
            from pathlib import Path

            directory = Path(self.manifest_dir)
            directory.mkdir(parents=True, exist_ok=True)
            manifest_path = str(
                directory / f"{batch.id}.manifest.json")
            manifest.write(manifest_path)
        self._export_trace(batch)
        await batch.push({
            "event": "batch_end",
            "batch_id": batch.id,
            "trace_id": batch.trace.trace_id,
            "trace_path": batch.trace_path,
            "jobs": len(batch.spec.jobs),
            "distinct_jobs": len(distinct),
            "ok": len(distinct) - manifest.jobs_failed,
            "failed": manifest.jobs_failed,
            "by_source": by_source,
            "wall_seconds": manifest.wall_seconds,
            "manifest_path": manifest_path,
            "manifest": manifest.to_dict(),
        })

    def _export_trace(self, batch: Batch) -> None:
        """Write (or refresh) the batch's Perfetto trace file."""
        if self.trace_dir is None or not batch.spans:
            return
        from pathlib import Path

        directory = Path(self.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{batch.id}.trace.json"
        try:
            write_perfetto_trace(batch.spans, str(path))
        except OSError as error:
            self.log.error("trace export failed",
                           extra={"batch_id": batch.id,
                                  "trace_id": batch.trace.trace_id,
                                  "error": str(error)})
            return
        batch.trace_path = str(path)

    async def _push_start(self, batch: Batch) -> None:
        mode = ({"mode": "spool", "spool": str(self.spool.root)}
                if self.spool is not None
                else {"mode": "local", "workers": self.settings.workers})
        await batch.push({
            "event": "batch_start", "batch_id": batch.id,
            "trace_id": batch.trace.trace_id,
            "tenant": batch.spec.tenant,
            "jobs": len(batch.spec.jobs),
            "distinct_jobs": batch.distinct_jobs, **mode})

    def _cached_outcomes(
            self, jobs: List[SimJob], resume: bool,
    ) -> Optional[List[Union[JobResult, JobFailure]]]:
        """Each distinct job's :func:`runner.cached_outcome`, in
        submission order, or None at the first job that must run."""
        outcomes = []
        for job in dict.fromkeys(jobs):
            outcome = cached_outcome(job, self.cache, resume)
            if outcome is None:
                return None
            outcomes.append(outcome)
        return outcomes

    async def _answer(
            self, batch: Batch,
            outcomes: List[Union[JobResult, JobFailure]]) -> None:
        """Stream a batch answered at admission: its every job was a
        disk hit or a sticky failure record."""
        started = time.time()
        await self._push_start(batch)
        for outcome in outcomes:
            await batch.push(self._job_event(batch, outcome))
        await self._finish_batch(batch, outcomes, started)

    async def _run_batch_local(self, batch: Batch,
                               jobs: List[SimJob]) -> None:
        """Execute one batch via :func:`runner.run_sweep` (cache dedup
        included), every miss in a forked pool worker."""
        loop = asyncio.get_running_loop()
        started = time.time()
        await self._push_start(batch)

        def on_outcome(outcome: Union[JobResult, JobFailure]) -> None:
            # Runs on the executor thread; hand the event to the loop.
            event = self._job_event(batch, outcome)
            loop.call_soon_threadsafe(
                loop.create_task, batch.push(event))

        def on_attempt(job, attempt, started_ts, duration, status,
                       worker_pid) -> None:
            # Executor thread too: one span per execution attempt,
            # retries included (list.append is atomic under the GIL).
            self.telemetry.observe_attempt(status)
            batch.spans.append(batch.trace.span(
                "simulate" if attempt == 1 else "retry",
                started_ts, duration,
                args={"digest": job.digest,
                      "benchmark": job.benchmark, "attempt": attempt,
                      "status": status, "worker_pid": worker_pid}))

        def sweep() -> List[Union[JobResult, JobFailure]]:
            # Isolated: a simulation in this process would hold the GIL
            # against the event loop, could not be timed out, and would
            # take the server down with it if it died.
            return run_sweep(
                jobs, **vars(self._settings_for(batch)),
                on_outcome=on_outcome, on_attempt=on_attempt,
                isolate=True)

        outcomes = await loop.run_in_executor(None, sweep)
        await self._finish_batch(batch, outcomes, started)

    async def _run_batch_spool(self, batch: Batch,
                               jobs: List[SimJob]) -> None:
        """Execute one batch by enqueueing cache misses into the shared
        spool and polling for worker completions.

        Cache hits and sticky quarantine records are answered by
        :func:`runner.cached_outcome`, as in local mode; only true
        misses hit the queue, and two batches naming one digest share
        one spool entry.
        """
        assert self.spool is not None
        started = time.time()
        distinct: Dict[str, Tuple[SimJob, JobSpec]] = {}
        for job, spec in zip(jobs, batch.spec.jobs):
            distinct.setdefault(job.digest, (job, spec))
        await self._push_start(batch)
        outcome_of: Dict[str, Union[JobResult, JobFailure]] = {}
        requests: Dict[str, Dict] = {}
        for digest, (job, spec) in distinct.items():
            outcome = cached_outcome(job, self.cache, batch.spec.resume)
            if outcome is not None:
                outcome_of[digest] = outcome
                await batch.push(self._job_event(batch, outcome))
                continue
            if batch.spec.resume:
                self.spool.forget_failure(digest)
            requests[digest] = {
                "job": spec.to_dict(),
                "policy": {"timeout": self.settings.timeout,
                           "retries": self.settings.retries,
                           "retry_backoff": self.settings.retry_backoff},
                "resume": batch.spec.resume,
                "batch_id": batch.id,
                "trace": batch.trace.to_wire(),
                "enqueued_ts": time.time(),
            }
            self.spool.enqueue(digest, requests[digest])
        pending = list(requests)
        while pending:
            await asyncio.sleep(self.spool_poll)
            still: List[str] = []
            for digest in pending:
                state, payload = self.spool.state(digest)
                if state not in ("done", "failed"):
                    still.append(digest)
                    continue
                job = distinct[digest][0]
                try:
                    if state == "done":
                        outcome = JobResult(
                            job=job,
                            run=BenchmarkRun.from_dict(payload["run"]),
                            source=payload.get("source", "simulated"),
                            wall_seconds=float(
                                payload.get("wall_seconds", 0.0)),
                            attempts=int(payload.get("attempts", 0)),
                            worker_pid=0)
                    else:
                        outcome = JobFailure.from_dict(
                            job, payload.get("failure", {}))
                except (ValueError, KeyError, TypeError, AttributeError):
                    # As DiskCache.load_failure: a marker that parses
                    # but does not rehydrate is dropped and its job
                    # queued again, not left to fail every batch.
                    self.spool.discard(digest)
                    self.spool.enqueue(digest, requests[digest])
                    still.append(digest)
                    continue
                self._merge_worker_spans(batch, payload)
                outcome_of[digest] = outcome
                await batch.push(self._job_event(batch, outcome))
            pending = still
        outcomes = [outcome_of[job.digest] for job in jobs]
        await self._finish_batch(batch, outcomes, started)

    def _merge_worker_spans(self, batch: Batch, payload: Dict) -> None:
        """Stitch a spool worker's spans into the batch's trace.

        Workers serialise their spans (claim, simulate, retries) into
        the done/failed payload; spans from another batch's earlier
        completion of the same digest keep their own trace id and are
        skipped.  Attempt counters move here so ``/v1/metrics``
        reflects spool-side retries too.
        """
        spans = payload.get("spans")
        if not isinstance(spans, list):
            return
        for span in spans:
            if not isinstance(span, dict):
                continue
            if span.get("trace_id") != batch.trace.trace_id:
                continue
            batch.spans.append(span)
            status = (span.get("args") or {}).get("status")
            if span.get("name") in ("simulate", "retry") and status:
                self.telemetry.observe_attempt(str(status))

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        method = path = "-"
        status: Optional[int] = None
        try:
            try:
                request = await self._read_request(reader)
                if request is None:    # connection closed with no data
                    return
                method, path, body = request
                status = await self._route(method, path, body, writer)
            except _RequestError as error:
                method, path = error.method, error.path
                status = self._respond(writer, error.status,
                                       {"error": error.reason})
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            status = status if status is not None else 0
        finally:
            if status is not None:
                self._access(method, path, status,
                             time.perf_counter() - started)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _access(self, method: str, path: str, status: int,
                seconds: float) -> None:
        """One access-log line + request metrics per HTTP exchange.

        ``status`` 0 means the client vanished mid-response; the
        request still counts, labeled with code 0.
        """
        route = (normalize_route(path) if path != "-" else "<malformed>")
        self.telemetry.observe_request(route, method, status, seconds)
        self.access_log.info(
            "%s %s %s", method, path, status,
            extra={"status": status, "route": route,
                   "duration_ms": round(seconds * 1e3, 3)})

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _RequestError(400, "malformed request line")
        method, path, _version = parts
        length = 0
        while True:
            header = await reader.readline()
            if len(header) > _MAX_LINE:
                raise _RequestError(431, "request header too large",
                                    method, path)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _RequestError(400, "bad Content-Length",
                                        method, path) from None
        if length < 0:
            raise _RequestError(400, "bad Content-Length", method, path)
        if length > _MAX_BODY:
            raise _RequestError(413, "request body too large",
                                method, path)
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    @staticmethod
    def _respond(writer: asyncio.StreamWriter, status: int,
                 payload: Dict) -> int:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        reason = http.client.responses.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        return status

    @staticmethod
    def _respond_text(writer: asyncio.StreamWriter, status: int,
                      text: str, content_type: str) -> int:
        body = text.encode()
        reason = http.client.responses.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        return status

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> int:
        path = path.split("?", 1)[0]
        if method == "POST" and path == "/v1/batches":
            return await self._handle_submit(body, writer)
        if method == "GET" and path == "/v1/status":
            return self._respond(writer, 200, self.status())
        if method == "GET" and path == "/v1/metrics":
            return self._respond_text(
                writer, 200, self.telemetry.render(self._collect),
                CONTENT_TYPE)
        if method == "GET" and path.startswith("/v1/batches/"):
            rest = path[len("/v1/batches/"):]
            if rest.endswith("/events"):
                batch = self.batches.get(rest[: -len("/events")])
                if batch is None:
                    return self._respond(writer, 404,
                                         {"error": "unknown batch"})
                return await self._stream_events(batch, writer)
            batch = self.batches.get(rest)
            if batch is None:
                return self._respond(writer, 404,
                                     {"error": "unknown batch"})
            return self._respond(writer, 200, batch.snapshot())
        if path.startswith("/v1/"):
            return self._respond(
                writer, 405 if method not in ("GET", "POST") else 404,
                {"error": f"no route for {method} {path}"})
        return self._respond(writer, 404,
                             {"error": f"no route for {method} {path}"})

    async def _handle_submit(self, body: bytes,
                             writer: asyncio.StreamWriter) -> int:
        assert self._wake is not None
        admit_ts = time.time()
        admit_perf = time.perf_counter()
        try:
            data = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            self.telemetry.protocol_rejected()
            return self._respond(
                writer, 400,
                {"error": "request body is not valid JSON"})
        try:
            spec = parse_batch(data)
        except ProtocolError as error:
            self.telemetry.protocol_rejected()
            self.log.warning("submission rejected",
                             extra={"reason": str(error)})
            return self._respond(writer, 400, {"error": str(error)})
        try:
            policy = self.quotas.admit(spec.tenant, len(spec.jobs))
        except QuotaExceeded as error:
            self.telemetry.quota_rejected(spec.tenant)
            self.log.warning("quota rejection",
                             extra={"tenant": spec.tenant,
                                    "reason": str(error)})
            return self._respond(writer, 429, {"error": str(error)})
        # Equal jobs become one object, so each digest is computed once.
        unique: Dict[SimJob, SimJob] = {}
        jobs = [unique.setdefault(job, job)
                for job in (job_spec.sim_job() for job_spec in spec.jobs)]
        # The disk reads run off the loop; a batch answered here never
        # waits in the queue behind a simulation.
        try:
            answered = await asyncio.get_running_loop().run_in_executor(
                None, self._cached_outcomes, jobs, spec.resume)
        except Exception:  # its sweep meets the error and reports it
            answered = None
        batch = Batch(f"b{next(self._ids):06d}", spec,
                      len({job.digest for job in jobs}), policy.priority,
                      trace=TraceContext.new(spec.trace_id))
        batch.spans.append(batch.trace.span(
            "admit", admit_ts, time.perf_counter() - admit_perf,
            args={"batch_id": batch.id, "tenant": spec.tenant,
                  "jobs": len(spec.jobs)},
            span_id=batch.trace.span_id))
        self.batches[batch.id] = batch
        if answered is None:
            heapq.heappush(self._queue,
                           (-policy.priority, next(self._seq), batch, jobs))
            self._wake.set()
        self.telemetry.batch_event("admitted", len(spec.jobs))
        self.log.info(
            "batch admitted",
            extra={"batch_id": batch.id,
                   "trace_id": batch.trace.trace_id,
                   "tenant": spec.tenant, "jobs": len(spec.jobs),
                   "priority": policy.priority})
        if answered is not None:
            await self._execute(batch, 0.0, self._answer(batch, answered))
        return self._respond(writer, 202, {
            "batch_id": batch.id,
            "tenant": spec.tenant,
            "trace_id": batch.trace.trace_id,
            "priority": policy.priority,
            "jobs": len(spec.jobs),
            "distinct_jobs": batch.distinct_jobs,
            "digests": [job.digest for job in jobs],
            "events_url": f"/v1/batches/{batch.id}/events",
            "batch_url": f"/v1/batches/{batch.id}",
        })

    async def _stream_events(self, batch: Batch,
                             writer: asyncio.StreamWriter) -> int:
        started_ts = time.time()
        perf = time.perf_counter()
        delivered = 0
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        try:
            async for event in batch.stream():
                chunk = (json.dumps(event, sort_keys=True)
                         + "\n").encode()
                writer.write(f"{len(chunk):x}\r\n".encode() + chunk
                             + b"\r\n")
                await writer.drain()
                delivered += 1
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            batch.spans.append(batch.trace.span(
                "stream", started_ts, time.perf_counter() - perf,
                args={"batch_id": batch.id, "events": delivered}))
            if batch.done:
                # The trace file written at batch_end predates this
                # subscriber's stream span; refresh it in place.
                self._export_trace(batch)
        return 200

    def _collect(self) -> None:
        """Refresh sampled gauges under the telemetry lock, so one
        scrape is one consistent snapshot."""
        registry = self.telemetry.registry
        registry.gauge("repro_queue_depth").set(float(len(self._queue)))
        registry.gauge("repro_uptime_seconds").set(
            time.monotonic() - self.started_monotonic)
        registry.gauge("repro_stream_subscribers").set(float(sum(
            len(batch.subscribers) for batch in self.batches.values())))
        registry.gauge("repro_stream_backlog_events").set(float(sum(
            batch.stream_backlog() for batch in self.batches.values())))
        for op, value in self.cache.counters().items():
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue  # counters() also carries the root path
            self.telemetry.cache_ops.labels(op=op).value = value
        if self.spool is not None:
            for state, count in self.spool.depth().items():
                self.telemetry.spool_jobs.labels(state=state).set(
                    float(count))
            self.telemetry.spool_reclaimed.labels().value = (
                self.spool.reclaimed)
        self.telemetry.build_info.labels(
            code_version=code_version(), host=_HOST).set(1.0)

    def status(self) -> Dict:
        """The ``/v1/status`` payload: every counter the ops story
        needs, straight from the existing registries."""
        metrics = self.telemetry.counters()
        spool_status = None
        if self.spool is not None:
            spool_status = self.spool.depth()
            spool_status["reclaimed"] = self.spool.reclaimed
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "hostname": _HOST,
                "pid": os.getpid(),
                "workers": self.settings.workers,
                "mode": "spool" if self.spool is not None else "local",
                "started_at": self.started_at,
                "uptime_seconds": (time.monotonic()
                                   - self.started_monotonic),
                "code_version": code_version(),
            },
            "queue": {
                "depth": len(self._queue),
                "running": self._running,
                "batches_total": metrics["serve.batches_accepted"],
            },
            "cache": self.cache.counters(),
            "metrics": metrics,
            "tenants": self.quotas.snapshot(),
            "spool": spool_status,
        }


# ----------------------------------------------------------------------
# Embedding helper (tests drive the server in-process)
# ----------------------------------------------------------------------


def start_in_background(**kwargs):
    """Start a :class:`SimServer` on its own event-loop thread.

    Returns ``(server, stop)``: ``server.port`` is bound (port 0 means
    an OS-assigned free port) by the time this returns, and ``stop()``
    shuts the loop down and joins the thread.  Test machinery — the
    CLI path is :func:`cmd`.
    """
    server = SimServer(**kwargs)
    ready = threading.Event()
    state: Dict[str, object] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        state["loop"] = loop
        loop.run_until_complete(server.start())
        ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve",
                              daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("server failed to start within 30s")

    def stop() -> None:
        loop = state["loop"]

        async def _shutdown() -> None:
            await server.stop()
            loop.stop()

        loop.call_soon_threadsafe(
            lambda: loop.create_task(_shutdown()))
        thread.join(timeout=30)

    return server, stop


# ----------------------------------------------------------------------
# repro-exp serve
# ----------------------------------------------------------------------


def _port(text: str) -> int:
    """argparse type: a TCP port number, 0 (a free port) to 65535."""
    value = int_at_least(0)(text)
    if value > 65535:
        raise argparse.ArgumentTypeError(
            f"must be <= 65535 (got {value})")
    return value


def _quota_file(path: str) -> QuotaRegistry:
    """argparse type: the policies of a ``--quotas`` file, loaded at
    parse time so a bad file exits 2 before the server starts."""
    try:
        return QuotaRegistry.from_file(path)
    except (OSError, ValueError) as error:
        raise argparse.ArgumentTypeError(
            f"cannot load {path}: {error}") from None


def configure_parser(parser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=_port, default=8023,
                        help="bind port; 0 picks a free port "
                             "(default 8023)")
    add_sweep_args(parser, in_process=False)
    parser.add_argument("--quotas", type=_quota_file, default=None,
                        metavar="FILE",
                        help="per-tenant quota/priority policy JSON")
    parser.add_argument("--spool", default=None, metavar="DIR",
                        help="shared spool directory: enqueue misses "
                             "for repro-exp spool-worker hosts instead "
                             "of simulating locally")
    parser.add_argument("--manifest-dir", default=None, metavar="DIR",
                        help="write one run manifest per batch here")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write one Perfetto trace per batch here "
                             "(admit/queue/claim/simulate spans across "
                             "all participating hosts)")
    parser.add_argument("--spool-reclaim",
                        type=float_at_least(0.0, exclusive=True),
                        default=None, metavar="SECONDS",
                        help="requeue spool claims idle longer than "
                             "this (the owning worker died)")
    slog.add_logging_args(parser)


def cmd(args) -> int:
    slog.configure_from_args(args)
    log = slog.get_logger("repro.serve")
    spool = Spool(args.spool) if args.spool else None
    set_fault_injector(args.inject_fault)
    server = SimServer(
        cache=DiskCache(args.cache_dir),
        workers=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        quotas=args.quotas,
        spool=spool,
        manifest_dir=args.manifest_dir,
        host=args.host,
        port=args.port,
        trace_dir=args.trace_dir,
        spool_reclaim=args.spool_reclaim,
    )

    async def _main() -> None:
        await server.start()
        log.info(
            "listening on http://%s:%s", server.host, server.port,
            extra={"mode": ("spool" if spool is not None else "local"),
                   "workers": server.settings.workers,
                   "cache": str(server.cache.root),
                   **({"spool_dir": str(spool.root)} if spool else {}),
                   **({"trace_dir": args.trace_dir}
                      if args.trace_dir else {})})
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        log.info("interrupted")
    return 0


__all__ = ["Batch", "SimServer", "start_in_background"]
