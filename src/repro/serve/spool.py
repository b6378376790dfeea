"""Shared spool directory: multi-host job distribution for the server.

One server host cannot simulate a million-user backlog alone.  The
spool turns any shared filesystem (NFS, a bind mount, plain
``/tmp`` in tests) into a work queue multiple worker *hosts* drain::

    spool/
      queued/<digest>.json            submitted, unowned
      claimed/<digest>.<worker>.json  owned by exactly one worker
      done/<digest>.json              finished (result payload inside)
      failed/<digest>.json            quarantined (failure payload)

Claiming is a single ``os.replace`` of the queued file into
``claimed/`` under the worker's own name: rename within one filesystem
is atomic, so exactly one of N racing workers wins a job and the
losers see ``FileNotFoundError`` and move on — no lock server, no
heartbeat protocol.  Every payload is published with the
:mod:`repro.atomicio` tmp + replace idiom, so readers on other hosts
never see torn JSON (this is the scenario the ``.tmp.<pid>``
collision fix in the disk cache exists for).

Workers (``repro-exp spool-worker``) execute claims through
:func:`repro.experiments.runner.run_sweep` against a shared disk
cache, so results land both as a spool ``done/`` marker (what the
server streams) and as ordinary content-addressed cache entries (what
makes the *next* submission of the same digest a pure cache hit on
any host).  A worker that dies mid-job leaves its claim file behind;
the server (``repro-exp serve --spool-reclaim``) periodically calls
:meth:`Spool.reclaim_stale`, which moves claims older than a deadline
back to ``queued/`` so the job is re-run by someone else.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.atomicio import _HOST, replace_json

_STATES = ("queued", "claimed", "done", "failed")


class SpoolClaim:
    """One job this worker owns until ``complete``/``fail`` is called."""

    __slots__ = ("digest", "path", "request")

    def __init__(self, digest: str, path: Path, request: Dict):
        self.digest = digest
        self.path = path
        self.request = request


class Spool:
    """A spool directory handle (server and worker sides share it)."""

    def __init__(self, root):
        self.root = Path(root)
        for state in _STATES:
            (self.root / state).mkdir(parents=True, exist_ok=True)
        self.worker_id = f"{_HOST}.{os.getpid()}"
        #: Cumulative count of stale claims this handle requeued
        #: (surfaced on /v1/status and /v1/metrics).
        self.reclaimed = 0

    def _queued(self, digest: str) -> Path:
        return self.root / "queued" / f"{digest}.json"

    def _marker(self, state: str, digest: str) -> Path:
        return self.root / state / f"{digest}.json"

    def enqueue(self, digest: str, request: Dict) -> str:
        """Queue one job unless it is already in flight or finished.

        Returns the job's state after the call (``"queued"`` also when
        it was already queued) — enqueueing is idempotent per digest,
        which is what makes cross-batch dedup free: two batches naming
        one digest share one spool entry.
        """
        state = self.state(digest)[0]
        if state is not None:
            return state
        replace_json(self._queued(digest),
                     {"digest": digest, "request": request,
                      "enqueued_by": self.worker_id})
        return "queued"

    def claim(self) -> Optional[SpoolClaim]:
        """Atomically take ownership of one queued job, oldest first.

        The ``os.replace`` into ``claimed/`` under this worker's name
        is the entire claim protocol: exactly one racing worker wins,
        the rest lose the rename and try the next file.  An entry that
        does not hold a request object is quarantined, not returned.
        """
        queued = []
        for path in self.root.glob("queued/*.json"):
            try:
                queued.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue  # another worker claimed it since the listing
        for _, _, path in sorted(queued):
            digest = path.stem
            target = (self.root / "claimed"
                      / f"{digest}.{self.worker_id}.json")
            try:
                os.replace(path, target)
            except FileNotFoundError:
                continue  # lost the race to another worker
            except OSError:
                continue
            try:
                # The claim's age counts from now: the rename kept the
                # enqueue time, and reclaim_stale would requeue a live
                # claim of a job that sat queued past the deadline.
                os.utime(target)
            except OSError:
                pass
            try:
                with open(target) as stream:
                    request = json.load(stream)["request"]
                if not isinstance(request, dict):
                    raise TypeError("spool request is not an object")
            except (OSError, ValueError, KeyError, TypeError):
                # Torn or malformed queue entry: quarantine it.
                self._publish("failed", digest, {
                    "digest": digest, "status": "failed",
                    "failure": {"cause": "exception",
                                "error": "unreadable spool entry",
                                "error_type": "SpoolError",
                                "attempts": 1},
                    "worker": self.worker_id})
                try:
                    target.unlink()
                except OSError:
                    pass
                continue
            return SpoolClaim(digest, target, request)
        return None

    def _publish(self, state: str, digest: str, payload: Dict) -> None:
        replace_json(self._marker(state, digest), payload)

    def complete(self, claim: SpoolClaim, payload: Dict) -> None:
        """Publish a finished job's result and release the claim."""
        self._publish("done", digest=claim.digest, payload=payload)
        try:
            claim.path.unlink()
        except OSError:
            pass

    def fail(self, claim: SpoolClaim, payload: Dict) -> None:
        """Publish a quarantined job's failure and release the claim."""
        self._publish("failed", digest=claim.digest, payload=payload)
        try:
            claim.path.unlink()
        except OSError:
            pass

    def state(self, digest: str) -> Tuple[Optional[str], Optional[Dict]]:
        """Where one digest currently is: done/failed markers carry
        their payload; returns ``(None, None)`` for an unknown job."""
        for state in ("done", "failed"):
            path = self._marker(state, digest)
            try:
                with open(path) as stream:
                    return state, json.load(stream)
            except (OSError, ValueError):
                continue
        if self._queued(digest).exists():
            return "queued", None
        if any(self.root.glob(f"claimed/{digest}.*.json")):
            return "claimed", None
        return None, None

    def forget_failure(self, digest: str) -> bool:
        """Drop a failed marker so a resume submission can requeue the
        job (the spool-side analogue of ``DiskCache.clear_failure``)."""
        try:
            self._marker("failed", digest).unlink()
        except OSError:
            return False
        return True

    def discard(self, digest: str) -> None:
        """Drop the done and failed markers of ``digest``, so
        :meth:`enqueue` queues the job again (the server's answer to a
        marker that does not rehydrate)."""
        for state in ("done", "failed"):
            try:
                self._marker(state, digest).unlink()
            except OSError:
                pass

    def reclaim_stale(self, max_age_seconds: float) -> int:
        """Requeue claims older than ``max_age_seconds`` (their worker
        presumably died); returns how many jobs went back to queued."""
        requeued = 0
        now = time.time()
        for path in self.root.glob("claimed/*.json"):
            digest = path.name.split(".", 1)[0]
            try:
                if now - path.stat().st_mtime <= max_age_seconds:
                    continue
                os.replace(path, self._queued(digest))
            except OSError:
                continue  # the worker finished or another host won
            requeued += 1
        self.reclaimed += requeued
        return requeued

    def depth(self) -> Dict[str, int]:
        """Entry counts per state, for the status endpoint."""
        return {state: sum(1 for _ in self.root.glob(f"{state}/*.json"))
                for state in _STATES}


# ----------------------------------------------------------------------
# The worker loop (repro-exp spool-worker)
# ----------------------------------------------------------------------


def execute_claim(claim: SpoolClaim, cache) -> Dict:
    """Run one claimed job and build its done/failed payload.

    The request's job spec and fault policy ride in the spool entry;
    execution goes through :func:`runner.run_sweep` so the retry /
    quarantine semantics and the disk-cache persistence are exactly
    the local pool's.

    When the request carries a trace context (``"trace"`` wire dict,
    see :class:`repro.serve.telemetry.TraceContext`), the payload
    returns a ``"spans"`` list — one ``claim`` span covering this
    worker's ownership plus one ``simulate``/``retry`` span per
    execution attempt — which the server stitches into the batch's
    distributed trace.
    """
    from repro.experiments.runner import run_sweep
    from repro.serve.protocol import ProtocolError, parse_job
    from repro.serve.telemetry import TraceContext

    worker = f"{_HOST}.{os.getpid()}"
    trace = TraceContext.from_wire(claim.request.get("trace"))
    claim_ts = time.time()
    spans = []
    claim_ctx = trace
    if trace is not None:
        enqueued_ts = claim.request.get("enqueued_ts")
        claim_span = trace.span(
            "claim", claim_ts, 0.0,
            args={"digest": claim.digest, "worker": worker,
                  **({"spool_wait_seconds":
                      round(claim_ts - enqueued_ts, 6)}
                     if isinstance(enqueued_ts, (int, float)) else {})})
        spans.append(claim_span)
        claim_ctx = TraceContext(trace.trace_id, claim_span["span_id"])

    def _finish(payload: Dict) -> Dict:
        if spans:
            spans[0]["duration"] = max(0.0, time.time() - claim_ts)
            payload["spans"] = spans
        return payload

    def on_attempt(job, attempt, started_ts, duration, status,
                   worker_pid) -> None:
        if claim_ctx is None:
            return
        spans.append(claim_ctx.span(
            "simulate" if attempt == 1 else "retry",
            started_ts, duration,
            args={"digest": claim.digest, "benchmark": job.benchmark,
                  "attempt": attempt, "status": status,
                  "worker_pid": worker_pid}))

    try:
        spec = parse_job(claim.request.get("job"))
    except ProtocolError as error:
        return _finish({
            "digest": claim.digest, "status": "failed",
            "failure": {"cause": "exception", "error": str(error),
                        "error_type": "ProtocolError", "attempts": 1},
            "worker": worker})
    policy = claim.request.get("policy") or {}
    outcome = run_sweep(
        [spec.sim_job()],
        workers=1,
        cache=cache,
        timeout=policy.get("timeout"),
        retries=int(policy.get("retries", 0)),
        retry_backoff=float(policy.get("retry_backoff", 0.25)),
        resume=bool(claim.request.get("resume", False)),
        on_attempt=on_attempt,
    )[0]
    if outcome.ok:
        return _finish({
            "digest": claim.digest, "status": "ok",
            **outcome.to_dict(),
            "worker": worker})
    return _finish({
        "digest": claim.digest, "status": "failed",
        "failure": outcome.to_dict(),
        "worker": worker})


def run_worker(spool: Spool, cache=None, poll: float = 0.5,
               max_jobs: Optional[int] = None,
               idle_exit: Optional[float] = None) -> int:
    """Claim-and-execute loop; returns the number of jobs executed.

    Runs until ``max_jobs`` jobs are done or the spool has been empty
    for ``idle_exit`` seconds (forever when both are None).
    """
    from repro.obs import slog

    logger = slog.get_logger("repro.serve.spool")
    executed = 0
    idle_since: Optional[float] = None
    while max_jobs is None or executed < max_jobs:
        claim = spool.claim()
        if claim is None:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if idle_exit is not None and now - idle_since >= idle_exit:
                break
            time.sleep(poll)
            continue
        idle_since = None
        payload = execute_claim(claim, cache)
        if payload["status"] == "ok":
            spool.complete(claim, payload)
        else:
            spool.fail(claim, payload)
        trace = claim.request.get("trace")
        logger.info(
            "job %s", payload["status"],
            extra={"digest": claim.digest,
                   "batch_id": claim.request.get("batch_id"),
                   "worker": spool.worker_id,
                   **({"trace_id": trace.get("trace_id")}
                      if isinstance(trace, dict) else {})})
        executed += 1
    return executed


def configure_parser(parser) -> None:
    from repro.experiments.sweepflags import float_at_least, int_at_least

    parser.add_argument("--spool", required=True, metavar="DIR",
                        help="shared spool directory (same --spool the "
                             "server was started with)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache shared "
                             "with the server (default "
                             "~/.cache/fxa-repro)")
    parser.add_argument("--poll", type=float_at_least(0.0), default=0.5,
                        metavar="SECONDS",
                        help="sleep between empty queue scans "
                             "(default 0.5)")
    parser.add_argument("--max-jobs", type=int_at_least(1), default=None,
                        metavar="N",
                        help="exit after executing N jobs "
                             "(default: run forever)")
    parser.add_argument("--idle-exit", type=float_at_least(0.0),
                        default=None, metavar="SECONDS",
                        help="exit after the queue has been empty this "
                             "long (default: run forever)")
    from repro.obs import slog

    slog.add_logging_args(parser)


def cmd(args) -> int:
    from repro.experiments.diskcache import DiskCache
    from repro.obs import slog

    slog.configure_from_args(args)
    logger = slog.get_logger("repro.serve.spool")
    spool = Spool(args.spool)
    cache = DiskCache(args.cache_dir)
    logger.info("draining spool",
                extra={"worker": spool.worker_id,
                       "spool": str(spool.root),
                       "cache": str(cache.root)})
    executed = run_worker(spool, cache=cache, poll=args.poll,
                          max_jobs=args.max_jobs,
                          idle_exit=args.idle_exit)
    logger.info("worker exit",
                extra={"worker": spool.worker_id, "executed": executed})
    return 0


__all__ = ["Spool", "SpoolClaim", "execute_claim", "run_worker"]
