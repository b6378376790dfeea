"""Operational telemetry for the serving stack.

Three concerns live here, all stdlib-only:

* **Distributed trace context.**  A :class:`TraceContext` is minted at
  batch admission (``trace_id`` + root ``span_id``); every unit of work
  after that — queue wait, cache dedup, spool claim, each simulation
  attempt, publish, stream — records a span dict that names its parent.
  The context crosses process/host boundaries as a two-key wire dict
  (:meth:`TraceContext.to_wire` / :meth:`TraceContext.from_wire`)
  riding inside spool request payloads, so spans recorded by a
  ``repro-exp spool-worker`` on another host stitch into the same
  trace.  :func:`write_perfetto_trace` renders one batch's spans into
  the Trace Event JSON the existing
  :class:`~repro.obs.traceevent.TraceEventWriter` already emits — one
  Perfetto process row per participating ``host:pid``.

* **Prometheus metrics.**  :class:`ServeTelemetry` owns a
  :class:`~repro.obs.metrics.MetricsRegistry` populated with labeled
  families (request duration by route, queue wait, simulation seconds
  by source, quota rejections by tenant, spool depth by state, ...)
  and renders the text exposition format (version 0.0.4) for
  ``GET /v1/metrics``.  Every observation and the render itself take
  one lock, so a scrape is a consistent snapshot: histogram ``_count``
  == ``sum(buckets)`` and the ``le`` series is monotone by
  construction, which the invariant tests pin.

* **Scrape-side helpers.**  :func:`parse_prometheus_text` (used by the
  ``repro-exp top`` dashboard and the conformance tests) and
  :func:`quantile_from_buckets` (p50/p95 from cumulative buckets by
  linear interpolation).
"""

from __future__ import annotations

import math
import os
import re
import threading
import uuid
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.atomicio import _HOST
from repro.obs.metrics import MetricsRegistry

#: Content-Type for the ``/v1/metrics`` response.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Client-suppliable trace ids: 8..64 lowercase hex chars.
TRACE_ID_RE = re.compile(r"^[0-9a-f]{8,64}$")


# ----------------------------------------------------------------------
# Trace context and spans
# ----------------------------------------------------------------------


def _span_id() -> str:
    return uuid.uuid4().hex[:16]


class TraceContext:
    """An active position in a distributed trace.

    ``trace_id`` identifies the whole story (one per admitted batch);
    ``span_id`` is the span new child spans will name as their parent.
    Immutable by convention: to parent spans under another span, build
    a new context on the same ``trace_id``.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else _span_id()

    @classmethod
    def new(cls, trace_id: Optional[str] = None) -> "TraceContext":
        """Mint a fresh trace (or adopt a client-supplied ``trace_id``)."""
        return cls(trace_id or uuid.uuid4().hex)

    def span(self, name: str, start_ts: float, duration: float,
             args: Optional[Dict] = None,
             span_id: Optional[str] = None) -> Dict:
        """A span parented under this context's ``span_id``.

        ``start_ts`` is epoch seconds (shared clock across hosts),
        ``duration`` wall seconds.  Pass ``span_id`` to make the span
        *be* this context's own span (a root or carried-over span)
        rather than a child of it.
        """
        own = span_id if span_id is not None else _span_id()
        parent = None if span_id is not None else self.span_id
        return {
            "name": name,
            "trace_id": self.trace_id,
            "span_id": own,
            "parent_span": parent,
            "start_ts": start_ts,
            "duration": max(0.0, duration),
            "host": _HOST,
            "pid": os.getpid(),
            "args": dict(args or {}),
        }

    def to_wire(self) -> Dict[str, str]:
        """The cross-process form: receivers parent under our span."""
        return {"trace_id": self.trace_id, "parent_span": self.span_id}

    @classmethod
    def from_wire(cls, data: Optional[Dict]) -> Optional["TraceContext"]:
        """Rebuild a context from a wire dict; ``None``/garbage -> None
        (telemetry must never fail a job)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = data.get("parent_span")
        if not isinstance(parent, str) or not parent:
            parent = None
        return cls(trace_id, parent if parent else _span_id())

    def __repr__(self) -> str:
        return f"<TraceContext {self.trace_id[:12]}/{self.span_id}>"


def write_perfetto_trace(spans: Sequence[Dict], path: str) -> None:
    """Render one trace's span dicts as loadable Perfetto JSON.

    Each distinct ``host:pid`` participant gets its own process row
    (the server on one row, every spool worker on its own), so a
    multi-host batch reads as one aligned timeline.  Timestamps are
    microseconds relative to the earliest span.
    """
    from repro.obs.traceevent import TraceEventWriter

    writer = TraceEventWriter()
    ordered = sorted(spans, key=lambda s: (s.get("start_ts", 0.0),
                                           s.get("name", "")))
    t0 = ordered[0].get("start_ts", 0.0) if ordered else 0.0
    for span in ordered:
        label = f"{span.get('host', '?')} pid {span.get('pid', '?')}"
        pid = writer.process_row(label)
        args = {
            "trace_id": span.get("trace_id"),
            "span_id": span.get("span_id"),
            "parent_span": span.get("parent_span"),
        }
        args.update(span.get("args") or {})
        writer.add_span(
            span.get("name", "?"),
            (span.get("start_ts", 0.0) - t0) * 1e6,
            max(0.0, span.get("duration", 0.0)) * 1e6,
            pid=pid, tid=0,
            args={k: v for k, v in args.items() if v is not None})
    writer.write(path)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _labels_text(names: Sequence[str], values: Sequence[str],
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_exposition(registry: MetricsRegistry,
                      gauge_help: Optional[Dict[str, str]] = None) -> str:
    """The registry's families and gauges in text format 0.0.4.

    Only families and gauges render — the plain dot-named counters the
    simulator side uses are not valid Prometheus names and stay on the
    ``/v1/status`` JSON surface.  Callers serialise against their own
    lock; this function only reads.
    """
    lines: List[str] = []
    for name, family in registry.families().items():
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for values, child in family.children():
            if family.kind == "histogram":
                counts = list(child.counts)
                total_count = sum(counts)
                cumulative = 0
                for bound, count in zip(child.bounds, counts):
                    cumulative += count
                    labels = _labels_text(
                        family.label_names, values,
                        extra=("le", _format_value(float(bound))))
                    lines.append(
                        f"{name}_bucket{labels} {cumulative}")
                labels = _labels_text(family.label_names, values,
                                      extra=("le", "+Inf"))
                lines.append(f"{name}_bucket{labels} {total_count}")
                plain = _labels_text(family.label_names, values)
                lines.append(
                    f"{name}_sum{plain} {_format_value(float(child.total))}")
                lines.append(f"{name}_count{plain} {total_count}")
            else:
                labels = _labels_text(family.label_names, values)
                lines.append(
                    f"{name}{labels} {_format_value(child.value)}")
    help_for = gauge_help or {}
    for name, value in registry.gauges().items():
        if help_for.get(name):
            lines.append(f"# HELP {name} {help_for[name]}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else "\n"


# ----------------------------------------------------------------------
# Scrape-side parsing (tests and the `repro-exp top` dashboard)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)\s*$")
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')
_UNESCAPE_RE = re.compile(r'\\(\\|"|n)')


def _unescape_label(value: str) -> str:
    return _UNESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus_text(text: str) -> Dict[str, List[Tuple[Dict[str, str],
                                                             float]]]:
    """Samples by metric name: ``{name: [(labels, value), ...]}``.

    Comment/``# TYPE``/``# HELP`` lines are skipped; label values are
    unescaped.  Raises ``ValueError`` on a malformed sample line, which
    is exactly what the conformance test wants.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {raw!r}")
        name, label_blob, value_text = match.groups()
        labels: Dict[str, str] = {}
        if label_blob:
            for label_match in _LABEL_RE.finditer(label_blob):
                labels[label_match.group(1)] = _unescape_label(
                    label_match.group(2))
        samples.setdefault(name, []).append(
            (labels, _parse_number(value_text)))
    return samples


def sample_value(samples: Dict[str, List[Tuple[Dict[str, str], float]]],
                 name: str, **labels: str) -> Optional[float]:
    """The first sample of ``name`` whose labels include ``labels``."""
    for sample_labels, value in samples.get(name, ()):
        if all(sample_labels.get(k) == str(v) for k, v in labels.items()):
            return value
    return None


def quantile_from_buckets(buckets: Sequence[Tuple[float, float]],
                          quantile: float) -> float:
    """Estimate a quantile from cumulative ``(le, count)`` buckets.

    Standard Prometheus-style linear interpolation within the bucket
    that crosses the target rank; the +Inf bucket resolves to the last
    finite bound.  Returns 0.0 for an empty histogram.
    """
    ordered = sorted(buckets, key=lambda item: item[0])
    if not ordered or ordered[-1][1] <= 0:
        return 0.0
    total = ordered[-1][1]
    target = quantile * total
    prev_bound = 0.0
    prev_cum = 0.0
    for bound, cum in ordered:
        if cum >= target:
            if math.isinf(bound):
                return prev_bound
            span = cum - prev_cum
            frac = 0.0 if span <= 0 else (target - prev_cum) / span
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_cum = bound, cum
    return prev_bound if not math.isinf(prev_bound) else 0.0


# ----------------------------------------------------------------------
# The serving metric schema
# ----------------------------------------------------------------------

#: Request-duration bounds (seconds): sub-millisecond status probes up
#: to minute-long streamed batches.
DURATION_BOUNDS = [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0]

#: Queue-wait bounds (seconds): an idle server admits in microseconds;
#: a backlogged one can hold a batch for minutes.
WAIT_BOUNDS = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
               30.0, 60.0, 300.0]

#: Per-job wall-time bounds (seconds): cache hits land in the first
#: bucket, real simulations spread across the tail.
SIM_BOUNDS = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
              60.0, 120.0, 300.0]

_GAUGE_HELP = {
    "repro_queue_depth": "Batches waiting for the scheduler",
    "repro_stream_subscribers": "Open /events streaming connections",
    "repro_stream_backlog_events":
        "Events buffered across live batches awaiting stream delivery",
    "repro_uptime_seconds": "Seconds since the server process started",
}


def normalize_route(path: str) -> str:
    """Collapse a request path to its route template so batch ids do
    not explode the label cardinality."""
    path = path.split("?", 1)[0]
    if path in ("/v1/batches", "/v1/status", "/v1/metrics"):
        return path
    if path.startswith("/v1/batches/"):
        if path.endswith("/events"):
            return "/v1/batches/<id>/events"
        return "/v1/batches/<id>"
    return "<other>"


class ServeTelemetry:
    """The server's operational metrics, behind one lock.

    Every observation method and :meth:`render` serialise on the same
    lock, so a ``/v1/metrics`` scrape sees an atomic snapshot — no
    torn histogram where ``_count`` moved but a bucket did not.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        self._lock = threading.Lock()
        reg = self.registry
        self.http_requests = reg.counter_family(
            "repro_http_requests_total", ("route", "method", "code"),
            "HTTP requests served, by route template, method and "
            "status code")
        self.http_duration = reg.histogram_family(
            "repro_http_request_duration_seconds", ("route",),
            DURATION_BOUNDS,
            "HTTP request wall time by route template")
        self.queue_wait = reg.histogram_family(
            "repro_batch_queue_wait_seconds", (), WAIT_BOUNDS,
            "Seconds between batch admission and scheduler pickup")
        self.sim_seconds = reg.histogram_family(
            "repro_job_simulation_seconds", ("source",), SIM_BOUNDS,
            "Per-job wall seconds by result source "
            "(cache/quarantine/simulated)")
        self.jobs = reg.counter_family(
            "repro_jobs_total", ("source", "status"),
            "Distinct job outcomes by source and status")
        self.attempts = reg.counter_family(
            "repro_job_attempts_total", ("status",),
            "Pool execution attempts by terminal status "
            "(retried attempts count separately)")
        self.batches = reg.counter_family(
            "repro_batches_total", ("event",),
            "Batch lifecycle events "
            "(admitted/started/completed/errored)")
        self.quota_rejections = reg.counter_family(
            "repro_quota_rejections_total", ("tenant",),
            "Batch submissions refused by per-tenant quota")
        self.protocol_rejections = reg.counter_family(
            "repro_protocol_rejections_total", (),
            "Batch submissions refused as malformed")
        self.cache_ops = reg.counter_family(
            "repro_cache_operations_total", ("op",),
            "Disk-cache operations observed by this server process")
        self.spool_jobs = reg.gauge_family(
            "repro_spool_jobs", ("state",),
            "Spool entries by state at last scrape")
        self.spool_reclaimed = reg.counter_family(
            "repro_spool_reclaimed_total", (),
            "Stale spool claims requeued after their worker died")
        self.build_info = reg.gauge_family(
            "repro_build_info", ("code_version", "host"),
            "Constant 1; labels carry build/host identity")

    # -- observation sites (all locked) --------------------------------

    def observe_request(self, route: str, method: str, code: int,
                        seconds: float) -> None:
        with self._lock:
            self.http_requests.labels(route=route, method=method,
                                      code=code).add()
            self.http_duration.labels(route=route).observe(
                max(0.0, seconds))

    def observe_queue_wait(self, seconds: float) -> None:
        with self._lock:
            self.queue_wait.labels().observe(max(0.0, seconds))

    def observe_job(self, source: str, status: str,
                    seconds: float) -> None:
        with self._lock:
            self.jobs.labels(source=source, status=status).add()
            self.sim_seconds.labels(source=source).observe(
                max(0.0, seconds))

    def observe_attempt(self, status: str) -> None:
        with self._lock:
            self.attempts.labels(status=status).add()

    def batch_event(self, event: str) -> None:
        with self._lock:
            self.batches.labels(event=event).add()

    def quota_rejected(self, tenant: str) -> None:
        with self._lock:
            self.quota_rejections.labels(tenant=tenant).add()

    def protocol_rejected(self) -> None:
        with self._lock:
            self.protocol_rejections.labels().add()

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.registry.gauge(name).set(value)

    # -- scrape --------------------------------------------------------

    def render(self, collect: Optional[Callable[[], None]] = None) -> str:
        """The exposition text; ``collect`` (if given) runs under the
        lock first to refresh sampled gauges (queue depth, spool
        state, cache counters) atomically with the snapshot."""
        with self._lock:
            if collect is not None:
                collect()
            return render_exposition(self.registry, _GAUGE_HELP)


__all__ = [
    "CONTENT_TYPE", "TRACE_ID_RE", "TraceContext", "ServeTelemetry",
    "DURATION_BOUNDS", "WAIT_BOUNDS", "SIM_BOUNDS",
    "normalize_route", "render_exposition", "parse_prometheus_text",
    "sample_value", "quantile_from_buckets", "write_perfetto_trace",
]
