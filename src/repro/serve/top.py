"""``repro-exp top`` — a live terminal dashboard for a running server.

Polls ``GET /v1/status`` and ``GET /v1/metrics`` on an interval and
renders one screenful: queue depth, cache hit ratio, request latency
percentiles (p50/p95 estimated from the histogram buckets the server
exports), and per-interval throughput sparklines built from counter
deltas.  Pure stdlib + :mod:`repro.experiments.textchart`, same as
every other view in the repo — point it at any ``repro-exp serve``
instance::

    repro-exp top --url http://127.0.0.1:8023

``--iterations N`` renders N frames and exits (tests and CI use
``--iterations 1``); the default is to run until interrupted.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.sweepflags import float_at_least, int_at_least
from repro.experiments.textchart import sparkline
from repro.serve.client import ServeClient, ServeError
from repro.serve.telemetry import (
    parse_prometheus_text,
    quantile_from_buckets,
    sample_value,
)

#: Sparkline history length (frames) and render width.
HISTORY = 60

#: Counters whose per-interval deltas become throughput sparklines,
#: as (title, metric name, unit) rows.
RATE_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("requests", "repro_http_requests_total", "req/s"),
    ("jobs", "repro_jobs_total", "job/s"),
    ("attempts", "repro_job_attempts_total", "att/s"),
)


def _total(samples: Dict[str, List[Tuple[Dict[str, str], float]]],
           name: str, **labels: str) -> float:
    """Sum every sample of ``name`` whose labels include ``labels``."""
    total = 0.0
    for sample_labels, value in samples.get(name, ()):
        if all(sample_labels.get(k) == str(v)
               for k, v in labels.items()):
            total += value
    return total


def _buckets(samples: Dict[str, List[Tuple[Dict[str, str], float]]],
             name: str, **labels: str) -> List[Tuple[float, float]]:
    """Cumulative ``(le, count)`` pairs for one histogram, with the
    label-partitioned buckets summed back together (quantiles over all
    routes, not per route)."""
    merged: Dict[float, float] = {}
    for sample_labels, value in samples.get(f"{name}_bucket", ()):
        if not all(sample_labels.get(k) == str(v)
                   for k, v in labels.items()):
            continue
        le = sample_labels.get("le")
        if le is None:
            continue
        bound = float("inf") if le == "+Inf" else float(le)
        merged[bound] = merged.get(bound, 0.0) + value
    return sorted(merged.items())


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _fmt_uptime(seconds: float) -> str:
    seconds = int(seconds)
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{secs}s"


class TopView:
    """Holds the rolling counter history and renders one frame."""

    def __init__(self) -> None:
        self._last: Optional[Dict[str, float]] = None
        self._last_ts: Optional[float] = None
        self._rates: Dict[str, List[float]] = {
            name: [] for _, name, _ in RATE_ROWS}

    def _update_rates(self, samples, now: float) -> Dict[str, float]:
        """Fold this scrape's counter totals into the per-second rate
        history; returns the latest rate per tracked counter."""
        totals = {name: _total(samples, name) for _, name, _ in RATE_ROWS}
        latest: Dict[str, float] = {}
        if self._last is not None and self._last_ts is not None:
            elapsed = max(now - self._last_ts, 1e-9)
            for name, value in totals.items():
                rate = max(0.0, value - self._last[name]) / elapsed
                history = self._rates[name]
                history.append(rate)
                del history[:-HISTORY]
                latest[name] = rate
        self._last = totals
        self._last_ts = now
        return latest

    def render(self, status: Dict, metrics_text: str,
               now: Optional[float] = None) -> str:
        """One dashboard frame as a string (no terminal control)."""
        samples = parse_prometheus_text(metrics_text)
        latest = self._update_rates(
            samples, time.monotonic() if now is None else now)

        server = status.get("server", {})
        queue = status.get("queue", {})
        cache = status.get("cache", {})
        spool = status.get("spool")

        hits = float(cache.get("hits", 0) or 0)
        misses = float(cache.get("misses", 0) or 0)
        lookups = hits + misses
        hit_ratio = hits / lookups if lookups else 0.0

        lines = [
            (f"repro-exp top — {server.get('hostname', '?')}:"
             f"{server.get('port', '?')}  mode={server.get('mode', '?')}"
             f"  workers={server.get('workers', '?')}"
             f"  up {_fmt_uptime(server.get('uptime_seconds', 0))}"),
            "",
            (f"queue depth {queue.get('depth', 0):>4}   "
             f"running {'yes' if queue.get('running') else 'no '}   "
             f"batches {queue.get('batches_total', 0):>4}   "
             f"cache hit ratio {hit_ratio:6.1%}"
             f" ({int(hits)}/{int(lookups)})"),
        ]

        if spool:
            lines.append(
                "spool  " + "  ".join(
                    f"{state}={spool.get(state, 0)}"
                    for state in ("queued", "claimed", "done", "failed",
                                  "reclaimed")))

        lines.append("")
        for label, metric in (
                ("http p50/p95", "repro_http_request_duration_seconds"),
                ("queue wait  ", "repro_batch_queue_wait_seconds"),
                ("sim seconds ", "repro_job_simulation_seconds")):
            buckets = _buckets(samples, metric)
            count = sum(
                v for _, v in samples.get(f"{metric}_count", ()))
            p50 = quantile_from_buckets(buckets, 0.50)
            p95 = quantile_from_buckets(buckets, 0.95)
            lines.append(
                f"{label}  {_fmt_seconds(p50):>8} / "
                f"{_fmt_seconds(p95):>8}   n={int(count)}")

        lines.append("")
        for title, name, unit in RATE_ROWS:
            history = self._rates[name]
            rate = latest.get(name)
            rate_text = f"{rate:8.2f} {unit}" if rate is not None else (
                " " * 8 + f" {unit}")
            lines.append(f"{title:<9} {rate_text}  "
                         f"{sparkline(history, width=HISTORY)}")

        streams = sample_value(samples, "repro_stream_subscribers")
        backlog = sample_value(samples, "repro_stream_backlog_events")
        lines.append("")
        lines.append(
            f"streams {int(streams or 0)}  backlog "
            f"{int(backlog or 0)} events  "
            f"rejections quota={int(_total(samples, 'repro_quota_rejections_total'))}"
            f" protocol={int(_total(samples, 'repro_protocol_rejections_total'))}")
        return "\n".join(lines)


def _parse_url(url: str) -> Tuple[str, int]:
    """``http://host:port`` (or bare ``host:port``) → ``(host, port)``."""
    stripped = url.strip()
    if "://" in stripped:
        scheme, _, rest = stripped.partition("://")
        if scheme != "http":
            raise ValueError(f"only http:// is supported, got {url!r}")
        stripped = rest
    stripped = stripped.rstrip("/")
    host, _, port_text = stripped.partition(":")
    if not host or not port_text:
        raise ValueError(f"expected http://host:port, got {url!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port in {url!r}") from None
    return host, port


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default="http://127.0.0.1:8023",
                        help="server base URL "
                             "(default http://127.0.0.1:8023)")
    parser.add_argument("--interval",
                        type=float_at_least(0.0, exclusive=True),
                        default=2.0, metavar="SECONDS",
                        help="poll interval (default 2.0)")
    parser.add_argument("--iterations", type=int_at_least(0), default=0,
                        metavar="N",
                        help="render N frames then exit "
                             "(default 0 = run until interrupted)")
    parser.add_argument("--no-clear", action="store_true",
                        help="append frames instead of redrawing "
                             "in place (log-friendly)")


def cmd(args: argparse.Namespace) -> int:
    try:
        host, port = _parse_url(args.url)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    client = ServeClient(host, port, timeout=max(args.interval * 2, 5.0))
    view = TopView()
    frames = 0
    try:
        while True:
            try:
                status = client.status()
                metrics_text = client.metrics_text()
            except (OSError, ServeError, ValueError) as error:
                print(f"poll failed: {error}", file=sys.stderr)
                return 1
            frame = view.render(status, metrics_text)
            if args.no_clear or not sys.stdout.isatty():
                print(frame)
                print()
            else:
                # Home the cursor and wipe the scrollback-free region;
                # plain ANSI so no curses dependency.
                sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
                sys.stdout.flush()
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


__all__ = ["TopView", "configure_parser", "cmd"]
