"""Chrome-trace-event / Perfetto JSON export of timeline telemetry.

Writes the JSON object form of the Trace Event Format (the schema
``chrome://tracing`` and https://ui.perfetto.dev both load): counter
events (``"ph": "C"``) render each core's interval telemetry as stacked
counter tracks, complete events (``"ph": "X"``) render host-side
wall-clock spans (per pipeline stage of the CLI run, per sweep job),
and metadata events (``"ph": "M"``) name the process rows.

Two clock domains share the one timestamp axis (microseconds):

* **simulated cores** (one process row per core): ``ts`` is the
  interval's starting *cycle*, so a cycle reads as a microsecond and
  the tracks line up across cores on simulated time;
* **the host** (process row 1): ``ts`` is wall-clock microseconds since
  the run started, so sweep-job spans show real scheduling/overlap.

Usage (:func:`export_timelines` does this for the CLI's and the
DSE's ``--timeline OUT.json``)::

    writer = TraceEventWriter()
    writer.add_timeline(collector)           # one call per core
    writer.add_span("sweep", ts_us, dur_us)  # host wall-clock spans
    writer.write("timeline.json")
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.atomicio import replace_json
from repro.obs.stall import STALL_CAUSES
from repro.obs.timeline import TimelineCollector

#: Process id reserved for host wall-clock spans; simulated cores get
#: pids counting up from HOST_PID + 1 in ``add_timeline`` order.
HOST_PID = 1


class TraceEventWriter:
    """Accumulates trace events; :meth:`write` emits Perfetto JSON."""

    def __init__(self):
        self.events: List[Dict] = []
        self._next_core_pid = HOST_PID + 1
        self._named_pids: Dict[int, str] = {}
        self._name_process(HOST_PID, "host (wall clock)")

    # -- low-level emitters --------------------------------------------

    def _name_process(self, pid: int, name: str) -> None:
        if self._named_pids.get(pid) == name:
            return
        self._named_pids[pid] = name
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    def process_row(self, label: str) -> int:
        """Allocate (or reuse) a named process row and return its pid.

        Distributed-trace export maps each ``host:pid`` participant to
        its own Perfetto process row; repeated calls with the same
        label return the same pid so spans group correctly.
        """
        for pid, name in self._named_pids.items():
            if name == label:
                return pid
        pid = self._next_core_pid
        self._next_core_pid += 1
        self._name_process(pid, label)
        return pid

    def add_counter(self, name: str, ts: float, values: Dict[str, float],
                    pid: int) -> None:
        """One counter sample; multi-key ``values`` stack in one track."""
        self.events.append({
            "name": name, "ph": "C", "ts": ts, "pid": pid,
            "args": values,
        })

    def add_span(self, name: str, ts: float, dur: float,
                 pid: int = HOST_PID, tid: int = 0,
                 args: Optional[Dict] = None) -> None:
        """A complete span (``ts``/``dur`` in microseconds)."""
        event = {
            "name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def add_job_spans(self, records, origin: float) -> None:
        """One host span per sweep job record that carries a start time.

        ``records`` are pool ``JobResult``/``JobFailure`` records as
        :func:`~repro.experiments.runner.pop_job_records` returns them:
        a ``JobResult`` carries ``started_ts``, a ``JobFailure`` does
        not and gets no span.  ``origin`` is the run's start, host
        wall-clock epoch seconds."""
        for record in records:
            began = getattr(record, "started_ts", 0.0)
            if began:
                self.add_span(f"job {record.job.describe()}",
                              (began - origin) * 1e6,
                              record.wall_seconds * 1e6,
                              tid=record.worker_pid,
                              args={"attempts": record.attempts,
                                    "ok": record.ok})

    # -- core timelines ------------------------------------------------

    def add_timeline(self, collector: TimelineCollector) -> int:
        """Render one core's samples as counter tracks; returns the pid
        allocated for the core's process row."""
        pid = self._next_core_pid
        self._next_core_pid += 1
        label = f"{collector.model} on {collector.benchmark or '?'}"
        self._name_process(pid, label)
        active_causes = [
            cause for cause in STALL_CAUSES
            if any(s.stalls.get(cause) for s in collector.samples)
        ]
        for sample in collector.samples:
            ts = float(sample.start_cycle)
            self.add_counter("ipc", ts, {"ipc": sample.ipc}, pid)
            self.add_counter(
                "stall cycles", ts,
                {cause: float(sample.stalls.get(cause, 0))
                 for cause in active_causes},
                pid)
            self.add_counter(
                "occupancy", ts,
                {name: round(value, 3)
                 for name, value in sample.occupancy.items()},
                pid)
            rates = {
                "branch_miss_rate": round(sample.branch_miss_rate, 4),
                "l1d_miss_rate": round(sample.l1d_miss_rate, 4),
                "l2_miss_rate": round(sample.l2_miss_rate, 4),
            }
            if sample.ixu_executed or collector.model.endswith("FX"):
                rates["ixu_coverage"] = round(sample.ixu_coverage, 4)
            self.add_counter("rates", ts, rates, pid)
            self.add_counter(
                "energy (pJ)", ts,
                {component: round(value, 2)
                 for component, value in sorted(sample.energy.items())},
                pid)
        return pid

    # -- output --------------------------------------------------------

    def to_dict(self) -> Dict:
        """The full trace object, events sorted for monotonic ``ts``."""
        ordered = sorted(
            self.events,
            key=lambda e: (e["ph"] == "M" and -1 or 0,
                           e.get("ts", 0), e["pid"]),
        )
        return {
            "traceEvents": ordered,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.traceevent"},
        }

    def write(self, path: str) -> None:
        """Publish the trace atomically: a reader polling ``path`` (the
        job server rewrites a batch's trace as late streams end) sees
        the old trace or the new one, never a torn file."""
        replace_json(path, self.to_dict(), trailing_newline=True)


def export_timelines(collectors: Sequence[TimelineCollector],
                     path: str,
                     spans: Optional[Sequence[Dict]] = None,
                     jobs: Sequence = (), origin: float = 0.0) -> None:
    """Write a run's host trace: core timelines, host spans and one
    span per sweep job (what ``fxa-experiments --timeline`` and
    ``repro-exp dse --timeline`` write).

    ``spans`` entries are dicts with ``name``, ``ts``, ``dur`` and
    optionally ``tid``/``args`` (microseconds, host wall clock).
    ``jobs`` are sweep job records placed against ``origin``, the run's
    start (see :meth:`TraceEventWriter.add_job_spans`).
    """
    writer = TraceEventWriter()
    for collector in collectors:
        writer.add_timeline(collector)
    for span in spans or ():
        writer.add_span(span["name"], span["ts"], span["dur"],
                        tid=span.get("tid", 0), args=span.get("args"))
    writer.add_job_spans(jobs, origin)
    writer.write(path)


__all__ = ["HOST_PID", "TraceEventWriter", "export_timelines"]
