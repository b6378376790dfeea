"""Structural validation of the Perfetto/Chrome trace-event export."""

import json

import pytest

from repro import build_core, generate_trace
from repro.obs import Observability, TimelineCollector
from repro.obs.traceevent import (
    HOST_PID,
    TraceEventWriter,
    export_timelines,
)

COUNTER_TRACKS = {"ipc", "stall cycles", "occupancy", "rates",
                  "energy (pJ)"}


@pytest.fixture(scope="module")
def collectors():
    """Two observed runs (an FXA core and the in-order core)."""
    built = []
    for model in ("HALF+FX", "LITTLE"):
        collector = TimelineCollector(interval=400)
        obs = Observability(metrics=False, stalls=False,
                            timeline=collector)
        build_core(model, obs=obs).run(generate_trace("hmmer", 2000))
        collector.benchmark = "hmmer"
        built.append(collector)
    return built


@pytest.fixture()
def trace(collectors, tmp_path):
    path = str(tmp_path / "timeline.json")
    spans = [
        {"name": "experiment headline", "ts": 0.0, "dur": 5000.0},
        {"name": "job HALF/hmmer", "ts": 100.0, "dur": 900.0,
         "tid": 4242, "args": {"attempts": 1, "ok": True}},
    ]
    export_timelines(collectors, path, spans)
    with open(path) as handle:
        return json.load(handle)


def test_top_level_shape(trace):
    assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert trace["displayTimeUnit"] == "ms"
    assert trace["traceEvents"]


def test_timestamps_monotonic(trace):
    stamps = [e["ts"] for e in trace["traceEvents"] if "ts" in e]
    assert stamps == sorted(stamps)


def test_process_rows_named(trace):
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    # Metadata rows sort ahead of every timed event.
    assert trace["traceEvents"][:len(meta)] == meta
    names = {e["pid"]: e["args"]["name"] for e in meta}
    assert names[HOST_PID] == "host (wall clock)"
    assert "HALF+FX on hmmer" in names.values()
    assert "LITTLE on hmmer" in names.values()
    assert len(names) == 3


def test_counter_tracks_per_core(trace, collectors):
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    pids = {e["pid"] for e in counters}
    assert HOST_PID not in pids
    assert len(pids) == len(collectors)
    for pid in pids:
        tracks = {e["name"] for e in counters if e["pid"] == pid}
        assert tracks == COUNTER_TRACKS
    total_samples = sum(len(c.samples) for c in collectors)
    assert len(counters) == total_samples * len(COUNTER_TRACKS)


def test_counter_values_match_samples(trace, collectors):
    fxa = collectors[0]
    ipc_events = [e for e in trace["traceEvents"]
                  if e["ph"] == "C" and e["name"] == "ipc"]
    by_ts = {e["ts"]: e for e in ipc_events if e["pid"] == 2}
    for sample in fxa.samples:
        event = by_ts[float(sample.start_cycle)]
        assert event["args"]["ipc"] == sample.ipc
    rates = [e for e in trace["traceEvents"]
             if e["ph"] == "C" and e["name"] == "rates"
             and e["pid"] == 2]
    assert all("ixu_coverage" in e["args"] for e in rates)


def test_host_spans(trace):
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert all(e["pid"] == HOST_PID for e in spans)
    by_name = {e["name"]: e for e in spans}
    assert by_name["experiment headline"]["dur"] == 5000.0
    job = by_name["job HALF/hmmer"]
    assert job["tid"] == 4242
    assert job["args"] == {"attempts": 1, "ok": True}


def test_stall_track_uses_active_causes_only(collectors):
    writer = TraceEventWriter()
    writer.add_timeline(collectors[0])
    stall_events = [e for e in writer.events
                    if e["ph"] == "C" and e["name"] == "stall cycles"]
    keys = {k for e in stall_events for k in e["args"]}
    active = {cause for s in collectors[0].samples
              for cause, n in s.stalls.items() if n}
    assert keys == active
    # Every sample emits the same key set so the track stays stacked.
    assert all(set(e["args"]) == keys for e in stall_events)


def test_pids_allocated_in_add_order(collectors):
    writer = TraceEventWriter()
    first = writer.add_timeline(collectors[0])
    second = writer.add_timeline(collectors[1])
    assert (first, second) == (HOST_PID + 1, HOST_PID + 2)


def test_empty_writer_still_valid():
    writer = TraceEventWriter()
    data = writer.to_dict()
    assert [e["ph"] for e in data["traceEvents"]] == ["M"]


def test_failed_rewrite_keeps_previous_trace(tmp_path):
    """A reader polling the file sees the old trace or the new one: a
    serialisation failure mid-rewrite leaves the old bytes, no temp."""
    path = tmp_path / "batch.trace.json"
    writer = TraceEventWriter()
    writer.add_span("admit", 0.0, 10.0)
    writer.write(str(path))
    before = path.read_bytes()
    writer.add_span("stream", 10.0, 5.0, args={"bad": object()})
    with pytest.raises(TypeError):
        writer.write(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _span_rows(path):
    """Each process row's name and each span's (name, pid, tid)."""
    events = json.loads(path.read_text())["traceEvents"]
    rows = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    spans = sorted((e["name"], e["pid"], e["tid"])
                   for e in events if e["ph"] == "X")
    return rows, spans


def _job_spans(manifest_path):
    """The span each simulated job of a run's manifest gets."""
    records = json.loads(manifest_path.read_text())["job_records"]
    return [(f"job {r['job']}", HOST_PID, r["worker_pid"])
            for r in records]


def test_cli_timeline_host_trace(tmp_path):
    """``fxa-experiments --timeline``: one row per sampled core, and on
    the host row the harness stages (tid 1), the timeline pass's
    simulations (tid 0) and one span per job (tid = its worker)."""
    from repro.experiments import runner
    from repro.experiments.cli import main

    trace, manifest = tmp_path / "trace.json", tmp_path / "m.json"
    runner.clear_cache()
    assert main(["headline", "--benchmarks", "hmmer", "--measure", "300",
                 "--warmup", "600", "--no-cache", "--timeline",
                 str(trace), "--manifest", str(manifest)]) == 0
    runner.clear_cache()
    rows, spans = _span_rows(trace)
    models = ("LITTLE", "HALF", "HALF+FX", "CA")
    assert rows == {HOST_PID: "host (wall clock)",
                    **{HOST_PID + 1 + i: f"{model} on hmmer"
                       for i, model in enumerate(models)}}
    assert spans == sorted(
        [("experiment headline", HOST_PID, 1),
         ("timeline pass", HOST_PID, 1)]
        + [(f"timeline sim {model}/hmmer", HOST_PID, 0)
           for model in models]
        + _job_spans(manifest))


def test_dse_timeline_host_trace(tmp_path):
    """``repro-exp dse --timeline``: the host row alone, one span per
    rung (tid 1) and one per job (tid = its worker)."""
    from repro.experiments import runner
    from repro.obs.diffrun import main

    trace, manifest = tmp_path / "trace.json", tmp_path / "m.json"
    frontier = tmp_path / "frontier.json"
    runner.clear_cache()
    assert main(["dse", "--space", "smoke", "--samples", "3",
                 "--budget", "300", "--rungs", "2", "--min-measure", "100",
                 "--warmup-factor", "2", "--benchmarks", "hmmer",
                 "--no-cache", "--out", str(frontier), "--timeline",
                 str(trace), "--manifest", str(manifest)]) == 0
    runner.clear_cache()
    rows, spans = _span_rows(trace)
    rungs = json.loads(frontier.read_text())["rungs_detail"]
    assert [r["measure"] for r in rungs] == [100, 300]
    assert rows == {HOST_PID: "host (wall clock)"}
    assert spans == sorted(
        [(f"dse rung {r['rung']} ({r['configs']} configs @ "
          f"{r['measure']} insts)", HOST_PID, 1) for r in rungs]
        + _job_spans(manifest))
