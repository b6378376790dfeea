"""Tests for serving telemetry: traces, /v1/metrics, structured logs.

Covers the four tentpole surfaces end to end: distributed trace
context (wire round-trip, spool propagation, Perfetto export),
Prometheus text exposition (conformance + histogram invariants),
structured JSON logging with trace correlation, and the live server's
``/v1/metrics`` endpoint cold vs warm — including a two-process
server + spool-worker batch whose spans stitch into one trace.
"""

import http.client
import io
import json
import math
import os
import socket
import subprocess
import sys
import threading
from datetime import datetime

import pytest

from repro.experiments.diskcache import DiskCache
from repro.experiments.pool import FaultSpec, set_fault_injector
from repro.obs import slog
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import ProtocolError, parse_batch, parse_job
from repro.serve.server import start_in_background
from repro.serve.spool import Spool, execute_claim
from repro.serve.telemetry import (
    CONTENT_TYPE,
    ServeTelemetry,
    TraceContext,
    normalize_route,
    parse_prometheus_text,
    quantile_from_buckets,
    sample_value,
    write_perfetto_trace,
)

SMALL = {"measure": 600, "warmup": 1500}


def job_spec(benchmark="hmmer", model="LITTLE", **extra):
    spec = {"benchmark": benchmark, "model": model, **SMALL}
    spec.update(extra)
    return spec


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext.new()
        back = TraceContext.from_wire(ctx.to_wire())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    def test_garbage_wire_dicts_yield_none(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire("nope") is None
        assert TraceContext.from_wire({}) is None
        assert TraceContext.from_wire({"trace_id": 7}) is None

    def test_wire_without_parent_gets_fresh_span(self):
        back = TraceContext.from_wire({"trace_id": "abc123"})
        assert back.trace_id == "abc123"
        assert back.span_id  # minted, not None

    def test_child_spans_parent_under_context(self):
        ctx = TraceContext.new()
        span = ctx.span("work", 1.0, 0.5, args={"k": "v"})
        assert span["parent_span"] == ctx.span_id
        assert span["trace_id"] == ctx.trace_id
        assert span["span_id"] != ctx.span_id
        assert span["args"] == {"k": "v"}

    def test_explicit_span_id_makes_a_root_span(self):
        ctx = TraceContext.new()
        root = ctx.span("admit", 1.0, 0.0, span_id=ctx.span_id)
        assert root["span_id"] == ctx.span_id
        assert root["parent_span"] is None

    def test_duration_clamped_non_negative(self):
        span = TraceContext.new().span("x", 5.0, -1.0)
        assert span["duration"] == 0.0

    def test_client_trace_id_validation(self):
        batch = parse_batch({"jobs": [job_spec()],
                             "trace_id": "deadbeefcafe0123"})
        assert batch.trace_id == "deadbeefcafe0123"
        for bad in ("XYZ", "abc", "G" * 12, "a" * 65):
            with pytest.raises(ProtocolError, match="trace_id"):
                parse_batch({"jobs": [job_spec()], "trace_id": bad})


class TestPerfettoExport:
    def test_spans_become_loadable_trace_json(self, tmp_path):
        ctx = TraceContext.new()
        spans = [
            ctx.span("admit", 100.0, 0.1, span_id=ctx.span_id),
            ctx.span("simulate", 100.2, 1.5),
        ]
        spans[1]["host"] = "otherhost"
        spans[1]["pid"] = 4242
        path = tmp_path / "batch.trace.json"
        write_perfetto_trace(spans, str(path))
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"admit", "simulate"}
        # Each host:pid participant gets its own named process row.
        rows = {e["args"]["name"] for e in events
                if e.get("name") == "process_name"}
        assert any("otherhost pid 4242" in row for row in rows)
        # Timestamps are microseconds relative to the earliest span.
        by_name = {e["name"]: e for e in slices}
        assert by_name["admit"]["ts"] == 0.0
        assert by_name["simulate"]["ts"] == pytest.approx(0.2e6)
        assert by_name["simulate"]["args"]["parent_span"] == ctx.span_id


class TestExpositionFormat:
    def _scrape(self, telemetry):
        return telemetry.render()

    def test_counter_and_help_type_lines(self):
        telemetry = ServeTelemetry()
        telemetry.observe_request("/v1/status", "GET", 200, 0.002)
        text = self._scrape(telemetry)
        assert ("# TYPE repro_http_requests_total counter"
                in text)
        assert any(line.startswith("# HELP repro_http_requests_total ")
                   for line in text.splitlines())
        samples = parse_prometheus_text(text)
        assert sample_value(samples, "repro_http_requests_total",
                            route="/v1/status", method="GET",
                            code="200") == 1.0

    def test_histogram_buckets_are_cumulative_and_consistent(self):
        telemetry = ServeTelemetry()
        for seconds in (0.0005, 0.003, 0.003, 0.2, 99.0):
            telemetry.observe_request("/v1/batches", "POST", 202,
                                      seconds)
        samples = parse_prometheus_text(self._scrape(telemetry))
        buckets = [
            (math.inf if labels["le"] == "+Inf" else float(labels["le"]),
             value)
            for labels, value in
            samples["repro_http_request_duration_seconds_bucket"]
            if labels["route"] == "/v1/batches"
        ]
        ordered = sorted(buckets, key=lambda item: item[0])
        counts = [count for _, count in ordered]
        # le series is monotone non-decreasing (cumulative buckets).
        assert counts == sorted(counts)
        # +Inf bucket == _count == total observations.
        assert ordered[-1][0] == math.inf
        assert ordered[-1][1] == 5.0
        assert sample_value(
            samples, "repro_http_request_duration_seconds_count",
            route="/v1/batches") == 5.0
        assert sample_value(
            samples, "repro_http_request_duration_seconds_sum",
            route="/v1/batches") == pytest.approx(99.2065)

    def test_label_escaping_round_trips(self):
        telemetry = ServeTelemetry()
        nasty = 'ten"ant\\with\nnewline'
        telemetry.quota_rejected(nasty)
        samples = parse_prometheus_text(self._scrape(telemetry))
        (labels, value), = samples["repro_quota_rejections_total"]
        assert labels["tenant"] == nasty
        assert value == 1.0

    def test_gauges_render_with_help(self):
        telemetry = ServeTelemetry()
        telemetry.set_gauge("repro_queue_depth", 3)
        text = self._scrape(telemetry)
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# HELP repro_queue_depth " in text
        samples = parse_prometheus_text(text)
        assert sample_value(samples, "repro_queue_depth") == 3.0

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("this is not a sample\n")

    def test_infinity_parses(self):
        samples = parse_prometheus_text("x_bucket{le=\"+Inf\"} 4\n")
        (labels, value), = samples["x_bucket"]
        assert labels["le"] == "+Inf"
        assert value == 4.0


class TestQuantiles:
    def test_interpolates_within_the_crossing_bucket(self):
        buckets = [(0.1, 50.0), (0.2, 100.0), (math.inf, 100.0)]
        assert quantile_from_buckets(buckets, 0.5) == pytest.approx(0.1)
        assert quantile_from_buckets(buckets, 0.75) == pytest.approx(
            0.15)

    def test_inf_bucket_resolves_to_last_finite_bound(self):
        buckets = [(1.0, 0.0), (math.inf, 10.0)]
        assert quantile_from_buckets(buckets, 0.99) == 1.0

    def test_empty_histogram_is_zero(self):
        assert quantile_from_buckets([], 0.5) == 0.0
        assert quantile_from_buckets([(1.0, 0.0), (math.inf, 0.0)],
                                     0.5) == 0.0


class TestNormalizeRoute:
    def test_templates_collapse_ids(self):
        assert normalize_route("/v1/batches") == "/v1/batches"
        assert normalize_route("/v1/batches/b42") == "/v1/batches/<id>"
        assert (normalize_route("/v1/batches/b42/events")
                == "/v1/batches/<id>/events")
        assert normalize_route("/v1/metrics?x=1") == "/v1/metrics"
        assert normalize_route("/favicon.ico") == "<other>"


class TestSlog:
    def _capture(self, json_lines):
        stream = io.StringIO()
        slog.configure(json_lines=json_lines, stream=stream)
        return stream

    def teardown_method(self):
        slog.configure()  # restore stderr console default

    def test_json_lines_carry_correlation_fields(self):
        stream = self._capture(json_lines=True)
        log = slog.get_logger("repro.serve")
        log.info("batch admitted",
                 extra={"batch_id": "b1", "trace_id": "t123",
                        "tenant": "alice"})
        record = json.loads(stream.getvalue().strip())
        assert record["msg"] == "batch admitted"
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.serve"
        assert record["trace_id"] == "t123"
        assert record["batch_id"] == "b1"
        assert record["tenant"] == "alice"
        assert "ts" in record

    def test_console_lines_append_fields(self):
        stream = self._capture(json_lines=False)
        slog.get_logger("serve").info("hello",
                                      extra={"digest": "abc"})
        line = stream.getvalue().strip()
        assert "repro.serve: hello" in line
        assert "digest=abc" in line

    def test_configure_is_idempotent(self):
        stream = self._capture(json_lines=True)
        slog.configure(json_lines=True, stream=stream)  # again
        slog.get_logger().info("once")
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 1

    def test_default_handler_follows_current_stderr(self, capsys):
        """Configured while stderr was swapped (a CLI run under test
        capture), the handler must not keep the swapped-out stream: a
        server thread logging after it closed printed a logging error."""
        swapped = io.StringIO()
        real, sys.stderr = sys.stderr, swapped
        try:
            slog.configure()
        finally:
            sys.stderr = real
        swapped.close()
        slog.get_logger("serve").warning("after the swap")
        err = capsys.readouterr().err
        assert "Logging error" not in err
        assert "after the swap" in err


class TestSpoolTracePropagation:
    def test_execute_claim_returns_stitched_spans(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        cache = DiskCache(tmp_path / "cache")
        spec = parse_job(job_spec())
        ctx = TraceContext.new()
        spool.enqueue(spec.sim_job().digest, {
            "job": spec.to_dict(),
            "trace": ctx.to_wire(),
            "enqueued_ts": 1.0,
        })
        payload = execute_claim(spool.claim(), cache)
        assert payload["status"] == "ok"
        spans = payload["spans"]
        claim = spans[0]
        assert claim["name"] == "claim"
        assert claim["trace_id"] == ctx.trace_id
        # The worker's claim span parents under the server-side span
        # carried on the wire; attempts parent under the claim.
        assert claim["parent_span"] == ctx.span_id
        assert claim["args"]["spool_wait_seconds"] > 0
        simulate = next(s for s in spans if s["name"] == "simulate")
        assert simulate["parent_span"] == claim["span_id"]
        assert simulate["args"]["status"] == "ok"
        assert simulate["args"]["attempt"] == 1
        assert claim["duration"] >= simulate["duration"] >= 0

    def test_execute_claim_without_trace_has_no_spans(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        cache = DiskCache(tmp_path / "cache")
        spec = parse_job(job_spec())
        spool.enqueue(spec.sim_job().digest, {"job": spec.to_dict()})
        payload = execute_claim(spool.claim(), cache)
        assert payload["status"] == "ok"
        assert "spans" not in payload


@pytest.fixture()
def serve(tmp_path):
    """A live in-process server with trace export enabled."""
    cache = DiskCache(tmp_path / "cache")
    server, stop = start_in_background(
        cache=cache, workers=1, trace_dir=str(tmp_path / "traces"))
    client = ServeClient(server.host, server.port, timeout=300)
    try:
        yield server, client, cache
    finally:
        stop()


class TestMetricsEndpoint:
    def test_content_type_and_conformance(self, serve):
        server, client, cache = serve
        connection = http.client.HTTPConnection(server.host,
                                               server.port, timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == CONTENT_TYPE
            text = response.read().decode()
        finally:
            connection.close()
        parse_prometheus_text(text)  # every line well-formed
        assert "# TYPE repro_build_info gauge" in text

    def test_cold_then_warm_counters_move(self, serve):
        server, client, cache = serve
        batch = {"jobs": [job_spec()]}
        client.run_batch(batch)
        cold = client.metrics()
        assert sample_value(cold, "repro_jobs_total",
                            source="simulated", status="ok") == 1.0
        assert sample_value(cold, "repro_batches_total",
                            event="admitted") == 1.0
        assert sample_value(cold, "repro_batches_total",
                            event="completed") == 1.0
        assert sample_value(cold, "repro_job_attempts_total",
                            status="ok") == 1.0
        client.run_batch(batch)
        warm = client.metrics()
        assert sample_value(warm, "repro_jobs_total",
                            source="cache", status="ok") == 1.0
        assert sample_value(warm, "repro_cache_operations_total",
                            op="hits") == 1.0
        # Queue-wait histogram saw both batches.
        assert sample_value(
            warm, "repro_batch_queue_wait_seconds_count") == 2.0
        # Request counters cover the scrapes themselves.
        assert sample_value(warm, "repro_http_requests_total",
                            route="/v1/metrics", method="GET",
                            code="200") >= 1.0

    def test_histogram_invariants_on_live_scrape(self, serve):
        server, client, cache = serve
        client.run_batch({"jobs": [job_spec()]})
        samples = client.metrics()
        for name in ("repro_http_request_duration_seconds",
                     "repro_batch_queue_wait_seconds",
                     "repro_job_simulation_seconds"):
            by_key = {}
            for labels, value in samples.get(f"{name}_bucket", []):
                key = tuple(sorted((k, v) for k, v in labels.items()
                                   if k != "le"))
                le = (math.inf if labels["le"] == "+Inf"
                      else float(labels["le"]))
                by_key.setdefault(key, []).append((le, value))
            assert by_key, f"{name} exported no buckets"
            for key, buckets in by_key.items():
                ordered = [v for _, v in sorted(buckets)]
                assert ordered == sorted(ordered), (name, key)
                count = sample_value(samples, f"{name}_count",
                                     **dict(key))
                assert ordered[-1] == count, (name, key)

    def test_trace_exported_and_internally_consistent(self, serve):
        server, client, cache = serve
        events = client.run_batch(
            {"jobs": [job_spec()], "trace_id": "feedface" * 2})
        end = events[-1]
        assert end["trace_id"] == "feedface" * 2
        data = json.loads(open(end["trace_path"]).read())
        slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert {"admit", "queue-wait", "simulate",
                "publish"} <= names
        assert {e["args"]["trace_id"] for e in slices} == {
            "feedface" * 2}
        # Exactly one root span: the admission.
        roots = [e for e in slices
                 if "parent_span" not in e["args"]]
        assert [e["name"] for e in roots] == ["admit"]

    def test_status_gained_uptime_host_and_start(self, serve):
        server, client, cache = serve
        status = client.status()
        assert status["server"]["uptime_seconds"] >= 0
        assert status["server"]["hostname"]
        # The format of every timestamp the harness writes.
        datetime.strptime(status["server"]["started_at"],
                          "%Y-%m-%dT%H:%M:%S%z")
        assert status["server"]["pid"] == os.getpid()

    def test_reason_phrases_and_connection_close(self, serve):
        server, client, cache = serve
        connection = http.client.HTTPConnection(server.host,
                                               server.port, timeout=30)
        try:
            connection.request("GET", "/v1/batches/b999999")
            response = connection.getresponse()
            assert (response.status, response.reason) == (
                404, "Not Found")
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()
        raw = socket.create_connection((server.host, server.port),
                                       timeout=30)
        try:
            raw.sendall(b"BOGUS LINE\r\n\r\n")
            first = raw.recv(4096).split(b"\r\n", 1)[0]
            assert first == b"HTTP/1.1 400 Bad Request"
        finally:
            raw.close()

    def test_each_protocol_rejection_counts_once_in_both_views(
            self, serve):
        # A body that is not JSON and a batch naming an unknown
        # benchmark are both protocol rejections, in /v1/metrics and
        # in /v1/status alike.
        server, client, cache = serve
        connection = http.client.HTTPConnection(server.host,
                                               server.port, timeout=30)
        try:
            connection.request("POST", "/v1/batches", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()
        with pytest.raises(ServeError) as err:
            client.submit({"jobs": [{"benchmark": "quake3"}]})
        assert err.value.status == 400
        assert sample_value(client.metrics(),
                            "repro_protocol_rejections_total") == 2.0
        assert client.status()["metrics"]["serve.rejected_protocol"] == 2

    def test_malformed_requests_show_up_in_metrics(self, serve):
        server, client, cache = serve
        raw = socket.create_connection((server.host, server.port),
                                       timeout=30)
        try:
            raw.sendall(b"BOGUS LINE\r\n\r\n")
            raw.recv(4096)
        finally:
            raw.close()
        samples = client.metrics()
        assert sample_value(samples, "repro_http_requests_total",
                            route="<malformed>", code="400") == 1.0


class TestFaultTelemetry:
    def test_retry_attempts_and_spans_recorded(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_fault_injector(FaultSpec.parse("crash:mcf"))
        try:
            server, stop = start_in_background(
                cache=cache, workers=1, retries=1,
                trace_dir=str(tmp_path / "traces"))
            client = ServeClient(server.host, server.port, timeout=300)
            try:
                events = client.run_batch(
                    {"jobs": [job_spec(benchmark="mcf")]})
                end = events[-1]
                assert end["failed"] == 1
                samples = client.metrics()
                # One distinct job, two attempts (initial + retry).
                assert sample_value(
                    samples, "repro_jobs_total", source="simulated",
                    status="failed") == 1.0
                assert sample_value(
                    samples, "repro_job_attempts_total",
                    status="exception") == 2.0
                assert sample_value(
                    samples, "repro_job_simulation_seconds_count",
                    source="simulated") == 1.0
                data = json.loads(open(end["trace_path"]).read())
                names = [e["name"] for e in data["traceEvents"]
                         if e["ph"] == "X"]
                assert "simulate" in names and "retry" in names
            finally:
                stop()
        finally:
            set_fault_injector(None)


class TestServeLogsCarryTraceId:
    def test_job_log_lines_share_the_batch_trace_id(self, tmp_path):
        stream = io.StringIO()
        slog.configure(json_lines=True, stream=stream)
        try:
            cache = DiskCache(tmp_path / "cache")
            server, stop = start_in_background(cache=cache, workers=1)
            client = ServeClient(server.host, server.port, timeout=300)
            try:
                events = client.run_batch({"jobs": [job_spec()]})
            finally:
                stop()
            trace_id = events[-1]["trace_id"]
            records = [json.loads(line)
                       for line in stream.getvalue().splitlines()
                       if line.strip()]
            correlated = [r for r in records
                          if r.get("trace_id") == trace_id]
            assert {"batch admitted", "batch scheduled"} <= {
                r["msg"] for r in correlated}
            job_logs = [r for r in correlated if r["msg"] == "job ok"]
            assert job_logs and job_logs[0]["source"] == "simulated"
            # The access log covered the HTTP requests too.
            access = [r for r in records
                      if r["logger"] == "repro.serve.access"]
            assert any(r["route"] == "/v1/batches" for r in access)
        finally:
            slog.configure()


class TestTwoProcessTrace:
    def test_spool_worker_spans_stitch_into_one_trace(self, tmp_path):
        """A batch served through a *separate worker process* produces
        one Perfetto trace whose spans span both pids."""
        cache = DiskCache(tmp_path / "cache")
        spool = Spool(tmp_path / "spool")
        server, stop = start_in_background(
            cache=cache, spool=spool, spool_poll=0.02,
            trace_dir=str(tmp_path / "traces"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        worker = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.obs.diffrun import main; "
             "raise SystemExit(main(["
             "'spool-worker', '--spool', r'%s', '--cache-dir', r'%s', "
             "'--poll', '0.02', '--max-jobs', '1', "
             "'--idle-exit', '60', '--log-json']))"
             % (tmp_path / "spool", tmp_path / "worker-cache")],
            cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        client = ServeClient(server.host, server.port, timeout=300)
        try:
            events = client.run_batch({"jobs": [job_spec()]})
            end = events[-1]
            assert end["ok"] == 1
        finally:
            stop()
            try:
                worker.wait(timeout=120)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        _, worker_err = worker.communicate()
        data = json.loads(open(end["trace_path"]).read())
        slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert {"admit", "queue-wait", "claim", "simulate"} <= names
        assert {e["args"]["trace_id"] for e in slices} == {
            end["trace_id"]}
        # The claim/simulate spans ran in the worker process: the
        # trace names (at least) two distinct pid process rows.
        pids = {e["pid"] for e in slices}
        assert len(pids) >= 2
        # The worker's own JSON logs carry the same trace id.
        worker_records = [json.loads(line)
                          for line in worker_err.splitlines()
                          if line.strip().startswith("{")]
        assert any(r.get("trace_id") == end["trace_id"]
                   for r in worker_records)


class TestTopDashboard:
    def test_one_frame_renders_and_exits_zero(self, serve, capsys):
        from repro.obs.diffrun import main

        server, client, cache = serve
        client.run_batch({"jobs": [job_spec()]})
        rc = main(["top", "--url",
                   f"http://{server.host}:{server.port}",
                   "--iterations", "1", "--no-clear"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "queue depth" in out
        assert "cache hit ratio" in out
        assert "http p50/p95" in out

    def test_bad_url_is_a_usage_error(self):
        from repro.obs.diffrun import main

        assert main(["top", "--url", "ftp://x:1",
                     "--iterations", "1"]) == 2

    def test_unreachable_server_exits_one(self):
        from repro.obs.diffrun import main

        # Port 1 is essentially never listening.
        assert main(["top", "--url", "http://127.0.0.1:1",
                     "--iterations", "1", "--no-clear"]) == 1
