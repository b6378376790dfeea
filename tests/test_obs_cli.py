"""Integration tests for the CLI observability flags."""

import json

import pytest

from repro.experiments import runner
from repro.experiments.cli import main
from repro.obs import RunManifest
from repro.obs.diffrun import main as repro_exp_main


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test exercises real simulation/disk-cache behaviour, not
    hits on the process-global in-memory memo left by earlier tests."""
    runner.clear_cache()
    yield
    runner.clear_cache()


def run_cli(tmp_path, *extra):
    args = ["headline", "--benchmarks", "hmmer",
            "--measure", "400", "--warmup", "1500",
            "--cache-dir", str(tmp_path / "cache")]
    args.extend(extra)
    return main(args)


class TestManifest:
    def test_json_emits_manifest_next_to_it(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        assert run_cli(tmp_path, "--json", str(json_path)) == 0
        manifest = RunManifest.read(tmp_path / "out.manifest.json")
        assert manifest.experiments == ["headline"]
        assert manifest.benchmarks == ["hmmer"]
        assert manifest.measure == 400
        assert manifest.code_version
        assert manifest.wall_seconds > 0
        assert manifest.outputs["json"] == str(json_path)
        # A cold cache means every job really simulated...
        assert manifest.jobs_simulated == len(manifest.job_records) > 0
        assert all(r.wall_seconds > 0 and r.worker_pid > 0
                   for r in manifest.job_records)
        assert manifest.cache["stores"] == manifest.jobs_simulated
        # ...and the slowest-jobs summary was printed.
        out = capsys.readouterr().out
        assert "jobs simulated" in out and "slowest" in out

    def test_explicit_manifest_path_and_warm_cache(self, tmp_path,
                                                   capsys):
        run_cli(tmp_path)
        capsys.readouterr()
        runner.clear_cache()  # force the second pass onto the disk cache
        path = tmp_path / "provenance.json"
        assert run_cli(tmp_path, "--manifest", str(path)) == 0
        manifest = RunManifest.read(path)
        assert manifest.jobs_simulated == 0      # everything cached
        assert manifest.job_records == []
        assert manifest.cache["hits"] > 0


class TestStallReport:
    def test_stall_report_renders_table_and_chart(self, tmp_path,
                                                  capsys):
        assert run_cli(tmp_path, "--stall-report") == 0
        out = capsys.readouterr().out
        assert "Stall-cause breakdown (hmmer)" in out
        assert "Stall cycles by cause" in out
        for model in ("BIG", "HALF+FX", "LITTLE", "CA"):
            assert model in out


class TestPipeview:
    def test_pipeview_writes_kanata_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "pipe.kanata"
        assert run_cli(tmp_path, "--pipeview", str(trace_path),
                       "--pipeview-window", "40") == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "Kanata\t0004"
        assert sum(1 for l in lines if l.startswith("R\t")) == 40
        out = capsys.readouterr().out
        assert "pipeline trace" in out and "Konata" in out

    def test_pipeview_benchmark_validation(self, tmp_path, capsys):
        # The one-benchmark passes take their benchmark from
        # --benchmarks, so its choices check it.
        with pytest.raises(SystemExit) as excinfo:
            run_cli(tmp_path, "--pipeview", str(tmp_path / "x.kanata"),
                    "--benchmarks", "nonexistent")
        assert excinfo.value.code == 2
        assert "--benchmarks" in capsys.readouterr().err


class TestJsonStillWorks:
    def test_json_payload_unchanged_shape(self, tmp_path, capsys):
        json_path = tmp_path / "o.json"
        run_cli(tmp_path, "--json", str(json_path))
        data = json.loads(json_path.read_text())
        assert "headline" in data


class TestMachineReadableReports:
    def test_stall_report_csv(self, tmp_path, capsys):
        import csv

        path = tmp_path / "stalls.csv"
        assert run_cli(tmp_path, "--stall-report-csv", str(path)) == 0
        rows = list(csv.reader(path.open()))
        header, body = rows[0], rows[1:]
        assert header[:5] == ["model", "benchmark", "cycles",
                              "committed", "stall_cycles"]
        assert {row[0] for row in body} >= {"BIG", "HALF+FX", "LITTLE",
                                            "CA"}
        assert all(row[1] == "hmmer" for row in body)
        for row in body:
            # stall_cycles equals the sum of the per-cause columns.
            assert int(row[4]) == sum(int(cell) for cell in row[5:])
        assert "stall report CSV written" in capsys.readouterr().out

    def test_metrics_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert run_cli(tmp_path, "--metrics-json", str(path)) == 0
        payload = json.loads(path.read_text())
        assert {entry["model"] for entry in payload} >= {"BIG", "CA"}
        for entry in payload:
            assert entry["benchmark"] == "hmmer"
            assert entry["cycles"] > 0 and entry["ipc"] > 0
            assert isinstance(entry["metrics"], dict)
            assert entry["metrics"]


class TestTimeline:
    def test_timeline_report_prints_phases(self, tmp_path, capsys):
        assert run_cli(tmp_path, "--timeline-report",
                       "--interval", "100") == 0
        out = capsys.readouterr().out
        for model in ("LITTLE", "HALF", "HALF+FX", "CA"):
            assert f"{model}/hmmer" in out
        assert "phase 1:" in out and "IPC" in out

    def test_timeline_export_is_perfetto_loadable(self, tmp_path,
                                                  capsys):
        path = tmp_path / "timeline.json"
        assert run_cli(tmp_path, "--timeline", str(path),
                       "--interval", "100") == 0
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        stamps = [e["ts"] for e in events if "ts" in e]
        assert stamps == sorted(stamps)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"LITTLE on hmmer", "HALF on hmmer",
                "HALF+FX on hmmer", "CA on hmmer",
                "host (wall clock)"} <= names
        span_names = {e["name"] for e in events if e["ph"] == "X"}
        assert "experiment headline" in span_names
        assert "timeline pass" in span_names
        assert "timeline sim LITTLE/hmmer" in span_names
        assert "ui.perfetto.dev" in capsys.readouterr().out

    def test_interval_validation(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli(tmp_path, "--timeline-report", "--interval", "0")

    def test_samples_identical_across_jobs(self, tmp_path, capsys):
        """The timeline pass is serial by design: identical samples
        whatever --jobs says."""
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert run_cli(tmp_path, "--timeline", str(one),
                       "--interval", "100", "--jobs", "1") == 0
        runner.clear_cache()
        assert run_cli(tmp_path, "--timeline", str(two),
                       "--interval", "100", "--jobs", "2") == 0

        def counters(path):
            return [e for e in json.loads(path.read_text())
                    ["traceEvents"] if e["ph"] == "C"]

        assert counters(one) == counters(two)


class TestBaselineGate:
    """The CLI's manifest gated through ``repro-exp diff``."""

    def _manifest(self, tmp_path, name, *extra):
        path = tmp_path / name
        assert run_cli(tmp_path, "--manifest", str(path), *extra) == 0
        return path

    def _scaled_base(self, tmp_path, factor):
        """A base manifest claiming ``factor`` times this run's IPC."""
        path = self._manifest(tmp_path, "base.manifest.json")
        data = json.loads(path.read_text())
        assert data["aggregates"]
        for aggregate in data["aggregates"]:
            aggregate["ipc"] *= factor
        path.write_text(json.dumps(data))
        return path

    def test_self_baseline_passes(self, tmp_path, capsys):
        path = self._manifest(tmp_path, "base.manifest.json")
        capsys.readouterr()
        assert repro_exp_main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "Manifest diff" in out and "result: OK" in out

    def test_perturbed_baseline_trips_gate(self, tmp_path, capsys):
        base = self._scaled_base(tmp_path, 1.10)
        new = self._manifest(tmp_path, "new.manifest.json")
        capsys.readouterr()
        assert repro_exp_main(["diff", str(base), str(new)]) == 3
        assert "REGRESSED" in capsys.readouterr().out

    def test_diff_threshold_widens_gate(self, tmp_path, capsys):
        base = self._scaled_base(tmp_path, 1.05)
        new = self._manifest(tmp_path, "new.manifest.json")
        assert repro_exp_main(["diff", str(base), str(new)]) == 3
        assert repro_exp_main(["diff", str(base), str(new),
                               "--threshold", "0.20"]) == 0

    def test_baseline_validation(self, tmp_path, capsys):
        new = self._manifest(tmp_path, "new.manifest.json")
        assert repro_exp_main(["diff", str(tmp_path / "missing.json"),
                               str(new)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_trajectory_appends(self, tmp_path, capsys):
        history = tmp_path / "BENCH_trajectory.json"
        run_cli(tmp_path, "--trajectory", str(history))
        run_cli(tmp_path, "--trajectory", str(history))
        entries = json.loads(history.read_text())["entries"]
        assert len(entries) == 2
        assert "HALF+FX" in entries[0]["models"]

    def test_warm_cache_still_builds_aggregates(self, tmp_path, capsys):
        first = self._manifest(tmp_path, "cold.manifest.json")
        runner.clear_cache()  # second pass replays from the disk cache
        second = self._manifest(tmp_path, "warm.manifest.json")
        cold = RunManifest.read(first)
        warm = RunManifest.read(second)
        assert warm.jobs_simulated == 0
        assert len(warm.aggregates) == len(cold.aggregates) > 0
        cold_ipcs = {(a["model"], a["benchmark"]): a["ipc"]
                     for a in cold.aggregates}
        warm_ipcs = {(a["model"], a["benchmark"]): a["ipc"]
                     for a in warm.aggregates}
        assert cold_ipcs == warm_ipcs

    def test_manifest_records_host_and_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "stalls.csv"
        path = self._manifest(tmp_path, "m.manifest.json",
                              "--stall-report-csv", str(csv_path))
        manifest = RunManifest.read(path)
        assert manifest.host["cpu_count"] >= 1
        assert manifest.host["hostname"]
        assert manifest.outputs["stall_report_csv"] == str(csv_path)
        assert all(r.started_ts > 0 for r in manifest.job_records)
