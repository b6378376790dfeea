"""CLI determinism + validation tests for `repro-exp dse`.

The byte-identity invariants: the frontier JSON is a pure function of
(space, samples, budget, rungs, eta, benchmarks, seed) — worker count,
cache temperature and crash/resume history must never change a byte.
Each in-process invocation clears the in-memory run cache first, so a
shared on-disk cache directory is the only state carried between
"processes", exactly as in a real cold/warm pair.
"""

import json

import pytest

import repro
from repro.experiments import dse, runner
from repro.experiments.cli import main as experiments_main
from repro.obs.diffrun import main as repro_exp_main

SWEEP = ["--space", "smoke", "--samples", "6", "--budget", "400",
         "--rungs", "2", "--eta", "3", "--min-measure", "150",
         "--warmup-factor", "2", "--benchmarks", "hmmer",
         "--seed", "5"]


@pytest.fixture(autouse=True)
def _clean_runner_state():
    runner.clear_cache()
    runner.pop_job_records()
    runner.pop_served_runs()
    yield
    runner.clear_cache()
    runner.pop_job_records()
    runner.pop_served_runs()


def _run(argv):
    """One `repro-exp dse` invocation with a cold in-memory cache."""
    runner.clear_cache()
    return repro_exp_main(["dse"] + argv)


class TestDeterminism:
    def test_jobs1_vs_jobs2_byte_identical(self, tmp_path):
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert _run(SWEEP + ["--no-cache", "--jobs", "1",
                             "--out", str(one)]) == 0
        assert _run(SWEEP + ["--no-cache", "--jobs", "2",
                             "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_cold_vs_warm_cache_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        manifest = tmp_path / "warm.manifest.json"
        assert _run(SWEEP + ["--cache-dir", str(cache),
                             "--out", str(cold)]) == 0
        assert _run(SWEEP + ["--cache-dir", str(cache),
                             "--out", str(warm),
                             "--manifest", str(manifest)]) == 0
        assert cold.read_bytes() == warm.read_bytes()
        recorded = json.loads(manifest.read_text())
        assert recorded["jobs_simulated"] == 0, (
            "warm re-run must serve every job from the disk cache")
        assert recorded["cache"]["hits"] > 0

    def test_verify_accepts_emitted_payload(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        assert _run(SWEEP + ["--no-cache", "--out", str(out)]) == 0
        assert _run(["--verify", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_rejects_tampered_payload(self, tmp_path):
        out = tmp_path / "frontier.json"
        assert _run(SWEEP + ["--no-cache", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload["frontier"][0]["ipc"] *= 2.0
        out.write_text(json.dumps(payload))
        assert _run(["--verify", str(out)]) == dse.EXIT_INVARIANT

    def test_verify_missing_file_is_usage_error(self, tmp_path):
        assert _run(["--verify", str(tmp_path / "nope.json")]) == 2


class TestCrashResume:
    def test_resume_completes_exactly_the_missing_subset(self, tmp_path):
        """An injected mcf crash fails every config at rung 0; --resume
        without the fault re-simulates only what is missing and the
        final JSON is byte-identical to a never-crashed run."""
        cache = tmp_path / "cache"
        sweep = list(SWEEP)
        sweep.insert(sweep.index("hmmer") + 1, "mcf")
        crashed = tmp_path / "crashed.json"
        resumed = tmp_path / "resumed.json"
        clean = tmp_path / "clean.json"
        manifest = tmp_path / "resumed.manifest.json"
        assert _run(sweep + ["--cache-dir", str(cache), "--jobs", "2",
                             "--inject-fault", "crash:mcf",
                             "--out", str(crashed)]) == 0
        wrecked = json.loads(crashed.read_text())
        assert wrecked["failed"], "the crash must quarantine configs"
        assert not wrecked["frontier"]
        assert _run(sweep + ["--cache-dir", str(cache), "--jobs", "2",
                             "--resume", "--out", str(resumed),
                             "--manifest", str(manifest)]) == 0
        recovered = json.loads(resumed.read_text())
        assert not recovered["failed"] and recovered["frontier"]
        # Only the crashed mcf jobs and the never-reached final rung
        # were simulated; the healthy rung-0 hmmer jobs replayed from
        # the cache.
        records = json.loads(manifest.read_text())["job_records"]
        rung0 = dse.rung_measure(400, 3, 2, 0, 150)
        for record in records:
            if f"measure={rung0}" in record["job"]:
                assert "mcf" in record["job"], record
        # The recovered sweep is byte-identical to one that never saw
        # a fault.
        assert _run(sweep + ["--no-cache", "--out", str(clean)]) == 0
        assert resumed.read_bytes() == clean.read_bytes()

    def test_resume_requires_the_disk_cache(self, capsys):
        # Refused at parse time by both sweep commands.
        for main in (_run, lambda argv: experiments_main(
                ["headline"] + argv)):
            with pytest.raises(SystemExit) as excinfo:
                main(["--resume", "--no-cache"])
            assert excinfo.value.code == 2
            message = capsys.readouterr().err
            assert "--no-cache" in message
            assert "Traceback" not in message


class TestArgumentValidation:
    @pytest.mark.parametrize("argv", [
        ["dse", "--rungs", "0"],
        ["dse", "--rungs", "-2"],
        ["dse", "--rungs", "two"],
        ["dse", "--eta", "1"],
        ["dse", "--eta", "0"],
        ["dse", "--budget", "0"],
        ["dse", "--samples", "0"],
        ["dse", "--min-measure", "0"],
        ["dse", "--warmup-factor", "-1"],
        ["dse", "--jobs", "0"],
        ["dse", "--retries", "-1"],
        ["dse", "--retry-backoff", "-0.5"],
        ["dse", "--timeout", "0"],
        ["serve", "--jobs", "0"],
        ["serve", "--retries", "-1"],
        ["serve", "--retry-backoff", "-1"],
        ["serve", "--timeout", "0"],
        ["serve", "--timeout", "-1"],
        # Out of range, bind() raises OverflowError.
        ["serve", "--port", "-1"],
        ["serve", "--port", "99999"],
        # A reclaim age of 0 or less requeues claims that live workers
        # still hold; a negative poll fails at the first idle sleep.
        ["serve", "--spool-reclaim", "0"],
        ["serve", "--spool-reclaim", "-1"],
        ["spool-worker", "--spool", "s", "--poll", "-1"],
        # --max-jobs 0 would exit at once having run nothing.
        ["spool-worker", "--spool", "s", "--max-jobs", "0"],
        ["spool-worker", "--spool", "s", "--idle-exit", "-1"],
        ["diff", "a.json", "b.json", "--threshold", "0"],
        ["diff", "a.json", "b.json", "--threshold", "-1"],
        ["top", "--interval", "0"],
        # --iterations -1 would draw one frame and exit 0.
        ["top", "--iterations", "-1"],
    ])
    def test_bad_numeric_args_exit_2_with_clear_error(self, argv,
                                                      capsys,
                                                      monkeypatch):
        # A value the parser lets through must fail here, not start a
        # server or a worker.
        from repro.serve import server, spool

        for module in (server, spool):
            monkeypatch.setattr(module, "cmd", lambda args: 0)
        with pytest.raises(SystemExit) as excinfo:
            repro_exp_main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "must be" in message or "expected" in message
        assert "Traceback" not in message

    @pytest.mark.parametrize("text", [
        None,
        "{not json",
        '{"default": {"priority": "high"}}',
        '{"tenants": {"ci": {"max_queued": true}}}',
        '{"tenants": ["ci"]}',
    ], ids=["missing", "malformed", "string-priority", "bool-max-queued",
            "tenant-list"])
    def test_bad_quota_file_exits_2(self, text, tmp_path, capsys,
                                    monkeypatch):
        # Loaded at parse time: a bad file never reaches a running
        # server, where a string priority dropped every submission.
        from repro.serve import server

        monkeypatch.setattr(server, "cmd", lambda args: 0)
        path = tmp_path / "quotas.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            repro_exp_main(["serve", "--quotas", str(path)])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "--quotas" in message and str(path) in message
        assert "Traceback" not in message

    def test_unknown_space_and_benchmark_exit_2(self, capsys):
        assert _run(["--space", "nosuch"]) == 2
        assert "preset" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            _run(SWEEP[:-4] + ["--no-cache", "--benchmarks",
                               "nosuchbench"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "--benchmarks" in message and "nosuchbench" in message
        assert "Traceback" not in message

    def test_bad_fault_spec_exits_2(self, capsys):
        for argv in (["dse"] + SWEEP + ["--inject-fault", "explode:mcf"],
                     ["serve", "--inject-fault", "explode"]):
            with pytest.raises(SystemExit) as excinfo:
                repro_exp_main(argv)
            assert excinfo.value.code == 2
            message = capsys.readouterr().err
            assert "fault" in message
            assert "Traceback" not in message

    def test_list_spaces(self, capsys):
        assert _run(["--list-spaces"]) == 0
        out = capsys.readouterr().out
        for preset in dse.PRESET_SPACES:
            assert preset in out

    @pytest.mark.parametrize("argv", [
        ["headline", "--measure", "0"],
        ["headline", "--measure", "-5"],
        ["headline", "--warmup", "-1"],
        ["headline", "--interval", "0"],
        ["headline", "--retries", "-1"],
        ["headline", "--pipeview-window", "0"],
        ["headline", "--fuzz", "0"],
    ])
    def test_experiments_cli_numeric_args_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "must be" in message
        assert "Traceback" not in message


class TestArtifacts:
    def test_chart_and_manifest_and_timeline(self, tmp_path):
        out = tmp_path / "frontier.json"
        charts = tmp_path / "charts.txt"
        manifest = tmp_path / "run.manifest.json"
        timeline = tmp_path / "trace.json"
        assert _run(SWEEP + ["--no-cache", "--out", str(out),
                             "--chart-out", str(charts),
                             "--manifest", str(manifest),
                             "--timeline", str(timeline)]) == 0
        assert "Pareto frontier" in charts.read_text()
        recorded = json.loads(manifest.read_text())
        assert recorded["experiments"] == ["dse"]
        assert recorded["aggregates"], "final-rung aggregates missing"
        trace = json.loads(timeline.read_text())
        spans = [e for e in trace["traceEvents"]
                 if e.get("ph") == "X"]
        assert any("rung" in e["name"] for e in spans)

    def test_manifest_records_the_parsed_arguments(self, tmp_path):
        manifest = tmp_path / "run.manifest.json"
        argv = SWEEP + ["--no-cache", "--out", str(tmp_path / "f.json"),
                        "--manifest", str(manifest)]
        assert _run(argv) == 0
        recorded = json.loads(manifest.read_text())
        assert recorded["command"] == ["dse"] + argv
        assert recorded["repro_version"] == repro.__version__

    def test_manifest_records_the_final_rungs_interval(self, tmp_path):
        # --min-measure above --budget floors the last rung at 150.
        manifest = tmp_path / "run.manifest.json"
        assert _run(["--space", "smoke", "--samples", "2", "--budget",
                     "100", "--min-measure", "150", "--rungs", "1",
                     "--benchmarks", "hmmer", "--no-cache",
                     "--out", str(tmp_path / "f.json"),
                     "--manifest", str(manifest)]) == 0
        recorded = json.loads(manifest.read_text())
        assert (recorded["measure"], recorded["warmup"]) == (150, 600)
        assert recorded["job_records"]
        for record in recorded["job_records"]:
            assert "(measure=150, warmup=600," in record["job"]

    def test_manifest_self_diff_is_clean(self, tmp_path):
        manifest = tmp_path / "run.manifest.json"
        assert _run(SWEEP + ["--no-cache", "--out",
                             str(tmp_path / "f.json"),
                             "--manifest", str(manifest)]) == 0
        assert repro_exp_main(["diff", str(manifest),
                               str(manifest)]) == 0
