"""Tests for cross-run regression diffing (repro.obs.diffrun)."""

import json
import multiprocessing
import threading

import pytest

from repro.obs.diffrun import (
    EXIT_REGRESSION,
    DiffThresholds,
    append_history_entry,
    append_trajectory,
    diff_manifests,
    format_diff_report,
    main,
)
from repro.obs.manifest import RunManifest, host_info


def aggregate(model="HALF+FX", benchmark="hmmer", ipc=1.5, epi=20.0,
              stalls=None, speed=100_000.0):
    return {
        "model": model, "benchmark": benchmark, "ipc": ipc,
        "cycles": 10_000, "committed": int(10_000 * ipc),
        "energy_total": epi * 10_000 * ipc,
        "energy_per_instruction": epi,
        "stalls": stalls if stalls is not None
        else {"dcache_miss": 600, "iq_full": 400},
        "wall_seconds": 0.5, "insts_per_second": speed,
    }


def manifest(aggregates, host=None, workers=2, **overrides):
    return RunManifest(
        experiments=["headline"], measure=500, warmup=2000,
        host=host or host_info(), workers=workers,
        aggregates=aggregates, **overrides)


def write(tmp_path, name, man):
    path = str(tmp_path / name)
    man.write(path)
    return path


class TestDiff:
    def test_self_diff_is_clean(self):
        man = manifest([aggregate(), aggregate(benchmark="lbm")])
        report = diff_manifests(man, man)
        assert report.ok
        assert report.compared == 2
        assert report.deltas == []

    def test_ipc_drop_is_a_regression(self):
        base = manifest([aggregate(ipc=1.5)])
        new = manifest([aggregate(ipc=1.4)])  # -6.7 %
        report = diff_manifests(base, new)
        assert not report.ok
        (delta,) = report.regressions
        assert delta.metric == "ipc"
        assert delta.rel_change == pytest.approx(-1 / 15)

    def test_energy_rise_is_a_regression(self):
        base = manifest([aggregate(epi=20.0)])
        new = manifest([aggregate(epi=21.0)])  # +5 %
        report = diff_manifests(base, new)
        (delta,) = report.regressions
        assert delta.metric == "energy_per_instruction"

    def test_improvements_are_info_not_regressions(self):
        base = manifest([aggregate(ipc=1.5, epi=20.0)])
        new = manifest([aggregate(ipc=1.6, epi=19.0)])
        report = diff_manifests(base, new)
        assert report.ok
        assert {d.note for d in report.deltas} == {"improvement"}

    def test_changes_inside_threshold_ignored(self):
        base = manifest([aggregate(ipc=1.500)])
        new = manifest([aggregate(ipc=1.485)])  # -1 %, under 2 %
        assert diff_manifests(base, new).deltas == []

    def test_threshold_override(self):
        base = manifest([aggregate(ipc=1.500)])
        new = manifest([aggregate(ipc=1.485)])
        tight = DiffThresholds(ipc=0.005)
        assert not diff_manifests(base, new, tight).ok

    def test_missing_pair_warns_new_pair_informs(self):
        base = manifest([aggregate(), aggregate(benchmark="lbm")])
        new = manifest([aggregate(), aggregate(benchmark="mcf")])
        report = diff_manifests(base, new)
        assert report.ok
        assert [(d.severity, d.benchmark, d.metric)
                for d in report.deltas] == \
            [("warning", "lbm", "present"), ("info", "mcf", "present")]

    def test_stall_mix_shift_is_info(self):
        base = manifest([aggregate(stalls={"dcache_miss": 900,
                                           "iq_full": 100})])
        new = manifest([aggregate(stalls={"dcache_miss": 100,
                                          "iq_full": 900})])
        report = diff_manifests(base, new)
        assert report.ok
        metrics = {d.metric for d in report.deltas}
        assert metrics == {"stall_share.dcache_miss",
                           "stall_share.iq_full"}

    def test_sim_speed_only_compared_on_same_host(self):
        base = manifest([aggregate(speed=100_000)])
        slow = manifest([aggregate(speed=50_000)])  # -50 %
        report = diff_manifests(base, slow)
        assert report.sim_speed_compared
        (delta,) = report.warnings
        assert delta.metric == "insts_per_second"
        assert report.ok  # warning, not a gate

        other_host = dict(host_info(), hostname="elsewhere")
        foreign = manifest([aggregate(speed=50_000)], host=other_host)
        report = diff_manifests(base, foreign)
        assert not report.sim_speed_compared
        assert report.warnings == []

    def test_worker_count_change_disables_sim_speed(self):
        base = manifest([aggregate(speed=100_000)], workers=2)
        new = manifest([aggregate(speed=50_000)], workers=4)
        assert not diff_manifests(base, new).sim_speed_compared

    def test_regressions_sort_first(self):
        base = manifest([aggregate(ipc=1.5),
                         aggregate(benchmark="lbm")])
        new = manifest([aggregate(ipc=1.0),
                        aggregate(benchmark="mcf")])
        severities = [d.severity
                      for d in diff_manifests(base, new).deltas]
        assert severities == sorted(
            severities,
            key=["regression", "warning", "info"].index)

    def test_report_formatting(self):
        base = manifest([aggregate(ipc=1.5)])
        new = manifest([aggregate(ipc=1.0)])
        text = format_diff_report(diff_manifests(base, new),
                                  base_label="a.json",
                                  new_label="b.json")
        assert "Manifest diff: b.json vs a.json" in text
        assert "regression" in text
        assert "result: REGRESSED (1 regression(s)" in text
        clean = format_diff_report(diff_manifests(base, base))
        assert "no changes beyond thresholds" in clean
        assert "result: OK" in clean


class TestCli:
    def test_self_diff_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "a.manifest.json",
                     manifest([aggregate()]))
        assert main(["diff", path, path]) == 0
        assert "result: OK" in capsys.readouterr().out

    def test_regression_exits_three(self, tmp_path, capsys):
        base = write(tmp_path, "a.manifest.json",
                     manifest([aggregate(ipc=1.5)]))
        new = write(tmp_path, "b.manifest.json",
                    manifest([aggregate(ipc=1.0)]))
        assert main(["diff", base, new]) == EXIT_REGRESSION
        assert "REGRESSED" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path, capsys):
        base = write(tmp_path, "a.manifest.json",
                     manifest([aggregate(ipc=1.500)]))
        new = write(tmp_path, "b.manifest.json",
                    manifest([aggregate(ipc=1.485)]))
        assert main(["diff", base, new]) == 0
        capsys.readouterr()
        assert main(["diff", base, new,
                     "--threshold", "0.005"]) == EXIT_REGRESSION
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", base, new, "--threshold", "-1"])
        assert excinfo.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_json_report_output(self, tmp_path, capsys):
        base = write(tmp_path, "a.manifest.json",
                     manifest([aggregate(ipc=1.5)]))
        new = write(tmp_path, "b.manifest.json",
                    manifest([aggregate(ipc=1.0)]))
        out = tmp_path / "report.json"
        main(["diff", base, new, "--json", str(out)])
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["regressions"] == 1
        assert report["deltas"][0]["metric"] == "ipc"

    def test_bad_manifest_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        good = write(tmp_path, "a.manifest.json",
                     manifest([aggregate()]))
        assert main(["diff", missing, good]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["diff", good, str(broken)]) == 2
        empty = write(tmp_path, "empty.manifest.json", manifest([]))
        assert main(["diff", good, empty]) == 2
        err = capsys.readouterr().err
        assert "cannot load manifest" in err
        assert "no aggregates" in err

    def test_trajectory_flag(self, tmp_path, capsys):
        path = write(tmp_path, "a.manifest.json",
                     manifest([aggregate()]))
        history = tmp_path / "BENCH_trajectory.json"
        assert main(["diff", path, path,
                     "--trajectory", str(history)]) == 0
        assert "trajectory appended" in capsys.readouterr().out
        assert len(json.loads(
            history.read_text())["entries"]) == 1


class TestTrajectory:
    def test_creates_appends_and_reduces(self, tmp_path):
        man = manifest(
            [aggregate(ipc=1.0, epi=10.0),
             aggregate(benchmark="lbm", ipc=2.0, epi=30.0),
             aggregate(model="LITTLE", ipc=0.8, epi=8.0)],
            finished_at="2026-08-05T00:00:00", code_version="abc123")
        path = str(tmp_path / "BENCH_trajectory.json")
        entry = append_trajectory(man, path)
        assert entry["models"]["HALF+FX"] == {
            "mean_ipc": 1.5, "mean_energy_per_instruction": 20.0,
            "benchmarks": 2}
        assert entry["models"]["LITTLE"]["benchmarks"] == 1
        assert entry["code_version"] == "abc123"
        append_trajectory(man, path)
        history = json.loads(open(path).read())
        assert len(history["entries"]) == 2
        assert history["entries"][0]["finished_at"] == \
            "2026-08-05T00:00:00"

    def test_corrupt_history_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text("not json at all")
        append_trajectory(manifest([aggregate()]), str(path))
        assert len(json.loads(path.read_text())["entries"]) == 1

    def test_corrupt_history_is_preserved_on_disk(self, tmp_path):
        # Months of trajectory must never be silently discarded: the
        # unreadable bytes move to <path>.corrupt before a fresh
        # history starts.
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text('{"entries": [{"truncated...')
        append_trajectory(manifest([aggregate()]), str(path))
        corrupt = tmp_path / "BENCH_trajectory.json.corrupt"
        assert corrupt.read_text() == '{"entries": [{"truncated...'
        assert len(json.loads(path.read_text())["entries"]) == 1

    def test_non_dict_history_is_preserved_as_corrupt(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text('["valid json", "wrong shape"]')
        append_history_entry({"n": 1}, str(path))
        assert json.loads(
            (tmp_path / "BENCH_trajectory.json.corrupt").read_text()
        ) == ["valid json", "wrong shape"]
        assert json.loads(path.read_text())["entries"] == [{"n": 1}]


def _history_appender(path, tag, count):
    for index in range(count):
        append_history_entry({"tag": tag, "index": index}, path)


class TestConcurrentHistory:
    def test_concurrent_appends_lose_no_entries(self, tmp_path):
        # The acceptance scenario: several sweeps appending to one
        # trajectory file concurrently.  Without the exclusive lock
        # around the read-modify-write, interleaved writers overwrite
        # each other's entries; with it, every append survives and the
        # file is valid JSON throughout.
        path = str(tmp_path / "BENCH_trajectory.json")
        writers, appends = 4, 12
        processes = [
            multiprocessing.Process(target=_history_appender,
                                    args=(path, tag, appends))
            for tag in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        entries = json.loads(open(path).read())["entries"]
        assert len(entries) == writers * appends
        for tag in range(writers):
            mine = [e["index"] for e in entries if e["tag"] == tag]
            assert sorted(mine) == list(range(appends))

    def test_threaded_appends_lose_no_entries(self, tmp_path):
        path = str(tmp_path / "BENCH_trajectory.json")
        threads = [
            threading.Thread(target=_history_appender,
                             args=(path, tag, 10))
            for tag in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        entries = json.loads(open(path).read())["entries"]
        assert len(entries) == 40
