"""Tests for CLI JSON export."""

import json
from types import SimpleNamespace

import pytest

from repro.experiments import cli
from repro.experiments.cli import main
from repro.obs import diffrun
from repro.obs.diffrun import DiffReport
from repro.validate import fuzz as fuzz_module
from repro.validate.fuzz import FuzzResult
from tests.test_obs_diffrun import aggregate, manifest


class TestJSONExport:
    def test_analytical_experiments_dump(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["figure9", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "figure9" in data
        assert data["figure9"]["figure9a"]["BIG"]["L2"] > 0

    def test_simulated_experiment_dump(self, tmp_path, capsys):
        path = tmp_path / "fig7.json"
        main(["figure7", "--benchmarks", "hmmer",
              "--measure", "600", "--warmup", "2500",
              "--json", str(path)])
        data = json.loads(path.read_text())
        assert data["figure7"]["BIG"]["mean"] == 1.0

    def test_tables_dump(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        main(["table1", "--json", str(path)])
        data = json.loads(path.read_text())
        assert data["table1"]["BIG"]["issue width"] == "4 inst."


def _unserialisable():
    """A payload ``json.dump`` rejects (tuple keys) after writing some
    of it, so a non-atomic writer would leave a torn file behind."""
    return {"runs": [1, 2, 3], "z": {("not", "a string"): 0}}


def _cli_json(path, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_run_one",
                        lambda *args, **kwargs: ("", _unserialisable()))
    cli.main(["table1", "--json", path])


def _cli_metrics_json(path, tmp_path, monkeypatch):
    stats = SimpleNamespace(cycles=1, committed=1, ipc=1.0, stalls={},
                            metrics=_unserialisable())
    cli._write_metrics_json({("BIG", "hmmer"): stats}, {}, path)


def _fake_fuzz(monkeypatch):
    monkeypatch.setattr(fuzz_module, "fuzz",
                        lambda *args, **kwargs: FuzzResult(seed=0))
    monkeypatch.setattr(FuzzResult, "to_dict",
                        lambda self: _unserialisable())


def _cli_fuzz_report(path, tmp_path, monkeypatch):
    _fake_fuzz(monkeypatch)
    cli.main(["--fuzz", "1", "--fuzz-report", path])


def _fuzz_report(path, tmp_path, monkeypatch):
    _fake_fuzz(monkeypatch)
    fuzz_module.main(["--n", "1", "--report", path])


def _diff_json(path, tmp_path, monkeypatch):
    monkeypatch.setattr(DiffReport, "to_dict",
                        lambda self: _unserialisable())
    base = str(tmp_path / "base.manifest.json")
    manifest([aggregate()]).write(base)
    diffrun.main(["diff", base, base, "--json", path])


class TestAtomicExports:
    @pytest.mark.parametrize("export", [
        _cli_json, _cli_metrics_json, _cli_fuzz_report, _fuzz_report,
        _diff_json,
    ], ids=["cli-json", "cli-metrics-json", "cli-fuzz-report",
            "fuzz-report", "diff-json"])
    def test_failed_export_keeps_previous_file(self, tmp_path, monkeypatch,
                                               capsys, export):
        path = tmp_path / "out.json"
        path.write_text('{"previous": true}\n')
        with pytest.raises(TypeError):
            export(str(path), tmp_path, monkeypatch)
        assert path.read_text() == '{"previous": true}\n'
        assert not list(tmp_path.glob("*.tmp.*"))
