"""Every file writer publishes atomically: a failed write keeps the old
file and leaves no temp file behind."""

import pstats
from types import SimpleNamespace

import pytest

from repro import atomicio
from repro.experiments import cli, dse
from repro.experiments.runner import interval
from repro.obs.pipeview import KanataWriter
from repro.obs.report import write_report
from repro.workloads.io import save_trace
from tests.test_obs_diffrun import aggregate, manifest


class _DiskFull:
    """A file that takes ``budget`` bytes, then fails the next write."""

    def __init__(self, stream, budget):
        self.stream = stream
        self.budget = budget

    def write(self, data):
        if len(data) > self.budget:
            self.stream.write(data[:self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        return self.stream.write(data)

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()


def _report(path, tmp_path):
    write_report(path, manifest([aggregate()]))


def _pipeview(path, tmp_path):
    writer = KanataWriter(path)
    inst = SimpleNamespace(seq=0, pc=0x400, op=SimpleNamespace(name="ADD"))
    writer.record(SimpleNamespace(
        inst=inst, fetch_cycle=0, rename_cycle=1, iq_cycle=2,
        issue_cycle=3, complete_cycle=4, executed_in_ixu=False,
        mispredicted=False, squashed=False), end_cycle=5, flushed=False)
    writer.close()


def _stall_csv(path, tmp_path):
    stats = SimpleNamespace(cycles=10, committed=5, stall_cycles=0,
                            stalls={})
    cli._write_stall_csv({("BIG", "hmmer"): stats}, path)


def _chart_out(path, tmp_path):
    dse.main(["--space", "smoke", "--samples", "2", "--budget", "200",
              "--rungs", "1", "--min-measure", "100", "--benchmarks",
              "hmmer", "--seed", "1", "--no-cache",
              "--out", str(tmp_path / "frontier.json"),
              "--chart-out", path])


def _save_trace(path, tmp_path):
    save_trace(interval("hmmer", 50, 0).trace, path)


def _profile_sim(path, tmp_path):
    cli._profile_sim(SimpleNamespace(
        profile_sim=path, profile_model="BIG", benchmarks=None,
        measure=50, warmup=0))


@pytest.mark.parametrize("writer, name", [
    (_report, "report.html"),
    (_pipeview, "pv.kanata"),
    (_pipeview, "pv.kanata.gz"),
    (_stall_csv, "stalls.csv"),
    (_chart_out, "chart.txt"),
    (_save_trace, "trace.txt"),
    (_profile_sim, "sim.prof"),
], ids=["report", "pipeview", "pipeview-gz", "stall-csv", "dse-chart-out",
        "save-trace", "profile-sim"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer,
                                          name):
    path = tmp_path / name
    path.write_bytes(b"previous\n")
    real_open = open

    def failing_open(file, *args, **kwargs):
        stream = real_open(file, *args, **kwargs)
        if str(file).startswith(f"{path}.tmp."):
            # Past a gzip header, short of every writer's output.
            return _DiskFull(stream, budget=32)
        return stream

    monkeypatch.setattr(atomicio, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        writer(str(path), tmp_path)
    assert path.read_bytes() == b"previous\n"
    assert not list(tmp_path.glob("*.tmp.*"))


def test_profile_dump_loads_with_pstats(tmp_path):
    path = tmp_path / "sim.prof"
    _profile_sim(str(path), tmp_path)
    stats = pstats.Stats(str(path))
    assert any(name == "simulate" for _, _, name in stats.stats)
    assert not list(tmp_path.glob("*.tmp.*"))
