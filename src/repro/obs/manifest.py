"""Run manifests: a JSON record of how a set of results was produced.

A figure or table is only as trustworthy as the provenance of the runs
behind it.  The manifest captures, for one CLI/runner invocation:

* the full command line and experiment list,
* the simulation parameters (benchmarks, measure/warmup interval, seed),
* the exact code version (the same source hash the disk cache keys on),
* the host (machine, platform, Python) and wall-clock envelope,
* the worker-pool shape, per-job wall times and worker pids, and
* the disk-cache hit/miss/store counters for the invocation.

``fxa-experiments ... --json out.json`` writes ``out.manifest.json``
next to the results; ``--manifest PATH`` emits one explicitly.  Every
producer (the CLI, ``repro-exp dse`` and each served batch) builds it
through :func:`repro.experiments.runner.build_manifest`.  The
record round-trips through ``to_dict``/``from_dict`` like every other
result object in the repo.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

from repro.atomicio import replace_json


def host_info() -> Dict[str, object]:
    """The machine fingerprint recorded in every manifest.

    ``cpu_count`` matters for sim-speed comparisons: the regression
    differ (:mod:`repro.obs.diffrun`) only gates on instructions/second
    when two manifests share this fingerprint.
    """
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass
class JobRecord:
    """Per-job pool accounting (mirrors pool.JobResult / pool.JobFailure,
    minus the run payload).

    ``status`` is ``"ok"`` or ``"failed"``; for failed jobs ``cause``
    (exception / timeout / worker-death) and ``error`` carry the
    quarantine reason, and ``attempts`` counts every retry taken.
    """

    job: str                    # SimJob.describe()
    wall_seconds: float = 0.0
    worker_pid: int = 0
    attempts: int = 1
    status: str = "ok"
    cause: str = ""
    error: str = ""
    started_ts: float = 0.0     # host wall clock (time.time) at start

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_pool(cls, record) -> "JobRecord":
        """From a sweep's answer to a job, a pool ``JobResult`` or
        ``JobFailure`` as :func:`~repro.experiments.runner.run_sweep`
        returns it; a result has no ``cause`` or ``error``, a failure
        no ``started_ts``."""
        return cls(job=record.job.describe(),
                   wall_seconds=record.wall_seconds,
                   worker_pid=record.worker_pid,
                   attempts=record.attempts,
                   status="ok" if record.ok else "failed",
                   cause=getattr(record, "cause", ""),
                   error=getattr(record, "error", ""),
                   started_ts=getattr(record, "started_ts", 0.0))

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "JobRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class RunManifest:
    """Provenance record of one experiment-harness invocation."""

    command: List[str] = field(default_factory=list)
    experiments: List[str] = field(default_factory=list)
    benchmarks: Optional[List[str]] = None      # None = full suite
    measure: int = 0
    warmup: int = 0
    seed: int = 0
    code_version: str = ""
    repro_version: str = ""
    host: Dict[str, object] = field(default_factory=host_info)
    started_at: str = ""
    finished_at: str = ""
    wall_seconds: float = 0.0
    workers: int = 1
    #: Jobs this invocation simulated to success.
    jobs_simulated: int = 0
    #: Distinct jobs this invocation answered as failed, a failure
    #: record replayed from the cache included.
    jobs_failed: int = 0
    fault_policy: Dict[str, object] = field(default_factory=dict)
    job_records: List[JobRecord] = field(default_factory=list)
    cache: Dict[str, object] = field(default_factory=dict)
    outputs: Dict[str, str] = field(default_factory=dict)
    # Per-(model, benchmark) result aggregates — what diffrun compares
    # and repro-exp report renders.
    # Entries: {model, benchmark, ipc, cycles, committed, energy_total,
    #           energy_per_instruction, stalls, wall_seconds,
    #           insts_per_second, ff_skipped_cycles, topdown};
    #           populated for every run the sweep served, including
    #           cache replays (wall_seconds/insts_per_second only for
    #           freshly simulated jobs; ff_skipped_cycles and the
    #           topdown slot/energy payload only when an observed pass
    #           ran — topdown is None otherwise).
    aggregates: List[Dict] = field(default_factory=list)

    def slowest_jobs(self, count: int = 5) -> List[JobRecord]:
        """The ``count`` slowest simulated jobs, slowest first."""
        ordered = sorted(self.job_records,
                         key=lambda r: r.wall_seconds, reverse=True)
        return ordered[:count]

    def failed_jobs(self) -> List[JobRecord]:
        """Every quarantined job record (the sweep's explicit gaps)."""
        return [r for r in self.job_records if not r.ok]

    def to_dict(self) -> Dict:
        data = asdict(self)
        data["job_records"] = [r.to_dict() for r in self.job_records]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["job_records"] = [
            JobRecord.from_dict(r) for r in data.get("job_records", [])
        ]
        return cls(**kwargs)

    def write(self, path) -> None:
        """Serialise to ``path`` as indented, key-sorted JSON.

        Published atomically (tmp file + ``os.replace``, the disk-cache
        idiom): progress streamers, ``repro-exp diff`` and the job
        server poll manifests while sweeps are still producing them,
        and an in-place write would let them read torn JSON.  A
        serialisation failure leaves any existing manifest untouched.
        """
        replace_json(path, self.to_dict(), indent=2, sort_keys=True,
                     trailing_newline=True)

    @classmethod
    def read(cls, path) -> "RunManifest":
        with open(path) as stream:
            return cls.from_dict(json.load(stream))


def aggregate_entry(run, *, wall_seconds: float = 0.0,
                    stalls: Optional[Dict] = None, ff_skipped: int = 0,
                    topdown: Optional[Dict] = None) -> Dict:
    """One ``aggregates`` row for a served benchmark run.

    ``run`` is any object with the :class:`BenchmarkRun` surface
    (``model``, ``benchmark``, ``ipc``, ``stats``, ``energy``,
    ``total_energy``).  Shared by the manifest builder
    (:func:`repro.experiments.runner.build_manifest`) and the job
    server's job events, so every producer of aggregates emits the exact
    schema the differ and the HTML report consume; ``wall_seconds`` is
    0.0 for cache replays (``insts_per_second`` then reads 0.0 and is
    never gated on).
    """
    return {
        "model": run.model,
        "benchmark": run.benchmark,
        "ipc": run.ipc,
        "cycles": run.stats.cycles,
        "committed": run.stats.committed,
        "energy_total": run.total_energy,
        "energy_per_instruction": run.energy.energy_per_instruction,
        "stalls": dict(run.stats.stalls if stalls is None else stalls),
        "wall_seconds": wall_seconds,
        "insts_per_second": (
            run.stats.committed / wall_seconds if wall_seconds else 0.0),
        "ff_skipped_cycles": ff_skipped,
        "topdown": topdown,
    }


def manifest_path_for(json_path: str) -> str:
    """Default manifest location next to a ``--json`` output file."""
    if json_path.endswith(".json"):
        return json_path[: -len(".json")] + ".manifest.json"
    return json_path + ".manifest.json"
