"""The five end-to-end workloads: set-up, one measured operation, checks.

Every workload drives the reproduction only through its public API
(``runner.prefetch`` / ``run_sweep`` / ``set_jobs`` /
``set_disk_cache``, ``dse.explore`` and ``ServeClient`` against a
``repro-exp serve`` subprocess).  A run repeats the workload's
*operation* (one cold sweep, one DSE exploration, one served batch or
one round of two served clients) until its time window is used up.
Each operation does a fixed amount of work derived from the seed, so
the same seed gives the same inputs and traced counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
#: The checkout whose ``src`` is measured and whose ``.bench_run`` holds
#: the runs' files: this one, unless ``E2EBENCH_ROOT`` names another.
#: Only ``compare.run_benchmark`` sets it, for the child runs it starts;
#: ``run.py ab`` points half of them at the other checkout.
ROOT = Path(os.environ.get("E2EBENCH_ROOT") or HERE.parent)
SRC = ROOT / "src"

#: HALF+FX / BIG geomean IPC the paper reports for Figure 7.
PAPER_REL_IPC_HALFFX = 1.057

FIG7_BENCHMARKS = ("astar", "gcc", "hmmer", "libquantum", "mcf",
                   "omnetpp", "gromacs", "lbm", "milc", "namd", "soplex",
                   "sphinx3")
WARM_BENCHMARKS = ("astar", "gcc", "hmmer", "mcf", "gromacs", "lbm",
                   "milc", "soplex")

#: Operation shapes.  ``full`` keeps each workload's job mix (jobs per
#: trace, warm-up:measure ratio, models, benchmarks) but shrinks the
#: intervals until one operation takes 1 to 1.5 s on two cores, so a
#: window holds a dozen operations or more and a few seconds of host
#: slowdown cannot move their median.  ``dse-halving``'s jobs are the
#: shortest (100/200 measured instructions per rung), so that per-job
#: fork and core build outweigh simulation there, as measured by the
#: ``*_share`` layer metrics.  ``smoke`` is the self-test's version.
#: ``trace_ops`` is the number of operations per side (untraced, traced)
#: of a traced run.
SCALES = {
    "full": {
        "fig7-cold": {"benchmarks": FIG7_BENCHMARKS, "measure": 500,
                      "warmup": 1875, "trace_ops": 8},
        "long-interval": {"benchmarks": 20, "seeds": 2, "measure": 1250,
                          "warmup": 312, "trace_ops": 8},
        "dse-halving": {"space": "paper-subgrid", "budget": 200,
                        "rungs": 2, "eta": 2, "min_measure": 100,
                        "warmup_factor": 2.0,
                        "benchmarks": ("hmmer", "mcf"), "trace_ops": 8},
        "serve-warm": {"warm_benchmarks": WARM_BENCHMARKS,
                       "warm_measure": 500, "warm_warmup": 500,
                       "trace_ops": 200},
        "serve-mixed": {"warm_benchmarks": WARM_BENCHMARKS,
                        "warm_measure": 500, "warm_warmup": 500,
                        "cold_measure": 4000, "cold_warmup": 8000,
                        "trace_ops": 20},
    },
    "smoke": {
        "fig7-cold": {"benchmarks": ("hmmer", "mcf", "lbm"),
                      "measure": 300, "warmup": 1000, "trace_ops": 1},
        "long-interval": {"benchmarks": 3, "seeds": 2, "measure": 600,
                          "warmup": 150, "trace_ops": 1},
        "dse-halving": {"space": "smoke", "budget": 600, "rungs": 2,
                        "eta": 3, "min_measure": 150,
                        "warmup_factor": 2.0, "benchmarks": ("hmmer",),
                        "trace_ops": 1},
        "serve-warm": {"warm_benchmarks": ("hmmer", "mcf"),
                       "warm_measure": 300, "warm_warmup": 300,
                       "trace_ops": 5},
        "serve-mixed": {"warm_benchmarks": ("hmmer", "mcf"),
                        "warm_measure": 300, "warm_warmup": 300,
                        "cold_measure": 500, "cold_warmup": 1000,
                        "trace_ops": 2},
    },
}

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Iterations of the host reference loop (about 4 ms per CPU on an idle
#: two-core host).
REF_LOOP = 60_000
#: The reference loop's time on that idle host.  Normalized times are
#: the times measured, scaled to a host running the loop this fast.
REF_NOMINAL_S = 0.004
#: Jobs re-simulated through the serial reference loop per run.
SPOT_CHECKS = 3
#: Result fields that hold host time, not simulated results.
WALL_CLOCK_FIELDS = ("wall_seconds", "insts_per_second")


def benchmark_spec() -> Dict:
    """This benchmark's ``BENCHMARK.json``."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    """This process's environment with ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def canonical(data) -> object:
    """``data`` without wall-clock fields, at any depth."""
    if isinstance(data, dict):
        return {key: canonical(value) for key, value in data.items()
                if key not in WALL_CLOCK_FIELDS}
    if isinstance(data, list):
        return [canonical(value) for value in data]
    return data


def sha256_of(material) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def host_reference_s() -> float:
    """How long a fixed pure-Python loop takes right now, averaged over
    one run pinned to each CPU this process may use.

    The loop shares no code with the reproduction and runs only while
    the system under test is idle (:meth:`Workload.host_reference_s`),
    so a change under test cannot move it; on a shared host it tracks
    the slow and fast spells (of seconds to minutes) that move every
    timing together.
    """
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [None])
    times = []
    try:
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            total = 0
            for i in range(REF_LOOP):
                total += i * i % 7
            times.append(time.perf_counter() - started)
    finally:
        if cpus[0] is not None:
            os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _span(tracer, name: str, **args):
    """A tracer span, or a stand-in when the operation is untraced."""
    if tracer is None:
        return contextlib.nullcontext({"args": {}})
    return tracer.span(name, **args)


@dataclass
class Op:
    """One measured operation."""

    wall_s: float
    jobs: int
    failed: int = 0
    insts: int = 0
    warm_ms: List[float] = field(default_factory=list)
    cold_ms: List[float] = field(default_factory=list)
    #: REF_NOMINAL_S / the host reference measured around the operation.
    scale: float = 1.0


class Workload:
    """Base: a seed, a shape, a private work directory, and checks."""

    name = ""
    #: Whether the measured layers run in this process (sweeps) or in a
    #: server subprocess (serve workloads).
    in_process = True
    #: ``peak_rss_mb`` is read after this many operations, so that it
    #: covers a fixed amount of work however fast the host is.
    rss_after_ops = 1
    #: Operations between two samples of the host reference.
    ref_every = 1

    def __init__(self, seed: int, params: Dict, work: Path):
        self.seed = seed
        self.p = params
        self.work = work
        #: (SimJob, canonical result) pairs of the first operation.
        self.results: List[Tuple[object, Dict]] = []
        #: Failed checks; each counts as one failed operation.
        self.problems: List[str] = []
        #: Failed requests; their jobs are counted by :class:`Op`.
        self.request_errors: List[str] = []
        self.extras: Dict[str, float] = {}
        self._ops = 0

    def setup(self) -> float:
        raise NotImplementedError

    def setup_traced(self, parts_dir: Path) -> None:
        """Prepare the traced side of a traced run (serve workloads
        start a second, traced server)."""

    def end_traced(self) -> None:
        """Finish the traced side; its spans are on disk afterwards."""

    def op(self, index: int, tracer=None) -> Op:
        raise NotImplementedError

    def host_reference_s(self) -> float:
        """:func:`host_reference_s`, between operations, when nothing
        of the system under test runs."""
        return host_reference_s()

    def golden_material(self):
        return sorted([job.describe(), result]
                      for job, result in self.results)

    def canonical_run(self, run) -> Dict:
        return canonical(run.to_dict())

    def spot_check(self) -> int:
        """Re-simulate a seeded sample of the first operation's jobs on
        the serial reference loop (fast-forward off); returns the number
        checked and records every mismatch."""
        from repro.experiments import runner

        results = sorted(self.results, key=lambda item: item[0].describe())
        picks = random.Random(self.seed).sample(
            results, min(SPOT_CHECKS, len(results)))
        previous = os.environ.get("REPRO_NO_FASTFORWARD")
        os.environ["REPRO_NO_FASTFORWARD"] = "1"
        try:
            for job, expected in picks:
                run = runner.simulate(job.config, job.benchmark,
                                      job.measure, job.warmup, job.seed)
                if self.canonical_run(run) != expected:
                    self.problems.append(
                        f"serial reference differs for {job.describe()}")
        finally:
            if previous is None:
                del os.environ["REPRO_NO_FASTFORWARD"]
            else:
                os.environ["REPRO_NO_FASTFORWARD"] = previous
        return len(picks)

    def layer_extras(self, spans, ops: int) -> Dict[str, float]:
        """Per-layer numbers measured outside the wrapped layers."""
        return {"serve.submit_ms": 0.0, "serve.exec_ms": 0.0,
                "serve.queue_wait_ms": 0.0, "serve.jobs_cache": 0.0,
                "serve.jobs_simulated": 0.0}

    def peak_rss_mb(self) -> float:
        # ru_maxrss is in KiB on Linux; the largest waited-for child is
        # the largest pool worker.
        return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                   ) / 1024.0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Sweeps: fig7-cold, long-interval, dse-halving
# ----------------------------------------------------------------------


class SweepWorkload(Workload):
    """One cold sweep per operation: empty disk cache, empty in-memory
    caches, two pool workers."""

    #: Modules a fresh process imports before its first job.
    modules: Tuple[str, ...] = ("repro.experiments.runner",)

    def setup(self) -> float:
        code = "; ".join(
            [f"import {module}" for module in self.modules]
            + ["from repro.experiments.diskcache import code_version",
               "code_version()"])
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=child_env(), cwd=ROOT)
        return time.perf_counter() - started

    def sweep(self, cache) -> Tuple[List, int]:
        """Run one sweep; returns ((SimJob, BenchmarkRun) pairs of the
        simulated jobs, number of failed jobs)."""
        raise NotImplementedError

    def op(self, index: int, tracer=None) -> Op:
        from repro.experiments import runner
        from repro.experiments.diskcache import DiskCache

        runner.clear_cache()
        runner.pop_job_records()
        runner.set_jobs(2)
        self._ops += 1
        cache = DiskCache(self.work / f"cache-{self._ops}")
        runner.set_disk_cache(cache)
        started = time.perf_counter()
        try:
            runs, failed = self.sweep(cache)
        finally:
            wall = time.perf_counter() - started
            runner.set_disk_cache(None)
            runner.set_jobs(1)
        if index == 0 and tracer is None:
            self.results = [(job, self.canonical_run(run))
                            for job, run in runs]
            self.first_op(runs)
        return Op(wall_s=wall, jobs=len(runs) + failed, failed=failed,
                  insts=sum(run.stats.committed for _, run in runs))

    def first_op(self, runs) -> None:
        """Hook for workload-specific checks on the first operation."""


def _pool_outcomes() -> Tuple[List, int]:
    from repro.experiments import runner

    records = runner.pop_job_records()
    runs = [(r.job, r.run) for r in records if r.ok]
    return runs, len(records) - len(runs)


class Fig7Cold(SweepWorkload):
    name = "fig7-cold"
    modules = ("repro.experiments.figure7",)

    def sweep(self, cache):
        from repro.core import MODEL_NAMES, model_config
        from repro.experiments import runner

        # figure7.run's job list (every model plus the BIG baseline),
        # issued with the workload seed, which figure7.run does not take.
        configs = ([model_config("BIG")]
                   + [model_config(model) for model in MODEL_NAMES])
        runner.prefetch(
            [(config, bench) for config in configs
             for bench in self.p["benchmarks"]],
            measure=self.p["measure"], warmup=self.p["warmup"],
            seed=self.seed)
        return _pool_outcomes()

    def first_op(self, runs) -> None:
        from repro.experiments.runner import geomean

        ipc = {(run.model, run.benchmark): run.ipc for _, run in runs}
        ratios = [ipc[("HALF+FX", bench)] / ipc[("BIG", bench)]
                  for bench in self.p["benchmarks"]
                  if ("HALF+FX", bench) in ipc and ("BIG", bench) in ipc]
        if len(ratios) != len(self.p["benchmarks"]):
            self.problems.append("figure 7 is missing HALF+FX/BIG cells")
        self.extras["rel_ipc_halffx"] = geomean(ratios)


class LongInterval(SweepWorkload):
    name = "long-interval"

    def sweep(self, cache):
        from repro.core import model_config
        from repro.experiments import runner
        from repro.experiments.pool import SimJob
        from repro.workloads import ALL_BENCHMARKS

        seeds = self.p["seeds"]
        jobs = [SimJob(model_config("HALF+FX"), bench, self.p["measure"],
                       self.p["warmup"], self.seed * seeds + k)
                for bench in ALL_BENCHMARKS[:self.p["benchmarks"]]
                for k in range(seeds)]
        outcomes = runner.run_sweep(jobs, workers=2, cache=cache)
        runs = [(o.job, o.run) for o in outcomes if o.ok]
        return runs, len(outcomes) - len(runs)


class DseHalving(SweepWorkload):
    name = "dse-halving"
    modules = ("repro.experiments.dse",)

    def space(self):
        from repro.experiments import dse

        if self.p["space"] != "paper-subgrid":
            return dse.load_space(self.p["space"])
        # The paper space's IQ x issue axes as a full grid plus its
        # seeded shapes.  Sampling the whole grid, and promoting half
        # (more than any front seen), makes the explored configs, and so
        # the job count, the same for every seed.
        paper = dse.load_space("paper")
        return dse.ParamSpace(
            name="paper-subgrid", seeds=paper.seeds, base=paper.base,
            axes=[axis for axis in paper.axes
                  if axis.name in ("iq_entries", "issue_width")],
            description="paper IQ x issue grid with its seeds")

    def sweep(self, cache):
        from repro.experiments import dse

        space = self.space()
        result = dse.explore(
            space, samples=space.size(), budget=self.p["budget"],
            rungs=self.p["rungs"], eta=self.p["eta"],
            benchmarks=self.p["benchmarks"], seed=self.seed,
            min_measure=self.p["min_measure"],
            warmup_factor=self.p["warmup_factor"])
        self.payload = result.payload
        return _pool_outcomes()

    def first_op(self, runs) -> None:
        from repro.experiments import dse

        self.problems.extend(f"DSE payload: {problem}" for problem
                             in dse.verify_payload(self.payload))
        if self.payload["failed"]:
            self.problems.append(
                f"DSE dropped configs: {sorted(self.payload['failed'])}")
        self.golden_payload = canonical(self.payload)

    def golden_material(self):
        return self.golden_payload


# ----------------------------------------------------------------------
# Serving: serve-warm, serve-mixed
# ----------------------------------------------------------------------


class _Server:
    """A ``repro-exp serve`` subprocess on a free port."""

    def __init__(self, work: Path, tag: str, parts_dir=None):
        from repro.serve.client import ServeClient

        self.cache_dir = work / f"{tag}-cache"
        self.log_path = work / f"{tag}.log"
        argv = ["serve", "--port", "0", "--jobs", "1",
                "--cache-dir", str(self.cache_dir)]
        if parts_dir is None:
            command = [sys.executable, "-m", "repro.obs.diffrun", *argv]
        else:
            command = [sys.executable, str(HERE / "serve_main.py"),
                       str(parts_dir), *argv]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        try:
            self.client = ServeClient("127.0.0.1", self._wait_port(),
                                      timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60.0
        pattern = re.compile(r"listening on http://[^:\s]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def vm_hwm_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def pause(self) -> None:
        """Stop the server process and wait until it has stopped."""
        os.kill(self.proc.pid, signal.SIGSTOP)
        stat = Path(f"/proc/{self.proc.pid}/stat")
        deadline = time.monotonic() + 1.0
        while (stat.read_text().rpartition(")")[2].split()[0] != "T"
               and time.monotonic() < deadline):
            time.sleep(0.0005)

    def resume(self) -> None:
        os.kill(self.proc.pid, signal.SIGCONT)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started from a background job
        # inherits SIGINT ignored, and the server holds no state that a
        # clean shutdown would save (cache entries are written
        # atomically; the traced server writes its spans on SIGTERM).
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


class ServeWorkload(Workload):
    """A ``--jobs 1`` server whose cache holds one 16-job warm batch."""

    in_process = False

    def __init__(self, seed, params, work):
        super().__init__(seed, params, work)
        self.server: Optional[_Server] = None
        self.traced_server: Optional[_Server] = None
        self._setups = 0
        self._lock = threading.Lock()
        self.failed_jobs = 0
        self.warm_spec = {"tenant": "warm", "jobs": [
            {"model": model, "benchmark": bench,
             "measure": self.p["warm_measure"],
             "warmup": self.p["warm_warmup"], "seed": seed}
            for model in ("BIG", "HALF+FX")
            for bench in self.p["warm_benchmarks"]]}

    def _start(self, tag: str, parts_dir=None) -> _Server:
        server = _Server(self.work, tag, parts_dir)
        try:
            self._batch(server, self.warm_spec, "simulated")
        except BaseException:
            server.stop()
            raise
        return server

    def setup(self) -> float:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self._setups += 1
        started = time.perf_counter()
        self.server = self._start(f"setup{self._setups}")
        return time.perf_counter() - started

    def setup_traced(self, parts_dir) -> None:
        self.traced_server = self._start("traced", parts_dir)
        self.counters_before = self.counters(self.traced_server)

    def end_traced(self) -> None:
        self.counters_after = self.counters(self.traced_server)
        self.traced_server.stop()  # which writes its last spans

    def _batch(self, server: _Server, spec: Dict, expect: str,
               tracer=None, keep: bool = False,
               on_admitted=None) -> float:
        """Submit one batch and drain its event stream; returns the
        latency in ms (submit to ``batch_end``) and records failures.
        ``on_admitted`` runs once the server has accepted the batch."""
        from repro.serve.client import ServeError

        jobs = len(spec["jobs"])
        started = time.perf_counter()
        with _span(tracer, "serve.batch", jobs=jobs) as span:
            try:
                with _span(tracer, "serve.submit"):
                    submitted = server.client.submit(spec)
                if on_admitted is not None:
                    on_admitted()
                with _span(tracer, "serve.stream"):
                    events = list(
                        server.client.stream(submitted["batch_id"]))
            except (ServeError, OSError) as error:
                self._fail(jobs, f"batch request failed: {error}")
                return (time.perf_counter() - started) * 1e3
            end = events[-1] if events else {}
            span["args"]["exec_s"] = end.get("wall_seconds", 0.0)
        latency = (time.perf_counter() - started) * 1e3
        if end.get("by_source") != {expect: jobs} or end.get("failed"):
            self._fail(jobs, f"batch answered {end.get('by_source')} "
                             f"with {end.get('failed')} failed, expected "
                             f"{jobs} from {expect}")
        if keep:
            self._keep(spec, submitted["digests"], events)
        return latency

    def _fail(self, jobs: int, problem: str) -> None:
        with self._lock:
            self.failed_jobs += jobs
            self.request_errors.append(problem)

    def _keep(self, spec: Dict, digests: List[str], events) -> None:
        """Record a batch's results for the golden digest and the
        serial spot-checks."""
        from repro.serve.protocol import parse_job

        by_digest = {event["digest"]: event["result"] for event in events
                     if event.get("event") == "job" and "result" in event}
        with self._lock:
            for job, digest in zip(spec["jobs"], digests):
                if digest in by_digest:
                    self.results.append((parse_job(job).sim_job(),
                                         canonical(by_digest[digest])))

    def canonical_run(self, run) -> Dict:
        from repro.obs.manifest import aggregate_entry

        return canonical(json.loads(json.dumps(aggregate_entry(run))))

    def _take_failed(self) -> int:
        with self._lock:
            failed, self.failed_jobs = self.failed_jobs, 0
        return failed

    def _server_for(self, tracer) -> _Server:
        return self.traced_server if tracer is not None else self.server

    def counters(self, server: _Server) -> Dict[str, float]:
        """Server-side counters the serve layer metrics are deltas of."""
        from repro.serve.telemetry import sample_value

        status = server.client.status()["metrics"]
        scraped = server.client.metrics()
        return {
            "jobs_cache": status.get("serve.jobs_cache", 0),
            "jobs_simulated": status.get("serve.jobs_simulated", 0),
            "wait_sum": sample_value(
                scraped, "repro_batch_queue_wait_seconds_sum") or 0.0,
            "wait_count": sample_value(
                scraped, "repro_batch_queue_wait_seconds_count") or 0.0,
        }

    def layer_extras(self, spans, ops: int) -> Dict[str, float]:
        delta = {key: self.counters_after[key] - self.counters_before[key]
                 for key in self.counters_after}
        batches = [s for s in spans if s["name"] == "serve.batch"]
        submits = [s["end"] - s["start"] for s in spans
                   if s["name"] == "serve.submit"]
        return {
            "serve.submit_ms": 1e3 * sum(submits) / max(1, len(submits)),
            "serve.exec_ms": 1e3 * sum(s["args"].get("exec_s", 0.0)
                                       for s in batches)
            / max(1, len(batches)),
            "serve.queue_wait_ms": 1e3 * delta["wait_sum"]
            / max(1.0, delta["wait_count"]),
            "serve.jobs_cache": delta["jobs_cache"] / ops,
            "serve.jobs_simulated": delta["jobs_simulated"] / ops,
        }

    def host_reference_s(self) -> float:
        # A server that burned CPU between requests would slow the loop
        # and so scale its own slowdown away: stop it while the loop runs.
        servers = [s for s in (self.server, self.traced_server)
                   if s is not None and s.proc.poll() is None]
        for server in servers:
            server.pause()
        try:
            return host_reference_s()
        finally:
            for server in servers:
                server.resume()

    def peak_rss_mb(self) -> float:
        return self.server.vm_hwm_mb()

    def close(self) -> None:
        for server in (self.server, self.traced_server):
            if server is not None:
                server.stop()


class ServeWarm(ServeWorkload):
    name = "serve-warm"
    rss_after_ops = 100
    ref_every = 5

    def op(self, index: int, tracer=None) -> Op:
        started = time.perf_counter()
        latency = self._batch(self._server_for(tracer), self.warm_spec,
                              "cache", tracer,
                              keep=index == 0 and tracer is None)
        return Op(wall_s=time.perf_counter() - started,
                  jobs=len(self.warm_spec["jobs"]),
                  failed=self._take_failed(), warm_ms=[latency])


class ServeMixed(ServeWorkload):
    name = "serve-mixed"
    rss_after_ops = 10

    def cold_spec(self, index: int) -> Dict:
        return {"tenant": "cold", "jobs": [{
            "model": "HALF+FX",
            "benchmark": WARM_BENCHMARKS[index % len(WARM_BENCHMARKS)],
            "measure": self.p["cold_measure"],
            "warmup": self.p["cold_warmup"],
            # Never the warm set's seed, and new in every batch.
            "seed": (self.seed + 1) * 100_000 + index}]}

    def op(self, index: int, tracer=None) -> Op:
        """The cold client submits a one-job batch; the moment the
        server admits it, the warm client submits the warm batch, which
        then waits behind the simulation.  Arriving at a fixed point of
        the cold batch, instead of at a random one, keeps the queueing
        delay from varying more than the simulation does."""
        server = self._server_for(tracer)
        keep = index == 0 and tracer is None
        admitted = threading.Event()
        warm_ms: List[float] = []

        def warm() -> None:
            admitted.wait()
            warm_ms.append(self._batch(server, self.warm_spec, "cache",
                                       tracer, keep=keep))

        started = time.perf_counter()
        client = threading.Thread(target=warm)
        client.start()
        try:
            cold_ms = self._batch(server, self.cold_spec(index),
                                  "simulated", tracer, keep=keep,
                                  on_admitted=admitted.set)
        finally:
            admitted.set()
            client.join()
        return Op(wall_s=time.perf_counter() - started,
                  jobs=len(self.warm_spec["jobs"]) + 1,
                  failed=self._take_failed(), warm_ms=warm_ms,
                  cold_ms=[cold_ms])


WORKLOADS = {cls.name: cls for cls in
             (Fig7Cold, LongInterval, DseHalving, ServeWarm, ServeMixed)}
