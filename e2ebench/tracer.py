"""Span tracing for the end-to-end benchmark, installed from outside.

:class:`Tracer` wraps the public entry points of each layer of the
reproduction (trace generation, core build/warm-up/run, energy pricing,
the disk cache, the worker pool and the sweep engines) and records one
span per call: name, start, end, parent span, process, thread, a trace
id (a digest of the job's model, benchmark, intervals and seed below
``runner.simulate``) and a few arguments.  Nothing under ``src/`` knows
about it.

Spans live in memory and are appended to ``<parts_dir>/<pid>.jsonl`` of
the process that made the tracer.  Pool workers are forked while the
parent's ``pool.run_jobs`` span is open, so they inherit the wrappers,
the span stack and the open file; a span whose parent lives in another
process is written as soon as it closes, so each worker writes its
spans as its ``runner.simulate`` span closes, which matters because
pool workers leave through ``os._exit`` and run no exit hooks.
Long-lived processes write at most once a second, when a root span
closes, and through :meth:`Tracer.flush` at the end.

:func:`load_spans`, :func:`self_times`, :func:`layer_metrics` and
:func:`write_perfetto` turn the part files into per-layer numbers and a
Perfetto trace.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Shortest time between two writes of a long-lived process's spans.
FLUSH_INTERVAL_S = 1.0


class Tracer:
    """Records spans in this process and every process forked from it."""

    def __init__(self, parts_dir):
        self.parts_dir = Path(parts_dir)
        self.parts_dir.mkdir(parents=True, exist_ok=True)
        # One append-only file for this process and the workers forked
        # from it: a worker then pays one write per job, not an open.
        self._fd = os.open(self.parts_dir / f"{os.getpid()}.jsonl",
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List = []
        self._reset_process_state()
        os.register_at_fork(after_in_child=self._reset_process_state)

    def _reset_process_state(self) -> None:
        # A forked child must not re-publish spans its parent buffered,
        # and its span ids must not collide with a recycled pid's.
        self._buffer: List[Dict] = []
        # Re-entrant: the traced server flushes from a signal handler.
        self._lock = threading.RLock()
        self._token = os.urandom(4).hex()
        self._flushed = time.perf_counter()

    # -- spans ----------------------------------------------------------

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: Optional[str] = None,
              **args) -> Dict:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": f"{self._token}.{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "parent_pid": parent["pid"] if parent else None,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "name": name,
            "trace": trace or (parent["trace"] if parent else None),
            "args": args,
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def end(self, span: Dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self._buffer.append(span)
        if span["parent_pid"] is None:
            if span["end"] - self._flushed >= FLUSH_INTERVAL_S:
                self.flush()
        elif span["parent_pid"] != span["pid"]:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None, **args):
        """``with tracer.span(...) as span:`` around a block."""
        span = self.begin(name, trace, **args)
        try:
            yield span
        finally:
            self.end(span)

    def flush(self) -> None:
        """Append this process's buffered spans to the part file, in one
        ``O_APPEND`` write so that processes sharing it do not interleave
        lines."""
        with self._lock:
            spans, self._buffer = self._buffer, []
            self._flushed = time.perf_counter()
            data = "".join(json.dumps(s) + "\n" for s in spans).encode()
            while data:
                data = data[os.write(self._fd, data):]

    def wrap(self, name: str, fn, trace_of=None, args_of=None,
             after=None):
        """``fn`` with a span around every call.

        ``trace_of(bound)`` and ``args_of(bound)`` read the call's bound
        arguments; ``after(result, span)`` may note the result on the
        span and returns the value handed back to the caller.
        """
        signature = (inspect.signature(fn)
                     if trace_of is not None or args_of is not None
                     else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            trace, extra = None, {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if trace_of is not None:
                    trace = trace_of(bound.arguments)
                if args_of is not None:
                    extra = args_of(bound.arguments)
            with self.span(name, trace, **extra) as span:
                result = fn(*args, **kwargs)
                return after(result, span) if after is not None else result

        return traced

    # -- installation ---------------------------------------------------

    def _patch_attr(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_function(self, original, wrapped) -> None:
        """Rebind every module-level reference to ``original``, so call
        sites that imported the function by name see the wrapper too."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced entry point until :meth:`uninstall`."""
        from repro.energy.model import EnergyModel
        from repro.experiments import dse, pool, runner
        from repro.experiments.diskcache import DiskCache
        from repro.workloads.generator import TraceGenerator

        def job_digest(a):
            # A digest of the job's key, not its cache fingerprint, which
            # serializes the whole config: a pool worker would pay for
            # that on every job, a few percent of a dse-halving job.
            key = (f"{a['config'].name}/{a['benchmark']}/{a['measure']}/"
                   f"{a['warmup']}/{a['seed']}")
            return hashlib.sha1(key.encode()).hexdigest()[:16]

        def job_args(a):
            return {"model": a["config"].name,
                    "benchmark": a["benchmark"]}

        def traced_core(core, span):
            core.run = self.wrap("core.run", core.run, after=committed)
            return core

        def committed(stats, span):
            span["args"]["committed"] = stats.committed
            return stats

        def cache_hit(run, span):
            span["args"]["hit"] = run is not None
            return run

        def pool_args(a):
            jobs = len(a["jobs"])
            workers = a["workers"]
            return {"jobs": jobs,
                    "workers": 1 if workers <= 1 or jobs == 1
                    else min(workers, jobs)}

        def rung_times(result, span):
            span["args"]["rungs"] = [ended - began for _, began, ended
                                     in result.rung_spans]
            return result

        prefetch = runner.prefetch

        @functools.wraps(prefetch)
        def traced_prefetch(pairs, *args, **kwargs):
            # ``pairs`` may be a one-shot iterable: count it, then pass
            # the materialised list on.
            pairs = list(pairs)
            with self.span("runner.prefetch", jobs=len(pairs)):
                return prefetch(pairs, *args, **kwargs)

        functions = [
            (runner.simulate,
             self.wrap("runner.simulate", runner.simulate,
                       trace_of=job_digest, args_of=job_args)),
            (runner.build_program,
             self.wrap("workloads.build_program", runner.build_program)),
            (runner.build_core,
             self.wrap("core.build", runner.build_core,
                       after=traced_core)),
            (runner.functional_warmup,
             self.wrap("core.warmup", runner.functional_warmup)),
            (pool.run_jobs,
             self.wrap("pool.run_jobs", pool.run_jobs,
                       args_of=pool_args)),
            (prefetch, traced_prefetch),
            (runner.run_sweep,
             self.wrap("runner.run_sweep", runner.run_sweep,
                       args_of=lambda a: {"jobs": len(a["jobs"])})),
            (dse.explore,
             self.wrap("dse.explore", dse.explore, after=rung_times)),
        ]
        for original, wrapped in functions:
            self._patch_function(original, wrapped)
        self._patch_attr(TraceGenerator, "generate", self.wrap(
            "workloads.generate", TraceGenerator.generate))
        self._patch_attr(EnergyModel, "evaluate", self.wrap(
            "energy.evaluate", EnergyModel.evaluate))
        self._patch_attr(DiskCache, "load", self.wrap(
            "diskcache.load", DiskCache.load, after=cache_hit))
        self._patch_attr(DiskCache, "store", self.wrap(
            "diskcache.store", DiskCache.store))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------


def load_spans(parts_dir, since: float = float("-inf")) -> List[Dict]:
    """Every span the part files hold whose root started at ``since`` or
    later (spans of earlier set-up work are dropped with their root)."""
    spans: List[Dict] = []
    for path in sorted(Path(parts_dir).glob("*.jsonl")):
        with open(path) as stream:
            spans.extend(json.loads(line) for line in stream if line.strip())
    by_id = {span["id"]: span for span in spans}

    def root_start(span: Dict) -> float:
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span["start"]

    return [span for span in spans if root_start(span) >= since]


def _union_length(intervals: Iterable) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span id -> duration minus the part of it its children cover
    (children in other processes overlap, so covered time is a union)."""
    children: Dict[str, List] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union_length(
            (max(start, c["start"]), min(end, c["end"]))
            for c in children[span["id"]] if c["end"] > start
            and c["start"] < end)
        result[span["id"]] = (end - start) - covered
    return result


#: Per-layer metrics and their units; the prefix names the layer.
#: Values are per traced operation, except ratios, rates and the
#: ``serve.*_ms`` times, which are per batch.  A ``*_share`` is the
#: layer's time as a share of pool worker time (Σ ``pool.run_jobs``
#: wall × workers), the rest of which is ``pool.busy_frac``'s
#: complement (fork, result hand-back, idle slots) and small layers.
LAYER_UNITS = {
    "workloads.trace_s": "s",
    "workloads.trace_share": "ratio",
    "workloads.traces_generated": "count",
    "workloads.trace_reuse": "ratio",
    "core.build_s": "s",
    "core.build_share": "ratio",
    "core.warmup_s": "s",
    "core.warmup_share": "ratio",
    "core.simulate_s": "s",
    "core.simulate_share": "ratio",
    "core.sim_insts_per_s": "1/s",
    "core.cores_built": "count",
    "energy.evaluate_s": "s",
    "diskcache.load_s": "s",
    "diskcache.store_s": "s",
    "diskcache.loads": "count",
    "diskcache.stores": "count",
    "diskcache.hit_ratio": "ratio",
    "pool.jobs_run": "count",
    "pool.busy_frac": "ratio",
    "pool.overhead_ms_per_job": "ms",
    "runner.sweep_s": "s",
    "runner.jobs_deduped": "count",
    "dse.rung0_s": "s",
    "dse.rung1_s": "s",
    # Measured by the client of the serve workloads, not by wrappers.
    "serve.submit_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.jobs_cache": "count",
    "serve.jobs_simulated": "count",
    "trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Dict], ops: int) -> Dict[str, float]:
    """The per-layer numbers of :data:`LAYER_UNITS` from merged spans,
    divided by ``ops`` (the number of traced operations)."""
    by_name: Dict[str, List[Dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def count(name: str) -> int:
        return len(by_name[name])

    loads = by_name["diskcache.load"]
    jobs = by_name["runner.simulate"]
    job_seconds = {s["parent"]: 0.0 for s in jobs}
    for span in jobs:
        job_seconds[span["parent"]] += span["end"] - span["start"]
    slot_seconds = sum((s["end"] - s["start"]) * s["args"]["workers"]
                       for s in by_name["pool.run_jobs"])
    pool_jobs = sum(s["args"]["jobs"] for s in by_name["pool.run_jobs"])
    busy = sum(job_seconds.get(s["id"], 0.0)
               for s in by_name["pool.run_jobs"])
    sweep_jobs = sum(s["args"]["jobs"] for n in ("runner.prefetch",
                                                 "runner.run_sweep")
                     for s in by_name[n])
    rungs = [0.0, 0.0]
    for span in by_name["dse.explore"]:
        for index, seconds in enumerate(span["args"]["rungs"][:2]):
            rungs[index] += seconds
    per_op = {
        "workloads.trace_s": total("workloads.build_program",
                                   "workloads.generate"),
        "workloads.traces_generated": count("workloads.build_program"),
        "core.build_s": total("core.build"),
        "core.warmup_s": total("core.warmup"),
        "core.simulate_s": total("core.run"),
        "core.cores_built": count("core.build"),
        "energy.evaluate_s": total("energy.evaluate"),
        "diskcache.load_s": total("diskcache.load"),
        "diskcache.store_s": total("diskcache.store"),
        "diskcache.loads": len(loads),
        "diskcache.stores": count("diskcache.store"),
        "pool.jobs_run": pool_jobs,
        "runner.sweep_s": total("runner.prefetch", "runner.run_sweep"),
        "runner.jobs_deduped": sweep_jobs - pool_jobs,
        "dse.rung0_s": rungs[0],
        "dse.rung1_s": rungs[1],
    }
    metrics = {name: value / ops for name, value in per_op.items()}
    for name in ("workloads.trace", "core.build", "core.warmup",
                 "core.simulate"):
        metrics[f"{name}_share"] = _ratio(per_op[f"{name}_s"],
                                          slot_seconds)
    metrics["workloads.trace_reuse"] = _ratio(
        len(jobs), count("workloads.build_program"))
    metrics["core.sim_insts_per_s"] = _ratio(
        sum(s["args"].get("committed", 0) for s in by_name["core.run"]),
        total("core.run"))
    metrics["diskcache.hit_ratio"] = _ratio(
        sum(1 for s in loads if s["args"].get("hit")), len(loads))
    metrics["pool.busy_frac"] = _ratio(busy, slot_seconds)
    metrics["pool.overhead_ms_per_job"] = _ratio(
        (slot_seconds - busy) * 1e3, pool_jobs)
    return metrics


def write_perfetto(spans: List[Dict], path) -> None:
    """Render spans as a Perfetto / Chrome trace-event JSON file, one
    process row per OS process, self time in each span's args."""
    from repro.obs.traceevent import TraceEventWriter

    writer = TraceEventWriter()
    selfs = self_times(spans)
    origin = min((s["start"] for s in spans), default=0.0)
    rows: Dict[int, int] = {}
    for span in sorted(spans, key=lambda s: s["start"]):
        if span["pid"] not in rows:
            rows[span["pid"]] = writer.process_row(f"pid {span['pid']}")
        writer.add_span(
            span["name"], (span["start"] - origin) * 1e6,
            (span["end"] - span["start"]) * 1e6, pid=rows[span["pid"]],
            tid=span["tid"] % 1_000_000,
            args=dict(span["args"], trace_id=span["trace"],
                      span_id=span["id"], parent=span["parent"],
                      self_us=selfs[span["id"]] * 1e6))
    writer.write(str(path))
