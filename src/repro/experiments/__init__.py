"""Experiment harness: one regenerator per paper table/figure.

Each ``figureN`` module exposes ``run(...)`` returning structured results
and ``format_table(results)`` rendering the same series the paper plots;
``python -m repro.experiments.cli <experiment>`` drives them from the
command line.
"""

from repro.experiments.diskcache import DiskCache
from repro.experiments.pool import (
    JobFailure,
    JobResult,
    JobTimeoutError,
    SimJob,
    SweepAborted,
    run_jobs,
    set_fault_injector,
    split_outcomes,
)
from repro.experiments.runner import (
    BenchmarkRun,
    JobFailedError,
    run_benchmark,
    run_grid,
    failed_runs,
    prefetch,
    geomean,
    set_fault_policy,
    set_jobs,
    set_disk_cache,
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
)

__all__ = [
    "BenchmarkRun",
    "DiskCache",
    "JobFailedError",
    "JobFailure",
    "JobResult",
    "JobTimeoutError",
    "SimJob",
    "SweepAborted",
    "failed_runs",
    "run_benchmark",
    "run_grid",
    "run_jobs",
    "prefetch",
    "geomean",
    "set_fault_injector",
    "set_fault_policy",
    "set_jobs",
    "set_disk_cache",
    "split_outcomes",
    "DEFAULT_MEASURE",
    "DEFAULT_WARMUP",
]
