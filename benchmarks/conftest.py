"""Shared settings for the per-figure benchmark harness.

Every test regenerates one of the paper's tables/figures end-to-end on a
reduced workload set (full 29-benchmark runs belong to
``fxa-experiments``, the CLI).  Each regeneration runs exactly once via
``benchmark.pedantic`` — the run memoisation inside the harness would
otherwise make later rounds free and the timing meaningless.
"""

import pytest

from repro.experiments import runner
from repro.experiments.runner import clear_cache

#: Reduced workload set covering INT / FP / memory-bound behaviour.
BENCH_SUBSET = ["hmmer", "libquantum", "mcf", "lbm"]
#: Small simulated interval for benchmarking the harness itself.
MEASURE = 1_000
WARMUP = 4_000


@pytest.fixture(autouse=True)
def _fresh_run_cache():
    """Each benchmark times real simulation work, not cache hits.

    ``clear_cache`` keeps the per-process trace memo, so it is dropped
    here too: otherwise every figure after the first would skip trace
    generation, the largest share of a cold job.
    """
    clear_cache()
    runner._TRACE_MEMO.clear()
    yield
    clear_cache()
    runner._TRACE_MEMO.clear()


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
