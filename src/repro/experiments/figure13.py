"""Figure 13: IPC relative to BIG versus IXU depth (1-6 stages).

Companion to Figure 12: the IPC of HALF+FX rises with IXU depth and
saturates past three stages (<1 % per extra stage, Section VI-H2).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core import model_config
from repro.experiments.figure12 import DEPTHS, depth_config
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    geomean,
    run_grid,
)
from repro.workloads import FP_BENCHMARKS, INT_BENCHMARKS


def run(
    benchmarks: Optional[Sequence[str]] = None,
    depths: Sequence[int] = DEPTHS,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, Dict[int, float]]:
    """Return {"INT"|"FP"|"ALL": {depth: IPC relative to BIG}}."""
    big = model_config("BIG")
    configs = [depth_config(d) for d in depths]
    grid = run_grid([big] + configs,
                    benchmarks or (INT_BENCHMARKS + FP_BENCHMARKS),
                    measure, warmup)
    # Depth-series geomeans need every depth on every program: drop
    # benchmarks with quarantined jobs (the sweep's explicit gaps).
    benchmarks = grid.complete()
    int_set = [b for b in benchmarks if b in INT_BENCHMARKS]
    fp_set = [b for b in benchmarks if b in FP_BENCHMARKS]
    results: Dict[str, Dict[int, float]] = {
        "INT": {}, "FP": {}, "ALL": {}
    }
    for depth, config in zip(depths, configs):
        rel = {
            bench: grid[config, bench].ipc / grid[big, bench].ipc
            for bench in benchmarks
        }
        if int_set:
            results["INT"][depth] = geomean([rel[b] for b in int_set])
        if fp_set:
            results["FP"][depth] = geomean([rel[b] for b in fp_set])
        results["ALL"][depth] = geomean(list(rel.values()))
    return results


def format_table(results: Dict[str, Dict[int, float]]) -> str:
    depths = sorted(results["ALL"])
    lines = ["Figure 13: IPC relative to BIG vs IXU depth",
             f"{'depth':6s}" + "".join(f"{d:>8d}" for d in depths)]
    for group in ("INT", "ALL", "FP"):
        if not results.get(group):
            continue
        cells = "".join(f"{results[group][d]:8.3f}" for d in depths)
        lines.append(f"{group:6s}{cells}")
    return "\n".join(lines)


def format_chart(results: Dict[str, Dict[int, float]]) -> str:
    """Line-table of the relative-IPC series."""
    from repro.experiments.textchart import series_chart

    return series_chart(results, title="Figure 13 (IPC vs BIG)")

