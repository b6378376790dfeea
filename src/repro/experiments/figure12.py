"""Figure 12: fraction of instructions executed in the IXU vs its depth.

HALF+FX with the IXU depth swept from 1 to 6 stages (3 FUs per stage,
full bypass — Section VI-H2 disables the Section III-A2 optimisation).
The paper reads 35 % at one stage and 54 % at three (61 % INT / 51 % FP).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.core import IXUConfig
from repro.core.presets import half_fx_config
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    geomean,
    run_grid,
)
from repro.workloads import FP_BENCHMARKS, INT_BENCHMARKS

DEPTHS = (1, 2, 3, 4, 5, 6)


def depth_config(depth: int):
    """HALF+FX with an unoptimised depth-stage IXU."""
    ixu = IXUConfig(stage_fus=(3,) * depth, bypass_stage_limit=None)
    return replace(half_fx_config(ixu), name=f"HALF+FX/depth{depth}")


def run(
    benchmarks: Optional[Sequence[str]] = None,
    depths: Sequence[int] = DEPTHS,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, Dict[int, float]]:
    """Return {"INT"|"FP"|"ALL": {depth: executed-in-IXU rate}}."""
    configs = [depth_config(d) for d in depths]
    grid = run_grid(configs, benchmarks or (INT_BENCHMARKS + FP_BENCHMARKS),
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
        rates = {
            bench: grid[config, bench].stats.ixu_executed_rate
            for bench in benchmarks
        }
        if int_set:
            results["INT"][depth] = geomean(
                [max(rates[b], 1e-9) for b in int_set]
            )
        if fp_set:
            results["FP"][depth] = geomean(
                [max(rates[b], 1e-9) for b in fp_set]
            )
        results["ALL"][depth] = geomean(
            [max(rates[b], 1e-9) for b in benchmarks]
        )
    return results


def format_table(results: Dict[str, Dict[int, float]]) -> str:
    depths = sorted(results["ALL"])
    lines = ["Figure 12: executed-instructions rate in the IXU",
             f"{'depth':6s}" + "".join(f"{d:>8d}" for d in depths)]
    for group in ("INT", "ALL", "FP"):
        if not results.get(group):
            continue
        cells = "".join(f"{results[group][d]:8.3f}" for d in depths)
        lines.append(f"{group:6s}{cells}")
    return "\n".join(lines)


def format_chart(results: Dict[str, Dict[int, float]]) -> str:
    """Line-table of the executed-rate series."""
    from repro.experiments.textchart import series_chart

    return series_chart(results, title="Figure 12 (IXU executed rate)")

