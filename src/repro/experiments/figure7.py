"""Figure 7: IPC relative to BIG, per benchmark, for all five models.

The paper plots one bar group per SPEC CPU2006 program (INT then FP) for
LITTLE, BIG, BIG+FX, HALF and HALF+FX, plus geometric means for the INT
group, FP group and all programs.  ``run`` returns the same series.

A (model, benchmark) cell whose job was quarantined by the fault-
tolerant sweep is reported as ``None`` and rendered as an explicit gap
(``--``); the geometric means cover only the cells that completed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core import model_config, MODEL_NAMES
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    geomean,
    run_grid,
)
from repro.workloads import FP_BENCHMARKS, INT_BENCHMARKS


def run(
    benchmarks: Optional[Sequence[str]] = None,
    models: Sequence[str] = MODEL_NAMES,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, float]]:
    """Simulate and return {model: {benchmark|mean-label: relative IPC}}.

    Values are IPC relative to BIG on the same benchmark, exactly as the
    figure's y-axis; a quarantined (failed) cell is ``None``.
    """
    benchmarks = list(benchmarks or (INT_BENCHMARKS + FP_BENCHMARKS))
    int_set = [b for b in benchmarks if b in INT_BENCHMARKS]
    fp_set = [b for b in benchmarks if b in FP_BENCHMARKS]
    big = model_config("BIG")
    grid = run_grid([big] + [model_config(m) for m in models], benchmarks,
                    measure, warmup)
    results: Dict[str, Dict[str, Optional[float]]] = {}
    for model in models:
        config = model_config(model)
        rel: Dict[str, Optional[float]] = {}
        for bench in benchmarks:
            run, base = grid[config, bench], grid[big, bench]
            # A quarantined cell, or its baseline, is an explicit gap.
            rel[bench] = (None if run is None or base is None
                          else run.ipc / base.ipc)
        have = [b for b in benchmarks if rel[b] is not None]
        int_have = [b for b in int_set if rel[b] is not None]
        fp_have = [b for b in fp_set if rel[b] is not None]
        if int_set:
            rel["mean(INT)"] = (
                geomean([rel[b] for b in int_have]) if int_have else None
            )
        if fp_set:
            rel["mean(FP)"] = (
                geomean([rel[b] for b in fp_have]) if fp_have else None
            )
        rel["mean"] = geomean([rel[b] for b in have]) if have else None
        results[model] = rel
    return results


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    """Render the figure's series as a text table."""
    models = list(results)
    rows = list(next(iter(results.values())))
    lines = ["Figure 7: IPC relative to BIG",
             f"{'benchmark':14s}" + "".join(f"{m:>10s}" for m in models)]
    for row in rows:
        cells = "".join(
            f"{results[m][row]:10.3f}" if results[m][row] is not None
            else f"{'--':>10s}"
            for m in models
        )
        lines.append(f"{row:14s}{cells}")
    return "\n".join(lines)


def format_chart(results: Dict[str, Dict[str, float]]) -> str:
    """Bar chart of the geometric means (the figure's right-hand bars)."""
    from repro.experiments.textchart import bar_chart

    means = {model: rel["mean"] for model, rel in results.items()
             if rel["mean"] is not None}
    return bar_chart(means, title="Figure 7 (geomean IPC vs BIG)",
                     reference=1.0)

