"""Figure 10: performance/energy ratio (the inverse of EDP) vs BIG.

The paper reports PER relative to BIG for the INT group, FP group and
all programs.  PER = 1/EDP = 1/(energy × delay); for a fixed instruction
count this is IPC_rel / Energy_rel.
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
    """Return {model: {"INT"|"FP"|"ALL": PER relative to BIG}}."""
    big = model_config("BIG")
    grid = run_grid([big] + [model_config(m) for m in models],
                    benchmarks or (INT_BENCHMARKS + FP_BENCHMARKS),
                    measure, warmup)
    # Group geomeans need every model on every program: drop benchmarks
    # with quarantined jobs (the sweep's explicit gaps).
    benchmarks = grid.complete()
    int_set = [b for b in benchmarks if b in INT_BENCHMARKS]
    fp_set = [b for b in benchmarks if b in FP_BENCHMARKS]
    results: Dict[str, Dict[str, float]] = {}
    for model in models:
        config = model_config(model)
        rel_per = {
            bench: grid[config, bench].per / grid[big, bench].per
            for bench in benchmarks
        }
        entry = {}
        if int_set:
            entry["INT"] = geomean([rel_per[b] for b in int_set])
        if fp_set:
            entry["FP"] = geomean([rel_per[b] for b in fp_set])
        entry["ALL"] = geomean([rel_per[b] for b in benchmarks])
        results[model] = entry
    return results


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    models = list(results)
    groups = list(next(iter(results.values())))
    lines = ["Figure 10: performance/energy ratio relative to BIG",
             f"{'group':6s}" + "".join(f"{m:>10s}" for m in models)]
    for group in groups:
        cells = "".join(f"{results[m][group]:10.3f}" for m in models)
        lines.append(f"{group:6s}{cells}")
    return "\n".join(lines)


def format_chart(results: Dict[str, Dict[str, float]]) -> str:
    """Bar chart of the ALL-group PER (the figure's headline bars)."""
    from repro.experiments.textchart import bar_chart

    values = {model: row["ALL"] for model, row in results.items()}
    return bar_chart(values, title="Figure 10 (PER vs BIG)",
                     reference=1.0)

