"""Figure 8: energy consumption relative to BIG.

8a stacks per-component energy (IQ, LSQ, (P)RF, RAT, IXU, FUs, OTHERS,
FPU, Decoder, L1D, L1I, L2) for each model, normalised to BIG's total.
8b isolates the FUs and bypass networks, split into OXU/IXU dynamic and
static energy.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core import model_config, MODEL_NAMES
from repro.energy import Component
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    run_grid,
)
from repro.workloads import ALL_BENCHMARKS


def run(
    benchmarks: Optional[Sequence[str]] = None,
    models: Sequence[str] = MODEL_NAMES,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, Dict]:
    """Return both panels.

    ``figure8a``: {model: {component-name: energy relative to BIG's
    whole-processor total}} — stacking the components of one model gives
    its bar height.
    ``figure8b``: {model: {"oxu_dynamic", "oxu_static", "ixu_dynamic",
    "ixu_static"}} relative to BIG's FUs+bypass total.
    """
    configs = [model_config(m) for m in models]
    grid = run_grid(configs, benchmarks or ALL_BENCHMARKS, measure, warmup)
    # Stacked sums must cover the same programs for every model, so a
    # benchmark any model's job was quarantined on is dropped whole.
    benchmarks = grid.complete()
    sums: Dict[str, Dict[Component, Dict[str, float]]] = {}
    for model, config in zip(models, configs):
        acc = {c: {"dynamic": 0.0, "static": 0.0} for c in Component}
        for bench in benchmarks:
            breakdown = grid[config, bench].energy
            for component in Component:
                acc[component]["dynamic"] += breakdown.dynamic.get(
                    component, 0.0)
                acc[component]["static"] += breakdown.static.get(
                    component, 0.0)
        sums[model] = acc

    big_total = sum(
        v["dynamic"] + v["static"] for v in sums["BIG"].values()
    )
    figure8a = {
        model: {
            component.value:
                (acc[component]["dynamic"] + acc[component]["static"])
                / big_total
            for component in Component
        }
        for model, acc in sums.items()
    }

    def eu(acc, kind):
        return acc[Component.FUS][kind], acc[Component.IXU][kind]

    big_eu_total = sum(eu(sums["BIG"], "dynamic")) + sum(
        eu(sums["BIG"], "static"))
    figure8b = {}
    for model, acc in sums.items():
        oxu_dyn, ixu_dyn = eu(acc, "dynamic")
        oxu_st, ixu_st = eu(acc, "static")
        figure8b[model] = {
            "oxu_dynamic": oxu_dyn / big_eu_total,
            "oxu_static": oxu_st / big_eu_total,
            "ixu_dynamic": ixu_dyn / big_eu_total,
            "ixu_static": ixu_st / big_eu_total,
        }
    return {"figure8a": figure8a, "figure8b": figure8b}


def format_table(results: Dict[str, Dict]) -> str:
    lines = ["Figure 8a: energy relative to BIG (per component)"]
    figure8a = results["figure8a"]
    models = list(figure8a)
    components = list(next(iter(figure8a.values())))
    lines.append(f"{'component':10s}"
                 + "".join(f"{m:>10s}" for m in models))
    for component in components:
        cells = "".join(f"{figure8a[m][component]:10.3f}" for m in models)
        lines.append(f"{component:10s}{cells}")
    totals = "".join(
        f"{sum(figure8a[m].values()):10.3f}" for m in models
    )
    lines.append(f"{'TOTAL':10s}{totals}")
    lines.append("")
    lines.append("Figure 8b: FUs+bypass energy relative to BIG")
    figure8b = results["figure8b"]
    parts = ("oxu_dynamic", "oxu_static", "ixu_dynamic", "ixu_static")
    lines.append(f"{'part':12s}" + "".join(f"{m:>10s}" for m in models))
    for part in parts:
        cells = "".join(f"{figure8b[m][part]:10.3f}" for m in models)
        lines.append(f"{part:12s}{cells}")
    totals = "".join(
        f"{sum(figure8b[m].values()):10.3f}" for m in models
    )
    lines.append(f"{'TOTAL':12s}{totals}")
    return "\n".join(lines)

