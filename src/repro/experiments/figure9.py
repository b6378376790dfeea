"""Figure 9: circuit area relative to BIG.

9a shows whole-processor areas per model; 9b zooms into the small units
(L1I, FUs, RAT, IXU, (P)RF, LSQ, IQ).  Purely analytical — no simulation.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core import model_config, MODEL_NAMES
from repro.energy import AreaModel, Component

#: The units Figure 9b zooms into.
ZOOM_COMPONENTS = (
    Component.L1I, Component.FUS, Component.RAT, Component.IXU,
    Component.PRF, Component.LSQ, Component.IQ,
)


def run(models: Sequence[str] = MODEL_NAMES) -> Dict[str, Dict]:
    """Return per-model component areas relative to BIG's total."""
    big_total = AreaModel(model_config("BIG")).total()
    figure9a = {}
    figure9b = {}
    for model in models:
        breakdown = AreaModel(model_config(model)).breakdown()
        figure9a[model] = {
            component.value: area / big_total
            for component, area in breakdown.items()
        }
        figure9b[model] = {
            component.value: breakdown[component] / big_total
            for component in ZOOM_COMPONENTS
        }
    return {"figure9a": figure9a, "figure9b": figure9b}


def format_table(results: Dict[str, Dict]) -> str:
    lines = ["Figure 9a: area relative to BIG (whole processor)"]
    figure9a = results["figure9a"]
    models = list(figure9a)
    components = list(next(iter(figure9a.values())))
    lines.append(f"{'component':10s}"
                 + "".join(f"{m:>10s}" for m in models))
    for component in components:
        cells = "".join(f"{figure9a[m][component]:10.4f}"
                        for m in models)
        lines.append(f"{component:10s}{cells}")
    totals = "".join(
        f"{sum(figure9a[m].values()):10.4f}" for m in models
    )
    lines.append(f"{'TOTAL':10s}{totals}")
    lines.append("")
    lines.append("Figure 9b: area relative to BIG (FUs to IQ zoom)")
    figure9b = results["figure9b"]
    lines.append(f"{'component':10s}"
                 + "".join(f"{m:>10s}" for m in models))
    for component in next(iter(figure9b.values())):
        cells = "".join(f"{figure9b[m][component]:10.4f}"
                        for m in models)
        lines.append(f"{component:10s}{cells}")
    return "\n".join(lines)

