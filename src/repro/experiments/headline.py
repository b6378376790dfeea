"""Headline scalar claims (abstract / Section VI-I).

Collects in one place every number the paper's abstract quotes so
EXPERIMENTS.md can record paper-vs-measured:

* HALF+FX vs BIG: IPC +5.7 % (INT +7.4 %, max +67 % on libquantum),
  energy −17 %, IQ energy −86 %, LSQ energy −23 %, PER +25 %.
* HALF+FX vs LITTLE: PER +27 %.
* HALF vs BIG: IPC −16 %.  LITTLE vs BIG: IPC −40 %, energy 60 %.
* BIG+FX vs HALF+FX: IPC +1.8 %.
* IXU executes 54 % of instructions (61 % INT / 51 % FP); 35 % with a
  1-stage IXU; category (a) ≈ 5.5 %.
* HALF+FX area growth +2.7 %.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core import model_config
from repro.energy import AreaModel, Component
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    geomean,
    run_grid,
)
from repro.workloads import FP_BENCHMARKS, INT_BENCHMARKS


def run(
    benchmarks: Optional[Sequence[str]] = None,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, float]:
    """Compute every headline scalar; returns {claim: measured value}.

    Aggregates cover the benchmarks every model completed; programs any
    model's job was quarantined on are dropped (the sweep's explicit
    gaps) rather than crashing the table.
    """
    models = ("BIG", "HALF", "LITTLE", "HALF+FX", "BIG+FX")
    configs = [model_config(m) for m in models]
    grid = run_grid(configs, benchmarks or (INT_BENCHMARKS + FP_BENCHMARKS),
                    measure, warmup)
    benchmarks = grid.complete()
    int_set = [b for b in benchmarks if b in INT_BENCHMARKS]
    fp_set = [b for b in benchmarks if b in FP_BENCHMARKS]
    runs = {
        model: {bench: grid[config, bench] for bench in benchmarks}
        for model, config in zip(models, configs)
    }

    def rel_ipc(model, subset):
        return geomean([
            runs[model][b].ipc / runs["BIG"][b].ipc for b in subset
        ])

    def energy_total(model):
        return sum(r.total_energy for r in runs[model].values())

    def component(model, comp):
        return sum(
            r.energy.component_total(comp) for r in runs[model].values()
        )

    def rel_per(model, subset):
        return geomean([
            runs[model][b].per / runs["BIG"][b].per for b in subset
        ])

    hfx = runs["HALF+FX"]
    committed = sum(r.stats.committed for r in hfx.values())
    ixu_rate_all = geomean([
        max(r.stats.ixu_executed_rate, 1e-9) for r in hfx.values()
    ])
    ixu_rate_int = geomean([
        max(hfx[b].stats.ixu_executed_rate, 1e-9) for b in int_set
    ]) if int_set else 0.0
    ixu_rate_fp = geomean([
        max(hfx[b].stats.ixu_executed_rate, 1e-9) for b in fp_set
    ]) if fp_set else 0.0
    category_a = sum(
        r.stats.ixu_category_a for r in hfx.values()
    ) / max(1, committed)

    area_big = AreaModel(model_config("BIG")).total()
    area_hfx = AreaModel(model_config("HALF+FX")).total()

    libquantum_gain = (
        runs["HALF+FX"]["libquantum"].ipc / runs["BIG"]["libquantum"].ipc
        if "libquantum" in runs["HALF+FX"] else float("nan")
    )

    return {
        "halffx_ipc_vs_big_all": rel_ipc("HALF+FX", benchmarks),
        "halffx_ipc_vs_big_int": (
            rel_ipc("HALF+FX", int_set) if int_set else float("nan")
        ),
        "halffx_ipc_vs_big_libquantum": libquantum_gain,
        "half_ipc_vs_big": rel_ipc("HALF", benchmarks),
        "little_ipc_vs_big": rel_ipc("LITTLE", benchmarks),
        "bigfx_ipc_vs_halffx": (
            rel_ipc("BIG+FX", benchmarks)
            / rel_ipc("HALF+FX", benchmarks)
        ),
        "halffx_energy_vs_big": (
            energy_total("HALF+FX") / energy_total("BIG")
        ),
        "little_energy_vs_big": (
            energy_total("LITTLE") / energy_total("BIG")
        ),
        "halffx_iq_energy_vs_big": (
            component("HALF+FX", Component.IQ)
            / component("BIG", Component.IQ)
        ),
        "halffx_lsq_energy_vs_big": (
            component("HALF+FX", Component.LSQ)
            / component("BIG", Component.LSQ)
        ),
        "halffx_per_vs_big": rel_per("HALF+FX", benchmarks),
        "halffx_per_vs_little": (
            rel_per("HALF+FX", benchmarks)
            / rel_per("LITTLE", benchmarks)
        ),
        "ixu_executed_rate_all": ixu_rate_all,
        "ixu_executed_rate_int": ixu_rate_int,
        "ixu_executed_rate_fp": ixu_rate_fp,
        "ixu_category_a_rate": category_a,
        "halffx_area_growth": area_hfx / area_big - 1.0,
    }


#: What the paper reports, keyed like run()'s output.
PAPER_VALUES = {
    "halffx_ipc_vs_big_all": 1.057,
    "halffx_ipc_vs_big_int": 1.074,
    "halffx_ipc_vs_big_libquantum": 1.67,
    "half_ipc_vs_big": 0.84,
    "little_ipc_vs_big": 0.60,
    "bigfx_ipc_vs_halffx": 1.018,
    "halffx_energy_vs_big": 0.83,
    "little_energy_vs_big": 0.60,
    "halffx_iq_energy_vs_big": 0.14,
    "halffx_lsq_energy_vs_big": 0.77,
    "halffx_per_vs_big": 1.25,
    "halffx_per_vs_little": 1.27,
    "ixu_executed_rate_all": 0.54,
    "ixu_executed_rate_int": 0.61,
    "ixu_executed_rate_fp": 0.51,
    "ixu_category_a_rate": 0.055,
    "halffx_area_growth": 0.027,
}


def format_table(results: Dict[str, float]) -> str:
    lines = ["Headline claims: paper vs measured",
             f"{'claim':34s}{'paper':>10s}{'measured':>10s}"]
    for claim, measured in results.items():
        paper = PAPER_VALUES.get(claim, float("nan"))
        lines.append(f"{claim:34s}{paper:10.3f}{measured:10.3f}")
    return "\n".join(lines)

