"""Related-work comparison (paper Section VII).

Section VII argues FXA beats the alternatives qualitatively:

* VII-A — clustered architectures need inter-cluster bypassing/wakeup
  and careful steering; FXA's serial IXU/OXU placement needs neither.
  We compare BIG, CA with dependence steering, CA with naive round-robin
  steering, and HALF+FX.
* VII-B — Forwardflow / Half-Price reduce IQ energy per access; FXA
  instead removes accesses.  The energy model's ``iq_style`` knob prices
  those designs so the combination (paper: "energy consumption is
  reduced further if they are combined") can be measured.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.core import model_config
from repro.core.presets import ca_config
from repro.energy import Component
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    geomean,
    run_grid,
)
from repro.workloads import ALL_BENCHMARKS


def run(
    benchmarks: Optional[Sequence[str]] = None,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, float]]:
    """Compare BIG / CA variants / HALF+FX.

    Returns {model-label: {"ipc": rel IPC, "energy": rel energy,
    "eu_energy": rel FUs+IXU energy, "xforwards": inter-cluster
    forwards per kilo-instruction}}.
    """
    configs = {
        "BIG": model_config("BIG"),
        "CA/dependence": ca_config("dependence"),
        "CA/roundrobin": replace(ca_config("roundrobin"),
                                 name="CA-rr"),
        "HALF+FX": model_config("HALF+FX"),
    }
    grid = run_grid(configs.values(), benchmarks or ALL_BENCHMARKS,
                    measure, warmup)
    # Cross-model sums/geomeans: drop benchmarks with quarantined jobs.
    benchmarks = grid.complete()
    base_runs = {bench: grid[configs["BIG"], bench] for bench in benchmarks}
    base_energy = sum(r.total_energy for r in base_runs.values())
    base_eu = sum(
        r.energy.component_total(Component.FUS)
        + r.energy.component_total(Component.IXU)
        for r in base_runs.values()
    )
    results: Dict[str, Dict[str, float]] = {}
    for label, config in configs.items():
        runs = [grid[config, bench] for bench in benchmarks]
        rel_ipc = geomean([
            r.ipc / base_runs[r.benchmark].ipc for r in runs
        ])
        energy = sum(r.total_energy for r in runs)
        eu_energy = sum(
            r.energy.component_total(Component.FUS)
            + r.energy.component_total(Component.IXU)
            for r in runs
        )
        forwards = sum(
            r.stats.events.intercluster_forwards for r in runs
        )
        committed = sum(r.stats.committed for r in runs)
        results[label] = {
            "ipc": rel_ipc,
            "energy": energy / base_energy,
            "eu_energy": eu_energy / base_eu,
            "xforwards": 1000.0 * forwards / max(1, committed),
        }
    return results


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["Related work (Section VII-A): FXA vs clustering",
             f"{'model':14s}{'IPC':>8s}{'energy':>8s}"
             f"{'EU energy':>10s}{'xfwd/kI':>9s}"]
    for label, row in results.items():
        lines.append(
            f"{label:14s}{row['ipc']:8.3f}{row['energy']:8.3f}"
            f"{row['eu_energy']:10.3f}{row['xforwards']:9.2f}"
        )
    return "\n".join(lines)

