"""RENO combination study (paper Section VII-C).

RENO eliminates register moves at rename; the paper notes it is
orthogonal to FXA ("this optimization can be implemented in FXA, and
improved results can be achieved by combining them").  This experiment
measures all four corners: baseline, +RENO, FXA, FXA+RENO.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.core import model_config
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
    """Return {corner: {"ipc", "energy", "eliminated_per_kinst"}}."""
    corners = {
        "BIG": model_config("BIG"),
        "BIG+RENO": replace(model_config("BIG"), name="BIG+RENO",
                            move_elimination=True),
        "HALF+FX": model_config("HALF+FX"),
        "HALF+FX+RENO": replace(model_config("HALF+FX"),
                                name="HALF+FX+RENO",
                                move_elimination=True),
    }
    grid = run_grid(corners.values(), benchmarks or ALL_BENCHMARKS,
                    measure, warmup)
    # Cross-corner sums/geomeans: drop benchmarks with quarantined jobs.
    benchmarks = grid.complete()
    base = {bench: grid[corners["BIG"], bench] for bench in benchmarks}
    base_energy = sum(r.total_energy for r in base.values())
    results: Dict[str, Dict[str, float]] = {}
    for label, config in corners.items():
        runs = [grid[config, bench] for bench in benchmarks]
        committed = sum(r.stats.committed for r in runs)
        eliminated = sum(
            r.stats.events.moves_eliminated for r in runs
        )
        results[label] = {
            "ipc": geomean([
                r.ipc / base[r.benchmark].ipc for r in runs
            ]),
            "energy": (sum(r.total_energy for r in runs)
                       / base_energy),
            "eliminated_per_kinst": 1000.0 * eliminated
            / max(1, committed),
        }
    return results


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["RENO combination (Section VII-C)",
             f"{'corner':14s}{'IPC':>8s}{'energy':>8s}{'elim/kI':>9s}"]
    for label, row in results.items():
        lines.append(
            f"{label:14s}{row['ipc']:8.3f}{row['energy']:8.3f}"
            f"{row['eliminated_per_kinst']:9.1f}"
        )
    return "\n".join(lines)

