"""Figure 11: IPC versus IXU FU configuration, full vs opt bypass.

The paper sweeps HALF+FX's IXU FU arrangement and normalises IPC to the
[3,3,3] configuration with the full bypass network.  "opt" omits operand
bypassing between FUs more than two stages apart (Section III-A2); the
headline observation is that [3,1,1]/opt loses only ~0.5 %.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from repro.core import IXUConfig
from repro.core.presets import half_fx_config
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    geomean,
    run_grid,
)
from repro.workloads import ALL_BENCHMARKS

#: FU arrangements on the figure's x-axis.
SWEEP: Tuple[Tuple[int, ...], ...] = (
    (3, 3, 3), (3, 3, 1), (3, 2, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1),
)


def _config(stage_fus: Tuple[int, ...], full_bypass: bool):
    ixu = IXUConfig(
        stage_fus=stage_fus,
        bypass_stage_limit=None if full_bypass else 2,
    )
    label = "full" if full_bypass else "opt"
    config = half_fx_config(ixu)
    return replace(config, name=f"HALF+FX{list(stage_fus)}/{label}")


def run(
    benchmarks: Optional[Sequence[str]] = None,
    sweep: Sequence[Tuple[int, ...]] = SWEEP,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, float]]:
    """Return {"full"|"opt": {"[3, 3, 3]": relative IPC, ...}}.

    Values are geometric-mean IPC over the benchmarks, relative to
    [3,3,3] with the full bypass network.
    """
    sweep = tuple(sweep)
    configs = [_config((3, 3, 3), True)]
    for stage_fus in sweep:
        configs.append(_config(stage_fus, True))
        configs.append(_config(stage_fus, False))
    grid = run_grid(configs, benchmarks or ALL_BENCHMARKS, measure, warmup)
    # Relative-IPC geomeans need every sweep point on every program:
    # drop benchmarks with quarantined jobs (the sweep's explicit gaps).
    benchmarks = grid.complete()

    def mean_ipc(config) -> float:
        return geomean([grid[config, bench].ipc for bench in benchmarks])

    baseline = mean_ipc(_config((3, 3, 3), full_bypass=True))
    results: Dict[str, Dict[str, float]] = {"full": {}, "opt": {}}
    for stage_fus in sweep:
        key = str(list(stage_fus))
        results["full"][key] = (
            mean_ipc(_config(stage_fus, True)) / baseline
        )
        results["opt"][key] = (
            mean_ipc(_config(stage_fus, False)) / baseline
        )
    return results


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    configs = list(results["full"])
    lines = ["Figure 11: IPC relative to [3,3,3]/full",
             f"{'IXU config':12s}{'full':>8s}{'opt':>8s}"]
    for config in configs:
        lines.append(
            f"{config:12s}{results['full'][config]:8.3f}"
            f"{results['opt'][config]:8.3f}"
        )
    return "\n".join(lines)

