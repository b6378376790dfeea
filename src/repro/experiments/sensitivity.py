"""Sensitivity study: shrinking the IQ with and without the IXU.

The paper's core claim is that the IXU lets the OXU shrink "to the degree
at which performance is not significantly decreased" (Section IV-B1):
HALF loses 16 % of BIG's IPC, HALF+FX loses none.  This ablation sweeps
the IQ capacity/width jointly and reports, per size, the relative IPC and
IQ energy with and without the IXU — making the trade the paper's Figures
7/8 summarise visible across the whole design range.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from repro.core import model_config
from repro.core.presets import PAPER_IXU, big_config
from repro.energy import Component
from repro.experiments.runner import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    geomean,
    run_grid,
)
from repro.workloads import ALL_BENCHMARKS

#: (IQ entries, issue width) sweep points; (64, 4) is BIG.
IQ_SWEEP: Tuple[Tuple[int, int], ...] = (
    (64, 4), (48, 3), (32, 2), (16, 2), (8, 2),
)


def _config(iq_entries: int, issue_width: int, with_ixu: bool):
    # commit width stays at BIG's (the presets keep it too): the sweep
    # varies only the scheduling window, as in the HALF comparison.
    base = replace(
        big_config(),
        iq_entries=iq_entries,
        issue_width=issue_width,
    )
    if with_ixu:
        return replace(base, ixu=PAPER_IXU,
                       name=f"FX/iq{iq_entries}w{issue_width}")
    return replace(base, name=f"OoO/iq{iq_entries}w{issue_width}")


def run(
    benchmarks: Optional[Sequence[str]] = None,
    sweep: Sequence[Tuple[int, int]] = IQ_SWEEP,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Return {"without_ixu"|"with_ixu": {"64x4": {"ipc", "iq_energy"}}}.

    IPC and IQ energy are relative to BIG (= the 64x4 point without an
    IXU).
    """
    sweep = tuple(sweep)
    if not sweep:
        raise ValueError(
            "sensitivity sweep needs at least one (iq_entries, "
            "issue_width) point")
    big = model_config("BIG")
    configs = [big]
    for entries, width in sweep:
        configs.append(_config(entries, width, False))
        configs.append(_config(entries, width, True))
    grid = run_grid(configs, benchmarks or ALL_BENCHMARKS, measure, warmup)
    # The sweep compares sums/geomeans across points, so a benchmark any
    # point's job was quarantined on is dropped whole (explicit gap).
    benchmarks = grid.complete()
    base_runs = {bench: grid[big, bench] for bench in benchmarks}
    base_iq_energy = sum(
        r.energy.component_total(Component.IQ)
        for r in base_runs.values()
    )
    results: Dict[str, Dict[str, Dict[str, float]]] = {
        "without_ixu": {}, "with_ixu": {},
    }
    for entries, width in sweep:
        for with_ixu, family in ((False, "without_ixu"),
                                 (True, "with_ixu")):
            config = _config(entries, width, with_ixu)
            runs = [grid[config, bench] for bench in benchmarks]
            rel_ipc = geomean([
                r.ipc / base_runs[r.benchmark].ipc for r in runs
            ])
            iq_energy = sum(
                r.energy.component_total(Component.IQ) for r in runs
            )
            results[family][f"{entries}x{width}"] = {
                "ipc": rel_ipc,
                "iq_energy": (iq_energy / base_iq_energy
                              if base_iq_energy else 0.0),
            }
    return results


def format_table(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    points = list(results["without_ixu"])
    lines = ["Sensitivity: IQ size/width sweep (relative to BIG)",
             f"{'IQ':8s}{'IPC':>10s}{'IPC+IXU':>10s}"
             f"{'IQ energy':>11s}{'IQ en.+IXU':>11s}"]
    for point in points:
        without = results["without_ixu"][point]
        with_ixu = results["with_ixu"][point]
        lines.append(
            f"{point:8s}{without['ipc']:10.3f}{with_ixu['ipc']:10.3f}"
            f"{without['iq_energy']:11.3f}{with_ixu['iq_energy']:11.3f}"
        )
    return "\n".join(lines)

