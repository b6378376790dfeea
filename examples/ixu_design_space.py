"""IXU design-space exploration: how much IXU is worth its area?

The paper settles on a [3,1,1] IXU with a two-stage bypass limit after
sweeping configurations (Figures 11-13).  This example reruns that kind
of study with the public API: it sweeps FU arrangements and bypass
limits, and reports IPC, IXU-filter rate, area growth and
performance/energy so you can pick your own design point.

Run:  python examples/ixu_design_space.py
"""

from dataclasses import replace

from repro.core import IXUConfig, build_core
from repro.core.presets import half_config, half_fx_config
from repro.core.warmup import functional_warmup
from repro.energy import AreaModel, EnergyModel
from repro.experiments.runner import geomean
from repro.workloads import (
    TraceGenerator,
    build_program,
    get_profile,
)

BENCHMARKS = ("libquantum", "gcc", "hmmer", "lbm")
WARMUP = 15_000
MEASURE = 4_000

#: (stage FUs, bypass limit) candidates; None = full network.
CANDIDATES = (
    ((3,), None),
    ((3, 1), None),
    ((3, 1, 1), 2),       # the paper's choice
    ((3, 1, 1), None),
    ((3, 3, 3), None),
    ((3, 2, 1, 1), 2),
)


def evaluate(config):
    rel_ipc = []
    ixu_rates = []
    energy_total = 0.0
    cycles_total = 0
    model = EnergyModel(config)
    for bench in BENCHMARKS:
        generator = TraceGenerator(build_program(get_profile(bench)))
        warm = generator.generate(WARMUP)
        generator.seq = 0  # number the measured slice from 0
        measure = generator.generate(MEASURE)
        core = build_core(config)
        functional_warmup(core, warm)
        stats = core.run(measure)
        rel_ipc.append(stats.ipc)
        if stats.committed:
            ixu_rates.append(stats.ixu_executed_rate)
        energy_total += model.evaluate(stats).total
        cycles_total += stats.cycles
    return (geomean(rel_ipc), sum(ixu_rates) / max(1, len(ixu_rates)),
            energy_total, cycles_total)


def main() -> None:
    base_area = AreaModel(half_config()).total()
    base_ipc, _, base_energy, base_cycles = evaluate(half_config())
    print(f"baseline HALF: geomean IPC {base_ipc:.3f}\n")
    print(f"{'IXU config':22s}{'IPC':>8s}{'IXU rate':>10s}"
          f"{'area+':>8s}{'PER':>8s}")
    for stage_fus, limit in CANDIDATES:
        ixu = IXUConfig(stage_fus=stage_fus, bypass_stage_limit=limit)
        label = f"{list(stage_fus)}/{'full' if limit is None else 'opt'}"
        config = replace(half_fx_config(ixu), name=f"HALF+FX{label}")
        ipc, rate, energy, cycles = evaluate(config)
        area_growth = AreaModel(config).total() / base_area - 1.0
        per = ((base_energy * base_cycles)
               / (energy * cycles))  # relative 1/EDP vs HALF
        print(f"{label:22s}{ipc / base_ipc:8.3f}{rate:10.1%}"
              f"{area_growth:8.1%}{per:8.3f}")
    print("\nThe paper's pick ([3, 1, 1]/opt) should sit near the knee: "
          "almost all of the deep/full configuration's IPC at a "
          "fraction of the added FUs and wiring.")


if __name__ == "__main__":
    main()
