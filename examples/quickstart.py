"""Quickstart: simulate one benchmark on the paper's FXA core.

Builds the HALF+FX model (the paper's proposal: a half-size issue queue
plus a 3-stage [3,1,1] IXU), runs a synthetic libquantum trace with
functional warm-up, and prints timing, IXU-filtering and energy results
next to the BIG baseline.

Run:  python examples/quickstart.py
"""

from repro.core import build_core, model_config
from repro.core.warmup import functional_warmup
from repro.energy import Component, EnergyModel
from repro.workloads import (
    TraceGenerator,
    build_program,
    get_profile,
)

BENCHMARK = "libquantum"
WARMUP = 20_000
MEASURE = 6_000


def simulate(model_name: str):
    """Warm up and run one model on the shared instruction stream."""
    generator = TraceGenerator(build_program(get_profile(BENCHMARK)))
    warm = generator.generate(WARMUP)
    generator.seq = 0  # number the measured slice from 0
    measure = generator.generate(MEASURE)
    core = build_core(model_name)
    functional_warmup(core, warm)
    stats = core.run(measure)
    stats.benchmark = BENCHMARK
    energy = EnergyModel(model_config(model_name)).evaluate(stats)
    return stats, energy


def main() -> None:
    big_stats, big_energy = simulate("BIG")
    fxa_stats, fxa_energy = simulate("HALF+FX")

    print(f"benchmark: {BENCHMARK} "
          f"({MEASURE} measured instructions, {WARMUP} warm-up)\n")
    print(f"{'':24s}{'BIG':>12s}{'HALF+FX':>12s}")
    print(f"{'IPC':24s}{big_stats.ipc:12.3f}{fxa_stats.ipc:12.3f}")
    print(f"{'cycles':24s}{big_stats.cycles:12d}{fxa_stats.cycles:12d}")
    print(f"{'mispredictions':24s}{big_stats.mispredictions:12d}"
          f"{fxa_stats.mispredictions:12d}")
    print(f"{'energy (pJ/inst)':24s}"
          f"{big_energy.energy_per_instruction:12.1f}"
          f"{fxa_energy.energy_per_instruction:12.1f}")
    print(f"{'IQ energy share':24s}"
          f"{big_energy.shares()[Component.IQ]:12.1%}"
          f"{fxa_energy.shares()[Component.IQ]:12.1%}")
    print()
    print("FXA front-end execution (the paper's filter effect):")
    print(f"  executed in IXU: {fxa_stats.ixu_executed_rate:.1%} "
          f"of committed instructions")
    print(f"    ready at entry (category a): {fxa_stats.ixu_category_a}")
    print(f"    made ready by IXU bypass (category b): "
          f"{fxa_stats.ixu_category_b}")
    print(f"  IQ dispatches: {fxa_stats.events.iq_dispatches} "
          f"(BIG: {big_stats.events.iq_dispatches})")
    print(f"  branches resolved early in the IXU: "
          f"{fxa_stats.mispredictions_resolved_in_ixu}"
          f"/{fxa_stats.mispredictions} mispredictions")
    rel_ipc = fxa_stats.ipc / big_stats.ipc
    rel_energy = fxa_energy.total / big_energy.total
    print()
    print(f"HALF+FX vs BIG: IPC x{rel_ipc:.3f}, energy x{rel_energy:.3f},"
          f" PER x{rel_ipc / rel_energy:.3f}")


if __name__ == "__main__":
    main()
