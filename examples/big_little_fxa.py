"""big.LITTLE scenario: should the big core be an FXA core?

The paper's motivation (Sections I and VI-I): mobile SoCs pair a big
out-of-order core with a little in-order core; FXA is proposed as a
*replacement for the big core only*.  This example plays that decision
out on a mobile-flavoured workload mix — a browser-like INT-heavy set
plus a media/FP set — and prints the energy-delay trade-off each core
choice gives, including the energy a LITTLE core would spend on the same
work (it stays the right choice when performance does not matter).

Run:  python examples/big_little_fxa.py
"""

from repro.core import MODEL_NAMES, build_core, model_config
from repro.core.warmup import functional_warmup
from repro.energy import EnergyModel
from repro.experiments.runner import geomean
from repro.workloads import (
    TraceGenerator,
    build_program,
    get_profile,
)

#: Browser/app-like foreground work: branchy INT code.
FOREGROUND = ("xalancbmk", "perlbench", "gcc", "astar")
#: Media/game-like work with FP content.
MEDIA = ("h264ref", "povray", "namd")

WARMUP = 20_000
MEASURE = 5_000


def simulate(model_name: str, benchmark: str):
    generator = TraceGenerator(build_program(get_profile(benchmark)))
    warm = generator.generate(WARMUP)
    generator.seq = 0  # number the measured slice from 0
    measure = generator.generate(MEASURE)
    core = build_core(model_name)
    functional_warmup(core, warm)
    stats = core.run(measure)
    stats.benchmark = benchmark
    energy = EnergyModel(model_config(model_name)).evaluate(stats)
    return stats, energy


def main() -> None:
    workloads = list(FOREGROUND + MEDIA)
    print("mobile workload mix:", ", ".join(workloads))
    print()
    baseline = {}
    for bench in workloads:
        stats, energy = simulate("BIG", bench)
        baseline[bench] = (stats.ipc, energy.total)
    rows = []
    for model in MODEL_NAMES:
        rel_ipc, rel_energy = [], []
        for bench in workloads:
            stats, energy = simulate(model, bench)
            base_ipc, base_energy = baseline[bench]
            rel_ipc.append(stats.ipc / base_ipc)
            rel_energy.append(energy.total / base_energy)
        perf = geomean(rel_ipc)
        joules = geomean(rel_energy)
        rows.append((model, perf, joules, perf / joules))

    print(f"{'core':10s}{'perf':>8s}{'energy':>8s}{'perf/energy':>12s}"
          f"   (all relative to BIG)")
    for model, perf, joules, per in rows:
        print(f"{model:10s}{perf:8.3f}{joules:8.3f}{per:12.3f}")
    print()
    best = max(rows, key=lambda r: r[3])
    print(f"best performance/energy ratio: {best[0]}")
    print("paper's conclusion: replace the big core with an FXA core "
          "(HALF+FX); keep the little core for truly light work — its "
          "per-instruction energy stays the lowest even though its "
          "perf/energy ratio does not win.")


if __name__ == "__main__":
    main()
