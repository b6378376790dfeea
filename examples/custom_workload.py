"""Define a custom workload profile and study how FXA responds to it.

The synthetic-workload API is parameterised the same way the paper
characterises programs: instruction mix, dependence tightness, branch
predictability and memory behaviour.  This example builds two custom
workloads on opposite ends of the spectrum — a wide-ILP integer kernel
(FXA's best case) and a pointer-chasing kernel (its worst) — and shows
how the IXU filter rate and speed-up move between them.

Run:  python examples/custom_workload.py
"""

from repro.core import build_core
from repro.core.warmup import functional_warmup
from repro.workloads import (
    BenchmarkProfile,
    Mix,
    TraceGenerator,
    build_program,
    trace_mix,
)

WIDE_ILP = BenchmarkProfile(
    name="custom-wide-ilp",
    suite="int",
    mix=Mix(int_alu=0.62, load=0.12, store=0.05, branch=0.21),
    dep_geo_p=0.20,          # long dependence distances: lots of ILP
    far_src_frac=0.18,
    branch_random_frac=0.005,
    loop_trip_mean=48.0,
    working_set_kb=128,
    seq_stream_frac=0.9,
    num_blocks=16,
    block_len_mean=12.0,
    description="vectorisable integer kernel; FXA's best case",
)

POINTER_CHASE = BenchmarkProfile(
    name="custom-pointer-chase",
    suite="int",
    mix=Mix(int_alu=0.30, load=0.38, store=0.08, branch=0.24),
    dep_geo_p=0.60,          # tight chains: each load feeds the next
    far_src_frac=0.05,
    branch_random_frac=0.05,
    working_set_kb=16384,
    rand_hot_kb=4096,
    seq_stream_frac=0.10,
    num_blocks=32,
    description="linked-structure traversal; FXA's worst case",
)

WARMUP = 15_000
MEASURE = 5_000


def study(profile: BenchmarkProfile) -> None:
    program = build_program(profile)
    print(f"== {profile.name}: {profile.description}")
    sample = TraceGenerator(program).generate(4000)
    mix = trace_mix(sample)
    print(f"   measured mix: {mix['int_ops']:.0%} INT ops, "
          f"{mix['loads']:.0%} loads, {mix['branches']:.0%} branches")
    results = {}
    for model in ("BIG", "HALF+FX"):
        generator = TraceGenerator(program)
        warm = generator.generate(WARMUP)
        generator.seq = 0  # number the measured slice from 0
        measure = generator.generate(MEASURE)
        core = build_core(model)
        functional_warmup(core, warm)
        results[model] = core.run(measure)
    big, fxa = results["BIG"], results["HALF+FX"]
    print(f"   BIG IPC {big.ipc:.3f} | HALF+FX IPC {fxa.ipc:.3f} "
          f"({fxa.ipc / big.ipc - 1.0:+.1%} vs BIG)")
    print(f"   IXU executed {fxa.ixu_executed_rate:.0%} of instructions"
          f" ({fxa.ixu_category_b} made ready by bypassing)")
    print()


def main() -> None:
    study(WIDE_ILP)
    study(POINTER_CHASE)
    print("Wide-ILP integer code keeps the IXU busy (the libquantum/"
          "gromacs effect); serial pointer chasing leaves instructions "
          "waiting on loads, so they fall through to the OXU and FXA "
          "converges to the baseline.")


if __name__ == "__main__":
    main()
