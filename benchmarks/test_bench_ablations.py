"""Ablation benchmarks for FXA's design choices (DESIGN.md Section 5).

Each ablation flips one mechanism the paper argues for and checks the
argued direction holds:

* IXU memory-op execution (Section II-D3) — without it the IXU filters
  fewer instructions and the LSQ omissions disappear.
* IXU branch resolution (Section II-D1 / IV-B2) — without it every
  misprediction pays the full lengthened-pipeline penalty.
* Store-set prediction (Section II-D3) — without it loads issue blindly
  and memory-order violations recur.
"""

from dataclasses import replace

from conftest import MEASURE, WARMUP, run_once

from repro.core import IXUConfig, build_core
from repro.core.presets import half_fx_config
from repro.core.warmup import functional_warmup
from repro.workloads import (
    TraceGenerator,
    build_program,
    get_profile,
)


def _simulate(config, bench="gcc"):
    generator = TraceGenerator(build_program(get_profile(bench)))
    warm = generator.generate(WARMUP)
    generator.seq = 0  # number the measured slice from 0
    measure = generator.generate(MEASURE * 2)
    core = build_core(config)
    functional_warmup(core, warm)
    return core.run(measure)


def test_bench_ablation_ixu_mem_ops(benchmark):
    def ablate():
        base = _simulate(half_fx_config())
        no_mem = _simulate(half_fx_config(
            IXUConfig(execute_mem_ops=False)))
        return base, no_mem

    base, no_mem = run_once(benchmark, ablate)
    assert no_mem.ixu_mem_ops == 0
    assert base.ixu_mem_ops > 0
    assert base.ixu_executed_rate > no_mem.ixu_executed_rate
    assert no_mem.events.lsq_omitted_searches == 0


def test_bench_ablation_ixu_branches(benchmark):
    def ablate():
        base = _simulate(half_fx_config(), bench="sjeng")
        no_br = _simulate(half_fx_config(
            IXUConfig(execute_branches=False)), bench="sjeng")
        return base, no_br

    base, no_br = run_once(benchmark, ablate)
    assert no_br.mispredictions_resolved_in_ixu == 0
    assert base.mispredictions_resolved_in_ixu > 0
    assert base.cycles <= no_br.cycles


def test_bench_ablation_bypass_limit(benchmark):
    """Opt bypass (limit 2) on a deep IXU loses little vs the full
    network (the Figure 11 argument)."""
    deep_full = half_fx_config(
        IXUConfig(stage_fus=(3, 1, 1, 1, 1), bypass_stage_limit=None))
    deep_opt = half_fx_config(
        IXUConfig(stage_fus=(3, 1, 1, 1, 1), bypass_stage_limit=2))

    def ablate():
        return _simulate(deep_full), _simulate(deep_opt)

    full, opt = run_once(benchmark, ablate)
    assert opt.ipc > 0.93 * full.ipc


def test_bench_ablation_second_scoreboard_read(benchmark):
    """FXA reads the scoreboard twice per instruction (Section III-C):
    once at register read and once at dispatch."""
    def measure():
        return _simulate(half_fx_config())

    stats = run_once(benchmark, measure)
    # Both read points fire: more scoreboard reads than source operands
    # of IQ-dispatched instructions alone.
    assert stats.events.scoreboard_reads > stats.events.iq_dispatches
