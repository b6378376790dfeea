"""Tests for the FXA core and its IXU (the paper's contribution)."""

from dataclasses import replace

import pytest

from repro.core import FXACore, IXUConfig, build_core
from repro.core.presets import big_config, half_fx_config
from repro.isa import DynInst, OpClass, fp_reg, int_reg
from repro.workloads import generate_trace


def _ready_alu_stream(n):
    """All sources architecturally ready: pure category-(a) fodder."""
    return [
        DynInst(seq=i, pc=0x1000 + 4 * (i % 64), op=OpClass.INT_ALU,
                dest=int_reg(i % 20), srcs=(int_reg(25 + i % 4),))
        for i in range(n)
    ]


def _chain_groups(n_groups, chain_len):
    """Groups of serially-dependent ALU ops; groups are independent."""
    trace = []
    seq = 0
    for g in range(n_groups):
        for k in range(chain_len):
            src = int_reg(25) if k == 0 else int_reg(1 + (g % 2))
            trace.append(DynInst(
                seq=seq, pc=0x1000 + 4 * (seq % 128), op=OpClass.INT_ALU,
                dest=int_reg(1 + (g % 2)), srcs=(src,)))
            seq += 1
    return trace


class TestFXAConstruction:
    def test_requires_ixu(self):
        with pytest.raises(ValueError):
            FXACore(big_config())

    def test_paper_ixu_shape(self):
        config = half_fx_config()
        assert config.ixu.stage_fus == (3, 1, 1)
        assert config.ixu.total_fus == 5
        assert config.ixu.depth == 3
        assert config.ixu.bypass_stage_limit == 2

    def test_ixu_config_validation(self):
        with pytest.raises(ValueError):
            IXUConfig(stage_fus=())
        with pytest.raises(ValueError):
            IXUConfig(stage_fus=(3, -1))
        with pytest.raises(ValueError):
            IXUConfig(stage_fus=(3,), bypass_stage_limit=0)

    def test_inorder_cannot_have_ixu(self):
        from repro.core import CoreConfig

        with pytest.raises(ValueError):
            CoreConfig(name="x", core_type="inorder", ixu=IXUConfig())


class TestIXUFiltering:
    def test_ready_instructions_execute_in_ixu(self):
        core = build_core("HALF+FX")
        stats = core.run(_ready_alu_stream(2000))
        assert stats.committed == 2000
        assert stats.ixu_executed_rate > 0.9
        # Ready-at-entry instructions are the paper's category (a).
        assert stats.ixu_category_a > stats.ixu_category_b

    def test_ixu_filter_reduces_iq_traffic(self):
        trace = _ready_alu_stream(2000)
        fxa = build_core("HALF+FX").run(trace)
        half = build_core("HALF").run(trace)
        assert fxa.events.iq_dispatches < half.events.iq_dispatches * 0.2

    def test_dependent_chain_uses_bypass(self):
        """Consumers fed by IXU bypassing are category (b)."""
        core = build_core("HALF+FX")
        stats = core.run(_chain_groups(300, 3))
        assert stats.ixu_category_b > 0

    def test_long_chain_tail_goes_to_oxu(self):
        """A serial chain longer than the IXU can absorb must spill
        instructions into the issue queue."""
        stats = build_core("HALF+FX").run(_chain_groups(100, 12))
        assert stats.events.iq_dispatches > 0
        assert stats.ixu_executed < stats.committed

    def test_fp_never_in_ixu(self):
        trace = [
            DynInst(seq=i, pc=0x1000 + 4 * (i % 16), op=OpClass.FP_ADD,
                    dest=fp_reg(i % 20), srcs=(fp_reg(25), fp_reg(26)))
            for i in range(800)
        ]
        stats = build_core("HALF+FX").run(trace)
        assert stats.ixu_executed == 0
        assert stats.committed == 800

    def test_int_mul_not_in_ixu(self):
        """IXU FUs are adder/shifter/logic only (Figure 6)."""
        trace = [
            DynInst(seq=i, pc=0x1000 + 4 * (i % 16), op=OpClass.INT_MUL,
                    dest=int_reg(i % 20), srcs=(int_reg(25), int_reg(26)))
            for i in range(500)
        ]
        stats = build_core("HALF+FX").run(trace)
        assert stats.ixu_executed == 0

    def test_ixu_executes_memory_ops(self):
        trace = []
        for i in range(400):
            trace.append(DynInst(
                seq=i, pc=0x1000 + 4 * (i % 32), op=OpClass.LOAD,
                dest=int_reg(i % 20), srcs=(int_reg(25),),
                mem_addr=0x40000 + 8 * (i % 256), mem_size=8))
        stats = build_core("HALF+FX").run(trace)
        assert stats.ixu_mem_ops > 0

    def test_ixu_mem_can_be_disabled(self):
        config = half_fx_config(IXUConfig(execute_mem_ops=False))
        trace = [
            DynInst(seq=i, pc=0x1000 + 4 * (i % 32), op=OpClass.LOAD,
                    dest=int_reg(i % 20), srcs=(int_reg(25),),
                    mem_addr=0x40000 + 8 * (i % 256), mem_size=8)
            for i in range(400)
        ]
        stats = build_core(config).run(trace)
        assert stats.ixu_mem_ops == 0
        assert stats.committed == 400

    def test_ixu_rate_on_real_workload_matches_paper_ballpark(self):
        """Paper Section VI-C: >50% of instructions execute in the IXU."""
        stats = build_core("HALF+FX").run(
            generate_trace("libquantum", 4000)
        )
        assert 0.35 < stats.ixu_executed_rate < 0.95

    def test_by_stage_distribution(self):
        stats = build_core("HALF+FX").run(generate_trace("gcc", 3000))
        assert stats.ixu_by_stage
        assert sum(stats.ixu_by_stage.values()) == stats.ixu_executed
        assert all(0 <= s < 3 for s in stats.ixu_by_stage)


class TestIXUExtras:
    def test_more_fus_with_wider_ixu(self):
        """Extra IXU throughput lifts a ready-op stream past the 2-INT-FU
        ceiling of the plain core (the libquantum mechanism)."""
        trace = _ready_alu_stream(5000)
        big = build_core("BIG").run(trace)
        fxa = build_core("HALF+FX").run(trace)
        assert fxa.ipc > big.ipc * 1.15

    def test_branch_resolution_in_ixu(self):
        stats = build_core("HALF+FX").run(generate_trace("sjeng", 3000))
        assert stats.ixu_branches > 0
        assert stats.mispredictions_resolved_in_ixu > 0

    def test_ixu_branches_can_be_disabled(self):
        config = half_fx_config(IXUConfig(execute_branches=False))
        stats = build_core(config).run(generate_trace("sjeng", 2000))
        assert stats.ixu_branches == 0
        assert stats.committed == 2000

    def test_early_branch_resolution_helps_mispredict_heavy_code(self):
        trace = generate_trace("sjeng", 3000)
        with_br = build_core(half_fx_config(IXUConfig())).run(trace)
        without = build_core(
            half_fx_config(IXUConfig(execute_branches=False))
        ).run(trace)
        assert with_br.cycles <= without.cycles
        assert without.mispredictions_resolved_in_ixu == 0

    def test_second_scoreboard_read_counted(self):
        """Instructions dispatched to the IQ read the scoreboard again
        (paper Section III-C)."""
        stats = build_core("HALF+FX").run(_chain_groups(100, 12))
        assert stats.events.scoreboard_reads > 0
        # Both read points fire: more reads than IQ dispatches alone.
        assert stats.events.scoreboard_reads > stats.events.iq_dispatches

    def test_lsq_omissions_happen(self):
        """IXU-executed stores skip violation search; IXU loads with all
        older stores done skip the LSQ write (paper Section II-D3)."""
        stats = build_core("HALF+FX").run(generate_trace("bzip2", 4000))
        assert stats.events.lsq_omitted_searches > 0
        assert stats.events.lsq_omitted_writes > 0

    def test_violation_squash_clears_ixu(self):
        trace = [
            DynInst(seq=0, pc=0x1000, op=OpClass.INT_DIV,
                    dest=int_reg(1), srcs=(int_reg(25),)),
            DynInst(seq=1, pc=0x1004, op=OpClass.STORE,
                    srcs=(int_reg(1), int_reg(26)), mem_addr=0x8000,
                    mem_size=8),
            DynInst(seq=2, pc=0x1008, op=OpClass.LOAD,
                    dest=int_reg(4), srcs=(int_reg(27),),
                    mem_addr=0x8000, mem_size=8),
            DynInst(seq=3, pc=0x100c, op=OpClass.INT_ALU,
                    dest=int_reg(5), srcs=(int_reg(4),)),
        ]
        stats = build_core("HALF+FX").run(trace)
        assert stats.violations >= 1
        assert stats.committed == 4

    def test_bypass_limit_restricts_execution(self):
        """With a deep IXU, the full network executes at least as many
        instructions as the two-stage-limited one."""
        trace = generate_trace("gcc", 3000)
        full = build_core(half_fx_config(
            IXUConfig(stage_fus=(3, 1, 1, 1, 1), bypass_stage_limit=None)
        )).run(trace)
        opt = build_core(half_fx_config(
            IXUConfig(stage_fus=(3, 1, 1, 1, 1), bypass_stage_limit=2)
        )).run(trace)
        assert full.ixu_executed >= opt.ixu_executed
        # ...but loses little IPC for it (the Figure 11 argument).
        assert opt.ipc > 0.93 * full.ipc

    def test_deeper_ixu_executes_more(self):
        """Figure 12's shape: executed rate grows with depth."""
        trace = generate_trace("gcc", 3000)
        rates = []
        for depth in (1, 3, 5):
            config = half_fx_config(
                IXUConfig(stage_fus=(3,) * depth,
                          bypass_stage_limit=None)
            )
            rates.append(build_core(config).run(trace).ixu_executed_rate)
        assert rates[0] < rates[1] <= rates[2] + 0.02

    def test_all_benchmark_suites_run(self):
        for bench in ("astar", "namd"):
            stats = build_core("HALF+FX").run(generate_trace(bench, 1500))
            assert stats.committed == 1500
