"""Tests for the in-order (LITTLE) core."""

from dataclasses import replace

import pytest

from repro.core import InOrderCore, build_core
from repro.core.presets import big_config, little_config
from repro.isa import DynInst, OpClass, int_reg
from repro.workloads import generate_trace


def _alu_stream(n):
    return [
        DynInst(seq=i, pc=0x1000 + 4 * (i % 64), op=OpClass.INT_ALU,
                dest=int_reg(i % 20), srcs=(int_reg(25 + i % 4),))
        for i in range(n)
    ]


class TestInOrderBasics:
    def test_commits_whole_trace(self):
        stats = build_core("LITTLE").run(_alu_stream(500))
        assert stats.committed == 500

    def test_requires_inorder_config(self):
        with pytest.raises(ValueError):
            InOrderCore(big_config())

    def test_independent_alus_dual_issue(self):
        stats = build_core("LITTLE").run(_alu_stream(4000))
        assert 1.4 < stats.ipc <= 2.05

    def test_serial_chain(self):
        trace = [
            DynInst(seq=i, pc=0x1000 + 4 * (i % 64), op=OpClass.INT_ALU,
                    dest=int_reg(1), srcs=(int_reg(1),))
            for i in range(2000)
        ]
        stats = build_core("LITTLE").run(trace)
        assert 0.7 < stats.ipc <= 1.01

    def test_no_backend_event_counts(self):
        """LITTLE has no IQ/LSQ/RAT: their event counts must stay zero."""
        stats = build_core("LITTLE").run(generate_trace("gcc", 1000))
        events = stats.events
        assert events.iq_dispatches == 0
        assert events.lsq_writes == 0
        assert events.rat_reads == 0
        assert events.rob_allocations == 0
        assert events.prf_reads > 0  # architectural RF reads

    def test_deterministic(self):
        trace = generate_trace("sjeng", 1200)
        a = build_core("LITTLE").run(trace)
        b = build_core("LITTLE").run(trace)
        assert a.cycles == b.cycles

    @pytest.mark.parametrize("bench", ["hmmer", "gcc", "mcf"])
    def test_fetch_always_stops_at_a_taken_branch(self, bench):
        """The in-order fetch always breaks, so an in-order config
        records ``fetch_breaks_on_taken`` True: LITTLE given False is
        the preset and runs exactly as it does."""
        trace = generate_trace(bench, 1500, seed=3)
        given_false = replace(little_config(), fetch_breaks_on_taken=False)
        assert given_false == little_config()
        preset = build_core(little_config()).run(trace)
        through = build_core(given_false).run(trace)
        assert through.to_dict() == preset.to_dict()


class TestInOrderStalls:
    def test_load_use_stall(self):
        """An L1-hit load-use chain can't beat the load-to-use latency."""
        trace = []
        for i in range(300):
            trace.append(DynInst(
                seq=2 * i, pc=0x1000 + 8 * (i % 16), op=OpClass.LOAD,
                dest=int_reg(1), srcs=(int_reg(1),),
                mem_addr=0x10000 + 8 * (i % 32), mem_size=8))
            trace.append(DynInst(
                seq=2 * i + 1, pc=0x1004 + 8 * (i % 16),
                op=OpClass.INT_ALU, dest=int_reg(1), srcs=(int_reg(1),)))
        stats = build_core("LITTLE").run(trace)
        assert stats.cycles >= 300 * 4 * 0.9

    def test_waw_stalls_pipeline(self):
        """A slow divide's destination blocks a later writer of the
        same register (no renaming)."""
        slow_then_reuse = []
        for i in range(100):
            base = 2 * i
            slow_then_reuse.append(DynInst(
                seq=base, pc=0x1000, op=OpClass.INT_DIV,
                dest=int_reg(1), srcs=(int_reg(25),)))
            slow_then_reuse.append(DynInst(
                seq=base + 1, pc=0x1004, op=OpClass.INT_ALU,
                dest=int_reg(1), srcs=(int_reg(26),)))
        stats = build_core("LITTLE").run(slow_then_reuse)
        assert stats.cycles >= 100 * 12

    def test_store_buffer_forwarding(self):
        trace = []
        for i in range(100):
            base = 2 * i
            trace.append(DynInst(
                seq=base, pc=0x1000, op=OpClass.STORE,
                srcs=(int_reg(25), int_reg(26)),
                mem_addr=0x20000 + 8 * (i % 4), mem_size=8))
            trace.append(DynInst(
                seq=base + 1, pc=0x1004, op=OpClass.LOAD,
                dest=int_reg(3), srcs=(int_reg(27),),
                mem_addr=0x20000 + 8 * (i % 4), mem_size=8))
        stats = build_core("LITTLE").run(trace)
        assert stats.forwarded_loads > 50

    def test_slower_than_big_on_real_workload(self):
        """The paper's LITTLE loses ~40% IPC to BIG."""
        trace = generate_trace("gobmk", 2500)
        little = build_core("LITTLE").run(trace)
        big = build_core("BIG").run(trace)
        assert little.ipc < big.ipc

    def test_misprediction_counted(self):
        stats = build_core("LITTLE").run(generate_trace("sjeng", 2500))
        assert stats.mispredictions > 0
        assert stats.branches > 0
