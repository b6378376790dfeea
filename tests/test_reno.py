"""Tests for RENO-style move elimination (Section VII-C extension)."""

from dataclasses import replace

import pytest

from repro.core import build_core, model_config
from repro.isa import DynInst, OpClass, int_reg
from repro.isa.registers import RegClass
from repro.rename import Renamer
from repro.workloads import generate_trace


def _mov(seq, dest, src, pc=None):
    return DynInst(seq=seq, pc=pc if pc is not None else 0x1000 + 4 * seq,
                   op=OpClass.MOV, dest=dest, srcs=(src,))


def _alu(seq, dest, srcs):
    return DynInst(seq=seq, pc=0x1000 + 4 * seq, op=OpClass.INT_ALU,
                   dest=dest, srcs=srcs)


def _reno_config(base="BIG"):
    return replace(model_config(base), name=f"{base}+RENO",
                   move_elimination=True)


class TestRenamerMoveElimination:
    def test_alias_maps_to_source_preg(self):
        renamer = Renamer()
        src_preg = renamer.rat[RegClass.INT].lookup(int_reg(2))
        renamed = renamer.rename_move(_mov(0, int_reg(5), int_reg(2)))
        assert renamed.eliminated
        assert renamed.dest == src_preg
        assert renamer.rat[RegClass.INT].lookup(int_reg(5)) == src_preg

    def test_no_register_allocated(self):
        renamer = Renamer()
        before = renamer.free_regs(RegClass.INT)
        renamer.rename_move(_mov(0, int_reg(5), int_reg(2)))
        assert renamer.free_regs(RegClass.INT) == before

    def test_shared_register_survives_one_name_dying(self):
        """Overwriting the alias must not reclaim the shared register
        while the original name is still live."""
        renamer = Renamer()
        shared = renamer.rat[RegClass.INT].lookup(int_reg(2))
        mov = renamer.rename_move(_mov(0, int_reg(5), int_reg(2)))
        # A later instruction overwrites r5: its commit releases the
        # alias reference, not the register.
        writer = renamer.rename(_alu(1, int_reg(5), ()))
        renamer.release(RegClass.INT, mov.old_dest)
        # The writer's old r5 mapping is the shared alias.
        renamer.release(RegClass.INT, writer.old_dest)
        # The register is still reachable through r2.
        assert renamer.rat[RegClass.INT].lookup(int_reg(2)) == shared
        assert shared not in renamer.free[RegClass.INT]

    def test_register_reclaimed_when_both_names_die(self):
        renamer = Renamer()
        shared = renamer.rat[RegClass.INT].lookup(int_reg(2))
        mov = renamer.rename_move(_mov(0, int_reg(5), int_reg(2)))
        writer_a = renamer.rename(_alu(1, int_reg(5), ()))
        writer_b = renamer.rename(_alu(2, int_reg(2), ()))
        renamer.release(RegClass.INT, mov.old_dest)
        renamer.release(RegClass.INT, writer_a.old_dest)
        assert shared not in renamer.free[RegClass.INT]
        renamer.release(RegClass.INT, writer_b.old_dest)
        assert shared in renamer.free[RegClass.INT]

    def test_squash_restores_alias(self):
        renamer = Renamer()
        before = renamer.rat[RegClass.INT].lookup(int_reg(5))
        free_before = renamer.free_regs(RegClass.INT)
        mov = renamer.rename_move(_mov(0, int_reg(5), int_reg(2)))
        renamer.squash(mov)
        assert renamer.rat[RegClass.INT].lookup(int_reg(5)) == before
        assert renamer.free_regs(RegClass.INT) == free_before

    def test_rejects_non_move_shapes(self):
        renamer = Renamer()
        with pytest.raises(ValueError):
            renamer.rename_move(_alu(0, int_reg(1),
                                     (int_reg(2), int_reg(3))))

    def test_counts_eliminations(self):
        renamer = Renamer()
        renamer.rename_move(_mov(0, int_reg(5), int_reg(2)))
        renamer.rename_move(_mov(1, int_reg(6), int_reg(3)))
        assert renamer.moves_eliminated == 2


class TestRenoInCore:
    def test_moves_eliminated_and_not_executed(self):
        trace = []
        for i in range(200):
            base = 2 * i
            trace.append(_alu(base, int_reg(1), (int_reg(25),)))
            trace.append(_mov(base + 1, int_reg(2), int_reg(1)))
        core = build_core(_reno_config())
        stats = core.run(trace)
        assert stats.committed == 400
        assert stats.events.moves_eliminated == 200
        # Eliminated moves never issue: only the ALU ops execute.
        assert stats.events.fu_int_ops == 200
        assert stats.events.iq_dispatches == 200

    def test_consumer_sees_moved_value(self):
        """A consumer of the mov's destination waits for the original
        producer — correctness of the aliasing."""
        trace = [
            DynInst(seq=0, pc=0x1000, op=OpClass.INT_DIV,
                    dest=int_reg(1), srcs=(int_reg(25),)),
            _mov(1, int_reg(2), int_reg(1)),
            _alu(2, int_reg(3), (int_reg(2),)),
        ]
        stats = build_core(_reno_config()).run(trace)
        # The consumer cannot finish before the 12-cycle divide.
        assert stats.cycles >= 12
        assert stats.committed == 3

    def test_disabled_by_default(self):
        trace = [_mov(0, int_reg(2), int_reg(1))]
        stats = build_core("BIG").run(trace)
        assert stats.events.moves_eliminated == 0
        assert stats.events.fu_int_ops == 1

    def test_works_with_fxa(self):
        config = _reno_config("HALF+FX")
        stats = build_core(config).run(generate_trace("gcc", 2500))
        assert stats.committed == 2500
        assert stats.events.moves_eliminated > 0
        assert stats.ixu_executed > 0

    def test_real_workloads_on_all_models(self):
        for base in ("BIG", "HALF+FX"):
            stats = build_core(_reno_config(base)).run(
                generate_trace("perlbench", 2000))
            assert stats.committed == 2000

    def test_violation_replay_with_reno(self):
        trace = [
            DynInst(seq=0, pc=0x1000, op=OpClass.INT_DIV,
                    dest=int_reg(1), srcs=(int_reg(25),)),
            DynInst(seq=1, pc=0x1004, op=OpClass.STORE,
                    srcs=(int_reg(1), int_reg(26)), mem_addr=0x8000,
                    mem_size=8),
            DynInst(seq=2, pc=0x1008, op=OpClass.LOAD,
                    dest=int_reg(4), srcs=(int_reg(27),),
                    mem_addr=0x8000, mem_size=8),
            _mov(3, int_reg(5), int_reg(4)),
            _alu(4, int_reg(6), (int_reg(5),)),
        ]
        stats = build_core(_reno_config()).run(trace)
        assert stats.violations >= 1
        assert stats.committed == 5


class TestWorkloadMoves:
    def test_generator_emits_moves(self):
        trace = generate_trace("gcc", 5000)
        movs = sum(1 for inst in trace if inst.op is OpClass.MOV)
        assert 0.01 < movs / len(trace) < 0.12
        for inst in trace:
            if inst.op is OpClass.MOV:
                assert len(inst.srcs) == 1
                assert inst.dest is not None
