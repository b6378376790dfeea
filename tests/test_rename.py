"""Unit tests for register renaming."""

import sys
from collections import Counter

import pytest

from repro.core import build_core, model_config
from repro.core.inflight import InFlight
from repro.core.ooo import OutOfOrderCore
from repro.isa import DynInst, OpClass, RegClass, fp_reg, int_reg
from repro.rename import FreeList, RAT, Renamer
from repro.rename.prf import NEVER
from repro.workloads import generate_trace


def _alu(seq, dest, srcs):
    return DynInst(seq=seq, pc=0x1000 + 4 * seq, op=OpClass.INT_ALU,
                   dest=dest, srcs=srcs)


class TestFreeList:
    def test_fifo_order(self):
        """Rename takes the oldest free register; a released one goes
        to the back of the list."""
        renamer = Renamer(int_prf_entries=35, fp_prf_entries=33)
        first = renamer.rename(_alu(0, int_reg(1), ()))
        assert first.dest == 32
        assert renamer.rename(_alu(1, int_reg(2), ())).dest == 33
        renamer.release(RegClass.INT, first.old_dest)
        assert renamer.rename(_alu(2, int_reg(3), ())).dest == 34
        assert renamer.rename(_alu(3, int_reg(4), ())).dest == 1

    def test_can_allocate(self):
        renamer = Renamer(int_prf_entries=34, fp_prf_entries=33)
        free = renamer.free[RegClass.INT]
        assert free.can_allocate(2)
        assert not free.can_allocate(3)
        renamer.rename(_alu(0, int_reg(1), ()))
        assert not free.can_allocate(2)

    def test_overflow_guard(self):
        free = FreeList([1])
        with pytest.raises(RuntimeError):
            free.release(9)


class TestRAT:
    def test_lookup_and_rename(self):
        rat = RAT({int_reg(1): 1, int_reg(2): 2})
        assert rat.lookup(int_reg(1)) == 1
        undo = rat.rename(int_reg(1), 40)
        assert rat.lookup(int_reg(1)) == 40
        assert undo.old_physical == 1

    def test_undo_restores(self):
        rat = RAT({int_reg(1): 1})
        undo_a = rat.rename(int_reg(1), 40)
        undo_b = rat.rename(int_reg(1), 41)
        rat.undo(undo_b)
        rat.undo(undo_a)
        assert rat.lookup(int_reg(1)) == 1

    def test_undo_out_of_order_rejected(self):
        rat = RAT({int_reg(1): 1})
        undo_a = rat.rename(int_reg(1), 40)
        rat.rename(int_reg(1), 41)
        with pytest.raises(RuntimeError):
            rat.undo(undo_a)

    def test_port_counters(self):
        rat = RAT({int_reg(1): 1})
        rat.lookup(int_reg(1))
        rat.rename(int_reg(1), 40)
        assert rat.reads == 1 and rat.writes == 1


def _producer(core, dest, srcs=()):
    """A renamed INT ALU entry of ``core``, ready to execute."""
    entry = InFlight(_alu(0, dest, srcs), fetch_cycle=0)
    entry.renamed = core.renamer.rename(entry.inst)
    return entry


class TestPRF:
    def test_ready_lifecycle(self):
        """Rename marks a destination pending; the completion stage
        makes it bypassable at its complete cycle and readable from the
        PRF (the scoreboard view) only at its written cycle."""
        core = build_core(model_config("BIG"))
        prf = core.renamer.prf[RegClass.INT]
        assert prf.is_ready(3, 0)
        entry = _producer(core, int_reg(3))
        preg = entry.renamed.dest
        assert not prf.is_ready(preg, 100)
        assert prf.ready_cycle(preg) == NEVER
        # Bypass readiness and PRF visibility are distinct timestamps.
        entry.complete_cycle, entry.written_cycle = 17, 19
        core._schedule_completion(entry, 17)
        core.cycle = 17
        core._process_completions()
        assert prf.ready_cycle(preg) == 17
        assert not prf.is_ready(preg, 17)   # not yet written back
        assert not prf.is_ready(preg, 18)
        assert prf.is_ready(preg, 19)

    def test_port_counters(self):
        """An OXU-executed instruction reads its source at register
        read; its completion writes the PRF."""
        core = build_core(model_config("BIG"))
        prf = core.renamer.prf[RegClass.INT]
        entry = _producer(core, int_reg(1), (int_reg(2),))
        core._execute(entry, 0, False)
        core.cycle = entry.complete_cycle
        core._process_completions()
        assert prf.reads == 1 and prf.writes == 1

    def test_reset_entry(self):
        renamer = Renamer()
        prf = renamer.prf[RegClass.INT]
        preg = renamer.rename(_alu(0, int_reg(2), ())).dest
        prf.reset_entry(preg)
        assert prf.is_ready(preg, 0)


class TestScoreboard:
    def test_tracks_prf(self):
        """FXA's register read checks one scoreboard bit per source,
        counting the read, and captures only values already in the
        PRF."""
        core = build_core(model_config("HALF+FX"))
        pending = _producer(core, int_reg(4)).renamed.dest
        consumer = InFlight(_alu(1, int_reg(6), (int_reg(4), int_reg(5))),
                            fetch_cycle=0)
        consumer.renamed = core.renamer.rename(consumer.inst)
        core._regread_q.append(consumer)
        core._enter_pipe(core._ixu_ring[0])
        board = core.renamer.scoreboard[RegClass.INT]
        assert consumer.ixu_uncaptured == ((RegClass.INT, pending),)
        assert board.reads == 2
        assert core.renamer.prf[RegClass.INT].reads == 1
        assert board.entries == 128


class TestRenamer:
    def test_dependency_chain_maps_through(self):
        renamer = Renamer()
        producer = renamer.rename(_alu(0, int_reg(5), (int_reg(1),)))
        consumer = renamer.rename(_alu(1, int_reg(6), (int_reg(5),)))
        assert consumer.srcs[0] == (RegClass.INT, producer.dest)

    def test_same_logical_gets_fresh_physical(self):
        renamer = Renamer()
        first = renamer.rename(_alu(0, int_reg(5), ()))
        second = renamer.rename(_alu(1, int_reg(5), ()))
        assert first.dest != second.dest
        assert second.old_dest == first.dest

    def test_commit_releases_old_mapping(self):
        renamer = Renamer()
        before = renamer.free_regs(RegClass.INT)
        renamed = renamer.rename(_alu(0, int_reg(5), ()))
        assert renamer.free_regs(RegClass.INT) == before - 1
        renamer.release(renamed.dest_cls, renamed.old_dest)
        assert renamer.free_regs(RegClass.INT) == before

    def test_squash_restores_map_and_freelist(self):
        renamer = Renamer()
        before_preg = renamer.rat[RegClass.INT].lookup(int_reg(5))
        before_free = renamer.free_regs(RegClass.INT)
        renamed_a = renamer.rename(_alu(0, int_reg(5), ()))
        renamed_b = renamer.rename(_alu(1, int_reg(5), ()))
        renamer.squash(renamed_b)
        renamer.squash(renamed_a)
        assert renamer.rat[RegClass.INT].lookup(int_reg(5)) == before_preg
        assert renamer.free_regs(RegClass.INT) == before_free

    def test_exhaustion(self):
        renamer = Renamer(int_prf_entries=34, fp_prf_entries=33)
        inst0 = _alu(0, int_reg(1), ())
        assert renamer.can_rename(inst0)
        renamer.rename(inst0)
        renamer.rename(_alu(1, int_reg(2), ()))
        assert not renamer.can_rename(_alu(2, int_reg(3), ()))

    def test_store_needs_no_dest(self):
        renamer = Renamer(int_prf_entries=33, fp_prf_entries=33)
        store = DynInst(seq=0, pc=0, op=OpClass.STORE,
                        srcs=(int_reg(30), int_reg(2)), mem_addr=0x100,
                        mem_size=8)
        renamer.rename(store)  # uses no free regs
        assert renamer.can_rename(store)

    def test_fp_class_separated(self):
        renamer = Renamer()
        fp_inst = DynInst(seq=0, pc=0, op=OpClass.FP_ADD, dest=fp_reg(4),
                          srcs=(fp_reg(1), fp_reg(2)))
        renamed = renamer.rename(fp_inst)
        assert renamed.dest_cls is RegClass.FP
        assert all(cls is RegClass.FP for cls, _ in renamed.srcs)

    def test_rejects_too_small_prf(self):
        with pytest.raises(ValueError):
            Renamer(int_prf_entries=32)


class TestRenamerRecovery:
    """Branch-recovery edge cases: exhaustion, double-free, deep undo."""

    def test_exhaustion_then_full_recovery(self):
        renamer = Renamer(int_prf_entries=38, fp_prf_entries=33)
        before_free = renamer.free_regs(RegClass.INT)
        live = []
        seq = 0
        while renamer.can_rename(_alu(seq, int_reg(seq % 8), ())):
            live.append(renamer.rename(_alu(seq, int_reg(seq % 8), ())))
            seq += 1
        assert renamer.free_regs(RegClass.INT) == 0
        # Branch recovery walks back youngest-first; afterwards the
        # free list must hold every register exactly once — a
        # double-free here would let two instructions share a preg.
        for renamed in reversed(live):
            renamer.squash(renamed)
        assert renamer.free_regs(RegClass.INT) == before_free
        freed = list(renamer.free[RegClass.INT])
        assert len(freed) == len(set(freed))
        # The recovered renamer must reach exhaustion again cleanly.
        for seq in range(before_free):
            renamer.rename(_alu(seq, int_reg(seq % 8), ()))
        assert renamer.free_regs(RegClass.INT) == 0

    def test_double_squash_rejected(self):
        renamer = Renamer()
        renamed = renamer.rename(_alu(0, int_reg(5), ()))
        renamer.squash(renamed)
        with pytest.raises(RuntimeError):
            renamer.squash(renamed)

    def test_eliminated_move_squash_keeps_shared_register(self):
        renamer = Renamer()
        producer = renamer.rename(_alu(0, int_reg(1), ()))
        move = DynInst(seq=1, pc=4, op=OpClass.MOV, dest=int_reg(2),
                       srcs=(int_reg(1),))
        renamed_move = renamer.rename_move(move)
        assert renamed_move.dest == producer.dest  # alias, no new preg
        free_before = renamer.free_regs(RegClass.INT)
        renamer.squash(renamed_move)
        # r1 still names the shared register: it must stay allocated.
        assert renamer.free_regs(RegClass.INT) == free_before
        assert renamer.refcounts(RegClass.INT)[producer.dest] == 1
        renamer.squash(producer)
        assert renamer.refcounts(RegClass.INT)[producer.dest] == 0

    def test_eliminated_move_branch_recovery_no_double_free(self):
        # The double-free shape a walk-back recovery bug would produce:
        # a squashed rename superseding an alias must not release the
        # shared register, while a committed one releases exactly one
        # reference.
        renamer = Renamer()
        producer = renamer.rename(_alu(0, int_reg(1), ()))
        shared = producer.dest
        move = DynInst(seq=1, pc=4, op=OpClass.MOV, dest=int_reg(2),
                       srcs=(int_reg(1),))
        renamed_move = renamer.rename_move(move)
        for committed in (producer, renamed_move):
            renamer.release(RegClass.INT, committed.old_dest)
        assert renamer.refcounts(RegClass.INT)[shared] == 2
        squashed = renamer.rename(_alu(2, int_reg(2), ()))
        renamer.squash(squashed)
        assert renamer.refcounts(RegClass.INT)[shared] == 2
        committed = renamer.rename(_alu(3, int_reg(2), ()))
        renamer.release(RegClass.INT, committed.old_dest)
        assert renamer.refcounts(RegClass.INT)[shared] == 1

    def test_rat_checkpoint_restore_at_every_depth(self):
        renamer = Renamer()
        rat = renamer.rat[RegClass.INT]
        depth = 24
        mappings = [rat.lookup(int_reg(7))]
        live = []
        for seq in range(depth):
            renamed = renamer.rename(
                _alu(seq, int_reg(7), (int_reg(7),)))
            live.append(renamed)
            mappings.append(renamed.dest)
        # Walk back one checkpoint at a time; the mapping must be
        # correct at every intermediate depth, not just at the end.
        for level in range(depth, 0, -1):
            assert rat.lookup(int_reg(7)) == mappings[level]
            renamer.squash(live.pop())
        assert rat.lookup(int_reg(7)) == mappings[0]


@pytest.mark.parametrize("model", ["BIG", "HALF+FX"])
def test_commit_stage_releases_through_renamer(model):
    """The commit stage frees each committed destination's previous
    mapping with one call of ``Renamer.release``, the code the tests
    above drive; the only other caller is a squash."""
    trace = generate_trace("hmmer", 1500, seed=2)
    core = build_core(model_config(model))
    release = Renamer.release.__code__
    callers = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is release:
            callers[frame.f_back.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        stats = core.run(trace)
    finally:
        sys.setprofile(previous)
    assert stats.committed == len(trace)
    freeing = sum(1 for inst in trace if inst.dest is not None)
    assert callers.pop(OutOfOrderCore._commit.__code__) == freeing
    assert set(callers) <= {Renamer.squash.__code__}
