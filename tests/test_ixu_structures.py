"""Unit tests for the IXU structural models: the bypass registry, and
the per-stage FU capacity of FXACore's stage loop."""

from dataclasses import replace

from repro.core import build_core
from repro.core.inflight import InFlight
from repro.core.presets import PAPER_IXU, half_fx_config
from repro.isa import DynInst, OpClass, int_reg
from repro.isa.registers import RegClass
from repro.ixu import BypassRegistry

ENTRIES = {RegClass.INT: 128, RegClass.FP: 96}


def _entry(seq=0):
    inst = DynInst(seq=seq, pc=0x1000, op=OpClass.INT_ALU,
                   dest=int_reg(1), srcs=(int_reg(2),))
    return InFlight(inst, fetch_cycle=0)


def _registry(depth, stage_limit):
    return BypassRegistry(depth=depth, stage_limit=stage_limit,
                          entries=ENTRIES)


class TestBypassRegistry:
    def test_value_reachable_next_cycle(self):
        registry = _registry(depth=3, stage_limit=2)
        producer = _entry()
        registry.record(RegClass.INT, 40, producer,
                        exec_cycle=10, exec_pos=0, value_ready=11)
        # Same cycle: not yet (paper Figure 3: next-cycle use).
        assert not registry.available(RegClass.INT, 40, 10, 0)
        # Next cycle, consumer one stage behind the travelling value.
        assert registry.available(RegClass.INT, 40, 11, 0)

    def test_value_travels_with_producer(self):
        """The result re-drives at the producer's current stage
        (pass-through path, paper Figure 6)."""
        registry = _registry(depth=3, stage_limit=2)
        registry.record(RegClass.INT, 40, _entry(),
                        exec_cycle=10, exec_pos=0, value_ready=11)
        # Two cycles later the producer sits at stage 2; a consumer at
        # stage 0 is exactly 2 stages away: reachable with limit 2.
        assert registry.available(RegClass.INT, 40, 12, 0)
        # Three cycles later the producer has exited (pos 3 == depth):
        # still reachable from stage 1 (distance 2)...
        assert registry.available(RegClass.INT, 40, 13, 1)
        # ...but not from stage 0 (distance 3 > limit).
        assert not registry.available(RegClass.INT, 40, 13, 0)

    def test_value_leaves_pipe(self):
        registry = _registry(depth=3, stage_limit=None)
        registry.record(RegClass.INT, 40, _entry(),
                        exec_cycle=10, exec_pos=2, value_ready=11)
        # exec at pos 2, depth 3: exits at cycle 11 (pos 3), gone at 12.
        assert registry.available(RegClass.INT, 40, 11, 0)
        assert not registry.available(RegClass.INT, 40, 12, 0)

    def test_full_network_has_no_distance_limit(self):
        registry = _registry(depth=5, stage_limit=None)
        registry.record(RegClass.INT, 40, _entry(),
                        exec_cycle=10, exec_pos=0, value_ready=11)
        assert registry.available(RegClass.INT, 40, 14, 0)  # distance 4

    def test_slow_value_not_ready(self):
        """A load's value is gated by its completion, not its position."""
        registry = _registry(depth=3, stage_limit=2)
        registry.record(RegClass.INT, 40, _entry(),
                        exec_cycle=10, exec_pos=0, value_ready=13)
        assert not registry.available(RegClass.INT, 40, 12, 2)
        assert registry.available(RegClass.INT, 40, 13, 2)

    def test_unknown_register(self):
        registry = _registry(depth=3, stage_limit=2)
        assert not registry.available(RegClass.INT, 99, 10, 0)

    def test_squashed_producer_invisible(self):
        registry = _registry(depth=3, stage_limit=2)
        producer = _entry()
        registry.record(RegClass.INT, 40, producer,
                        exec_cycle=10, exec_pos=0, value_ready=11)
        producer.squashed = True
        assert not registry.available(RegClass.INT, 40, 11, 0)
        # Nothing prunes the record: it stays unavailable at every
        # later cycle, to a consumer at every stage.
        for cycle in range(11, 200):
            for pos in range(3):
                assert not registry.available(RegClass.INT, 40, cycle, pos)

    def test_departed_value_unavailable_at_every_later_cycle(self):
        registry = _registry(depth=3, stage_limit=2)
        registry.record(RegClass.INT, 40, _entry(),
                        exec_cycle=10, exec_pos=0, value_ready=11)
        # Past the exit (pos 3 at cycle 13) the value lives only in the
        # PRF, at every later cycle and for every consumer stage.
        for cycle in range(14, 200):
            for pos in range(3):
                assert not registry.available(RegClass.INT, 40, cycle, pos)

    def test_next_producer_overwrites_the_record(self):
        registry = _registry(depth=3, stage_limit=2)
        registry.record(RegClass.INT, 40, _entry(0),
                        exec_cycle=10, exec_pos=0, value_ready=11)
        registry.record(RegClass.INT, 40, _entry(1),
                        exec_cycle=30, exec_pos=1, value_ready=31)
        assert not registry.available(RegClass.INT, 40, 30, 1)
        assert registry.available(RegClass.INT, 40, 31, 1)

    def test_classes_are_distinct(self):
        registry = _registry(depth=3, stage_limit=None)
        registry.record(RegClass.INT, 40, _entry(),
                        exec_cycle=10, exec_pos=0, value_ready=11)
        assert not registry.available(RegClass.FP, 40, 11, 0)


class TestStageFUUsage:
    """FXACore's stage loop grants each stage its FU count per cycle."""

    @staticmethod
    def _core(stage_fus):
        ixu = replace(PAPER_IXU, stage_fus=stage_fus)
        return build_core(half_fx_config(ixu))

    @staticmethod
    def _ready_alus(core, count):
        """``count`` renamed ALU ops whose operands were captured at
        register read (nothing left to bypass)."""
        entries = []
        for _ in range(count):
            seq = core.fetch_idx
            core.fetch_idx += 1
            inst = DynInst(seq=seq, pc=0x1000 + 4 * seq,
                           op=OpClass.INT_ALU, dest=int_reg(1 + seq % 20),
                           srcs=(int_reg(28),))
            entry = InFlight(inst, fetch_cycle=0)
            entry.renamed = core.renamer.rename(inst)
            entry.ixu_eligible = True
            entries.append(entry)
        return entries

    def _executed(self, core, cycle, counts):
        """Place ``counts[stage]`` ready ALU ops at each stage, run one
        cycle of the stage loop, and count per stage the ops that
        executed in the IXU."""
        placed = {stage: self._ready_alus(core, count)
                  for stage, count in counts.items()}
        core.cycle = cycle
        for stage, entries in placed.items():
            core._ixu_ring[stage][:] = entries
        core._run_ixu_stages()
        for stage, entries in placed.items():
            core._ixu_ring[stage].clear()
            assert all(e.ixu_exec_stage == stage
                       for e in entries if e.executed_in_ixu)
        return {stage: sum(e.executed_in_ixu for e in entries)
                for stage, entries in placed.items()}

    def test_capacity_per_stage_per_cycle(self):
        core = self._core((3, 1, 1))
        # Stage 0 is exhausted after three, stage 1 after one.
        assert self._executed(core, 5, {0: 4, 1: 2}) == {0: 3, 1: 1}
        assert self._executed(core, 6, {0: 3}) == {0: 3}  # new cycle

    def test_zero_fu_stage(self):
        core = self._core((3, 0))
        assert self._executed(core, 1, {1: 1}) == {1: 0}

    def test_paper_example_shape(self):
        """The paper's example IXU is 2 FUs x 2 stages (Figure 3)."""
        core = self._core((2, 2))
        assert self._executed(core, 1, {0: 3, 1: 3}) == {0: 2, 1: 2}
