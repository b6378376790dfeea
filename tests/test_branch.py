"""Unit tests for the branch-prediction package."""

import pytest

from repro.branch import (
    BTB,
    BranchPredictor,
    GShare,
    Prediction,
    ReturnAddressStack,
)
from repro.branch.gshare import CounterTable
from repro.isa import DynInst, OpClass, int_reg


def _branch(seq, pc, taken, target=None):
    return DynInst(seq=seq, pc=pc, op=OpClass.BR_COND,
                   srcs=(int_reg(1),), taken=taken,
                   target=target if taken else None)


def _resolve(predictor, pc, outcome):
    """Predict the branch at ``pc``, then train on ``outcome`` (the
    fetch-then-resolve protocol); returns the prediction."""
    taken, index = predictor.predict_and_capture(pc, outcome)
    predictor.train(index, outcome)
    return taken


class TestTwoBitCounter:
    """The 2-bit saturating counters every predictor table trains."""

    def test_initial_weakly_not_taken(self):
        assert set(CounterTable(16)._pht) == {1}
        assert not GShare(16).predict_and_capture(0, True)[0]

    def test_saturates_high(self):
        table = CounterTable(4)
        for _ in range(10):
            table.train(0, True)
        assert table._pht[0] == 3
        table.train(0, False)
        assert table._pht[0] >= 2  # still predicts taken after one miss

    def test_saturates_low(self):
        table = CounterTable(4)
        table._pht[0] = 3
        for _ in range(10):
            table.train(0, False)
        assert table._pht[0] == 0


class TestGShare:
    def test_learns_biased_branch(self):
        predictor = GShare(pht_entries=1024)
        pc = 0x4000
        # History must saturate (10 bits) before the index stabilises.
        for _ in range(30):
            _resolve(predictor, pc, True)
        assert _resolve(predictor, pc, True)

    def test_learns_alternating_pattern_via_history(self):
        """History-based indexing should learn a strict T/NT alternation."""
        predictor = GShare(pht_entries=4096)
        pc = 0x4000
        outcomes = [bool(i % 2) for i in range(4000)]
        correct = 0
        for i, outcome in enumerate(outcomes):
            if _resolve(predictor, pc, outcome) == outcome:
                if i > 1000:
                    correct += 1
        assert correct / (len(outcomes) - 1001) > 0.95

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GShare(pht_entries=1000)

    def test_history_shifts(self):
        predictor = GShare(pht_entries=16)
        for outcome in (True, False, True):
            _resolve(predictor, 0, outcome)
        assert predictor.history & 0b111 == 0b101


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(entries=512)
        assert btb.lookup(0x4000) is None
        btb.update(0x4000, 0x5000)
        assert btb.lookup(0x4000) == 0x5000

    def test_lru_eviction(self):
        btb = BTB(entries=8, ways=2)  # 4 sets
        set_stride = 4 * 4  # pcs mapping to the same set
        pcs = [0x1000 + i * set_stride for i in range(3)]
        for i, pc in enumerate(pcs):
            btb.update(pc, 0x9000 + i)
        assert btb.lookup(pcs[0]) is None  # oldest evicted
        assert btb.lookup(pcs[1]) is not None
        assert btb.lookup(pcs[2]) is not None

    def test_update_refreshes_lru(self):
        btb = BTB(entries=8, ways=2)
        set_stride = 4 * 4
        a, b, c = (0x1000 + i * set_stride for i in range(3))
        btb.update(a, 1)
        btb.update(b, 2)
        btb.update(a, 3)  # refresh a
        btb.update(c, 4)  # evicts b, not a
        assert btb.lookup(a) == 3
        assert btb.lookup(b) is None

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BTB(entries=10, ways=4)


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100
        assert ras.pop() is None

    def test_overflow_wraps(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert len(ras) == 2
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_peek(self):
        ras = ReturnAddressStack()
        assert ras.peek() is None
        ras.push(7)
        assert ras.peek() == 7
        assert len(ras) == 1


class TestBranchPredictor:
    def test_biased_loop_branch_learned(self):
        predictor = BranchPredictor()
        pc, target = 0x4000, 0x3f00
        misses = 0
        for i in range(200):
            inst = _branch(i, pc, taken=True, target=target)
            prediction = predictor.predict(inst)
            if predictor.resolve(inst, prediction):
                misses += 1
        # Warm-up costs ~one miss per history bit plus a cold BTB miss.
        assert misses < 20
        assert predictor.misprediction_rate < 0.10

    def test_btb_miss_on_taken_is_misprediction(self):
        predictor = BranchPredictor()
        # Train direction taken but give a fresh PC each time so the BTB
        # target is unknown: direction alone is not enough.
        inst = _branch(0, 0x4000, taken=True, target=0x8888)
        prediction = predictor.predict(inst)
        assert predictor.resolve(inst, prediction)  # cold = mispredict

    def test_call_return_pair(self):
        predictor = BranchPredictor()
        call = DynInst(seq=0, pc=0x1000, op=OpClass.CALL, taken=True,
                       target=0x9000)
        predictor.resolve(call, predictor.predict(call))
        ret = DynInst(seq=1, pc=0x9010, op=OpClass.RET, taken=True,
                      target=0x1004)
        prediction = predictor.predict(ret)
        assert prediction.target == 0x1004
        assert not predictor.resolve(ret, prediction)

    def test_uncond_needs_btb(self):
        predictor = BranchPredictor()
        jump = DynInst(seq=0, pc=0x2000, op=OpClass.BR_UNCOND, taken=True,
                       target=0x7777)
        first = predictor.predict(jump)
        assert predictor.resolve(jump, first)  # cold BTB
        second = predictor.predict(jump)
        assert not predictor.resolve(jump, second)  # warm BTB

    def test_prediction_correctness_check(self):
        inst = _branch(0, 0x100, taken=False)
        assert Prediction(taken=False, target=None).correct_for(inst)
        assert not Prediction(taken=True, target=0x200).correct_for(inst)

    def test_random_branch_mispredicts_sometimes(self):
        import random

        rng = random.Random(42)
        predictor = BranchPredictor()
        misses = 0
        for i in range(2000):
            inst = _branch(i, 0x4000, taken=rng.random() < 0.5,
                           target=0x5000)
            prediction = predictor.predict(inst)
            if predictor.resolve(inst, prediction):
                misses += 1
        assert misses / 2000 > 0.25  # random outcomes defeat gshare
