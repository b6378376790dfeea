"""Composite branch predictor used by every core model.

Combines the g-share direction predictor, the BTB and the return-address
stack.  Because the simulator is trace-driven, the core asks for a
prediction for each fetched control instruction, compares it against the
trace's recorded outcome, and charges the misprediction penalty when they
disagree; the predictor itself is oblivious to speculation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.instruction import DynInst
from repro.isa.opclass import OpClass
from repro.branch.btb import BTB
from repro.branch.direction import make_direction_predictor
from repro.branch.gshare import GShare
from repro.branch.ras import ReturnAddressStack


@dataclass(unsafe_hash=True, slots=True)
class Prediction:
    """Outcome of a front-end prediction for one control instruction.

    ``pht_index`` captures the g-share index used at predict time so the
    counter can be trained at resolution, after the global history has
    moved on.

    A plain slotted record, compared and hashed by field; fetch builds
    one per predicted branch, and nothing writes it afterwards.
    """

    taken: bool
    target: Optional[int]
    pht_index: Optional[int] = None

    def correct_for(self, inst: DynInst) -> bool:
        """True when this prediction matches the trace outcome."""
        if self.taken != inst.taken:
            return False
        if inst.taken:
            return self.target == inst.target
        return True


class BranchPredictor:
    """G-share + BTB + RAS front-end predictor (Table I parameters)."""

    def __init__(
        self,
        pht_entries: int = 4096,
        btb_entries: int = 512,
        ras_depth: int = 16,
        history_bits: int = 4,
        kind: str = "gshare",
    ):
        if kind == "gshare":
            # 4 history bits (rather than log2(PHT)) trades some pattern
            # capacity for much faster training — the right point for
            # the synthetic workloads' mix of periodic loops and weakly-
            # correlated data-dependent branches.
            self.direction = GShare(pht_entries, history_bits)
        else:
            self.direction = make_direction_predictor(kind, pht_entries)
        self.btb = BTB(entries=btb_entries)
        self.ras = ReturnAddressStack(depth=ras_depth)
        self.lookups = 0
        self.mispredictions = 0

    def predict(self, inst: DynInst) -> Prediction:
        """Predict one fetched control instruction and update the RAS."""
        self.lookups += 1
        if inst.op is OpClass.RET:
            target = self.ras.pop()
            return Prediction(taken=True, target=target)
        if inst.op is OpClass.CALL:
            self.ras.push(inst.fall_through)
            target = self.btb.lookup(inst.pc)
            return Prediction(taken=True, target=target)
        if inst.op is OpClass.BR_UNCOND:
            target = self.btb.lookup(inst.pc)
            return Prediction(taken=True, target=target)
        # Speculative history, repaired on mispredicts: in a model with
        # no wrong-path fetch this equals shifting the actual outcome in
        # at predict time (the direction predictor handles it).
        taken, token = self.direction.predict_and_capture(
            inst.pc, inst.taken)
        target = self.btb.lookup(inst.pc) if taken else None
        return Prediction(taken=taken, target=target, pht_index=token)

    def resolve(self, inst: DynInst, prediction: Prediction) -> bool:
        """Train on the actual outcome; returns True on misprediction."""
        if inst.op is OpClass.BR_COND and prediction.pht_index is not None:
            self.direction.train(prediction.pht_index, inst.taken)
        if inst.taken and inst.target is not None:
            self.btb.update(inst.pc, inst.target)
        mispredicted = not prediction.correct_for(inst)
        if mispredicted:
            self.mispredictions += 1
        return mispredicted

    @property
    def misprediction_rate(self) -> float:
        """Fraction of predicted control instructions that mispredicted."""
        if not self.lookups:
            return 0.0
        return self.mispredictions / self.lookups
