"""Tests for the alternative direction predictors (extensions)."""

import random

import pytest

from repro.branch import BranchPredictor, GShare
from repro.branch.direction import (
    BimodalDirection,
    TournamentDirection,
    make_direction_predictor,
)
from repro.core import build_core, model_config
from repro.workloads import generate_trace
from dataclasses import replace


def _feed(direction, outcomes, pc=0x4000):
    """Run the predict/train protocol over an outcome sequence; returns
    the miss count over the second half (post warm-up)."""
    misses = 0
    half = len(outcomes) // 2
    for i, taken in enumerate(outcomes):
        pred, token = direction.predict_and_capture(pc, taken)
        direction.train(token, taken)
        if i >= half and pred != taken:
            misses += 1
    return misses


class TestBimodal:
    def test_learns_bias(self):
        outcomes = [True] * 200
        assert _feed(BimodalDirection(256), outcomes) == 0

    def test_cannot_learn_alternation(self):
        outcomes = [bool(i % 2) for i in range(400)]
        misses = _feed(BimodalDirection(256), outcomes)
        assert misses > 50  # bimodal has no history

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            BimodalDirection(1000)

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            BimodalDirection(0)


class TestGShareDirection:
    """G-share under the same protocol."""

    def test_learns_alternation(self):
        outcomes = [bool(i % 2) for i in range(400)]
        misses = _feed(GShare(1024, history_bits=4), outcomes)
        assert misses < 10

    def test_history_bits_per_builder(self):
        """The factory, the tournament and the core's predictor build
        g-share with 4 history bits; g-share's own default is log2 of
        its table."""
        built = (make_direction_predictor("gshare", 1024),
                 TournamentDirection(1024)._gshare,
                 BranchPredictor(pht_entries=1024).direction)
        assert [g._history_mask for g in built] == [0b1111] * 3
        assert GShare(1024)._history_mask == 1023


class TestTournament:
    def test_learns_bias(self):
        outcomes = [True] * 200
        assert _feed(TournamentDirection(1024), outcomes) <= 1

    def test_learns_alternation_via_gshare_side(self):
        outcomes = [bool(i % 2) for i in range(600)]
        misses = _feed(TournamentDirection(1024), outcomes)
        assert misses < 20

    def test_beats_or_matches_components_on_mixed_load(self):
        rng = random.Random(11)
        # Two branches: one biased, one patterned.
        sequences = {
            0x4000: [rng.random() < 0.95 for _ in range(600)],
            0x8000: [bool(i % 2) for i in range(600)],
        }
        scores = {}
        for name in ("bimodal", "gshare", "tournament"):
            direction = make_direction_predictor(name, 1024)
            misses = 0
            for i in range(600):
                for pc, outcomes in sequences.items():
                    taken = outcomes[i]
                    pred, token = direction.predict_and_capture(pc, taken)
                    direction.train(token, taken)
                    if i >= 300 and pred != taken:
                        misses += 1
            scores[name] = misses
        assert scores["tournament"] <= min(scores["bimodal"],
                                           scores["gshare"]) * 1.3

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_direction_predictor("perceptron")


class TestPredictorKindInCore:
    def test_all_kinds_run_end_to_end(self):
        trace = generate_trace("sjeng", 1500)
        for kind in ("gshare", "bimodal", "tournament"):
            config = replace(model_config("BIG"), predictor_kind=kind)
            stats = build_core(config).run(trace)
            assert stats.committed == 1500
            assert stats.branches > 0

    def test_branch_predictor_kind_param(self):
        predictor = BranchPredictor(kind="tournament")
        assert isinstance(predictor.direction, TournamentDirection)
        assert isinstance(BranchPredictor().direction, GShare)
