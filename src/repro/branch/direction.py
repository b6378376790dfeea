"""Alternative direction predictors: bimodal and tournament.

The paper's models use g-share (Table I); these are extensions for
sensitivity studies.  Every direction predictor, g-share included,
shares a two-call protocol suited to pipelined training:

* ``predict_and_capture(pc, actual_taken) -> (taken, token)`` — predict,
  then speculatively update any history with the resolved outcome (the
  checkpoint-repair equivalence; see :class:`~repro.branch.GShare`), and
  return an opaque token identifying the table entries used;
* ``train(token, taken)`` — update the captured entries at resolution.
"""

from __future__ import annotations

from repro.branch.gshare import CounterTable, GShare


class BimodalDirection(CounterTable):
    """Plain PC-indexed 2-bit counters; no history."""

    def predict_and_capture(self, pc: int, actual_taken: bool):
        index = (pc >> 2) & self._mask
        return self._pht[index] >= 2, index


class TournamentDirection:
    """McFarling tournament: bimodal + g-share + PC-indexed chooser.

    The chooser counter moves toward whichever component predicted
    correctly when they disagree.
    """

    def __init__(self, pht_entries: int = 4096, history_bits: int = 4):
        self._gshare = GShare(pht_entries, history_bits)
        self._bimodal = BimodalDirection(pht_entries)
        self._chooser = CounterTable(pht_entries)  # <2 favours bimodal
        self._mask = pht_entries - 1

    def predict_and_capture(self, pc: int, actual_taken: bool):
        g_taken, g_token = self._gshare.predict_and_capture(
            pc, actual_taken)
        b_taken, b_token = self._bimodal.predict_and_capture(
            pc, actual_taken)
        c_index = (pc >> 2) & self._mask
        use_gshare = self._chooser._pht[c_index] >= 2
        taken = g_taken if use_gshare else b_taken
        token = (g_token, b_token, c_index, g_taken, b_taken)
        return taken, token

    def train(self, token, taken: bool) -> None:
        g_token, b_token, c_index, g_taken, b_taken = token
        self._gshare.train(g_token, taken)
        self._bimodal.train(b_token, taken)
        if g_taken != b_taken:
            # Toward g-share when it was right, toward bimodal otherwise.
            self._chooser.train(c_index, g_taken == taken)


def make_direction_predictor(kind: str, pht_entries: int = 4096):
    """Factory for the direction predictors by config name."""
    if kind == "gshare":
        return GShare(pht_entries, history_bits=4)
    if kind == "bimodal":
        return BimodalDirection(pht_entries)
    if kind == "tournament":
        return TournamentDirection(pht_entries)
    raise ValueError(f"unknown predictor kind {kind!r}")
