"""G-share direction predictor (McFarling) with 2-bit saturating counters."""

from __future__ import annotations


class CounterTable:
    """A table of 2-bit saturating counters: 0 and 1 predict not taken,
    2 and 3 taken, and every counter starts weakly not taken (1).

    Every counter in the predictors trains through :meth:`train`:
    g-share's and bimodal's pattern-history tables and the tournament
    predictor's chooser.

    Args:
        pht_entries: Table size, a power of two.
    """

    def __init__(self, pht_entries: int = 4096):
        if pht_entries <= 0 or pht_entries & (pht_entries - 1):
            raise ValueError("pht_entries must be a power of two")
        self._mask = pht_entries - 1
        # One byte per counter, stored compactly.
        self._pht = bytearray([1]) * pht_entries

    def train(self, index: int, taken: bool) -> None:
        """Move the counter at ``index`` one step toward the outcome."""
        value = self._pht[index]
        if taken:
            self._pht[index] = min(3, value + 1)
        else:
            self._pht[index] = max(0, value - 1)


class GShare(CounterTable):
    """G-share: PC xor global-history indexes a PHT of 2-bit counters.

    Implements the direction-predictor protocol of
    :mod:`repro.branch.direction`: :meth:`predict_and_capture` at fetch,
    :meth:`train` (the captured PHT index) at resolution.

    Args:
        pht_entries: Pattern-history-table size; the paper uses 4096.
        history_bits: Global-history length; defaults to log2(pht_entries).
    """

    def __init__(self, pht_entries: int = 4096, history_bits: int = 0):
        super().__init__(pht_entries)
        bits = history_bits or pht_entries.bit_length() - 1
        self._history_mask = (1 << bits) - 1
        self._history = 0

    @property
    def history(self) -> int:
        """Current global history register value."""
        return self._history

    def predict_and_capture(self, pc: int, actual_taken: bool):
        """Predict the branch at ``pc``; returns ``(taken, PHT index)``.

        The index is captured here because the global history will have
        shifted by resolution time.  The resolved outcome is shifted in
        at once: equivalent to the usual speculative history with
        checkpoint repair in a model that never fetches down the wrong
        path.
        """
        history = self._history
        index = ((pc >> 2) ^ history) & self._mask
        self._history = (
            (history << 1) | int(actual_taken)) & self._history_mask
        return self._pht[index] >= 2, index
