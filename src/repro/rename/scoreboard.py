"""PRF scoreboard: 1-bit-per-entry availability flags.

Conventional PRF-based cores already provide this structure to detect
initially-ready operands at dispatch (paper Section II-A, footnote 1).
FXA additionally reads it at the front-end register-read stage, and a
second time at dispatch (Section III-C) so instructions whose producers
completed in the OXU while they were transiting the IXU dispatch as ready.
"""

from __future__ import annotations

from repro.rename.prf import PhysicalRegisterFile


class Scoreboard:
    """Read-counting wrapper over a PRF's availability bits.

    Its capacity is 1 bit per PRF entry — 1/64 of the PRF's data (paper
    Section V-B) — so its access energy is negligible but still tracked.
    """

    def __init__(self, prf: PhysicalRegisterFile):
        self._prf = prf
        # The PRF's written-cycle list is mutated in place and never
        # rebound: FXA's register read binds it once and checks one
        # operand's bit as one list index, counting the read itself.
        self._written = prf._written
        self.reads = 0

    @property
    def entries(self) -> int:
        """Flag count (equals the PRF entry count)."""
        return self._prf.entries
