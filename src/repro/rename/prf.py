"""Physical register file: readiness timestamps plus port accounting.

The timing model represents a physical register's *value* by the cycle it
becomes available (``ready_cycle``).  A register is ready at cycle ``c``
when ``ready_cycle <= c`` — this one comparison implements both the PRF
scoreboard check and operand wakeup.

The stages write the fields themselves: :meth:`Renamer.rename
<repro.rename.Renamer.rename>` marks a new destination pending
(``NEVER``), the completion stage stores its two cycles and counts the
write, and the register-read stages count the reads.
"""

from __future__ import annotations

from typing import List

#: Ready-from-the-start marker for architectural values.
ALWAYS_READY = 0
#: Not-yet-written marker.
NEVER = 1 << 60


class PhysicalRegisterFile:
    """One class's physical register file (Table I: 128 INT / 96 FP).

    Tracks per-entry readiness cycles and counts read/write port events
    for the energy model.  The read ports are shared between the IXU and
    OXU (``CoreConfig.prf_read_ports``), and the timing model throttles
    only FXA's front-end register read: it captures an operand only
    through a port the OXU left free that cycle, and an operand it
    misses must arrive by IXU bypassing or wait in the issue queue.
    OXU reads are counted (they claim ports first each cycle, which is
    the OXU's priority) but never throttled; the paper argues the
    shared ports do not change latency (Section III-B).
    """

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("PRF needs at least one entry")
        self.entries = entries
        # Two timestamps per entry: when the value is on a bypass wire
        # (wakeup/issue readiness) and when it is physically written to
        # the PRF (front-end scoreboard visibility).  An IXU-executed
        # instruction's result is bypassable one cycle after execution
        # but reaches the PRF only after it exits the IXU (paper
        # Section II-B), so the two differ by several cycles.
        # ``ready_cycles`` is public: the issue loop indexes it directly
        # (one list access per source operand per select attempt).  The
        # list is mutated in place and never rebound.
        self.ready_cycles: List[int] = [ALWAYS_READY] * entries
        self._written: List[int] = [ALWAYS_READY] * entries
        self.reads = 0
        self.writes = 0

    def ready_cycle(self, reg_id: int) -> int:
        """Cycle at which the value is bypassable (wakeup view)."""
        return self.ready_cycles[reg_id]

    def is_ready(self, reg_id: int, cycle: int) -> bool:
        """Scoreboard view: is the value *in the PRF* at ``cycle``?"""
        return self._written[reg_id] <= cycle

    def reset_entry(self, reg_id: int) -> None:
        """Reclaim an entry on squash: it holds no pending value."""
        self.ready_cycles[reg_id] = ALWAYS_READY
        self._written[reg_id] = ALWAYS_READY
