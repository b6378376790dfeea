"""IXU bypass reachability over flat per-register records.

Bypass semantics (paper Section II-C and Figure 6): an instruction that
executes at stage *s* in cycle *t* carries its result down the pipe on the
pass-through path, re-driving it at each later stage, so at a later cycle
*t'* the value is sourced from stage ``s + (t' - t)``.  A consumer at
stage ``s_c`` can receive it iff

* the value is ready (``t' >= value_ready``, 1 cycle after an ALU op,
  the cache-fill cycle for a load),
* the producer is still inside (or just exiting) the pipe
  (``s + (t' - t) <= depth``), and
* the wire exists: ``(s + (t' - t)) - s_c <= bypass_stage_limit``
  (the "opt" network omits wires between FUs more than two stages
  apart, Section III-A2; the full network has no limit).

There is deliberately no OXU→IXU path (Section III-A1): values produced
in the OXU reach later instructions only through the PRF at their
front-end register read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.registers import RegClass


class BypassRegistry:
    """The last IXU-produced value of every physical register.

    Its slot for ``(cls, preg)`` holds ``(exec_cycle - exec_pos,
    value_ready, producer)`` for the register's latest IXU producer, or
    None.  The first field is the cycle the value would have sat at
    stage 0, so its stage at cycle ``c`` is ``c - (exec_cycle -
    exec_pos)``.  Nothing is ever pruned: a value that has left the pipe
    reads as unavailable by that arithmetic and a squashed producer's by
    its ``squashed`` flag, and both stay unavailable at every later
    cycle; the next IXU producer of the register overwrites the slot.
    """

    def __init__(self, depth: int, stage_limit: Optional[int],
                 entries: Dict[RegClass, int]):
        # _reach[s]: the deepest stage a consumer at stage s can still
        # take a value from (the pipe's exit, or the wire's end).
        self._reach: Tuple[int, ...] = tuple(
            depth if stage_limit is None else min(depth, s + stage_limit)
            for s in range(depth)
        )
        self._values: Dict[RegClass, List[Optional[Tuple]]] = {
            cls: [None] * count for cls, count in entries.items()
        }

    def record(self, cls: RegClass, preg: int, producer,
               exec_cycle: int, exec_pos: int, value_ready: int) -> None:
        """An IXU FU produced (cls, preg)."""
        self._values[cls][preg] = (exec_cycle - exec_pos, value_ready,
                                   producer)

    def available(self, cls: RegClass, preg: int, cycle: int,
                  consumer_pos: int) -> bool:
        """Can a consumer FU at ``consumer_pos`` receive (cls, preg) now?"""
        produced = self._values[cls][preg]
        if produced is None:
            return False
        stage0_cycle, value_ready, producer = produced
        return (value_ready <= cycle
                <= stage0_cycle + self._reach[consumer_pos]
                and not producer.squashed)
