"""Functional-unit pools with per-cycle issue-port modelling.

Each pool owns N identical units.  Pipelined ops occupy a unit's issue
port for one cycle; divides are unpipelined and hold their unit busy for
the full latency.  Execution counts feed the energy model (the paper's
point: total FU op counts barely change between models — Section V-A1).
"""

from __future__ import annotations

from typing import List

from repro.isa.opclass import FUType, LATENCY, OpClass

#: Unpipelined ops hold their unit for the whole latency.
_UNPIPELINED = frozenset({OpClass.INT_DIV, OpClass.FP_DIV})


class FUPool:
    """A pool of identical functional units of one type."""

    def __init__(self, fu_type: FUType, count: int):
        if count < 0:
            raise ValueError("FU count cannot be negative")
        self.fu_type = fu_type
        self.count = count
        self._busy_until: List[int] = [0] * count
        # Unpipelined holds are rare, so a single high-water mark lets
        # the common all-free case skip the per-unit scan entirely.
        self._busy_max = 0
        # Issue-port claims only ever target the core's current cycle,
        # which is monotonic, so one (cycle, count) pair replaces the
        # per-cycle dict.
        self._issue_cycle = -1
        self._issued = 0
        self.executions = 0

    def try_issue(self, op: OpClass, cycle: int) -> bool:
        """Claim a unit for ``op`` at ``cycle``; False when none free."""
        if self._issue_cycle != cycle:
            self._issue_cycle = cycle
            self._issued = 0
        if self._busy_max <= cycle:
            free_units = self.count
        else:
            free_units = sum(1 for b in self._busy_until if b <= cycle)
        if free_units - self._issued <= 0:
            return False
        self._issued += 1
        if op in _UNPIPELINED:
            # Occupy the soonest-free unit for the whole operation.
            busy = self._busy_until
            unit = min(range(self.count), key=busy.__getitem__)
            busy[unit] = cycle + LATENCY[op]
            if busy[unit] > self._busy_max:
                self._busy_max = busy[unit]
        self.executions += 1
        return True
