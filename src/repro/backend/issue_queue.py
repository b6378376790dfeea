"""Issue queue: bounded, age-ordered window with event accounting.

The cores own wakeup and select (see ``OutOfOrderCore._schedule_entry``:
operand readiness is event-driven off producer completions); the queue
provides ordered storage, occupancy limits and the access counters the
energy model prices:

* ``dispatches`` — CAM/RAM writes when an instruction enters;
* ``issues`` — payload-RAM reads when one leaves;
* ``wakeup_broadcasts`` — tag broadcasts, one per completing producer;
* ``wakeup_cam_compares`` — broadcast × live entries, the dominant
  CAM-search energy term.

The cores' stage loops update the counters they own in place: the
select loop counts each issued entry into ``issues`` and out of the
live count ``_live``, the completion stage adds each broadcast and its
compares against ``_live``, and the tick adds one occupancy sample
(``_occupancy_accum``/``_occupancy_samples``) per cycle.

Removal is lazy: the select loop marks entries ``issued`` and counts
them out of ``_live``; the backing list is compacted only when enough
dead entries accumulate (:meth:`remove_issued`, or on a squash).  Every
occupancy consumer — ``len()``, ``full``/``free``, CAM-compare pricing,
the occupancy histogram — reads the live count, so laziness is
invisible.
"""

from __future__ import annotations

from typing import Iterator, List


class IssueQueue:
    """Age-ordered issue queue (Table I: 64 entries BIG, 32 HALF)."""

    #: Compact the backing list once this many dead entries accumulate.
    _GC_SLACK = 32

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: List = []
        self._live = 0
        self.dispatches = 0
        self.issues = 0
        self.wakeup_broadcasts = 0
        self.wakeup_cam_compares = 0
        self._occupancy_accum = 0
        self._occupancy_samples = 0

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator:
        """Iterate live entries oldest-first."""
        return iter(e for e in self._entries if not e.issued)

    @property
    def full(self) -> bool:
        return self._live >= self.capacity

    @property
    def free(self) -> int:
        return self.capacity - self._live

    def dispatch(self, entry) -> None:
        """Insert a renamed instruction (IQ write)."""
        if self._live >= self.capacity:
            raise RuntimeError("issue queue overflow")
        self._entries.append(entry)
        self._live += 1
        self.dispatches += 1

    def remove_issued(self) -> None:
        """Compact the backing list if enough dead entries accumulated."""
        entries = self._entries
        if len(entries) - self._live >= self._GC_SLACK:
            self._entries = [
                e for e in entries if not (e.issued or e.squashed)
            ]

    def squash_younger_than(self, seq: int) -> None:
        """Drop squashed entries (and compact any dead ones)."""
        self._entries = [
            e for e in self._entries
            if e.seq <= seq and not e.issued
        ]
        self._live = len(self._entries)

    def sample_occupancy_many(self, cycles: int) -> None:
        """Record ``cycles`` identical occupancy samples (fast-forward:
        the window is frozen across a jumped gap; a ticked cycle adds
        its one sample in the core's tick)."""
        self._occupancy_accum += self._live * cycles
        self._occupancy_samples += cycles

    @property
    def mean_occupancy(self) -> float:
        if not self._occupancy_samples:
            return 0.0
        return self._occupancy_accum / self._occupancy_samples
