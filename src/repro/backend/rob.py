"""Reorder buffer.

Every instruction — including those executed early in the IXU — allocates
a ROB entry so precise exceptions are preserved (paper footnote 2).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List


class ReorderBuffer:
    """Bounded FIFO of in-flight instructions in program order.

    The core's stages work on ``_entries`` directly: rename appends
    each renamed instruction and adds the stage's count to
    ``allocations``, commit pops the head.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque = deque()
        self.allocations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def free(self) -> int:
        return self.capacity - len(self._entries)

    def head(self):
        """Oldest in-flight instruction, or None when empty."""
        return self._entries[0] if self._entries else None

    def squash_younger_than(self, seq: int) -> List:
        """Remove every entry with ``entry.seq > seq``, youngest first.

        Returns the removed entries youngest-first so the caller can
        unwind rename state in the correct order.
        """
        removed: List = []
        while self._entries and self._entries[-1].seq > seq:
            removed.append(self._entries.pop())
        return removed
