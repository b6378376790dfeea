"""Free list of physical register identifiers."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator


class FreeList:
    """FIFO pool of free physical-register ids.

    Ids are handed out oldest-first (:meth:`Renamer.rename
    <repro.rename.Renamer.rename>` pops ``_free`` itself) and returned
    at commit/squash; the FIFO ordering mirrors hardware free lists and
    keeps allocation deterministic.
    """

    def __init__(self, ids: Iterable[int], capacity: int = 0):
        """``capacity`` bounds the pool; defaults to the initial size.

        Rename schemes with register aliasing (RENO move elimination)
        can legitimately grow the pool past its initial size — pregs
        holding architectural values get reclaimed without a paired
        allocation — so they pass the full PRF size instead.
        """
        self._free: Deque[int] = deque(ids)
        self._capacity = max(capacity, len(self._free))

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, reg_id: int) -> bool:
        return reg_id in self._free

    def __iter__(self) -> Iterator[int]:
        """Iterate free ids oldest-first (validation audits)."""
        return iter(self._free)

    @property
    def capacity(self) -> int:
        """Total ids managed (free + in flight)."""
        return self._capacity

    def can_allocate(self, count: int = 1) -> bool:
        """True when ``count`` ids are available."""
        return len(self._free) >= count

    def release(self, reg_id: int) -> None:
        """Return an id to the pool."""
        if len(self._free) >= self._capacity:
            raise RuntimeError("free list overflow: double release?")
        self._free.append(reg_id)
