"""Single-level set-associative cache with LRU replacement.

Write policy is write-back/write-allocate; a victim's dirty bit is
surfaced so the hierarchy can charge the write-back traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class CacheStats:
    """Per-cache access counters (feeds the energy model)."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate


class Cache:
    """A set-associative, write-back, write-allocate cache.

    Args:
        name: Label for reporting ("L1D", ...).
        size_kb: Capacity in KiB.
        ways: Associativity.
        line_bytes: Line size (64 in the paper).
    """

    def __init__(self, name: str, size_kb: int, ways: int,
                 line_bytes: int = 64):
        size = size_kb * 1024
        if size % (ways * line_bytes):
            raise ValueError("size must divide evenly into ways*lines")
        self.name = name
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count must be a power of two")
        self.stats = CacheStats()
        self._set_mask = self.num_sets - 1
        # Each set: tag -> dirty flag.  Plain dicts preserve insertion
        # order (Python >= 3.7), so the first key is always the LRU
        # line; re-inserting a key moves it to MRU.  Plain-dict ops are
        # measurably cheaper than OrderedDict on this hot path.
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(self.num_sets)
        ]

    @property
    def size_bytes(self) -> int:
        """Total data capacity in bytes."""
        return self.num_sets * self.ways * self.line_bytes

    def _locate(self, addr: int) -> Tuple[Dict[int, bool], int]:
        line = addr // self.line_bytes
        return self._sets[line & self._set_mask], line

    def probe(self, addr: int) -> bool:
        """Non-destructive lookup; does not touch LRU state or stats."""
        entry_set, tag = self._locate(addr)
        return tag in entry_set

    def probe_tag(self, tag: int) -> bool:
        """``probe`` with the line number already extracted."""
        return tag in self._sets[tag & self._set_mask]

    def _install(self, entry_set: Dict[int, bool], tag: int,
                 dirty: bool) -> bool:
        """Insert an absent line at MRU, evicting the LRU line of a full
        set; returns whether that victim was dirty (a counted
        writeback)."""
        victim_dirty = False
        if len(entry_set) >= self.ways:
            victim_dirty = entry_set.pop(next(iter(entry_set)))
            if victim_dirty:
                self.stats.writebacks += 1
        entry_set[tag] = dirty
        return victim_dirty

    def fill_tag(self, tag: int) -> None:
        """``fill`` with the line number already extracted."""
        entry_set = self._sets[tag & self._set_mask]
        dirty = entry_set.pop(tag, None)
        if dirty is not None:
            entry_set[tag] = dirty
            return
        self._install(entry_set, tag, False)

    def access(self, addr: int, is_write: bool) -> Tuple[bool, bool]:
        """Access the line containing ``addr``.

        Returns:
            (hit, victim_dirty): whether the access hit, and whether a
            dirty victim line was evicted on the fill.
        """
        tag = addr // self.line_bytes
        entry_set = self._sets[tag & self._set_mask]
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        dirty = entry_set.pop(tag, None)
        if dirty is not None:
            # Re-insert at MRU (end of the insertion order).
            entry_set[tag] = dirty or is_write
            return True, False
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        return False, self._install(entry_set, tag, is_write)

    def fill(self, addr: int) -> None:
        """Install a line without touching demand statistics (prefetch)."""
        self.fill_tag(addr // self.line_bytes)
