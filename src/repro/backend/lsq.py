"""Load/store queue with FXA's access-omission rules.

The LSQ itself is the conventional one (paper Section II-D3): loads search
older stores for forwarding, stores search younger executed loads for
order violations, and both record their addresses.  FXA changes only *who*
accesses it and *which* accesses can be skipped:

1. A store executed in the IXU has no younger executed load, so the
   violation search is omitted.
2. A load executed in the IXU whose older stores have all executed can
   never be the victim of a violation, so writing it into the LSQ is
   omitted.

Both omissions are counted; the energy model turns them into the LSQ
energy reduction of Figure 8a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class LSQStats:
    """LSQ access counters for the energy model."""

    load_writes: int = 0
    store_writes: int = 0
    forward_searches: int = 0       # load searching older stores
    violation_searches: int = 0     # store searching younger loads
    omitted_load_writes: int = 0
    omitted_violation_searches: int = 0
    forwarded_loads: int = 0
    violations: int = 0

    @property
    def searches(self) -> int:
        return self.forward_searches + self.violation_searches

    @property
    def writes(self) -> int:
        return self.load_writes + self.store_writes


class LoadStoreQueue:
    """Split load/store queues (Table I: 32 loads / 32 stores).

    Entries are the core's in-flight records and must expose ``seq``,
    ``inst`` (a :class:`~repro.isa.DynInst`), ``mem_executed`` and
    ``lsq_written`` attributes.
    """

    def __init__(self, load_capacity: int = 32, store_capacity: int = 32):
        self.load_capacity = load_capacity
        self.store_capacity = store_capacity
        self._loads: List = []
        self._stores: List = []
        self.stats = LSQStats()
        # Youngest sequence number among executed loads; lets an FXA
        # store verify omission 1's premise ("no younger executed
        # load") with one comparison instead of a queue search.
        self._youngest_executed_load_seq = -1

    # ---------------- occupancy ----------------

    @property
    def loads(self) -> Tuple:
        """Live load entries, oldest-first (read-only; validation)."""
        return tuple(self._loads)

    @property
    def stores(self) -> Tuple:
        """Live store entries, oldest-first (read-only; validation)."""
        return tuple(self._stores)

    @property
    def loads_free(self) -> int:
        return self.load_capacity - len(self._loads)

    @property
    def stores_free(self) -> int:
        return self.store_capacity - len(self._stores)

    def insert_load(self, entry) -> None:
        """Allocate a load-queue slot at rename (no data written yet)."""
        if not self.loads_free:
            raise RuntimeError("load queue overflow")
        self._loads.append(entry)

    def insert_store(self, entry) -> None:
        """Allocate a store-queue slot at rename."""
        if not self.stores_free:
            raise RuntimeError("store queue overflow")
        self._stores.append(entry)

    # ---------------- execution-time accesses ----------------

    def execute_load(self, entry, in_ixu: bool) -> bool:
        """Perform the LSQ side of a load's execution.

        Searches older executed stores for a same-address forward, then
        records the load unless the FXA omission applies (an IXU load
        whose older stores have all executed).  The store queue is in
        program order (rename appends, commit removes the head, a
        squash drops a younger suffix), so one pass that stops at the
        first younger store sees exactly the older ones.

        Returns:
            True when the load's data is forwarded from the store queue.
        """
        stats = self.stats
        stats.forward_searches += 1
        seq = entry.seq
        addr = entry.inst.mem_addr
        forwarded = False
        older_all_executed = True
        for store in self._stores:
            if store.seq >= seq:
                break
            if not store.mem_executed:
                older_all_executed = False
            elif store.inst.mem_addr == addr:
                forwarded = True
        if forwarded:
            stats.forwarded_loads += 1
        if in_ixu and older_all_executed:
            # Paper omission 2: the load can never be a violation victim.
            stats.omitted_load_writes += 1
            entry.lsq_written = False
        else:
            stats.load_writes += 1
            entry.lsq_written = True
        entry.mem_executed = True
        if entry.seq > self._youngest_executed_load_seq:
            self._youngest_executed_load_seq = entry.seq
        return forwarded

    def has_younger_executed_load(self, seq: int) -> bool:
        """Has any load younger than ``seq`` already executed?

        When True for a store, the FXA violation-search omission's
        premise does not hold and the store must search (execute in
        the OXU).
        """
        return self._youngest_executed_load_seq > seq

    def execute_store(self, entry, in_ixu: bool):
        """Perform the LSQ side of a store's execution.

        Writes address+data, and — unless executed in the IXU (paper
        omission 1) — searches younger executed loads for an ordering
        violation.  The load queue is in program order, so the first
        violator found is the oldest; the search is skipped when
        :meth:`has_younger_executed_load` says no load younger than the
        store has executed (its bound is an upper one: commit leaves it
        be, a squash recomputes it).

        Returns:
            The oldest violating load entry, or None.
        """
        stats = self.stats
        stats.store_writes += 1
        entry.mem_executed = True
        if in_ixu:
            stats.omitted_violation_searches += 1
            return None
        stats.violation_searches += 1
        seq = entry.seq
        if self.has_younger_executed_load(seq):
            addr = entry.inst.mem_addr
            for load in self._loads:
                if (load.seq > seq and load.lsq_written
                        and load.mem_executed
                        and load.inst.mem_addr == addr):
                    stats.violations += 1
                    return load
        return None

    # ---------------- retire / squash ----------------

    def commit(self, entry) -> None:
        """Free the entry's slot at commit."""
        if entry.inst.is_load:
            self._loads.remove(entry)
        else:
            self._stores.remove(entry)

    def squash_younger_than(self, seq: int) -> None:
        """Drop all squashed entries."""
        self._loads = [e for e in self._loads if e.seq <= seq]
        self._stores = [e for e in self._stores if e.seq <= seq]
        if self._youngest_executed_load_seq > seq:
            # Squashed loads re-execute on replay; recompute over the
            # survivors so stale youth doesn't block IXU stores.
            self._youngest_executed_load_seq = max(
                (e.seq for e in self._loads if e.mem_executed),
                default=-1,
            )
