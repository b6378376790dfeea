"""Two-level cache hierarchy with a flat main memory behind it."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HierarchyConfig:
    """Latency/geometry parameters (Table I defaults).

    ``prefetch_degree`` enables a next-line prefetcher on the L1D: on a
    demand miss to line X, lines X+1..X+degree are installed.  Table I
    does not name a prefetcher, but without one every sequential stream
    pays a miss per line, which crushes the streaming benchmarks
    (libquantum, lbm, ...) in a way the paper's results exclude; a
    timely next-line prefetcher is the minimal stand-in.
    """

    l1i_kb: int = 48
    l1i_ways: int = 12
    l1d_kb: int = 32
    l1d_ways: int = 8
    l2_kb: int = 512
    l2_ways: int = 8
    line_bytes: int = 64
    l1_latency: int = 2
    l2_latency: int = 12
    mem_latency: int = 200
    prefetch_degree: int = 3


@dataclass(frozen=True)
class AccessResult:
    """Timing outcome of one hierarchy access."""

    latency: int
    l1_hit: bool
    l2_hit: bool

    @property
    def went_to_memory(self) -> bool:
        return not self.l1_hit and not self.l2_hit


class CacheHierarchy:
    """L1I + L1D backed by a shared L2 and flat main memory.

    The model is latency-only: accesses never queue against each other
    (port contention at the L1D is enforced by the core's memory-FU
    arbitration instead, matching how the paper counts shared-port
    conflicts between the IXU and OXU).
    """

    def __init__(self, config: HierarchyConfig = HierarchyConfig()):
        # Local import keeps cache.py importable on its own.
        from repro.mem.cache import Cache

        self.config = config
        self.l1i = Cache("L1I", config.l1i_kb, config.l1i_ways,
                         config.line_bytes)
        self.l1d = Cache("L1D", config.l1d_kb, config.l1d_ways,
                         config.line_bytes)
        self.l2 = Cache("L2", config.l2_kb, config.l2_ways,
                        config.line_bytes)
        self.mem_accesses = 0
        self.prefetches = 0
        # Completion cycle of the latest outstanding refill the core
        # reported (a one-entry MSHR view; the model is latency-only,
        # so the timestamp exists purely for fast-forward horizon
        # queries and never affects access timing).
        self._refill_ready = 0
        # Tagged prefetching: lines brought in by the prefetcher are
        # remembered; a demand hit on one re-arms the prefetcher so a
        # steady stream stays ahead of demand (miss-free steady state,
        # like a real stride prefetcher on libquantum/lbm-class code).
        self._prefetched_lines = set()
        # AccessResult is frozen and latencies are fixed per hierarchy,
        # so the three possible outcomes are shared singletons — one
        # allocation per *hierarchy* instead of one per access.
        self._l1_hit_result = AccessResult(config.l1_latency, True, False)
        self._l2_hit_result = AccessResult(
            config.l1_latency + config.l2_latency, False, True)
        self._miss_result = AccessResult(
            config.l1_latency + config.l2_latency + config.mem_latency,
            False, False)

    def _access(self, l1, addr: int, is_write: bool) -> AccessResult:
        l1_hit, l1_victim_dirty = l1.access(addr, is_write)
        if l1_victim_dirty:
            # Charge the victim write-back as an L2 write event.  The
            # victim's address is not tracked, so only the energy/stat
            # event is recorded — L2 contents are unaffected.
            self.l2.stats.writes += 1
        if l1_hit:
            return self._l1_hit_result
        l2_hit, l2_victim_dirty = self.l2.access(addr, False)
        if l2_victim_dirty:
            self.mem_accesses += 1
        if l2_hit:
            return self._l2_hit_result
        self.mem_accesses += 1
        return self._miss_result

    def note_refill(self, ready_cycle: int) -> None:
        """The core stalled on a miss whose line lands at ``ready_cycle``."""
        if ready_cycle > self._refill_ready:
            self._refill_ready = ready_cycle

    def fill_horizon(self, cycle: int) -> "int | None":
        """Completion cycle of the outstanding refill, if still pending.

        The fast-forward kernel folds this into its event horizon: a
        core sleeping on a DRAM/L2 fill may jump directly to the cycle
        the line arrives.
        """
        ready = self._refill_ready
        return ready if ready >= cycle else None

    def fetch(self, pc: int) -> AccessResult:
        """Instruction fetch of the line containing ``pc``."""
        result = self._access(self.l1i, pc, False)
        if not result.l1_hit and self.config.prefetch_degree:
            # Code is overwhelmingly sequential: next-line prefetch.
            self.prefetches += 1
            self.l1i.fill(pc + self.config.line_bytes)
            self.l2.fill(pc + self.config.line_bytes)
        return result

    def load(self, addr: int) -> AccessResult:
        """Data load."""
        result = self._access(self.l1d, addr, False)
        self._maybe_prefetch(addr, result.l1_hit)
        return result

    def store(self, addr: int) -> AccessResult:
        """Data store (performed at commit; write-allocate)."""
        result = self._access(self.l1d, addr, True)
        self._maybe_prefetch(addr, result.l1_hit)
        return result

    def _maybe_prefetch(self, addr: int, l1_hit: bool) -> None:
        """Next-line prefetch into the L1D, on a demand miss or on a hit
        to a prefetched line: the ``prefetch_degree`` lines after the
        accessed one are tagged as prefetched, and those not resident
        in the L1D are installed there and in the L2.

        Prefetches are modelled as timely and free of port contention;
        they are counted (for the energy model) but charged no latency.
        """
        degree = self.config.prefetch_degree
        if not degree:
            return
        line = addr // self.config.line_bytes
        prefetched = self._prefetched_lines
        if l1_hit:
            if line not in prefetched:
                return
            prefetched.discard(line)
        if len(prefetched) > 4096:
            prefetched.clear()
        l1d = self.l1d
        l2 = self.l2
        installed = 0
        for target_line in range(line + 1, line + 1 + degree):
            prefetched.add(target_line)
            if l1d.probe_tag(target_line):
                continue  # resident: its LRU position stays
            installed += 1
            l1d.fill_tag(target_line)
            l2.fill_tag(target_line)
        self.prefetches += installed
