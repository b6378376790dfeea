"""Unit tests for the cache hierarchy."""

import pytest

from repro.mem import Cache, CacheHierarchy, HierarchyConfig


class TestCache:
    def test_geometry(self):
        cache = Cache("L1D", size_kb=32, ways=8, line_bytes=64)
        assert cache.size_bytes == 32 * 1024
        assert cache.num_sets == 64

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("X", size_kb=33, ways=8, line_bytes=64)

    def test_miss_then_hit(self):
        cache = Cache("L1D", 32, 8)
        hit, _ = cache.access(0x1000, False)
        assert not hit
        hit, _ = cache.access(0x1000, False)
        assert hit
        hit, _ = cache.access(0x1004, False)  # same line
        assert hit

    def test_lru_within_set(self):
        cache = Cache("T", size_kb=1, ways=2, line_bytes=64)
        # 8 sets; addresses 0, 8*64, 16*64 map to set 0.
        stride = cache.num_sets * 64
        a, b, c = 0, stride, 2 * stride
        cache.access(a, False)
        cache.access(b, False)
        cache.access(a, False)       # refresh a
        cache.access(c, False)       # evicts b
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_dirty_eviction_reported(self):
        cache = Cache("T", size_kb=1, ways=1, line_bytes=64)
        stride = cache.num_sets * 64
        cache.access(0, True)                    # dirty line
        _, victim_dirty = cache.access(stride, False)
        assert victim_dirty
        assert cache.stats.writebacks == 1

    def test_clean_eviction_not_reported(self):
        cache = Cache("T", size_kb=1, ways=1, line_bytes=64)
        stride = cache.num_sets * 64
        cache.access(0, False)
        _, victim_dirty = cache.access(stride, False)
        assert not victim_dirty

    def test_stats(self):
        cache = Cache("T", 32, 8)
        cache.access(0, False)
        cache.access(0, False)
        cache.access(64, True)
        stats = cache.stats
        assert stats.reads == 2 and stats.writes == 1
        assert stats.read_misses == 1 and stats.write_misses == 1
        assert stats.accesses == 3
        assert abs(stats.miss_rate - 2 / 3) < 1e-12

    def test_fill_evicts_like_a_miss(self):
        """A prefetch fill evicts the LRU line of a full set and counts
        a dirty victim's writeback, as a demand miss does, but counts
        no access."""
        cache = Cache("T", size_kb=1, ways=1, line_bytes=64)
        stride = cache.num_sets * 64
        cache.access(0, True)                    # dirty line
        cache.fill(stride)
        assert not cache.probe(0) and cache.probe(stride)
        assert cache.stats.writebacks == 1
        assert cache.stats.accesses == 1


class TestHierarchy:
    def test_latencies(self):
        hierarchy = CacheHierarchy()
        config = hierarchy.config
        cold = hierarchy.load(0x1000)
        assert cold.went_to_memory
        assert cold.latency == (config.l1_latency + config.l2_latency
                                + config.mem_latency)
        warm = hierarchy.load(0x1000)
        assert warm.l1_hit
        assert warm.latency == config.l1_latency

    def test_l2_hit_latency(self):
        config = HierarchyConfig(l1d_kb=1, l1d_ways=1)
        hierarchy = CacheHierarchy(config)
        stride = hierarchy.l1d.num_sets * 64
        hierarchy.load(0)          # fills L1 and L2
        hierarchy.load(stride)     # evicts 0 from tiny L1
        result = hierarchy.load(0)
        assert not result.l1_hit and result.l2_hit
        assert result.latency == config.l1_latency + config.l2_latency

    def test_fetch_uses_l1i(self):
        hierarchy = CacheHierarchy()
        hierarchy.fetch(0x40_0000)
        assert hierarchy.l1i.stats.reads == 1
        assert hierarchy.l1d.stats.reads == 0

    def test_store_write_allocates(self):
        hierarchy = CacheHierarchy()
        result = hierarchy.store(0x2000)
        assert not result.l1_hit
        hit = hierarchy.load(0x2000)
        assert hit.l1_hit

    def test_memory_access_counted(self):
        hierarchy = CacheHierarchy()
        hierarchy.load(0x1000)
        hierarchy.load(0x9000)
        assert hierarchy.mem_accesses == 2

    def test_table1_defaults(self):
        """Default geometry must match Table I."""
        hierarchy = CacheHierarchy()
        assert hierarchy.l1i.size_bytes == 48 * 1024
        assert hierarchy.l1i.ways == 12
        assert hierarchy.l1d.size_bytes == 32 * 1024
        assert hierarchy.l1d.ways == 8
        assert hierarchy.l2.size_bytes == 512 * 1024
        assert hierarchy.config.mem_latency == 200

    def test_sequential_stream_high_hit_rate(self):
        hierarchy = CacheHierarchy()
        for i in range(4096):
            hierarchy.load(0x10_0000 + 8 * i)
        assert hierarchy.l1d.stats.hit_rate > 0.85
