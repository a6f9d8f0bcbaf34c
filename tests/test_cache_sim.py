"""Tests of the set-associative LRU cache simulator."""

import pytest

from repro.machine import CacheHierarchy, SetAssociativeCache


def make(size=1024, line=64, ways=2):
    return SetAssociativeCache(size, line, ways)


class TestBasics:
    def test_geometry(self):
        c = make(1024, 64, 2)
        assert c.num_sets == 8

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 64)
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 64)
        with pytest.raises(ValueError):
            SetAssociativeCache(192, 64, ways=4)

    def test_fully_associative(self):
        c = SetAssociativeCache(256, 64, ways=0)
        assert c.num_sets == 1 and c.ways == 4

    def test_cold_miss_then_hit(self):
        c = make()
        assert c.access(0) is False
        assert c.access(8) is True  # same line
        assert c.stats.misses == 1 and c.stats.hits == 1

    def test_capacity_eviction(self):
        # Fully associative, 4 lines: access 5 distinct lines then the
        # first again -> it was evicted (LRU).
        c = SetAssociativeCache(256, 64, ways=0)
        for i in range(5):
            c.access(i * 64)
        assert c.access(0) is False

    def test_lru_order(self):
        c = SetAssociativeCache(256, 64, ways=0)
        for i in range(4):
            c.access(i * 64)
        c.access(0)  # refresh line 0
        c.access(4 * 64)  # evicts line 1, not 0
        assert c.access(0) is True
        assert c.access(64) is False

    def test_conflict_misses(self):
        # Direct-mapped: two lines mapping to the same set thrash.
        c = SetAssociativeCache(512, 64, ways=1)
        a, b = 0, 512  # same set
        for _ in range(4):
            c.access(a)
            c.access(b)
        assert c.stats.misses == 8

    def test_writeback_accounting(self):
        c = SetAssociativeCache(128, 64, ways=0)  # 2 lines
        c.access(0, write=True)
        c.access(64)
        c.access(128)  # evicts dirty line 0
        assert c.stats.writebacks == 1
        c.flush()
        assert c.stats.writebacks == 1  # remaining lines were clean

    def test_access_range(self):
        c = make(2048, 64, 0)
        misses = c.access_range(0, 1024)
        assert misses == 16
        assert c.access_range(0, 1024) == 0

    def test_access_range_counts_match_per_line_loop(self):
        # The inlined access_range is semantically a per-line access loop.
        a = SetAssociativeCache(4096, 64, ways=8)
        b = SetAssociativeCache(4096, 64, ways=8)
        spans = [(0, 1024, False), (100, 700, True), (8192, 64, False), (0, 1024, False)]
        for start, nbytes, write in spans:
            a.access_range(start, nbytes, write)
            addr = (start // 64) * 64
            while addr < start + nbytes:
                b.access(addr, write)
                addr += 64
        assert a.stats.accesses == b.stats.accesses
        assert a.stats.misses == b.stats.misses
        assert a.stats.writebacks == b.stats.writebacks
        assert a.access_range(0, 0) == 0


class TestHierarchy:
    def test_l2_filters_l3(self):
        l2 = SetAssociativeCache(256, 64, ways=0)
        l3 = SetAssociativeCache(4096, 64, ways=0)
        h = CacheHierarchy(l2, l3)
        h.access_range(0, 256)
        h.access_range(0, 256)  # L2 hits, L3 untouched
        assert l3.stats.accesses == 4
        assert h.dram_bytes() == 256

    def test_line_mismatch(self):
        with pytest.raises(ValueError):
            CacheHierarchy(
                SetAssociativeCache(256, 32), SetAssociativeCache(256, 64)
            )
