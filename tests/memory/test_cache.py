"""CacheModel: residency accounting and the Figure 3 coherency semantics."""

import pytest

from repro.common.config import LocalMemoryConfig
from repro.memory.cache import CacheModel
from repro.memory.host import HostMemory


def make(capacity=64 * 1024, cache_capacity=8 * 1024, line=128):
    mem = HostMemory(capacity, node="home")
    cfg = LocalMemoryConfig(
        cache_line_bytes=line, cache_capacity_bytes=cache_capacity
    )
    return mem, CacheModel(mem, cfg)


def remote_write(mem, cache, offset, data):
    """A fabric write: the stale snapshot first, then the bytes land."""
    stale = cache.remote_write_received(offset, len(data))
    mem.write(offset, data)
    return stale


class TestResidency:
    def test_first_read_misses_second_hits(self):
        _, cache = make()
        a1 = cache.local_read(0, 1000)
        assert a1.hit_bytes == 0 and a1.miss_bytes >= 1000
        a2 = cache.local_read(0, 1000)
        assert a2.miss_bytes == 0 and a2.hit_fraction == 1.0

    def test_partial_overlap_hits_partially(self):
        _, cache = make()
        cache.local_read(0, 1024)
        access = cache.local_read(512, 1024)
        assert 0 < access.hit_bytes < access.total_bytes

    def test_ranges_align_to_lines(self):
        _, cache = make(line=128)
        cache.local_read(130, 10)  # touches line 1
        assert cache.is_resident(128, 128)
        assert not cache.is_resident(0, 128)

    def test_write_populates_cache(self):
        _, cache = make()
        cache.local_write(0, b"x" * 1000)
        access = cache.local_read(0, 1000)
        assert access.hit_fraction == 1.0

    def test_capacity_bounds_residency(self):
        _, cache = make(capacity=64 * 1024, cache_capacity=4 * 1024)
        for i in range(16):
            cache.local_read(i * 1024, 1024)
        assert cache.resident_bytes <= 4 * 1024

    def test_lru_evicts_least_recently_used(self):
        _, cache = make(capacity=64 * 1024, cache_capacity=2 * 1024)
        cache.local_read(0, 1024)
        cache.local_read(1024, 1024)
        cache.local_read(2048, 1024)  # evicts [0,1024), the coldest
        assert not cache.is_resident(0, 1024)
        assert cache.is_resident(2048, 1024)

    def test_lru_reaccess_refreshes_recency(self):
        _, cache = make(capacity=64 * 1024, cache_capacity=2 * 1024)
        cache.local_read(0, 1024)
        cache.local_read(1024, 1024)
        cache.local_read(0, 1024)  # refresh: [1024,2048) is now coldest
        cache.local_read(2048, 1024)  # evicts [1024,2048), not [0,1024)
        assert cache.is_resident(0, 1024)
        assert not cache.is_resident(1024, 1024)
        assert cache.is_resident(2048, 1024)

    def test_lru_write_refreshes_recency(self):
        _, cache = make(capacity=64 * 1024, cache_capacity=2 * 1024)
        cache.local_read(0, 1024)
        cache.local_read(1024, 1024)
        cache.local_write(0, b"y" * 1024)  # stores age the line too
        cache.local_read(2048, 1024)  # evicts [1024,2048)
        assert cache.is_resident(0, 1024)
        assert not cache.is_resident(1024, 1024)

    def test_lru_eviction_order_full_cycle(self):
        _, cache = make(capacity=64 * 1024, cache_capacity=3 * 1024)
        for i in range(3):
            cache.local_read(i * 1024, 1024)
        # Touch in reverse so recency order inverts insertion order.
        for i in (2, 1, 0):
            cache.local_read(i * 1024, 1024)
        # Each new range must now evict in recency order: 2, then 1.
        cache.local_read(3 * 1024, 1024)
        assert not cache.is_resident(2 * 1024, 1024)
        assert cache.is_resident(1024, 1024) and cache.is_resident(0, 1024)
        cache.local_read(4 * 1024, 1024)
        assert not cache.is_resident(1024, 1024)
        assert cache.is_resident(0, 1024)

    def test_invalidate_drops_residency(self):
        _, cache = make()
        cache.local_read(0, 1024)
        cache.invalidate(0, 1024)
        assert not cache.is_resident(0, 128)
        assert cache.local_read(0, 1024).hit_bytes == 0

    def test_flush_clears_everything(self):
        _, cache = make()
        cache.local_write(0, b"x" * 512)
        cache.flush()
        assert cache.resident_bytes == 0
        assert cache.stale_ranges == 0

    def test_read_size_must_be_positive(self):
        _, cache = make()
        with pytest.raises(ValueError):
            cache.local_read(0, 0)
        with pytest.raises(ValueError):
            cache.local_write(0, b"")


class TestFig3aCoherentRemoteReads:
    """Reading remote disaggregated memory is cache-coherent."""

    def test_remote_read_sees_home_writes(self):
        _, cache = make()
        cache.local_write(100, b"current-value")
        assert bytes(cache.remote_coherent_read(100, 13)) == b"current-value"

    def test_remote_read_sees_latest_after_rewrite(self):
        _, cache = make()
        cache.local_write(0, b"v1--")
        cache.local_write(0, b"v2--")
        assert bytes(cache.remote_coherent_read(0, 4)) == b"v2--"


class TestFig3bRemoteWriteStaleness:
    """Writes to remote disaggregated memory land in home DRAM but the home
    cache may keep serving the previous value."""

    def test_home_cpu_observes_stale_value(self):
        mem, cache = make()
        cache.local_write(0, b"original-contents")
        stale = remote_write(mem, cache, 0, b"OVERWRITTEN-BYTES")
        assert stale > 0
        # DRAM holds the new bytes...
        assert mem.read(0, 17) == b"OVERWRITTEN-BYTES"
        # ...but the home CPU still observes the old ones.
        assert cache.observed_view(0, 17) == b"original-contents"

    def test_uncached_range_has_no_staleness(self):
        mem, cache = make()
        mem.write(0, b"cold-data")
        stale = remote_write(mem, cache, 0, b"NEW!-data")
        assert stale == 0
        assert cache.observed_view(0, 9) == b"NEW!-data"

    def test_invalidate_makes_remote_write_visible(self):
        mem, cache = make()
        cache.local_write(0, b"aaaa")
        remote_write(mem, cache, 0, b"bbbb")
        assert cache.observed_view(0, 4) == b"aaaa"
        cache.invalidate(0, 4)
        assert cache.observed_view(0, 4) == b"bbbb"

    def test_local_rewrite_supersedes_staleness(self):
        mem, cache = make()
        cache.local_write(0, b"aaaa")
        remote_write(mem, cache, 0, b"bbbb")
        cache.local_write(0, b"cccc")
        assert cache.observed_view(0, 4) == b"cccc"
        assert bytes(cache.remote_coherent_read(0, 4)) == b"cccc"

    def test_partial_staleness_overlay(self):
        mem, cache = make(line=128)
        cache.local_write(0, b"A" * 128)  # line 0 cached
        # Remote write spans lines 0-1; only the cached line goes stale.
        remote_write(mem, cache, 0, b"B" * 256)
        observed = cache.observed_view(0, 256)
        assert observed[:128] == b"A" * 128
        assert observed[128:] == b"B" * 128

    def test_remote_coherent_read_sees_remote_write(self):
        mem, cache = make()
        cache.local_write(0, b"xxxx")
        remote_write(mem, cache, 0, b"yyyy")
        # Another remote reader is coherent with DRAM, not the stale cache.
        assert bytes(cache.remote_coherent_read(0, 4)) == b"yyyy"

    def test_stale_count_reported_by_read(self):
        mem, cache = make()
        cache.local_write(0, b"q" * 256)
        remote_write(mem, cache, 0, b"r" * 256)
        access = cache.local_read(0, 256)
        assert access.stale_bytes == 256

    def test_eviction_drops_stale_snapshot(self):
        mem, cache = make(cache_capacity=1024, line=128)
        cache.local_write(0, b"s" * 128)
        remote_write(mem, cache, 0, b"t" * 128)
        # Push enough new lines through to evict line 0.
        for i in range(1, 20):
            cache.local_read(i * 128, 128)
        assert cache.observed_view(0, 128) == b"t" * 128


class TestChargeOnlyWrite:
    def test_note_local_write_updates_cache_not_dram(self):
        mem, cache = make()
        mem.write(0, b"keep-me!")
        access = cache.note_local_write(0, 8)
        assert access.total_bytes >= 8
        assert mem.read(0, 8) == b"keep-me!"
        assert cache.is_resident(0, 8)

    def test_note_local_write_supersedes_staleness(self):
        mem, cache = make()
        cache.local_write(0, b"aaaa")
        remote_write(mem, cache, 0, b"bbbb")
        cache.note_local_write(0, 4)
        # Stale snapshot dropped: observation now matches DRAM.
        assert cache.observed_view(0, 4) == b"bbbb"
