"""HotObjectCache: generation keying, admission, invalidation channels."""

import pytest

from repro.common.ids import ObjectID
from repro.tier.cache import FrequencySketch, HotObjectCache


def oid(n: int) -> ObjectID:
    return ObjectID.from_int(n)


class TestFrequencySketch:
    def test_estimates_track_increments(self):
        sketch = FrequencySketch(64, 4, seed=7)
        for _ in range(5):
            sketch.increment(b"hot")
        sketch.increment(b"cold")
        assert sketch.estimate(b"hot") >= 5
        assert sketch.estimate(b"cold") >= 1
        assert sketch.estimate(b"hot") > sketch.estimate(b"cold")

    def test_counters_saturate(self):
        sketch = FrequencySketch(64, 4, seed=7)
        for _ in range(100):
            sketch.increment(b"k")
        assert sketch.estimate(b"k") == 15

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(8, 2, seed=1)
        for _ in range(10):
            sketch.increment(b"k")
        before = sketch.estimate(b"k")
        # The sample size is 10 * width = 80; push past it to force _age.
        for i in range(80):
            sketch.increment(str(i).encode())
        assert sketch.estimate(b"k") < before

    def test_seeded_and_deterministic(self):
        a, b = FrequencySketch(64, 4, seed=3), FrequencySketch(64, 4, seed=3)
        for s in (a, b):
            for i in range(50):
                s.increment(str(i % 7).encode())
        assert all(
            a.estimate(str(i).encode()) == b.estimate(str(i).encode())
            for i in range(7)
        )


class TestGenerationKeying:
    def test_exact_generation_hits(self):
        cache = HotObjectCache(1024)
        cache.offer(oid(1), 3, b"abc", home="node1")
        assert cache.lookup(oid(1), 3) == b"abc"
        assert cache.hits == 1

    def test_stale_generation_misses(self):
        """A generation bump (delete/migration/re-put) is an automatic
        coherent miss — the old entry can never satisfy the new probe."""
        cache = HotObjectCache(1024)
        cache.offer(oid(1), 3, b"abc", home="node1")
        assert cache.lookup(oid(1), 4) is None
        assert cache.misses == 1

    def test_newer_offer_supersedes_older_generations(self):
        cache = HotObjectCache(1024)
        cache.offer(oid(1), 3, b"old", home="node1")
        cache.offer(oid(1), 5, b"new", home="node1")
        assert cache.peek(oid(1), 3) is None
        assert cache.used_bytes == 3
        assert cache.lookup(oid(1), 5) == b"new"
        assert cache.lookup(oid(1), 3) is None

    def test_last_served_debug_hook(self):
        cache = HotObjectCache(1024)
        cache.offer(oid(1), 2, b"xy", home="node1")
        cache.last_served = None
        cache.lookup(oid(1), 2)
        served_oid, generation, home = cache.last_served
        assert (served_oid.binary(), generation, home) == (
            oid(1).binary(), 2, "node1",
        )


class TestAdmission:
    def test_oversized_payload_rejected(self):
        cache = HotObjectCache(16)
        assert not cache.offer(oid(1), 1, b"x" * 17, home="n")
        assert cache.rejections == 1

    def test_one_hit_wonder_cannot_displace_hot_entry(self):
        cache = HotObjectCache(8)
        for _ in range(5):
            cache.record_access(oid(1))
        cache.offer(oid(1), 1, b"x" * 8, home="n")
        # A never-accessed candidate loses the victim contest.
        assert not cache.offer(oid(2), 1, b"y" * 8, home="n")
        assert cache.peek(oid(1), 1) is not None

    def test_hotter_candidate_displaces_colder_victim(self):
        cache = HotObjectCache(8)
        cache.record_access(oid(1))
        cache.offer(oid(1), 1, b"x" * 8, home="n")
        for _ in range(6):
            cache.record_access(oid(2))
        assert cache.offer(oid(2), 1, b"y" * 8, home="n")
        assert cache.peek(oid(1), 1) is None
        assert cache.evictions == 1

    def test_admission_keeps_the_offered_view(self):
        """Offers arrive as zero-copy views of home memory and the entry is
        that view, not a copy: it shows the home bytes as they are now (the
        reader's header check, not the cache, decides whether they may be
        served)."""
        home_extent = bytearray(b"v" * 8)
        view = memoryview(home_extent).toreadonly()
        cache = HotObjectCache(8)
        assert cache.offer(oid(1), 1, view, home="n")
        home_extent[:] = b"!" * 8
        cached = cache.lookup(oid(1), 1)
        assert cached is view and cached == b"!" * 8
        assert cache.used_bytes == 8

    @pytest.mark.parametrize("size", [8, 9], ids=["colder", "oversized"])
    def test_rejected_offer_copies_nothing_and_changes_nothing(self, size):
        class Uncopyable:
            def __len__(self):
                return size

            def __bytes__(self):
                raise AssertionError("a rejected offer must not be copied")

        cache = HotObjectCache(8)
        for _ in range(5):
            cache.record_access(oid(1))
        cache.offer(oid(1), 1, b"x" * 8, home="n")
        assert not cache.offer(oid(2), 1, Uncopyable(), home="n")
        assert (cache.admissions, cache.used_bytes, len(cache)) == (1, 8, 1)
        assert cache.rejections == 1
        assert cache.lookup(oid(1), 1) == b"x" * 8


class TestInvalidation:
    def test_invalidate_drops_every_generation(self):
        cache = HotObjectCache(1024)
        cache.offer(oid(1), 2, b"a", home="n1")
        cache.offer(oid(2), 1, b"b", home="n1")
        assert cache.invalidate(oid(1)) == 1
        assert cache.lookup(oid(1), 2) is None
        assert cache.lookup(oid(2), 1) is not None

    def test_invalidate_home_drops_that_peers_entries(self):
        cache = HotObjectCache(1024)
        cache.offer(oid(1), 1, b"a", home="n1")
        cache.offer(oid(2), 1, b"b", home="n2")
        assert cache.invalidate_home("n1") == 1
        assert cache.lookup(oid(1), 1) is None
        assert cache.lookup(oid(2), 1) is not None

    def test_clear_purges_everything(self):
        cache = HotObjectCache(1024)
        cache.offer(oid(1), 1, b"a", home="n1")
        cache.offer(oid(2), 1, b"b", home="n2")
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            HotObjectCache(0)
