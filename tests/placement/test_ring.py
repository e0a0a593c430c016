"""Unit tests for the consistent-hash placement ring."""

from __future__ import annotations

import pytest

from repro.common.errors import PlacementError
from repro.common.ids import UniqueIDGenerator
from repro.common.rng import DeterministicRng
from repro.placement import HashRing, Membership, capacity_derate


@pytest.fixture
def ids():
    return UniqueIDGenerator(DeterministicRng(31337).spawn("ring-ids"))


def make_ids(ids, n):
    return ids.take(n)


class TestHashRing:
    def test_deterministic_across_instances(self, ids):
        a = HashRing({"n0": 1.0, "n1": 1.0, "n2": 1.0})
        b = HashRing({"n2": 1.0, "n0": 1.0, "n1": 1.0})  # insertion order differs
        for oid in make_ids(ids, 200):
            assert a.home(oid) == b.home(oid)

    def test_all_members_receive_objects(self, ids):
        ring = HashRing({f"n{i}": 1.0 for i in range(4)})
        homes = {ring.home(oid) for oid in make_ids(ids, 400)}
        assert homes == {"n0", "n1", "n2", "n3"}

    def test_ownership_share_sums_to_one(self):
        ring = HashRing({"a": 1.0, "b": 1.0, "c": 2.0})
        assert sum(ring.ownership_share().values()) == pytest.approx(1.0)

    def test_weighted_member_owns_proportionally_more(self):
        ring = HashRing({"small": 1.0, "big": 3.0}, vnodes=128)
        shares = ring.ownership_share()
        assert shares["big"] > 2.0 * shares["small"]
        assert ring.vnode_count("big") == 3 * ring.vnode_count("small")

    def test_member_removal_moves_only_its_objects(self, ids):
        before = HashRing({"n0": 1.0, "n1": 1.0, "n2": 1.0, "n3": 1.0})
        after = HashRing({"n0": 1.0, "n1": 1.0, "n2": 1.0})
        moved = stayed = 0
        for oid in make_ids(ids, 500):
            old = before.home(oid)
            new = after.home(oid)
            if old == "n3":
                moved += 1
                assert new != "n3"
            else:
                # Consistent hashing: survivors keep their objects.
                assert new == old
                stayed += 1
        assert moved > 0 and stayed > 0

    def test_empty_ring_raises(self, ids):
        ring = HashRing({})
        with pytest.raises(PlacementError):
            ring.home(make_ids(ids, 1)[0])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            HashRing({"n0": 0.0})

    def test_imbalance_reasonable_with_default_vnodes(self):
        ring = HashRing({f"n{i}": 1.0 for i in range(8)})
        assert 1.0 <= ring.imbalance() < 2.0

    def test_from_view_uses_only_active_members(self):
        membership = Membership(["n0", "n1", "n2"])
        membership.drain("n1")
        ring = HashRing.from_view(membership.view())
        assert ring.members() == ["n0", "n2"]


class TestCapacityDerate:
    def test_below_watermark_is_identity(self):
        for u in (0.0, 0.3, 0.85):
            assert capacity_derate(u) == 1.0

    def test_ramps_to_min_factor_at_full(self):
        assert capacity_derate(1.0) == pytest.approx(0.05)
        assert capacity_derate(2.0) == pytest.approx(0.05)  # clamped

    def test_monotone_above_watermark(self):
        samples = [capacity_derate(0.85 + i * 0.01) for i in range(16)]
        assert samples == sorted(samples, reverse=True)

    def test_full_member_keeps_minimal_arc(self):
        ring = HashRing(
            {"full": 1.0, "empty": 1.0},
            vnodes=64,
            utilization={"full": 1.0},
        )
        shares = ring.ownership_share()
        assert 0.0 < shares["full"] < shares["empty"]
        assert ring.effective_weight("full") == pytest.approx(0.05)
