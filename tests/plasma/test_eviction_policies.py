"""FIFO and largest-first eviction policy variants + the factory."""

import pytest

from repro.allocator.base import Allocation
from repro.common.ids import ObjectID
from repro.plasma import (
    EVICTION_POLICIES,
    FifoEvictionPolicy,
    LargestFirstEvictionPolicy,
    LruEvictionPolicy,
    create_eviction_policy,
)
from repro.plasma.entry import ObjectEntry
from repro.plasma.table import ObjectTable


def oid(i):
    return ObjectID.from_int(i)


def build_table(specs):
    """specs: list of (index, size, created_at). Returns (table, entries)."""
    table = ObjectTable()
    entries = []
    offset = 0
    for i, size, created in specs:
        e = ObjectEntry(
            object_id=oid(i),
            allocation=Allocation(offset=offset, size=size, padded_size=size),
            data_size=size,
            created_at_ns=created,
        )
        table.insert(e)
        table.seal(e.object_id, 1)
        entries.append(e)
        offset += size
    return table, entries


class TestFactory:
    def test_all_names_construct(self):
        for name in EVICTION_POLICIES:
            policy = create_eviction_policy(name, 1000)
            assert policy.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            create_eviction_policy("clock", 1000)

    def test_config_plumbs_policy_into_store(self):
        from repro.common.config import testing_config as make_testing_config
        from repro.core import Cluster

        cfg = make_testing_config().with_store(eviction_policy="fifo")
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
        assert cluster.store("node0")._eviction.name == "fifo"  # noqa: SLF001

    def test_config_rejects_unknown_policy(self):
        from repro.common.config import testing_config as make_testing_config

        with pytest.raises(ValueError):
            make_testing_config().with_store(eviction_policy="mru").validate()


class TestOrderings:
    def test_fifo_ignores_recency(self):
        table, entries = build_table(
            [(0, 100, 10), (1, 100, 20), (2, 100, 30)]
        )
        # Touch the oldest: LRU would now spare it, FIFO must not.
        table.add_ref(entries[0].object_id)
        table.release_ref(entries[0].object_id)
        fifo = FifoEvictionPolicy(300, batch_fraction=0.01)
        decision = fifo.plan(table, required_bytes=100)
        assert decision.victims[0] is entries[0]
        lru = LruEvictionPolicy(300, batch_fraction=0.01)
        assert lru.plan(table, required_bytes=100).victims[0] is entries[1]

    def test_largest_first_minimises_victim_count(self):
        table, entries = build_table(
            [(0, 100, 1), (1, 5000, 2), (2, 100, 3), (3, 900, 4)]
        )
        policy = LargestFirstEvictionPolicy(6100, batch_fraction=0.01)
        decision = policy.plan(table, required_bytes=4000)
        assert decision.victims == [entries[1]]
        assert decision.freed_bytes == 5000

    def test_largest_first_deterministic_tie_break(self):
        table, entries = build_table([(5, 100, 1), (3, 100, 2)])
        policy = LargestFirstEvictionPolicy(200, batch_fraction=0.01)
        decision = policy.plan(table, required_bytes=100)
        assert decision.victims[0].object_id == min(
            entries[0].object_id, entries[1].object_id
        )

    def test_all_policies_respect_pinning(self):
        table, entries = build_table([(0, 100, 1), (1, 100, 2)])
        table.add_ref(entries[0].object_id)
        for name in EVICTION_POLICIES:
            policy = create_eviction_policy(name, 200, batch_fraction=1.0)
            decision = policy.plan(table, required_bytes=100)
            assert entries[0] not in decision.victims

    def test_base_policy_is_abstract(self):
        from repro.plasma.eviction import EvictionPolicy

        policy = EvictionPolicy(100)
        with pytest.raises(NotImplementedError):
            policy.order([])


class TestEndToEndBehaviourDifference:
    def _run(self, policy_name: str) -> set:
        """Stream objects through a small store while repeatedly touching a
        hot object; return the ids that survived."""
        from repro.common.config import testing_config as make_testing_config
        from repro.common.units import MiB
        from repro.core import Cluster

        cfg = make_testing_config(seed=11).with_store(
            capacity_bytes=8 * MiB, eviction_policy=policy_name
        )
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
        client = cluster.client("node0")
        hot = ObjectID.from_int(0)
        client.put_bytes(hot, bytes(MiB))
        for i in range(1, 20):
            client.put_bytes(ObjectID.from_int(i), bytes(MiB))
            if cluster.store("node0").contains(hot):
                # Keep the hot object recently used.
                client.get_one(hot)
                client.release(hot)
        return set(cluster.store("node0").table.ids())

    def test_lru_keeps_hot_object_fifo_drops_it(self):
        hot = ObjectID.from_int(0)
        assert hot in self._run("lru")
        assert hot not in self._run("fifo")
