"""DistributedDataset: narrow/wide ops, placement, immutability."""

import numpy as np
import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.errors import ObjectStoreError
from repro.common.units import MiB
from repro.core import Cluster
from repro.dataset import DistributedDataset, Partition


@pytest.fixture
def cluster3():
    return Cluster(
        make_testing_config(capacity_bytes=32 * MiB, seed=41).with_store(
            check_remote_uniqueness=False
        ),
        3,
    )


def make_ds(cluster, n_parts=6, rows=1000):
    arrays = [
        np.arange(rows, dtype=np.int64) + i * rows for i in range(n_parts)
    ]
    return DistributedDataset.from_arrays(cluster, arrays), arrays


class TestConstruction:
    def test_round_robin_placement(self, cluster3):
        ds, _ = make_ds(cluster3, n_parts=6)
        homes = ds.partition_homes()
        assert homes == {"node0": 2, "node1": 2, "node2": 2}

    def test_single_placement(self, cluster3):
        arrays = [np.ones(10), np.ones(10)]
        ds = DistributedDataset.from_arrays(cluster3, arrays, placement="single")
        assert ds.partition_homes() == {"node0": 2}

    def test_unknown_placement(self, cluster3):
        with pytest.raises(ValueError):
            DistributedDataset.from_arrays(cluster3, [np.ones(3)], placement="x")

    def test_2d_rejected(self, cluster3):
        with pytest.raises(ObjectStoreError):
            DistributedDataset.from_arrays(cluster3, [np.ones((2, 2))])

    def test_empty_dataset_rejected(self, cluster3):
        with pytest.raises(ObjectStoreError):
            DistributedDataset.from_arrays(cluster3, [])

    def test_count_is_metadata_only(self, cluster3):
        ds, _ = make_ds(cluster3, n_parts=4, rows=250)
        before = cluster3.clock.now_ns
        assert ds.count() == 1000
        assert cluster3.clock.now_ns == before  # no store traffic at all


class TestCollect:
    def test_collect_preserves_order_and_values(self, cluster3):
        ds, arrays = make_ds(cluster3)
        collected = ds.collect()
        assert np.array_equal(collected, np.concatenate(arrays))

    def test_collect_on_any_node(self, cluster3):
        ds, arrays = make_ds(cluster3)
        for node in cluster3.node_names():
            assert np.array_equal(ds.collect(on=node), np.concatenate(arrays))

    def test_collect_reads_remote_partitions_via_fabric(self, cluster3):
        ds, _ = make_ds(cluster3)
        before = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        ds.collect(on="node0")
        after = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        assert after > before  # 4 of 6 partitions are remote to node0


class TestNarrowOps:
    def test_map_stays_home(self, cluster3):
        ds, arrays = make_ds(cluster3)
        doubled = ds.map(lambda a: a * 2)
        assert doubled.partition_homes() == ds.partition_homes()
        assert np.array_equal(
            doubled.collect(), np.concatenate(arrays) * 2
        )

    def test_map_produces_new_objects_originals_intact(self, cluster3):
        ds, arrays = make_ds(cluster3)
        ds.map(lambda a: a + 1)
        # The source dataset is unchanged (immutability).
        assert np.array_equal(ds.collect(), np.concatenate(arrays))

    def test_map_generates_no_fabric_traffic(self, cluster3):
        ds, _ = make_ds(cluster3)
        before = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        ds.map_partitions(lambda a: np.sqrt(a.astype(np.float64)))
        after = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        assert after == before  # narrow: all local

    def test_map_can_change_length_and_dtype(self, cluster3):
        ds, _ = make_ds(cluster3, rows=100)
        halved = ds.map_partitions(lambda a: a[::2].astype(np.float32))
        assert halved.count() == ds.count() // 2

    def test_map_must_return_1d(self, cluster3):
        ds, _ = make_ds(cluster3)
        with pytest.raises(ObjectStoreError):
            ds.map_partitions(lambda a: a.reshape(2, -1))

    def test_filter(self, cluster3):
        ds, arrays = make_ds(cluster3, rows=100)
        evens = ds.filter(lambda a: a % 2 == 0)
        expected = np.concatenate(arrays)
        assert np.array_equal(evens.collect(), expected[expected % 2 == 0])

    def test_filter_to_empty_partition_raises(self, cluster3):
        ds, _ = make_ds(cluster3, rows=10)
        with pytest.raises(ObjectStoreError, match="emptied"):
            ds.filter(lambda a: a < 0)


class TestReduce:
    def test_sum(self, cluster3):
        ds, arrays = make_ds(cluster3)
        assert ds.sum() == float(np.concatenate(arrays).sum())

    def test_custom_reduce_max(self, cluster3):
        ds, arrays = make_ds(cluster3)
        result = ds.reduce(lambda a: int(a.max()), max)
        assert result == int(np.concatenate(arrays).max())

    def test_reduce_moves_no_payload(self, cluster3):
        ds, _ = make_ds(cluster3)
        before = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        ds.sum()
        after = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        assert after == before  # partials computed at home; scalars combined


class TestShuffle:
    def test_shuffle_partitions_by_key(self, cluster3):
        ds, arrays = make_ds(cluster3, n_parts=3, rows=300)
        shuffled = ds.shuffle_by(lambda v: v, num_partitions=5)
        # Every row lands in the partition its key selects.
        whole = np.concatenate(arrays)
        assert shuffled.count() == len(whole)
        for p, expected_key in zip(shuffled.partitions, range(5)):
            worker_cluster = cluster3
            reader = worker_cluster.client(p.home)
            from repro.columnar import get_array

            with get_array(reader, p.object_id) as ref:
                assert np.all(ref.array % 5 == expected_key)

    def test_shuffle_conserves_multiset(self, cluster3):
        ds, arrays = make_ds(cluster3, n_parts=4, rows=128)
        shuffled = ds.shuffle_by(lambda v: v * 2654435761, num_partitions=3)
        assert np.array_equal(
            np.sort(shuffled.collect()), np.sort(np.concatenate(arrays))
        )

    def test_shuffle_spreads_over_nodes(self, cluster3):
        ds, _ = make_ds(cluster3, n_parts=3, rows=600)
        shuffled = ds.shuffle_by(lambda v: v, num_partitions=6)
        assert len(shuffled.partition_homes()) == 3  # all nodes used

    def test_shuffle_cleans_intermediates(self, cluster3):
        ds, _ = make_ds(cluster3, n_parts=3, rows=90)
        objects_before = sum(
            cluster3.store(n).object_count() for n in cluster3.node_names()
        )
        shuffled = ds.shuffle_by(lambda v: v, num_partitions=3)
        objects_after = sum(
            cluster3.store(n).object_count() for n in cluster3.node_names()
        )
        # Only the new output partitions remain (intermediates deleted).
        assert objects_after == objects_before + shuffled.num_partitions

    def test_shuffle_crosses_the_fabric(self, cluster3):
        ds, _ = make_ds(cluster3, n_parts=3, rows=600)
        before = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        ds.shuffle_by(lambda v: v, num_partitions=3)
        after = sum(
            link.counters.get("read_bytes") for link in cluster3.fabric.links()
        )
        assert after > before


class TestLifecycle:
    def test_drop_deletes_objects(self, cluster3):
        ds, _ = make_ds(cluster3, n_parts=3)
        counts_with = sum(
            cluster3.store(n).object_count() for n in cluster3.node_names()
        )
        ds.drop()
        counts_after = sum(
            cluster3.store(n).object_count() for n in cluster3.node_names()
        )
        assert counts_after == counts_with - 3

    def test_partition_validation(self):
        from repro.common.ids import ObjectID

        with pytest.raises(ValueError):
            Partition(index=-1, object_id=ObjectID.from_int(1), home="n", rows=1)
        with pytest.raises(ValueError):
            Partition(index=0, object_id=ObjectID.from_int(1), home="n", rows=-1)
