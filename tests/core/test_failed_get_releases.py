"""A Get that raises gives back every reference it took.

A Get takes table references on local ids and a local reference on each
remote record. When it then fails (an id resolves nowhere), the caller gets
no buffers to release — so the store must release them itself, or the
objects stay in use forever.
"""

import pytest

from repro.common.config import testing_config as make_config
from repro.common.errors import ObjectNotFoundError
from repro.common.units import MiB
from repro.core import Cluster
from repro.rpc.drive import drive
from tests.conftest import Driver

PAYLOAD = b"held-only-while-read" * 8


def make_cluster(mode: str, nodes: int = 2, **store):
    """A cluster and the driver *mode* names."""
    cfg = make_config(capacity_bytes=32 * MiB, seed=5)
    cluster = Cluster(cfg.with_store(check_remote_uniqueness=False, **store), nodes)
    return cluster, Driver(cluster, mode)


def refs(cluster: Cluster, node: str, oid) -> int:
    return cluster.store(node).table.lookup(oid).ref_count


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_missing_id_releases_the_local_reference(mode):
    cluster, run = make_cluster(mode)
    client = cluster.client("node0")
    present, absent = cluster.new_object_id(), cluster.new_object_id()
    run.put_bytes(client, present, PAYLOAD)

    with pytest.raises(ObjectNotFoundError):
        run.get(client, [present, absent])

    assert refs(cluster, "node0", present) == 0
    # Not in use: the failed Get left nothing held.
    run.delete(cluster.store("node0"), present)
    assert not cluster.store("node0").contains(present)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_deleted_after_resolve_leaves_nothing_held(mode):
    """The reader resolved both ids, then one was deleted at its home (the
    delete's NotifyDeleted drops the reader's descriptor): the Get over both
    fails not-found, and the reader keeps no record of either object."""
    cluster, run = make_cluster(mode, 3, lookup_cache=True)
    kept, gone = cluster.new_object_id(), cluster.new_object_id()
    run.put_bytes(cluster.client("node0"), kept, PAYLOAD)
    run.put_bytes(cluster.client("node1"), gone, PAYLOAD)
    reader = cluster.store("node2")
    assert drive(reader._rpc_lookup_task, [kept, gone], {}, []) == []  # noqa: SLF001
    run.delete(cluster.store("node1"), gone)

    with pytest.raises(ObjectNotFoundError):
        run.get(cluster.client("node2"), [kept, gone])

    assert refs(cluster, "node0", kept) == 0
    assert reader.remote_record(kept) is None
    assert reader.remote_record(gone) is None
    run.delete(cluster.store("node0"), kept)
    assert cluster.loop.pending() == 0
