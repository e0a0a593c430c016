"""A Get that raises gives back every reference it took.

A Get takes table references on local ids and a local reference on each
remote record. When it then fails (an id resolves nowhere), the caller gets
no buffers to release — so the store must release them itself, or the
objects stay in use forever.
"""

from dataclasses import replace

import pytest

from repro.common.config import testing_config as make_config
from repro.common.errors import ObjectNotFoundError
from repro.common.units import MiB
from repro.core import Cluster
from repro.rpc.drive import drive

PAYLOAD = b"held-only-while-read" * 8


def make_cluster(mode: str, nodes: int = 2, **store) -> Cluster:
    cfg = make_config(capacity_bytes=32 * MiB, seed=5)
    cfg = replace(cfg, rpc=replace(cfg.rpc, mode=mode))
    return Cluster(cfg.with_store(check_remote_uniqueness=False, **store), nodes)


def refs(cluster: Cluster, node: str, oid) -> int:
    return cluster.store(node).table.lookup(oid).ref_count


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_missing_id_releases_the_local_reference(mode):
    cluster = make_cluster(mode)
    client = cluster.client("node0")
    present, absent = cluster.new_object_id(), cluster.new_object_id()
    client.put_bytes(present, PAYLOAD)

    with pytest.raises(ObjectNotFoundError):
        client.get([present, absent])

    assert refs(cluster, "node0", present) == 0
    client.delete(present)  # not in use: the failed Get left nothing held
    assert not cluster.store("node0").contains(present)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_deleted_after_resolve_leaves_nothing_held(mode):
    """The reader resolved both ids, then one was deleted at its home (the
    delete's NotifyDeleted drops the reader's descriptor): the Get over both
    fails not-found, and the reader keeps no record of either object."""
    cluster = make_cluster(mode, 3, lookup_cache=True)
    kept, gone = cluster.new_object_id(), cluster.new_object_id()
    cluster.client("node0").put_bytes(kept, PAYLOAD)
    cluster.client("node1").put_bytes(gone, PAYLOAD)
    reader = cluster.store("node2")
    assert drive(reader._rpc_lookup_task, [kept, gone], {}, []) == []  # noqa: SLF001
    cluster.client("node1").delete(gone)

    with pytest.raises(ObjectNotFoundError):
        cluster.client("node2").get([kept, gone])

    assert refs(cluster, "node0", kept) == 0
    assert reader.remote_record(kept) is None
    assert reader.remote_record(gone) is None
    cluster.client("node0").delete(kept)
    assert cluster.loop.pending() == 0
