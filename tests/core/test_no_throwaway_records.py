"""The write and validated-read paths build no record nobody reads.

A seal -> remote get -> delete cycle on a headers-on three-node cluster
constructs no ``ObjectHeader`` (headers are packed and checked from raw
bytes), no ``SealNotification`` while nobody subscribes, and no
``Admission`` while every server's overload model is inactive. With a
subscriber, the same notifications still arrive in the same order.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.units import MiB
from repro.core import Cluster
from repro.memory.layout import ObjectHeader
from repro.plasma.notifications import SealNotification
from repro.rpc.overload import Admission

PAYLOAD = b"no-throwaway" * 100


@pytest.fixture
def cluster3():
    cfg = make_testing_config(capacity_bytes=32 * MiB, seed=99).with_store(
        check_remote_uniqueness=False
    )
    assert cfg.store.integrity_headers and cfg.store.verify_remote_reads
    return Cluster(cfg, 3)


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Instances of each record type constructed from now on, by name."""
    counts: Counter = Counter()
    for cls in (ObjectHeader, SealNotification, Admission):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _cycle(cluster):
    """Put at node0, read it validated over the fabric at node1, delete."""
    oid = cluster.new_object_id()
    home = cluster.node("node0").endpoint
    served = home.counters.served_remote_read_bytes
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    assert cluster.client("node1").get_bytes(oid) == PAYLOAD
    assert home.counters.served_remote_read_bytes > served  # a fabric read
    cluster.client("node0").delete(oid)
    return oid


def test_cycle_builds_no_header_notification_or_admission(cluster3, built):
    _cycle(cluster3)
    assert built == Counter()


def test_subscribers_still_hear_every_notification_in_order(cluster3, built):
    queue = cluster3.store("node0").subscribe()
    oid = _cycle(cluster3)
    assert built == Counter({"SealNotification": 2})  # one per subscribed event
    heard = []
    while (note := queue.pop()) is not None:
        heard.append(note)
    assert heard == [
        SealNotification(oid, len(PAYLOAD)),
        SealNotification(oid, len(PAYLOAD), deleted=True),
    ]
