"""Integrity tax: what validated fabric reads cost on the paper's paths.

The header/validation machinery must not move the reproduced figures:

* Fig 7 (read throughput) — a validated remote read streams the 64-byte
  header alongside the payload, so the charged overhead is 64/size: ~0 %
  for the 1-8 MiB plateau objects, ~6 % worst-case for 1 kB objects
  (which still sit above the paper's stated small-object band floor).
* Fig 6 (retrieval latency) — descriptors carry three extra integrity
  fields; the per-object cost rides the existing Lookup RPC and stays
  well inside the figure's tolerance.
* CRC-on-read is *opt-in* (off by default, so Fig 7 is untouched) and its
  cost is exactly the configured ``checksum_ns_per_byte * size``.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig
from repro.common.units import KB, MiB, gib_per_s
from repro.core import Cluster


def _remote_read_ns(size: int, **store_overrides) -> int:
    """Simulated ns to sequentially read one *size*-byte remote object."""
    cfg = ClusterConfig(seed=7).with_store(
        capacity_bytes=64 * MiB, **store_overrides
    )
    cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oid = cluster.new_object_id()
    producer.put_bytes(oid, bytes(size))
    buf = consumer.get_one(oid)
    out = bytearray(size)
    t0 = cluster.clock.now_ns
    buf.read_into(out)
    return cluster.clock.now_ns - t0


def _remote_get_ns(size: int, **store_overrides) -> int:
    """Simulated ns for the Fig 6 retrieval step (lookup + buffer wiring)."""
    cfg = ClusterConfig(seed=7).with_store(
        capacity_bytes=64 * MiB, **store_overrides
    )
    cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oid = cluster.new_object_id()
    producer.put_bytes(oid, bytes(size))
    t0 = cluster.clock.now_ns
    consumer.get_one(oid)
    return cluster.clock.now_ns - t0


BARE = dict(integrity_headers=False, verify_remote_reads=False)


def test_plateau_throughput_overhead_is_negligible():
    size = 4 * MiB
    bare = _remote_read_ns(size, **BARE)
    validated = _remote_read_ns(size)
    assert validated >= bare
    assert (validated - bare) / bare < 0.001  # 64 bytes on 4 MiB
    # The Fig 7 remote plateau is untouched.
    assert gib_per_s(size, validated) == pytest.approx(5.75, rel=0.05)


def test_small_object_throughput_overhead_is_headers_over_size():
    size = 1 * KB
    bare = _remote_read_ns(size, **BARE)
    validated = _remote_read_ns(size)
    overhead = (validated - bare) / bare
    # One 64-byte header charged per 1000-byte stream, plus nothing hidden.
    assert overhead == pytest.approx(64 / size, abs=0.03)
    assert overhead < 0.10
    # Still above the small-object band floor the Fig 7 test enforces.
    assert gib_per_s(size, validated) > 4.8


def test_fig6_retrieval_overhead_within_tolerance():
    size = 100 * KB
    bare = _remote_get_ns(size, **BARE)
    validated = _remote_get_ns(size)
    # The integrity fields ride the existing Lookup RPC; the retrieval
    # latency the Fig 6 anchors check moves by well under its 25 % rel
    # tolerance.
    assert abs(validated - bare) / bare < 0.10


def test_checksum_on_read_costs_exactly_what_config_says():
    size = 1 * MiB
    ns_per_byte = 0.5
    plain = _remote_read_ns(size)
    checked = _remote_read_ns(
        size,
        verify_checksum_on_read=True,
        checksum_ns_per_byte=ns_per_byte,
    )
    assert checked - plain == pytest.approx(ns_per_byte * size, rel=0.01)


def test_checksum_on_read_is_off_by_default():
    cfg = ClusterConfig()
    assert cfg.store.integrity_headers is True
    assert cfg.store.verify_remote_reads is True
    assert cfg.store.verify_checksum_on_read is False
    assert cfg.store.checksum_ns_per_byte == 0.0
