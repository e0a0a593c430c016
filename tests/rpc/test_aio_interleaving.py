"""Interleaving determinism for the async event-loop RPC core.

The property the whole async plane stands on: a schedule of concurrent
tasks is a pure function of its seed. For each seed we spawn a few
hundred randomly-parameterized multi-get / put / delete / invalidate
tasks at random issue offsets — genuinely overlapping in simulated time,
coalescing into shared batches, racing hedges — and record every
completion as ``(timestamp_ns, tag, payload digest)``. Running the
identical schedule against a fresh cluster must reproduce that log bit
for bit: same interleaving, same nanosecond timestamps, same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.common.config import PlacementConfig
from repro.common.config import testing_config as small_cluster_config
from repro.common.errors import ReproError
from repro.common.ids import ObjectID
from repro.common.rng import DeterministicRng, derive_seed
from repro.common.units import MiB
from repro.core import Cluster
from repro.rpc.aio.loop import Sleep

import pytest

SEEDS = (1, 2, 3, 4, 5)
N_OPS = 200

#: Issue offsets densely packed so many tasks are in flight at once.
_MAX_OFFSET_NS = 3_000_000
_SIZES = (64, 512, 2048, 8192)


def _payload(obj: int, size: int) -> bytes:
    return bytes([(obj * 31 + i) % 251 for i in range(size)])


def _digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, (list, tuple)):
        for item in value:
            h.update(b"\x00" if item is None else b"\x01" + item)
    elif value is not None:
        h.update(value)
    return h.hexdigest()[:16]


def _build_cluster() -> Cluster:
    cfg = small_cluster_config(capacity_bytes=32 * MiB, seed=7)
    cfg = replace(
        cfg,
        rpc=replace(
            cfg.rpc,
            batch_window_ns=100_000.0,
            max_batch=8,
            hedge_stagger_ns=2_000_000.0,
        ),
    )
    cluster = Cluster(
        replace(cfg, placement=PlacementConfig()).with_store(
            check_remote_uniqueness=False, lookup_cache=True
        ),
        3,
    )
    cluster.set_rpc_mode("async")
    return cluster


def run_schedule(seed: int) -> list[tuple[int, str, str]]:
    """One full concurrent schedule; returns the completion log."""
    cluster = _build_cluster()
    loop = cluster.loop
    clock = cluster.clock
    rng = DeterministicRng(derive_seed(seed, "aio-interleaving"))
    clients = [cluster.client(f"node{i}", client_name=f"c{i}") for i in range(3)]
    log: list[tuple[int, str, str]] = []

    next_obj = 0
    known: list[int] = []

    def record(tag: str, outcome: str) -> None:
        log.append((clock.now_ns, tag, outcome))

    def driver(delay_ns: int, tag: str, factory):
        yield Sleep(delay_ns)
        try:
            result = yield from factory()
        except ReproError as exc:
            record(tag, f"error:{type(exc).__name__}")
            return
        record(tag, _digest(result))

    def put_factory(client, obj: int, size: int, repl: int):
        def factory():
            yield from client.put_bytes_task(
                ObjectID.from_int(obj), _payload(obj, size), replicas=repl
            )
            return _payload(obj, size)

        return factory

    def mget_factory(client, objs: list[int]):
        def factory():
            out = yield from client.multi_get_task(
                [ObjectID.from_int(o) for o in objs], allow_missing=True
            )
            return out

        return factory

    def delete_factory(client, obj: int):
        def factory():
            yield from client.store.delete_object_task(ObjectID.from_int(obj))
            return b"deleted:%d" % obj

        return factory

    def invalidate_factory(node: str, obj: int):
        # Spurious cache invalidation: drop the node's cached descriptor
        # for a (possibly live) object. The next resolution must simply
        # re-run the lookup path — never change what bytes come back.
        def factory():
            store = cluster.store(node)
            dropped = False
            if store.lookup_cache is not None:
                dropped = store.lookup_cache.invalidate(ObjectID.from_int(obj))
            return b"invalidated" if dropped else b"miss"
            yield  # pragma: no cover - makes this a generator

        return factory

    for index in range(N_OPS):
        delay = int(rng.integer(0, _MAX_OFFSET_NS))
        node = int(rng.integer(0, 3))
        client = clients[node]
        kind = int(rng.integer(0, 100))
        if kind < 35 or not known:  # put
            obj = next_obj
            next_obj += 1
            known.append(obj)
            size = int(rng.choice(list(_SIZES)))
            repl = 1 + int(rng.integer(0, 2))
            factory = put_factory(client, obj, size, repl)
            tag = f"{index}:put:{obj}"
        elif kind < 75:  # multi_get, duplicates and misses included
            count = 1 + int(rng.integer(0, 5))
            objs = [int(rng.choice(known)) for _ in range(count)]
            if rng.integer(0, 4) == 0:
                objs[0] = next_obj + 1000  # guaranteed miss
            factory = mget_factory(client, objs)
            tag = f"{index}:mget:{','.join(map(str, objs))}"
        elif kind < 88:  # delete
            obj = int(rng.choice(known))
            known.remove(obj)
            factory = delete_factory(client, obj)
            tag = f"{index}:del:{obj}"
        else:  # invalidate
            obj = int(rng.choice(known))
            factory = invalidate_factory(f"node{node}", obj)
            tag = f"{index}:inv:{obj}"
        loop.spawn(driver(delay, tag, factory), name=tag)

    loop.drain()
    record("end", str(clock.now_ns))
    return log


@pytest.mark.parametrize("seed", SEEDS)
def test_schedule_replays_bit_identically(seed):
    first = run_schedule(seed)
    second = run_schedule(seed)
    assert first == second
    assert len(first) == N_OPS + 1


def test_distinct_seeds_produce_distinct_interleavings():
    assert run_schedule(1) != run_schedule(2)


def test_schedules_actually_overlap():
    """The property is vacuous if tasks serialize; require real overlap."""
    cluster = _build_cluster()
    loop = cluster.loop
    client = cluster.client("node0", client_name="c0")
    oids = [ObjectID.from_int(1000 + i) for i in range(8)]
    for oid in oids:
        client.put_bytes(oid, b"z" * 1024, replicas=1)
    reader = cluster.client("node1", client_name="c1")
    tasks = [
        loop.spawn(
            reader.multi_get_task([oid], allow_missing=True), name=f"g{i}"
        )
        for i, oid in enumerate(oids)
    ]
    loop.drain()
    assert all(t.future.result() == [b"z" * 1024] for t in tasks)
    peak = max(
        ch.aio_counters["in_flight_peak"]
        for node in cluster.node_names()
        for ch in cluster.node(node).channels.values()
    )
    assert peak >= 2
