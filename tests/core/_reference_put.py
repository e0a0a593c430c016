"""The put body as it stood before writers filled their extent in place.

A producer handed the client a finished payload buffer. The client copied
it into the new extent with ``PlasmaBuffer.write``, or, for a forwarded
create, streamed it through the old ``RemoteRegion.write``: charge the
link, take the Fig 3b stale snapshot of whatever the home's CPU cache held
over the range, then copy the bytes into the home's DRAM.

Kept only as the reference ``test_put_into.py`` compares
:meth:`~repro.core.client.DisaggregatedClient.put_into` against, so it
reaches into the objects it drives.
"""

from __future__ import annotations

from functools import partial

from repro.common.errors import (
    ObjectExistsError,
    ObjectUnavailableError,
    RpcStatusError,
)
from repro.rpc.drive import drive
from repro.rpc.overload import DeadlineBudget
from repro.rpc.status import StatusCode


def _as_bytes(data) -> memoryview:
    mv = memoryview(data)
    if mv.ndim != 1 or mv.itemsize != 1:
        mv = mv.cast("B")
    return mv


def _local_put(client, object_id, mv, metadata) -> None:
    """create + write + seal + release, the copy made by ``buffer.write``."""
    buffer = client.create(object_id, len(mv), metadata)
    buffer.write(mv)
    client.seal(object_id)
    client.release(object_id)


def _remote_write(remote, offset: int, mv) -> int:
    """The old ``RemoteRegion.write`` down to the home's cache model."""
    remote._check(offset, len(mv))
    remote._ap.link.charge_stream_write(len(mv))
    home = remote._ap.home
    region = home.exposed
    abs_off = region.absolute(offset)
    region._translate(offset, len(mv))
    cache = home._cache
    stale = 0
    for iv in cache._resident.intersecting(*cache._align(abs_off, len(mv))):
        lo = max(iv.start, abs_off)
        hi = min(iv.stop, abs_off + len(mv))
        if lo < hi:
            cache._stale[lo] = cache._mem.read(lo, hi - lo)
            stale += hi - lo
    cache._mem.write(abs_off, mv)
    home.counters.served_remote_write_bytes += len(mv)
    if stale:
        home.counters.stale_bytes_created += stale
    remote.counters.write_bytes += len(mv)
    return stale


def _forward_put_task(
    store, object_id, data, metadata, home, *, replicas=1, attr=None, blocking=False
):
    handle = store.peer(home)
    channel = handle.stub.channel
    mv = _as_bytes(data)
    budget = DeadlineBudget.for_stub(handle.stub, store.clock)
    try:
        response = yield from channel.unary_task(
            handle.stub.service,
            "PlacedCreate",
            {
                "object_id": object_id.binary(),
                "data_size": len(mv),
                "metadata": bytes(metadata),
            },
            attr=attr,
            blocking=blocking,
            **budget.kwargs(),
        )
    except RpcStatusError as exc:
        if exc.code is StatusCode.ALREADY_EXISTS:
            raise ObjectExistsError(f"{object_id!r} exists at {home}") from exc
        if store._peer_unavailable(home, exc):
            store.counters.placed_creates_fallback += 1
            return False
        raise
    offset = int(response["offset"])
    _remote_write(handle.remote_region, offset, mv)
    try:
        yield from channel.unary_task(
            handle.stub.service,
            "PlacedSeal",
            {"object_id": object_id.binary(), "replicas": int(replicas)},
            attr=attr,
            blocking=blocking,
            **budget.kwargs(),
        )
    except RpcStatusError as exc:
        if store._peer_unavailable(home, exc):
            raise ObjectUnavailableError(
                f"{home} unreachable while sealing {object_id!r}",
                unreachable_peers=(home,),
            ) from exc
        raise
    store.counters.placed_creates_forwarded += 1
    store.counters.placed_bytes_forwarded += len(mv)
    return True


def put_bytes(client, object_id, data, metadata=b"", *, replicas=1):
    """The old blocking ``DisaggregatedClient.put_bytes`` (no correlation)."""
    assert client._correlation is None
    client._check_replicas(replicas)
    store = client.store
    home = store.placement_home(object_id)
    if home is not None:
        client._ipc.charge_request(nobjects=1, nbytes=len(metadata))
        if drive(
            partial(_forward_put_task, store), object_id, data, metadata, home,
            replicas=replicas,
        ):
            client.counters.puts_forwarded += 1
            return object_id
        client.counters.puts_forward_fallback += 1
    _local_put(client, object_id, _as_bytes(data), metadata)
    client._replicate(object_id, replicas)
    return object_id


def put_bytes_task(client, object_id, data, metadata=b"", *, replicas=1, attr=None):
    """The old ``DisaggregatedClient.put_bytes_task``."""
    client._check_replicas(replicas)
    store = client.store
    home = store.placement_home(object_id)
    if home is not None:
        client._ipc.charge_request(nobjects=1, nbytes=len(metadata))
        if attr is not None:
            attr.settle("client")
        ok = yield from _forward_put_task(
            store, object_id, data, metadata, home, replicas=replicas, attr=attr
        )
        if ok:
            client.counters.puts_forwarded += 1
            return object_id
        client.counters.puts_forward_fallback += 1
    _local_put(client, object_id, _as_bytes(data), metadata)
    client._replicate(object_id, replicas)
    return object_id
