"""The client of a disaggregated store.

API-identical to :class:`~repro.plasma.client.PlasmaClient` — that is the
framework's selling point: "the distributed nature can largely remain
hidden to Plasma clients" (paper §IV-A2). ``get`` transparently returns
local or ThymesisFlow-backed buffers; ``release`` routes to local refcounts
or cross-node release as appropriate.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.common.ids import ObjectID
from repro.core.store import DisaggregatedStore
from repro.network.ipc import IpcChannel
from repro.plasma.buffer import PlasmaBuffer
from repro.plasma.client import PlasmaClient, copy_writer
from repro.rpc.drive import drive

#: What an unobserved call opens in place of a span.
_UNOBSERVED = nullcontext()


class DisaggregatedClient(PlasmaClient):
    """A Plasma client whose local store is part of a disaggregated mesh."""

    class Counters(PlasmaClient.Counters):
        puts_forwarded = puts_forward_fallback = 0

    def __init__(
        self,
        name: str,
        store: DisaggregatedStore,
        ipc: IpcChannel,
        correlation=None,
    ):
        super().__init__(name, store, ipc)
        # CorrelationContext shared cluster-wide; each top-level operation
        # (Get/Put) mints one request id that every nested RPC and fabric
        # span inherits.
        self._correlation = correlation

    @property
    def store(self) -> DisaggregatedStore:
        return self._store  # type: ignore[return-value]

    def get(
        self, object_ids: list[ObjectID], allow_missing: bool = False
    ) -> list[PlasmaBuffer]:
        """Retrieve sealed buffers wherever they live.

        One IPC round trip to the local store; the store performs any
        peer Lookup RPCs and aperture wiring (those costs are charged by
        the store's channel and the fabric respectively). With
        ``allow_missing=True``, ids that resolve nowhere yield ``None``.
        """
        if not object_ids:
            return []
        return drive(self.get_task, object_ids, allow_missing)

    def get_task(
        self,
        object_ids: list[ObjectID],
        allow_missing: bool = False,
        attr=None,
        blocking: bool = False,
    ):
        """The one body of :meth:`get` (the caller releases); it yields
        from the store's :meth:`~DisaggregatedStore.get_buffers_task`. A
        blocking run is a synchronous Get, observed as one correlation id
        for everything beneath it — stamped on the remote handles, so their
        deferred reads attribute to it too — inside a ``client/get`` span.
        A task records only its *attr*."""
        object_ids = list(object_ids)
        if not object_ids:
            return []
        correlation = self._correlation if blocking else None
        rid = None
        scope = _UNOBSERVED
        if correlation is not None:
            rid = correlation.begin()
            spans = self._store.spans
            if spans is not None:
                args = {"n": len(object_ids), "rid": rid}
                scope = spans.span("client", "get", self._name, args)
        try:
            with scope:
                self._ipc.charge_request(nobjects=len(object_ids))
                if attr is not None:
                    attr.settle("client")
                buffers = yield from self.store.get_buffers_task(
                    object_ids, allow_missing, attr, blocking
                )
        finally:
            if correlation is not None:
                correlation.end()
        for buffer in buffers:
            if buffer is not None:
                self._held.setdefault(buffer.object_id, []).append(buffer)
                if rid is not None and buffer.is_remote:
                    buffer._set_correlation(correlation, rid)
        self.counters.gets += len(buffers)
        return buffers

    def _release_store_ref(self, object_id: ObjectID) -> None:
        self.store.release_object(object_id)

    # -- batched multi-object API (repro.rpc.aio) ---------------------------------

    def multi_get(
        self, object_ids: list[ObjectID], *, allow_missing: bool = True
    ) -> list[bytes | None]:
        """Fetch many payloads in one batched operation.

        One IPC request covers every id; the store resolves all of them
        together (run as a task: one coalesced Lookup per peer instead of N
        unary calls, hedged scatter-gather across homes). Returns payload
        *copies* in input order — references are taken and released
        internally, every one of them even when a read fails — with
        ``None`` at unresolved positions unless ``allow_missing=False``.
        """
        if not object_ids:
            return []
        return drive(self.multi_get_task, object_ids, allow_missing=allow_missing)

    def multi_get_task(
        self,
        object_ids: list[ObjectID],
        *,
        allow_missing: bool = True,
        attr=None,
        blocking: bool = False,
    ):
        """The one body of :meth:`multi_get`: a Get, then the reads."""
        object_ids = list(object_ids)
        buffers = yield from self.get_task(object_ids, allow_missing, attr, blocking)
        if attr is not None:
            attr.settle("service")
        out = self._read_out(object_ids, buffers)
        if attr is not None:
            attr.settle("fabric")
        return out

    def _read_out(self, object_ids, buffers) -> list[bytes | None]:
        """Copy out every resolved payload, releasing each reference the
        Get took — every one of them, even past a read that raises."""
        out: list[bytes | None] = []
        # Duplicate ids in one call resolve to a single shared handle
        # (one reference per occurrence): read each handle once and reuse
        # the payload, so releasing slot N's reference cannot invalidate
        # slot N+1's pending read of the same buffer.
        read: dict[int, bytes] = {}
        pending = iter(zip(object_ids, buffers))
        try:
            for oid, buffer in pending:
                if buffer is None:
                    out.append(None)
                    continue
                try:
                    key = id(buffer)
                    if key not in read:
                        read[key] = buffer.read_all()
                    out.append(read[key])
                finally:
                    self.release(oid)
        finally:
            for oid, buffer in pending:  # only left over when a read raised
                if buffer is not None:
                    self.release(oid)
        return out

    def _put_reserved(
        self, oid, size: int, write, metadata: bytes, replicas: int
    ) -> None:
        """Local create + fill + seal + release + replicate of an object
        whose id a batched ``reserve_ids`` already checked."""
        self._ipc.charge_request(nobjects=1, nbytes=len(metadata))
        entry = self._store.create_object_unchecked(oid, size, metadata)
        self._store.add_ref(oid)
        buffer = self._store.local_buffer(entry)
        self._held.setdefault(oid, []).append(buffer)
        self._fill_and_seal(buffer, write)
        self._replicate(oid, replicas)

    def put_into(
        self,
        object_id: ObjectID,
        size: int,
        write,
        *,
        metadata: bytes = b"",
        replicas: int = 1,
    ) -> ObjectID:
        """create + fill in place + seal + release, optionally replicated.

        ``write(view)`` receives a writable ``memoryview`` of exactly
        ``size`` bytes — the new extent itself, in local memory or, for a
        forwarded create, a window of the ring home's memory over the
        fabric — and must fill all of it without raising; there is no
        abort path. A forwarded put below the RPC cost model's crossover
        (``size * per_byte_ns < round_trip_ns``) is the exception: the
        view is a buffer on this node that one PlacedPut carries to the
        home, so a writer that raises there leaves nothing behind, and if
        the home turns out unreachable the writer runs a second time, on
        the local extent of the fallback create.

        ``replicas=1`` (default) is the paper's single-copy mode. With
        ``replicas=2`` (or more) the home store pushes copies to
        deterministically chosen peers after sealing, so the object stays
        readable — via lookup failover — when the home store process dies.
        Replication degrades gracefully: an unavailable replica target is
        skipped, never failing the write.

        With elastic placement enabled, the consistent-hash ring decides
        where the object lives: a ring home other than this node receives
        the object via the forwarded-create protocol (one PlacedPut
        carrying a small payload, or metadata over RPC around a payload
        written over the fabric). An unreachable home degrades to a local
        create — the rebalancer re-homes the object once the cluster heals.
        """
        return drive(
            self.put_into_task,
            object_id,
            size,
            write,
            metadata=metadata,
            replicas=replicas,
        )

    def put_into_task(
        self,
        object_id: ObjectID,
        size: int,
        write,
        *,
        metadata: bytes = b"",
        replicas: int = 1,
        attr=None,
        blocking: bool = False,
    ):
        """The one body of :meth:`put_into`: forwarded to the ring home
        (the store's :meth:`~DisaggregatedStore.forward_put_task`) when it
        is a reachable peer, else the local create + replicate. A blocking
        run is a synchronous Put, observed as one correlation id inside a
        ``client/put`` span; a task records only its *attr*."""
        self._check_replicas(replicas)
        correlation = self._correlation if blocking else None
        scope = _UNOBSERVED
        if correlation is not None:
            rid = correlation.begin()
            spans = self._store.spans
            if spans is not None:
                args = {"rid": rid, "replicas": replicas}
                scope = spans.span("client", "put", self._name, args)
        try:
            with scope:
                home = self.store.placement_home(object_id)
                if home is not None:
                    self._ipc.charge_request(nobjects=1, nbytes=len(metadata))
                    if attr is not None:
                        attr.settle("client")
                    forwarded = yield from self.store.forward_put_task(
                        object_id, size, write, metadata, home,
                        replicas=replicas, attr=attr, blocking=blocking,
                    )
                    if forwarded:
                        self.counters.puts_forwarded += 1
                        return object_id
                    self.counters.puts_forward_fallback += 1
                PlasmaClient.put_into(self, object_id, size, write, metadata=metadata)
                self._replicate(object_id, replicas)
                return object_id
        finally:
            if correlation is not None:
                correlation.end()

    def put_bytes(
        self,
        object_id: ObjectID,
        data,
        metadata: bytes = b"",
        *,
        replicas: int = 1,
    ) -> ObjectID:
        """:meth:`put_into` whose writer copies *data* in."""
        return self.put_into(
            object_id, *copy_writer(data), metadata=metadata, replicas=replicas
        )

    def _check_replicas(self, replicas: int) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1 (1 = no extra copies)")
        if replicas - 1 > len(self.store.peers()):
            raise ValueError(
                f"replicas={replicas} needs {replicas - 1} peers, "
                f"have {len(self.store.peers())}"
            )

    def _replicate(self, object_id: ObjectID, replicas: int) -> None:
        for _ in range(replicas - 1):
            self.store.replicate_object(object_id)

    def put_batch(
        self,
        items: list[tuple[ObjectID, object]],
        metadata: bytes = b"",
        *,
        replicas: int = 1,
    ) -> list[ObjectID]:
        """Bulk commit with one batched uniqueness check (reserve_ids)
        instead of a Contains RPC per object — the amortised producer path.
        ``replicas`` behaves as in :meth:`put_bytes`.
        """
        self._check_replicas(replicas)
        ids = [oid for oid, _ in items]
        self.store.reserve_ids(ids)
        out: list[ObjectID] = []
        for oid, data in items:
            size, write = copy_writer(data)
            home = self.store.placement_home(oid)
            if home is not None:
                self._ipc.charge_request(nobjects=1, nbytes=len(metadata))
                if self.store.forward_put(
                    oid, size, write, metadata, home, replicas=replicas
                ):
                    self.counters.puts_forwarded += 1
                    out.append(oid)
                    continue
                self.counters.puts_forward_fallback += 1
            self._put_reserved(oid, size, write, metadata, replicas)
            out.append(oid)
        return out
