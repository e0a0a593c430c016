"""Transparent coalescing of id-list RPCs into batched wire messages.

The store's chattiest RPCs (Lookup, NotifyDeleted, Contains) all carry a single ``object_ids`` list and already have batched
server handlers. For calls run as tasks a :class:`CoalescingBuffer` sits
between callers and the wire: submissions within ``batch_window_ns`` of the first
(or until ``max_batch`` ids accumulate) merge into **one** wire message, so
N concurrent cache misses to the same peer cost one round trip instead of N.

Deadline discipline (the latent sync-path bug this module fixes): an entry
whose deadline expires *while it sits in the buffer* is failed fast at
flush time with ``DEADLINE_EXCEEDED`` — it is excluded from the wire
message rather than dispatched as a doomed request that would burn server
queue budget and a retry-budget token on a response nobody can use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import RpcStatusError
from repro.rpc.aio.loop import Future, TaskAttribution
from repro.rpc.status import StatusCode

if TYPE_CHECKING:
    from repro.rpc.channel import Channel

#: Methods safe to coalesce: request is exactly ``{"object_ids": [...]}`` and
#: the response is splittable per submitter (positionally for Contains, by
#: descriptor object id for Lookup, empty for the notification-style calls).
BATCHABLE_METHODS = ("Contains", "Lookup", "NotifyDeleted")


class _Entry:
    __slots__ = ("object_ids", "expiry_ns", "future", "enqueue_ns", "attr")

    def __init__(self, object_ids, expiry_ns, future, enqueue_ns, attr):
        self.object_ids = object_ids
        self.expiry_ns = expiry_ns  # absolute simulated instant, or None
        self.future = future
        self.enqueue_ns = enqueue_ns
        self.attr = attr


class CoalescingBuffer:
    """One per ``(channel, service, method)``; owned by the :class:`Channel`."""

    __slots__ = ("_channel", "_loop", "_service", "_method", "_window_ns",
                 "_max_batch", "_entries", "_pending_ids", "_epoch",
                 "_task_name")

    def __init__(self, channel: "Channel", service: str, method: str, *,
                 window_ns: float, max_batch: int):
        if method not in BATCHABLE_METHODS:
            raise ValueError(f"method {method!r} is not batchable")
        self._channel = channel
        self._loop = channel.loop
        self._service = service
        self._method = method
        self._task_name = f"batch:{method}@{channel.target}"
        self._window_ns = max(0.0, float(window_ns))
        self._max_batch = max(1, int(max_batch))
        self._entries: list[_Entry] = []
        self._pending_ids = 0
        self._epoch = 0

    def submit(self, object_ids: list, *, deadline_ns: float | None = None,
               attr: TaskAttribution | None = None) -> Future:
        """Enqueue an id-list call; the future resolves with this submitter's
        slice of the merged response."""
        ids = list(object_ids)
        if not ids:
            raise ValueError("submit() needs at least one object id")
        future = Future(self._loop)
        now = self._loop.now_ns
        # Channel deadlines are relative budgets; pin this entry's budget to
        # an absolute expiry so time spent in the buffer counts against it.
        expiry = None if deadline_ns is None else now + float(deadline_ns)
        entry = _Entry(ids, expiry, future, now, attr)
        self._entries.append(entry)
        self._pending_ids += len(ids)
        if self._pending_ids >= self._max_batch or self._window_ns <= 0.0:
            self._flush()
        elif len(self._entries) == 1:
            epoch = self._epoch
            self._loop.call_later(self._window_ns,
                                  lambda: self._flush_if_current(epoch))
        return future

    def _flush_if_current(self, epoch: int) -> None:
        # The armed window timer is stale if a max_batch flush already ran.
        if epoch == self._epoch and self._entries:
            self._flush()

    def _flush(self) -> None:
        entries, self._entries = self._entries, []
        self._pending_ids = 0
        self._epoch += 1
        now = self._loop.now_ns
        live: list[_Entry] = []
        for entry in entries:
            if entry.expiry_ns is not None and entry.expiry_ns <= now:
                # Fail fast: the deadline expired in the buffer, so dispatching
                # this entry would be a doomed wire message. No retry-budget
                # token is spent and the server never sees it.
                self._channel.task_counters.batch_expired += 1
                entry.future.set_exception(RpcStatusError(
                    StatusCode.DEADLINE_EXCEEDED,
                    f"deadline expired in coalescing buffer for "
                    f"{self._service}.{self._method} (failed fast, not dispatched)"))
            else:
                live.append(entry)
        if not live:
            return
        merged: list = []
        for entry in live:
            if entry.attr is not None:
                entry.attr.hint("pipeline", now - entry.enqueue_ns)
            merged.extend(entry.object_ids)
        expiries = [e.expiry_ns for e in live]
        # The wire call carries the loosest surviving budget, converted back
        # to a relative duration for the channel.
        wire_deadline = (None if any(x is None for x in expiries)
                         else max(0.0, max(expiries) - now))
        counters = self._channel.task_counters
        counters.batches_sent += 1
        counters.batched_requests += len(live)
        counters.batched_ids += len(merged)
        self._loop.spawn(
            self._dispatch(live, merged, wire_deadline),
            name=self._task_name,
        )

    def _dispatch(self, live: list[_Entry], merged: list, wire_deadline):
        try:
            response = yield from self._channel.unary_task(
                self._service, self._method, {"object_ids": merged},
                deadline_ns=wire_deadline)
        except Exception as exc:  # noqa: BLE001 — fan the failure out per entry
            for entry in live:
                entry.future.set_exception(exc)
            return None
        offset = 0
        for entry in live:
            span = len(entry.object_ids)
            entry.future.set_result(self._split(response, entry, offset, span))
            offset += span
        return None

    def _split(self, response: dict, entry: _Entry, offset: int, span: int) -> dict:
        if self._method == "Lookup":
            wanted = {bytes(oid) for oid in entry.object_ids}
            found = [d for d in response.get("found", ())
                     if bytes(d.get("object_id", b"")) in wanted]
            return {"found": found, "store": response.get("store")}
        if self._method == "Contains":
            present = list(response.get("present", ()))[offset:offset + span]
            return {"present": present}
        return {}
