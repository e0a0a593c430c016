"""The async side of the RPC client: pipelined task-based calls.

:class:`AsyncChannel` extends the blocking :class:`~repro.rpc.channel.Channel`
with *task* forms of its calls. Everything observable about an individual
call is kept: the same cost model, retry/backoff ladder, deadline clamping,
retry-budget gate, breaker admission and outcome feedback, and chaos
transport behaviour. What changes is the waiting — instead of advancing the
shared clock inline (which serializes every caller), a task ``yield``s its
transport time to the event loop, so many requests to the same peer overlap
in simulated time.

The sync entry points are untouched: a cluster in ``rpc_mode="sync"`` uses
this class exactly as a ``Channel`` and remains byte-identical to the
unary baseline.

Cost split: a blocking call charges one lump
``(round_trip + bytes * per_byte) * jitter``. A task charges the same shape
split per direction — ``(round_trip/2 + dir_bytes * per_byte) * jitter`` for
the request leg, then server dispatch, then the response leg — because the
server must observe the request *before* the response travels back while
other tasks interleave. Async throughput numbers are new artifacts, so this
split does not need to reproduce sync timings draw-for-draw.
"""

from __future__ import annotations

from repro.common.errors import RpcError, RpcStatusError, ServerOverloadedError
from repro.rpc.channel import Channel
from repro.rpc.codec import decode_message, encode_message
from repro.rpc.aio.batch import BATCHABLE_METHODS, CoalescingBuffer
from repro.rpc.aio.loop import EventLoop, Future, Sleep, TaskAttribution
from repro.rpc.status import StatusCode

#: Counters specific to the async plane. Kept out of the metrics-registry
#: counter group so a sync-mode scrape is byte-identical to the baseline.
AIO_COUNTER_NAMES = (
    "tasks_started",
    "tasks_completed",
    "in_flight_peak",
    "batches_sent",
    "batched_requests",
    "batched_ids",
    "batch_expired",
    "hedges_fired",
)


class AsyncChannel(Channel):
    """A :class:`Channel` that can also run its calls as event-loop tasks."""

    def __init__(self, *args, loop: EventLoop | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._loop = loop
        self._in_flight = 0
        self._buffers: dict[tuple[str, str], CoalescingBuffer] = {}
        self.aio_counters: dict[str, int] = {name: 0 for name in AIO_COUNTER_NAMES}

    @property
    def loop(self) -> EventLoop:
        if self._loop is None:
            raise RpcError(
                f"channel to {self._server.host} has no event loop attached")
        return self._loop

    @property
    def server_host(self) -> str:
        return self._server.host

    @property
    def hedge_stagger_ns(self) -> float:
        """Stagger before a scatter-gather lookup hedges to the next peer."""
        return self._config.hedge_stagger_ns

    @property
    def stream_chunk_bytes(self) -> int:
        """Chunk size for streaming bulk transfers in async mode."""
        return self._config.stream_chunk_bytes

    # -- pipelined unary ------------------------------------------------------

    def unary_task(self, service: str, method: str, request: dict | None = None,
                   *, deadline_ns: float | None = None,
                   attr: TaskAttribution | None = None):
        """Generator-coroutine form of :meth:`Channel.unary_call`.

        ``yield from`` it inside another task, or ``loop.spawn`` it directly.
        Raises exactly what the sync call raises; returns the response dict.
        """
        if self._closed:
            raise RpcError(f"channel to {self._server.host} is closed")
        self._breaker_admit()
        deadline = self._effective_deadline(deadline_ns)
        start_ns = self._clock.now_ns
        self._in_flight += 1
        self.aio_counters["tasks_started"] += 1
        if self._in_flight > self.aio_counters["in_flight_peak"]:
            self.aio_counters["in_flight_peak"] = self._in_flight
        try:
            response = yield from self._unary_task_inner(
                service, method, request, deadline, attr)
        except RpcStatusError as exc:
            self._observe_latency(method, start_ns)
            self._breaker_record(exc)
            raise
        finally:
            self._in_flight -= 1
            self.aio_counters["tasks_completed"] += 1
        self._observe_latency(method, start_ns)
        if self._config.hedge_quantile > 0:
            self._latency_samples.add(self._clock.now_ns - start_ns)
        self._breaker_record(None)
        return response

    def _direction_cost_ns(self, nbytes: int) -> float:
        return (
            self._config.round_trip_ns / 2.0
            + nbytes * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def _sleep_within_deadline(self, cost_ns: float, start_ns: int,
                               deadline_ns: float | None):
        """Task analogue of ``_advance_within_deadline``: sleep *cost_ns* of
        simulated time, clamped at the call deadline (then raise)."""
        if deadline_ns is None:
            yield Sleep(cost_ns)
            return
        remaining = deadline_ns - (self._clock.now_ns - start_ns)
        if cost_ns > remaining:
            yield Sleep(max(0.0, remaining))
            self.counters.inc("deadline_exceeded")
            self.counters.inc("calls_failed")
            raise RpcStatusError(
                StatusCode.DEADLINE_EXCEEDED,
                f"deadline of {deadline_ns / 1e6:.3f} ms exceeded calling "
                f"{self._server.host}",
            )
        yield Sleep(cost_ns)

    def _fail_attempt_task(self, cost_ns: float, start_ns: int,
                           deadline_ns: float | None, last: bool, attempts: int,
                           attempt: int, detail: str,
                           attr: TaskAttribution | None):
        """Task analogue of ``_fail_attempt``: wasted transport + backoff as
        sleeps; repeat-attempt time is hinted to the ``retry`` component."""
        if attempt > 0 and attr is not None:
            attr.hint("retry", cost_ns)
        yield from self._sleep_within_deadline(cost_ns, start_ns, deadline_ns)
        self.counters.inc("attempts_failed")
        if last:
            self.counters.inc("calls_failed")
            raise RpcStatusError(
                StatusCode.UNAVAILABLE, f"{detail} ({attempts} attempts)")
        self._gate_retry(RpcStatusError(
            StatusCode.UNAVAILABLE, f"{detail} (retry budget exhausted)"))
        self.counters.inc("retries")
        backoff = self._backoff_ns(attempt)
        if attr is not None:
            attr.hint("retry", backoff)
        yield from self._sleep_within_deadline(backoff, start_ns, deadline_ns)

    def _unary_task_inner(self, service: str, method: str,
                          request: dict | None, deadline_ns: float | None,
                          attr: TaskAttribution | None):
        wire_request = encode_message(request or {})
        attempts = 1 + max(0, self._config.max_retries)
        start_ns = self._clock.now_ns
        for attempt in range(attempts):
            last = attempt == attempts - 1
            if self._transport_silent():
                yield from self._fail_attempt_task(
                    self._chaos.unanswered_wait_ns, start_ns, deadline_ns,
                    last, attempts, attempt,
                    f"no response from {self._server.host}", attr)
                continue
            if self._attempt_fails():
                yield from self._fail_attempt_task(
                    self._cost_ns(len(wire_request), 0), start_ns, deadline_ns,
                    last, attempts, attempt,
                    f"connection to {self._server.host} lost", attr)
                continue
            if attempt > 0 and attr is not None:
                attr.hint("retry", self._cost_ns(0, 0))
            yield from self._sleep_within_deadline(
                self._direction_cost_ns(len(wire_request)), start_ns, deadline_ns)
            status, wire_response, detail = self._server.dispatch_wire(
                service,
                method,
                wire_request,
                correlation_id=(
                    self._correlation.current
                    if self._correlation is not None
                    else None
                ),
                deadline_ns=(
                    deadline_ns - (self._clock.now_ns - start_ns)
                    if deadline_ns is not None
                    else None
                ),
                caller=self._local_host,
            )
            yield from self._sleep_within_deadline(
                self._direction_cost_ns(len(wire_response)), start_ns, deadline_ns)
            self.counters.inc("calls")
            self.counters.inc("bytes_sent", len(wire_request))
            self.counters.inc("bytes_received", len(wire_response))
            if status is StatusCode.UNAVAILABLE:
                self.counters.inc("attempts_failed")
                if last:
                    self.counters.inc("calls_failed")
                    raise RpcStatusError(status, detail)
                self._gate_retry(RpcStatusError(status, detail))
                self.counters.inc("retries")
                backoff = self._backoff_ns(attempt)
                if attr is not None:
                    attr.hint("retry", backoff)
                yield from self._sleep_within_deadline(
                    backoff, start_ns, deadline_ns)
                continue
            if status is StatusCode.RESOURCE_EXHAUSTED:
                self.counters.inc("attempts_shed")
                err = ServerOverloadedError(detail)
                if last:
                    self.counters.inc("calls_failed")
                    raise err
                self._gate_retry(err)
                self.counters.inc("retries")
                backoff = self._backoff_ns(attempt)
                if attr is not None:
                    attr.hint("retry", backoff)
                yield from self._sleep_within_deadline(
                    backoff, start_ns, deadline_ns)
                continue
            if status is not StatusCode.OK:
                self.counters.inc("calls_failed")
                raise RpcStatusError(status, detail)
            return decode_message(wire_response)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- coalesced id-list calls ----------------------------------------------

    def batched_call(self, service: str, method: str, object_ids: list, *,
                     deadline_ns: float | None = None,
                     attr: TaskAttribution | None = None) -> Future:
        """Submit an id-list call to this channel's coalescing buffer.

        Returns a future resolving with the caller's slice of the merged
        response. Calls landing within ``batch_window_ns`` of each other (or
        until ``max_batch`` ids accumulate) share one wire message.
        """
        if method not in BATCHABLE_METHODS:
            raise ValueError(f"method {method!r} is not batchable")
        key = (service, method)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = CoalescingBuffer(
                self, service, method,
                window_ns=self._config.batch_window_ns,
                max_batch=self._config.max_batch,
            )
            self._buffers[key] = buffer
        return buffer.submit(
            object_ids,
            deadline_ns=self._effective_deadline(deadline_ns),
            attr=attr,
        )
