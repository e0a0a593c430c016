"""Messaging via disaggregated memory (paper §IV-A2, approach 2).

The paper rejected this approach for its prototype: "Messaging in
traditional shared memory is a simple task, however, the cache-coherency
characteristics of ThymesisFlow introduce additional complexity. This
would require developing a robust messaging system using both local and
remote disaggregated memory." This module *is* that messaging system, so
the trade can be measured instead of argued (E6 in DESIGN.md):

* transport: a pair of :mod:`~repro.core.ring` SPSC rings, one in each
  node's exposed region — writers write locally, readers read remotely, so
  the Fig 3b staleness trap is avoided by construction;
* :class:`DmsgChannel` carries the very same wire-encoded
  :class:`~repro.core.service.StoreService` calls as the gRPC channel, so
  a cluster built with ``sharing="dmsg"`` runs the identical metadata
  protocol over disaggregated memory — including the AddRef/ReleaseRef
  feedback the one-way hash-map directory cannot do;
* cost: each call pays ring writes at local bandwidth, polling delay
  (modelling the peer's service loop wake-up), and fabric loads/reads —
  microseconds in total, versus the ~2.3 ms gRPC round trip.
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.common.config import DmsgConfig
from repro.common.errors import RpcError, RpcStatusError
from repro.common.rng import DeterministicRng
from repro.obs.metrics import CounterGroup
from repro.core.ring import RingReader, RingWriter
from repro.rpc.codec import decode_message, encode_message
from repro.rpc.server import RpcServer
from repro.rpc.status import StatusCode


class DmsgChannel:
    """A blocking unary-call channel over a disaggregated-memory ring pair.

    ``local_writer`` lives in this node's exposed region (requests out);
    ``response_reader`` reads the peer's ring (responses in). The peer's
    service loop is emulated synchronously: ``peer_request_reader`` is the
    peer's view of our request ring and ``peer_writer`` the peer's response
    ring writer; dispatch happens on the peer's real :class:`RpcServer`, so
    handler semantics (mutexes, status mapping) are identical to the gRPC
    path.
    """

    def __init__(
        self,
        local_host: str,
        server: RpcServer,
        local_writer: RingWriter,
        peer_request_reader: RingReader,
        peer_writer: RingWriter,
        response_reader: RingReader,
        clock: SimClock,
        config: DmsgConfig,
        rng: DeterministicRng,
    ):
        self._local_host = local_host
        self._server = server
        self._writer = local_writer
        self._peer_request_reader = peer_request_reader
        self._peer_writer = peer_writer
        self._response_reader = response_reader
        self._clock = clock
        self._config = config
        self._rng = rng.spawn("dmsg", local_host, server.host)
        self.counters = CounterGroup()
        self._closed = False

    @property
    def target(self) -> str:
        return self._server.host

    def close(self) -> None:
        self._closed = True

    def _poll_delay(self) -> None:
        """Half the peer's polling interval on average, jittered — the time
        until the peer's service loop next looks at the ring."""
        mean = self._config.poll_interval_ns / 2.0
        self._clock.advance(mean * self._rng.lognormal_jitter(0.5))

    def unary_call(self, service: str, method: str, request: dict | None = None) -> dict:
        if self._closed:
            raise RpcError(f"dmsg channel to {self._server.host} is closed")
        header = encode_message({"service": service, "method": method})
        wire_request = encode_message(request or {})
        frame = encode_message({"h": header, "b": wire_request})

        # 1. Request out: local write into our exposed ring.
        self._writer.publish(frame)
        # 2. Peer's service loop wakes up and drains our ring (fabric reads
        #    from the peer's side).
        self._poll_delay()
        frames = self._peer_request_reader.poll()
        if not frames or frames[-1] != frame:
            raise RpcError("dmsg transport lost the request frame")
        envelope = decode_message(frames[-1])
        head = decode_message(envelope["h"])
        status, wire_response, detail = self._server.dispatch_wire(
            head["service"], head["method"], envelope["b"],
            caller=self._local_host,
        )
        # 3. Response out: the peer writes its own exposed ring.
        response_frame = encode_message(
            {"s": status.value, "d": detail, "b": wire_response}
        )
        self._peer_writer.publish(response_frame)
        # 4. We poll the peer's ring for the response.
        self._poll_delay()
        responses = self._response_reader.poll()
        if not responses:
            raise RpcError("dmsg transport lost the response frame")
        reply = decode_message(responses[-1])

        self.counters.inc("calls")
        self.counters.inc("bytes_sent", len(frame))
        self.counters.inc("bytes_received", len(responses[-1]))
        reply_status = StatusCode(reply["s"])
        if reply_status is not StatusCode.OK:
            self.counters.inc("calls_failed")
            raise RpcStatusError(reply_status, reply.get("d", ""))
        return decode_message(reply["b"])

    def stub(self, service: str):
        from repro.rpc.channel import ServiceStub

        return ServiceStub(self, service)  # type: ignore[arg-type]
