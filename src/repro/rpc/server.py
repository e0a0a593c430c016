"""The server side of the RPC layer.

The paper runs a dedicated gRPC server thread per store; concurrency with
the store's main thread is guarded by a mutex on the object table. Here the
server is an in-simulation object whose :meth:`dispatch` is invoked by
client channels; handlers acquire the same real :class:`threading.Lock`
instances the store uses, so the thread-safety design is exercised for real
in the threaded integration tests.
"""

from __future__ import annotations

import traceback

from repro.common.errors import (
    ObjectCorruptedError,
    ObjectExistsError,
    ObjectNotFoundError,
    ObjectNotSealedError,
    ReproError,
    RpcError,
)
from repro.obs.metrics import CounterGroup
from repro.rpc.codec import decode_message, encode_message
from repro.rpc.service import Service
from repro.rpc.status import StatusCode

_EXCEPTION_STATUS = (
    (ObjectCorruptedError, StatusCode.DATA_LOSS),
    (ObjectNotFoundError, StatusCode.NOT_FOUND),
    (ObjectExistsError, StatusCode.ALREADY_EXISTS),
    (ObjectNotSealedError, StatusCode.FAILED_PRECONDITION),
    (ValueError, StatusCode.INVALID_ARGUMENT),
)


class RpcServer:
    """A service registry + dispatcher bound to one host."""

    def __init__(self, host: str):
        self._host = host
        self._services: dict[str, dict[str, object]] = {}
        self._shutdown = False
        self.counters = CounterGroup()
        # Opt-in observability, set by the cluster builder: a span sink
        # plus clock for server-side dispatch spans, and a pre-bound latency
        # histogram. All default off; dispatch keeps a fast path.
        self.spans = None
        self.clock = None
        self._latency = None
        self._method_names: dict[tuple[str, str], str] = {}
        # Opt-in admission control (repro.rpc.overload), set by the cluster
        # builder. None (or an inactive model) keeps the legacy
        # infinite-capacity dispatch.
        self.overload = None
        # The host whose call is being handled right now (see dispatch_wire).
        self.caller: str | None = None

    def attach_metrics(self, registry) -> None:
        """Bind dispatch counters and per-method handler latency."""
        registry.register_group(self.counters, "rpc_server")
        self._latency = registry.histogram(
            "rpc_server_latency_ns",
            "Simulated server-side handler time per method.",
            labels=("method",),
        )
        if self.overload is not None:
            self.overload.attach_metrics(registry)

    @property
    def host(self) -> str:
        return self._host

    def shutdown(self) -> None:
        """Simulate the store process dying: every subsequent call gets
        UNAVAILABLE. Note the asymmetry that makes disaggregation
        interesting: the node's exposed *memory* remains readable over the
        fabric — only the metadata plane is gone."""
        self._shutdown = True
        if self.overload is not None:
            # The in-memory request queue dies with the process.
            self.overload.reset()

    def restart(self) -> None:
        self._shutdown = False
        if self.overload is not None:
            self.overload.reset()

    def add_service(self, service: Service) -> None:
        name = service.service_name()
        if name in self._services:
            raise RpcError(f"service {name!r} already registered on {self._host}")
        methods = service.rpc_methods()
        if not methods:
            raise RpcError(f"service {name!r} exposes no @rpc_method handlers")
        self._services[name] = methods
        service.server = self

    def replace_service(self, service: Service) -> None:
        """Swap a registered service for a fresh instance — the restart
        path: a recovered store process re-binds its service on the same
        endpoint while peers keep their existing channels."""
        name = service.service_name()
        if name not in self._services:
            raise RpcError(f"service {name!r} not registered on {self._host}")
        methods = service.rpc_methods()
        if not methods:
            raise RpcError(f"service {name!r} exposes no @rpc_method handlers")
        self._services[name] = methods
        service.server = self

    def dispatch_wire(
        self,
        service: str,
        method: str,
        request_wire: bytes,
        correlation_id: str | None = None,
        deadline_ns: float | None = None,
        caller: str | None = None,
    ) -> tuple[StatusCode, bytes, str]:
        """Decode, dispatch, encode. Returns (status, response_wire, detail).

        This is the seam channels call: request and response both cross it
        as real serialized bytes. ``correlation_id`` models gRPC call
        metadata — the caller's request id rides alongside the payload so
        server-side spans correlate with the originating client operation —
        and ``deadline_ns`` models the ``grpc-timeout`` metadata header:
        the caller's *remaining* budget, which admission control uses to
        shed already-expired or can't-possibly-finish work before parsing
        or servicing it. ``caller`` is the calling host, gRPC's
        ``context.peer()``: handlers read it as :attr:`caller` (through
        :meth:`Service.caller <repro.rpc.service.Service.caller>`) while
        they run; None means the transport did not say.
        """
        if (
            self.overload is not None
            and not self._shutdown
            and self.clock is not None
        ):
            decision = self.overload.admit(self.clock.now_ns, deadline_ns)
            if not decision.admitted:
                self.counters.inc("calls_shed")
                if self.spans is not None:
                    # Zero-duration marker: the shed is visible in the
                    # flight recorder next to the queue state it saw.
                    with self.spans.span(
                        "queue",
                        "shed",
                        node=self._host,
                        reason=decision.reason,
                        queue_len=decision.queue_len,
                    ):
                        pass
                return StatusCode.RESOURCE_EXHAUSTED, b"", decision.detail
            if decision.delay_ns > 0:
                # Queueing delay: the request sat in the bounded queue
                # before its handler ran. Charged here so it lands inside
                # the client's observed call latency.
                if self.spans is not None:
                    with self.spans.span(
                        "queue",
                        "wait",
                        node=self._host,
                        queue_len=decision.queue_len,
                    ):
                        self.clock.advance(decision.delay_ns)
                else:
                    self.clock.advance(decision.delay_ns)
        try:
            request = decode_message(request_wire)
        except RpcError as exc:
            return StatusCode.INVALID_ARGUMENT, b"", str(exc)
        outer, self.caller = self.caller, caller
        try:
            if self.spans is None and self._latency is None:
                status, response, detail = self.dispatch(service, method, request)
            else:
                status, response, detail = self._dispatch_observed(
                    service, method, request, correlation_id
                )
        finally:
            self.caller = outer
        try:
            wire = encode_message({} if response is None else response)
        except RpcError as exc:  # handler returned something unserialisable
            return StatusCode.INTERNAL, b"", f"unserialisable response: {exc}"
        return status, wire, detail

    def _method_name(self, service: str, method: str) -> str:
        """``service.method`` — one string per pair, shared by every span
        name and latency label of that method on this server and on the
        channels that call it."""
        try:
            return self._method_names[service, method]
        except KeyError:
            name = self._method_names[service, method] = f"{service}.{method}"
            return name

    def _dispatch_observed(
        self,
        service: str,
        method: str,
        request: dict,
        correlation_id: str | None,
    ) -> tuple[StatusCode, dict | None, str]:
        """Dispatch wrapped in a server-side span and handler-latency
        observation. Lives outside :meth:`dispatch` so subclasses and test
        fakes overriding ``dispatch`` keep the plain 3-argument seam."""
        latency = self._latency if self.clock is not None else None
        start_ns = self.clock.now_ns if latency is not None else 0
        name = self._method_name(service, method)
        exemplar = None
        try:
            spans = self.spans
            if spans is not None:
                with spans.span(
                    "rpc.server",
                    name,
                    self._host,
                    {} if correlation_id is None else {"rid": correlation_id},
                ):
                    if latency is not None:
                        # The dispatch span itself (None while the sink
                        # is parked), kept unrendered.
                        exemplar = spans.current_span
                    return self.dispatch(service, method, request)
            return self.dispatch(service, method, request)
        finally:
            if latency is not None:
                latency.labels(method=name).observe(
                    self.clock.now_ns - start_ns, exemplar=exemplar
                )

    def dispatch(self, service: str, method: str, request: dict) -> tuple[StatusCode, dict | None, str]:
        """Dispatch a decoded request; maps handler exceptions to statuses."""
        self.counters.inc("calls")
        if self._shutdown:
            self.counters.inc("calls_unavailable")
            return (
                StatusCode.UNAVAILABLE,
                None,
                f"store process on {self._host} is down",
            )
        methods = self._services.get(service)
        if methods is None:
            self.counters.inc("calls_unimplemented")
            return StatusCode.UNIMPLEMENTED, None, f"unknown service {service!r}"
        handler = methods.get(method)
        if handler is None:
            self.counters.inc("calls_unimplemented")
            return (
                StatusCode.UNIMPLEMENTED,
                None,
                f"service {service!r} has no method {method!r}",
            )
        try:
            response = handler(request)
        except Exception as exc:  # noqa: BLE001 — the server must not die
            self.counters.inc("calls_failed")
            for exc_type, code in _EXCEPTION_STATUS:
                if isinstance(exc, exc_type):
                    return code, None, str(exc)
            if isinstance(exc, ReproError):
                return StatusCode.INTERNAL, None, str(exc)
            return (
                StatusCode.INTERNAL,
                None,
                f"unhandled {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}",
            )
        if response is None:
            response = {}
        if not isinstance(response, dict):
            self.counters.inc("calls_failed")
            return StatusCode.INTERNAL, None, "handler returned a non-dict response"
        self.counters.inc("calls_ok")
        return StatusCode.OK, response, ""
