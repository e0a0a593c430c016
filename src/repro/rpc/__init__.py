"""A gRPC-like synchronous unary RPC layer.

The paper interconnects Plasma stores with gRPC 1.38 "configured in
synchronous mode due to its favorable servicing latency ... and in unary
mode to minimize protocol overhead" (§IV-A2). This package reproduces that
stack's observable behaviour:

* :mod:`repro.rpc.codec` — a tag-length-value wire format standing in for
  Protocol Buffers: every call really serialises its request/response, so
  message sizes are real and feed the cost model.
* :class:`RpcServer` — the server side: a service registry plus a dispatch
  loop that maps handler exceptions to status codes (the paper's dedicated
  gRPC server thread is modelled by running dispatch under the store's
  object-table mutex).
* :class:`Channel` / stubs — the client side: blocking unary calls that
  charge the calibrated round-trip + per-byte cost and raise
  :class:`~repro.common.errors.RpcStatusError` on non-OK status, and —
  with an event loop attached — the same calls as pipelined tasks.
"""

from repro.rpc.codec import encode_message, decode_message, MessageError
from repro.rpc.status import StatusCode
from repro.rpc.service import Service, rpc_method
from repro.rpc.server import RpcServer
from repro.rpc.channel import Channel, ServiceStub
from repro.rpc.aio import (
    CoalescingBuffer,
    EventLoop,
    EventLoopError,
    Future,
    Sleep,
    Task,
    TaskAttribution,
)

__all__ = [
    "CoalescingBuffer",
    "EventLoop",
    "EventLoopError",
    "Future",
    "Sleep",
    "Task",
    "TaskAttribution",
    "encode_message",
    "decode_message",
    "MessageError",
    "StatusCode",
    "Service",
    "rpc_method",
    "RpcServer",
    "Channel",
    "ServiceStub",
]
