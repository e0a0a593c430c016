"""Deterministic cooperative event loop and the async RPC plane's parts.

``repro.rpc`` reproduces the paper's synchronous unary gRPC stack: one
blocking request in flight per channel, so concurrent clients serialize
behind the fabric (the Fig 6 bottleneck). This package is the fix named by
ROADMAP item 1 — an event-driven scheduler on :class:`~repro.common.clock.SimClock`
that keeps many requests in flight per peer while staying **bit-exactly
deterministic**:

* :class:`EventLoop` — a heap of ``(wake_ns, tie, seq)``-ordered events over
  generator-coroutine tasks. Ties at the same simulated instant break by a
  seeded random rank (never wall-clock, never hash order), so two runs of
  the same seed interleave identically.
* :class:`CoalescingBuffer` — transparent coalescing of id-list RPCs into
  batched wire messages.

The task-based calls themselves live on :class:`~repro.rpc.channel.Channel`
(``unary_task``, ``batched_call``), beside the blocking ones they share one
body with; a store fan-out gathers them through
:func:`repro.rpc.drive.fan_out`. Nothing in the cluster selects this
package: a caller runs an op here by handing its body to
:func:`repro.rpc.drive.drive` with ``loop=cluster.loop``. Every facade runs
its body inline and never touches it, which preserves the one-in-flight
semantics (and every standing BENCH/TRACE artifact) exactly.
"""

from repro.rpc.aio.loop import (
    EventLoop,
    EventLoopError,
    Future,
    Sleep,
    Task,
    TaskAttribution,
)
from repro.rpc.aio.batch import CoalescingBuffer, BATCHABLE_METHODS

__all__ = [
    "EventLoop",
    "EventLoopError",
    "Future",
    "Sleep",
    "Task",
    "TaskAttribution",
    "CoalescingBuffer",
    "BATCHABLE_METHODS",
]
