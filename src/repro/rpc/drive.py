"""The one driver that runs an operation's body for a synchronous caller.

An operation that may wait on the transport — a channel call, a store or
client facade, a workload op — is written once, as a generator that takes
``blocking``. Its task form (``blocking=False``) yields its waits to the
event loop of :mod:`repro.rpc.aio`; with ``blocking=True`` it takes only
blocking leaves, which advance the clock in place, and finishes without
ever suspending. :func:`drive` runs such a body to its result: spawned on
*loop* and driven until it finishes when the caller gives a loop, otherwise
inline in the caller's frame (every facade does that). An inline run
touches neither the loop nor its RNG stream, which is what keeps it
byte-identical to the unary baseline.

:func:`fan_out` is the one per-peer fan-out such a body takes: the same
calls, sent one after another inline or gathered on the loop.
"""

from __future__ import annotations

from repro.common.errors import RpcStatusError
from repro.rpc.aio.batch import BATCHABLE_METHODS


def drive(task_form, *args, loop=None, **kwargs):
    """Run ``task_form(*args, **kwargs)`` to completion and return its result.

    With *loop*, the body is spawned there as a task and the loop is driven
    until it is done. Without, it is called with ``blocking=True`` and
    stepped once in this frame; a body that suspends anyway is a bug and
    raises :class:`RuntimeError`.
    """
    if loop is not None:
        body = task_form(*args, **kwargs)
        return loop.run_until_complete(loop.spawn(body, name=body.__name__))
    body = task_form(*args, blocking=True, **kwargs)
    try:
        awaited = body.send(None)
    except StopIteration as done:
        return done.value
    body.close()
    raise RuntimeError(
        f"{body.__name__} suspended on {awaited!r} while driven inline; "
        "a blocking=True body may only use blocking leaves"
    )


def fan_out(calls, *, blocking, loop=None, attr=None, tolerated=()):
    """Send one id-list call per peer; return the outcomes in call order.

    *calls* lists ``(stub, method, wire_ids)``; an outcome is the response
    dict or the exception the call ended with. With *blocking* the calls
    run inline, one after another, and the sweep stops after the first
    :class:`~repro.common.errors.RpcStatusError` whose code is not in
    *tolerated* (it is the last outcome). Otherwise every call is issued at
    once on *loop* — a batchable method through the channel's coalescing
    buffer, any other as a pipelined unary task — and one gather waits for
    them all.
    """
    if blocking:
        outcomes = []
        for stub, method, wire_ids in calls:
            try:
                response = yield from stub.channel.unary_task(
                    stub.service, method, {"object_ids": wire_ids}, blocking=True
                )
            except RpcStatusError as exc:
                outcomes.append(exc)
                if exc.code not in tolerated:
                    break
            else:
                outcomes.append(response)
        return outcomes
    if not calls:
        return []
    pending = [
        stub.channel.batched_call(stub.service, method, wire_ids, attr=attr)
        if method in BATCHABLE_METHODS
        else loop.spawn(
            stub.channel.unary_task(
                stub.service, method, {"object_ids": wire_ids}, attr=attr
            ),
            name=(method, stub.channel.target),
        )
        for stub, method, wire_ids in calls
    ]
    return (yield loop.gather(pending))
