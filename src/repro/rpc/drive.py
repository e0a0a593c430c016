"""The one driver that runs an operation's body for a synchronous caller.

An operation that may wait on the transport — a channel call, a store or
client facade, a workload op — is written once, as a generator that takes
``blocking``. Its task form (``blocking=False``) yields its waits to the
event loop of :mod:`repro.rpc.aio`; with ``blocking=True`` it takes only
blocking leaves, which advance the clock in place, and finishes without
ever suspending. :func:`drive` runs such a body to its result: spawned on
*loop* and driven until it finishes when a loop is given, otherwise inline
in the caller's frame. An inline run touches neither the loop nor its RNG
stream, which is what keeps sync mode byte-identical to the unary baseline.
"""

from __future__ import annotations


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
