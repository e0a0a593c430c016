"""Correlation ids: stitching one logical operation across layers.

A cluster owns a single :class:`CorrelationContext`. When a client begins
an operation (Get, Put) it mints a request id — a deterministic sequence
number, never wall-clock or RNG derived, so traced runs replay
bit-identically — and pushes it onto the context. Everything that runs
beneath the operation (RPC channel spans, the server-side dispatch span,
fabric read/write spans) reads ``current`` and stamps the id into its
trace-event args as ``rid``. Remote buffers returned by a Get carry the id
with them so the *deferred* fabric reads (``read_all`` after the Get
returned) still attribute to the originating request: they ``begin`` the
stamped id again.

The context is a plain stack, matching the simulator's single-threaded
depth-first execution: nested operations (a replicated Put issuing RPCs)
see the innermost id.
"""

from __future__ import annotations


class CorrelationContext:
    """Mints and scopes per-operation request ids."""

    __slots__ = ("_prefix", "_seq", "_stack")

    def __init__(self, prefix: str = "req"):
        self._prefix = prefix
        self._seq = 0
        self._stack: list[str] = []

    def mint(self) -> str:
        """A fresh deterministic request id (``req-000001``, ...)."""
        self._seq += 1
        return f"{self._prefix}-{self._seq:06d}"

    def begin(self, rid: str | None = None) -> str:
        """Enter an operation scope; mint an id unless resuming one."""
        if rid is None:
            rid = self.mint()
        self._stack.append(rid)
        return rid

    def end(self) -> None:
        """Leave the innermost operation scope."""
        self._stack.pop()

    @property
    def current(self) -> str | None:
        """The innermost active request id, or None outside any operation."""
        return self._stack[-1] if self._stack else None

    def __repr__(self) -> str:
        return (
            f"CorrelationContext(minted={self._seq}, depth={len(self._stack)})"
        )
