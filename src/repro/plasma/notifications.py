"""Seal/delete notifications.

Real Plasma lets clients subscribe to a notification socket that announces
every sealed object — the mechanism big-data pipelines use to chain
producers and consumers. The examples build on this, so the reimplementation
carries it: a store fan-outs :class:`SealNotification` records to every
subscribed :class:`NotificationQueue`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.ids import ObjectID


@dataclass(frozen=True)
class SealNotification:
    """One announcement: an object became available (or disappeared)."""

    object_id: ObjectID
    data_size: int
    deleted: bool = False


class NotificationQueue:
    """A subscriber's FIFO of pending notifications."""

    def __init__(self) -> None:
        self._queue: deque[SealNotification] = deque()

    def _push(self, note: SealNotification) -> None:
        self._queue.append(note)

    def pop(self) -> SealNotification | None:
        """Next pending notification, or None."""
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
