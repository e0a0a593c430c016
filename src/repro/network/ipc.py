"""Unix-domain-socket IPC between a Plasma client and its local store.

Plasma's protocol passes object *handles* (file descriptors plus offsets)
over the socket, never object payloads, so the cost model is dominated by a
per-request overhead plus a per-object marshalling term. Those two
parameters are fitted directly from Fig 6's local series
(see :class:`~repro.common.config.IpcConfig`).
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.common.config import IpcConfig
from repro.common.rng import DeterministicRng
from repro.obs.metrics import CounterGroup


class IpcChannel:
    """Models the store<->client socket on one node.

    ``charge_request(nobjects, nbytes)`` advances the clock by the cost of
    one request/response round trip carrying *nobjects* handles and
    *nbytes* of inline metadata.
    """

    class Counters(CounterGroup):
        requests = objects_referenced = 0

    def __init__(self, clock: SimClock, config: IpcConfig, rng: DeterministicRng):
        self._clock = clock
        self._config = config
        self._rng = rng.spawn("ipc")
        self.counters = self.Counters()

    @property
    def config(self) -> IpcConfig:
        return self._config

    def charge_request(self, nobjects: int = 0, nbytes: int = 0) -> float:
        """One IPC round trip; returns the charged nanoseconds."""
        if nobjects < 0 or nbytes < 0:
            raise ValueError("negative request size")
        cost = (
            self._config.request_overhead_ns
            + nobjects * self._config.per_object_ns
            + nbytes * self._config.per_byte_ns
        )
        cost *= self._rng.lognormal_jitter(self._config.jitter_sigma)
        self._clock.advance(cost)
        self.counters.requests += 1
        self.counters.objects_referenced += nobjects
        return cost
