"""The data-centre LAN model.

Hosts register by name; any two hosts can open a :class:`Connection`.
Sends advance the cluster's :class:`~repro.common.clock.SimClock` by the
modelled transfer cost and enqueue the payload at the peer, where a
blocking ``recv`` pops it (the simulation is synchronous, so "blocking"
means raising if nothing was sent — a protocol bug, not a timing race).

The LAN is the substrate for both the gRPC layer (metadata) and the
scale-out baseline (bulk object copies, Fig 1a).
"""

from __future__ import annotations

from collections import deque

from repro.common.clock import SimClock
from repro.common.config import LanConfig
from repro.common.errors import ConnectionClosedError, NetworkError
from repro.common.rng import DeterministicRng
from repro.obs.metrics import CounterGroup
from repro.network.model import TransferModel


class Network:
    """A named-host LAN with uniform per-pair characteristics."""

    def __init__(self, clock: SimClock, config: LanConfig, rng: DeterministicRng):
        self._clock = clock
        self._config = config
        self._rng = rng.spawn("lan")
        self._hosts: set[str] = set()
        self._model = TransferModel(
            fixed_latency_ns=config.round_trip_ns / 2.0,
            bandwidth_bps=config.bandwidth_bps,
            jitter_sigma=config.jitter_sigma,
            rng=self._rng,
        )
        self.counters = CounterGroup()

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def config(self) -> LanConfig:
        return self._config

    def register_host(self, name: str) -> None:
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already registered")
        self._hosts.add(name)

    def hosts(self) -> set[str]:
        return set(self._hosts)

    def connect(self, local: str, remote: str) -> "Connection":
        """Open a bidirectional connection between two registered hosts."""
        for h in (local, remote):
            if h not in self._hosts:
                raise NetworkError(f"unknown host {h!r}")
        if local == remote:
            raise NetworkError("connecting a host to itself is not meaningful")
        a_to_b: deque[bytes] = deque()
        b_to_a: deque[bytes] = deque()
        conn_a = Connection(self, local, remote, send_q=a_to_b, recv_q=b_to_a)
        conn_b = Connection(self, remote, local, send_q=b_to_a, recv_q=a_to_b)
        conn_a._peer = conn_b
        conn_b._peer = conn_a
        return conn_a

    def _charge_transfer(self, nbytes: int) -> None:
        self._clock.advance(self._model.cost_ns(nbytes))
        self.counters.inc("bytes_transferred", nbytes)
        self.counters.inc("messages", 1)


class Connection:
    """One endpoint of a LAN byte-message connection."""

    def __init__(
        self,
        network: Network,
        local: str,
        remote: str,
        send_q: deque,
        recv_q: deque,
    ):
        self._network = network
        self._local = local
        self._remote = remote
        self._send_q = send_q
        self._recv_q = recv_q
        self._peer: "Connection | None" = None
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def local(self) -> str:
        return self._local

    @property
    def remote(self) -> str:
        return self._remote

    @property
    def peer(self) -> "Connection":
        assert self._peer is not None
        return self._peer

    def send(self, payload: bytes) -> None:
        """Transmit *payload*; charges the LAN model for its size."""
        if self._closed or (self._peer and self._peer._closed):
            raise ConnectionClosedError(
                f"connection {self._local}->{self._remote} is closed"
            )
        data = bytes(payload)
        self._network._charge_transfer(len(data))
        self._send_q.append(data)
        self.bytes_sent += len(data)

    def recv(self) -> bytes:
        """Pop the next pending message (raises if none — in the synchronous
        simulation an empty queue means a protocol error, not a wait)."""
        if not self._recv_q:
            if self._closed or (self._peer and self._peer._closed):
                raise ConnectionClosedError(
                    f"connection {self._local}->{self._remote} is closed"
                )
            raise NetworkError(
                f"recv on {self._local}<-{self._remote} with no pending message"
            )
        data = self._recv_q.popleft()
        self.bytes_received += len(data)
        return data

    def pending(self) -> int:
        return len(self._recv_q)

    def close(self) -> None:
        self._closed = True
