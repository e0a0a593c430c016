"""Generic latency + bandwidth + jitter transfer-cost model.

The same three-parameter model underlies the LAN, IPC and fabric layers:
``cost(n) = (fixed_latency + n / bandwidth) * jitter`` with log-normal
multiplicative jitter (median 1). Each layer owns an instance with its own
calibrated parameters.
"""

from __future__ import annotations

from repro.common.clock import NS_PER_S
from repro.common.rng import DeterministicRng


class TransferModel:
    """Computes the simulated cost of moving *n* bytes."""

    def __init__(
        self,
        fixed_latency_ns: float,
        bandwidth_bps: float,
        jitter_sigma: float,
        rng: DeterministicRng,
    ):
        if fixed_latency_ns < 0:
            raise ValueError("latency cannot be negative")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if jitter_sigma < 0:
            raise ValueError("jitter sigma cannot be negative")
        self._latency_ns = fixed_latency_ns
        self._ns_per_byte = NS_PER_S / bandwidth_bps
        self._sigma = jitter_sigma
        self._rng = rng

    @property
    def ns_per_byte(self) -> float:
        return self._ns_per_byte

    def cost_ns(self, nbytes: int = 0) -> float:
        """Jittered cost of one transfer of *nbytes* payload bytes."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        base = self._latency_ns + nbytes * self._ns_per_byte
        return base * self._rng.lognormal_jitter(self._sigma)

    def expected_cost_ns(self, nbytes: int = 0) -> float:
        """Jitter-free cost (for assertions and documentation)."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        return self._latency_ns + nbytes * self._ns_per_byte
