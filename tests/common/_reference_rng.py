"""Reference RNG: the scalar ``DeterministicRng`` that ``repro.common.rng``
shipped until PR 18 — one NumPy ``Generator`` call per draw — kept test-only
and unchanged.

It defines every stream by example: ``test_rng.py`` holds the block-drawing
production class to this one draw for draw, value and type. Do not optimise
it, and do not import it from ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_seed


class DeterministicRng:
    """A thin, explicit wrapper over :class:`numpy.random.Generator`.

    The wrapper exists so call sites never touch global NumPy random state
    and so streams can be split (`spawn`) by name.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._gen = np.random.default_rng(self._seed)

    @property
    def seed(self) -> int:
        return self._seed

    def spawn(self, *names: str) -> "DeterministicRng":
        """Create an independent child stream identified by *names*."""
        return DeterministicRng(derive_seed(self._seed, *names))

    # -- draws ---------------------------------------------------------------

    def bytes(self, n: int) -> bytes:
        """*n* uniform random bytes."""
        return self._gen.bytes(n)

    def payload(self, n: int) -> np.ndarray:
        """A uint8 array of length *n* with uniform random contents.

        Benchmarks fill objects with random data (paper §IV-B: "commit
        Plasma objects with random data"); contents do not affect modelled
        performance but make corruption bugs visible.
        """
        return self._gen.integers(0, 256, size=n, dtype=np.uint8)

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def normal(self, mean: float, std: float) -> float:
        return float(self._gen.normal(mean, std))

    def lognormal_jitter(self, sigma: float) -> float:
        """A multiplicative jitter factor with median 1.0.

        Log-normal jitter matches the long right tail of real network
        latencies (the paper attributes remote-retrieval variance to "gRPC
        and its inherent network jitter").
        """
        if sigma <= 0.0:
            return 1.0
        return float(self._gen.lognormal(mean=0.0, sigma=sigma))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def choice(self, seq: list) -> object:
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        self._gen.shuffle(seq)
