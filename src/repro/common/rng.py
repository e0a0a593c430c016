"""Deterministic randomness discipline.

Every stochastic element of the simulation — network jitter, payload
contents, id draws — flows from a :class:`DeterministicRng` derived from a
single experiment seed, so any run (and therefore any benchmark shape) is
exactly reproducible. Independent subsystems get independent streams via
:func:`derive_seed`, so adding a draw in one subsystem never perturbs
another.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from *root_seed* and a path of stream names.

    Uses SHA-256 over the root seed and names so streams are statistically
    independent and stable across processes/runs.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for name in names:
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


#: Kinds of pre-drawn block (``None``: no block is open).
_INTEGER, _UNIFORM, _NORMAL = "integer", "uniform", "normal"
#: A block never holds more values than this, and grows to it by this factor.
_BLOCK_CAP = 1024
_BLOCK_GROWTH = 4


class DeterministicRng:
    """A thin, explicit wrapper over :class:`numpy.random.Generator`.

    The wrapper exists so call sites never touch global NumPy random state
    and so streams can be split (`spawn`) by name.

    A scalar ``Generator`` call costs microseconds, most of it argument
    handling, so the three kinds the hot paths draw — :meth:`integer`,
    :meth:`uniform`, :meth:`lognormal_jitter` — are handed out of a block
    drawn from the *same* generator in the same order. The sequence is
    identical, draw for draw, to one scalar call per draw
    (``tests/common/_reference_rng.py`` is that class; ``test_rng.py`` holds
    this one to it): a block is only ever consumed front to back, and a draw
    the open block cannot serve — another kind, another integer range, or one
    of the kinds that stay scalar — first rewinds the generator to where the
    values handed out so far would have left it (:meth:`_sync`). The first
    draw of a run is the scalar call itself and blocks grow from there, so a
    stream that draws once, or never the same kind twice running, pays
    nothing for the blocks it does not use.
    """

    __slots__ = ("_seed", "_gen", "_kind", "_low", "_high", "_block",
                 "_filled", "_state")

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._gen = np.random.default_rng(self._seed)
        # The open block's kind, and its bounds when that is ``_INTEGER``.
        self._kind: str | None = None
        self._low = self._high = None
        # The open block's undrawn values, next one last; its size when drawn;
        # the bit-generator state it was drawn from.
        self._block: list = []
        self._filled = 0
        self._state = None

    @property
    def seed(self) -> int:
        return self._seed

    def spawn(self, *names: str) -> "DeterministicRng":
        """Create an independent child stream identified by *names*."""
        return DeterministicRng(derive_seed(self._seed, *names))

    # -- blocks --------------------------------------------------------------

    def _draw(self, kind: str, low, high, n: int) -> list:
        """The next *n* raw values of *kind*, in draw order (one: the scalar call)."""
        gen = self._gen
        if kind is _INTEGER:
            if n == 1:
                return [int(gen.integers(low, high))]
            return gen.integers(low, high, size=n).tolist()
        draw = gen.random if kind is _UNIFORM else gen.standard_normal
        return [draw()] if n == 1 else draw(n).tolist()

    def _sync(self) -> None:
        """Close the open block, leaving the generator exactly where one
        scalar call per value handed out would have left it."""
        if self._block:
            self._gen.bit_generator.state = self._state
            self._draw(self._kind, self._low, self._high,
                       self._filled - len(self._block))
            self._block = []
        self._kind = None

    def _next(self, kind: str, low=None, high=None):
        """The next raw value of *kind* when the open block cannot serve it:
        a larger block after one that ran out, else the scalar call."""
        if self._kind is kind and self._low == low and self._high == high:
            n = min(self._filled * _BLOCK_GROWTH, _BLOCK_CAP)
            self._state = self._gen.bit_generator.state
        else:
            self._sync()
            n = 1
        values = self._draw(kind, low, high, n)  # raises before a block opens
        values.reverse()
        self._kind, self._low, self._high = kind, low, high
        self._filled = n
        self._block = values
        return values.pop()

    # -- draws ---------------------------------------------------------------

    def bytes(self, n: int) -> bytes:
        """*n* uniform random bytes."""
        self._sync()
        return self._gen.bytes(n)

    def payload(self, n: int) -> np.ndarray:
        """A uint8 array of length *n* with uniform random contents.

        Benchmarks fill objects with random data (paper §IV-B: "commit
        Plasma objects with random data"); contents do not affect modelled
        performance but make corruption bugs visible.
        """
        self._sync()
        return self._gen.integers(0, 256, size=n, dtype=np.uint8)

    def uniform(self, low: float, high: float) -> float:
        span = high - low
        if not math.isfinite(span):
            self._sync()
            return float(self._gen.uniform(low, high))  # NumPy's own error
        if self._kind is _UNIFORM and self._block:
            return low + span * self._block.pop()
        return low + span * self._next(_UNIFORM)

    def normal(self, mean: float, std: float) -> float:
        self._sync()
        return float(self._gen.normal(mean, std))

    def lognormal_jitter(self, sigma: float) -> float:
        """A multiplicative jitter factor with median 1.0.

        Log-normal jitter matches the long right tail of real network
        latencies (the paper attributes remote-retrieval variance to "gRPC
        and its inherent network jitter").
        """
        if sigma <= 0.0:
            return 1.0
        # exp(mean + sigma * z) with mean 0: one block of standard normals
        # serves every sigma a stream uses.
        if self._kind is _NORMAL and self._block:
            return math.exp(sigma * self._block.pop())
        return math.exp(sigma * self._next(_NORMAL))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        if (self._kind is _INTEGER and self._low == low and self._high == high
                and self._block):
            return self._block.pop()
        return self._next(_INTEGER, low, high)

    def choice(self, seq: list) -> object:
        self._sync()
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        self._sync()
        self._gen.shuffle(seq)
