"""Deterministic, splittable random streams.

Every draw is keyed by (seed, label, counter) through a hash into a
counter-based Philox generator, so identical keys give identical values
on every platform and no draw depends on global RNG state. Streams are
split by label (``stream.child("s0/step3")``) which makes per-step
sampling a pure function of the run seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

# One Philox generator serves every draw: a draw's key is its whole state.
# _FRESH is a new Philox state (zero counter, empty buffer) to key it from.
_PHILOX = np.random.Philox(key=0)
_GENERATOR = np.random.Generator(_PHILOX)
_FRESH = _PHILOX.state


@dataclass
class RandomStream:
    seed: int
    label: str = "root"
    counter: int = 0

    def child(self, label: str) -> "RandomStream":
        """Independent stream derived from this one's seed and label."""
        return RandomStream(self.seed, f"{self.label}/{label}")

    def _generator(self) -> np.random.Generator:
        """The shared generator, set to this stream's next key; it equals
        a fresh `Generator(Philox(key=...))`. It is reset by the next
        keyed draw of any stream, so callers draw from it at once and
        never hold it, and draws are not thread-safe."""
        key_material = f"{self.seed}|{self.label}|{self.counter}".encode()
        digest = hashlib.blake2b(key_material, digest_size=16).digest()
        self.counter += 1
        _FRESH["state"]["key"] = np.frombuffer(digest, "<u8")
        _PHILOX.state = _FRESH
        return _GENERATOR

    def normal(self, shape, mean: float = 0.0, std: float = 1.0,
               dtype=np.float64) -> np.ndarray:
        if std < 0:
            raise ContractError(f"std must be >= 0, got {std}")
        gen = self._generator()
        if std == 0:
            return np.full(shape, mean, dtype=dtype)
        return (gen.standard_normal(shape) * std + mean).astype(dtype)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._generator().uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._generator().integers(low, high, size=shape)

    def poisson(self, lam: float) -> int:
        return int(self._generator().poisson(lam))

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def choice(self, n: int, p: np.ndarray) -> int:
        return int(self._generator().choice(n, p=p))
