"""Counter-based deterministic randomness.

Every draw is a pure function of an explicit key, so any part of a run can
be recomputed in isolation and results never depend on worker count,
iteration order, or restart point. blake2b is used for keying because its
output is stable across platforms and Python versions.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

import numpy as np

# splitmix64 (Steele et al., OOPSLA 2014): the golden-ratio increment and the
# two multipliers of its output mix.
GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

T = TypeVar("T")


def hash64(*key: object) -> int:
    """Map an arbitrary key tuple to a uniform 64-bit integer."""
    h = hashlib.blake2b(digest_size=8)
    for part in key:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def draws64(count: int, *key: object) -> np.ndarray:
    """The first ``count`` 64-bit draws of the key's splitmix64 stream.

    Draw i is ``mix(h + (i + 1) * GAMMA)`` modulo 2**64 with ``h = hash64(key)``:
    a pure function of the key and the counter, computed for all i at once
    (``uint64`` arithmetic wraps, which is the modulus).
    """
    if count < 0:
        raise ValueError(f"cannot draw a negative count ({count})")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= GAMMA
    z += np.uint64(hash64(*key))
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def coin(*key: object) -> int:
    """A single fair bit for the key."""
    return hash64(*key) & 1


def shuffled(items: Sequence[T], *key: object) -> list[T]:
    """Fisher-Yates shuffle driven by per-step keyed draws."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = hash64(*key, i) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def indices_with_replacement(n: int, count: int, *key: object) -> np.ndarray:
    """Draw `count` indices in [0, n) with replacement for the key.

    Index i is draw i of the key's stream modulo n, as an ``intp`` array.
    """
    if n <= 0:
        raise ValueError("cannot draw indices from an empty range")
    if n >= 1 << 63:
        raise ValueError(f"cannot draw indices from a range of {n} (limit 2**63 - 1)")
    return (draws64(count, *key) % np.uint64(n)).astype(np.intp)
