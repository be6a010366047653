"""Counter-based deterministic randomness.

Every draw is a pure function of an explicit key, so any part of a run can
be recomputed in isolation and results never depend on worker count,
iteration order, or restart point. blake2b is used for keying because its
output is stable across platforms and Python versions.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

# splitmix64 (Steele et al., OOPSLA 2014): the golden-ratio increment and the
# two multipliers of its output mix.
GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

T = TypeVar("T")


def _absorbed(key: tuple[object, ...]) -> hashlib._Hash:
    """The BLAKE2b-64 state after absorbing ``key``, each part as its UTF-8
    ``str`` followed by a 0x1f separator."""
    h = hashlib.blake2b(digest_size=8)
    for part in key:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return h


def hash64(*key: object) -> int:
    """Map an arbitrary key tuple to a uniform 64-bit integer."""
    return int.from_bytes(_absorbed(key).digest(), "little")


def _splitmix_rows(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit draws of the splitmix64 stream of each state.

    Row r, column i is ``mix(states[r] + (i + 1) * GAMMA)`` modulo 2**64: a
    pure function of the state and the counter, computed for the whole
    (rows x count) counter matrix at once (``uint64`` arithmetic wraps,
    which is the modulus).
    """
    if count < 0:
        raise ValueError(f"cannot draw a negative count ({count})")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= GAMMA
    z = z + states[:, None]
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def draws64(count: int, *key: object) -> np.ndarray:
    """The first ``count`` 64-bit draws of the key's splitmix64 stream, whose
    state starts at ``hash64(key)`` (see ``_splitmix_rows``)."""
    return _splitmix_rows(np.array([hash64(*key)], dtype=np.uint64), count)[0]


def coin(*key: object) -> int:
    """A single fair bit for the key."""
    return hash64(*key) & 1


def coins(*key: object) -> Iterator[int]:
    """``coin(*key, i)`` for ``i = 0, 1, 2, ...``, without end.

    The key is absorbed once; each draw copies that state and absorbs only
    ``i``, which gives the same digest as ``coin``. The bit is the low bit of
    the little-endian digest, so of its first byte.
    """
    prefix = _absorbed(key)
    for i in itertools.count():
        h = prefix.copy()
        h.update(b"%d\x1f" % i)
        yield h.digest()[0] & 1


def _steps(n: int) -> Iterator[tuple[int, bytes]]:
    """Per Fisher-Yates step ``i`` from ``n - 1`` down to 1: its draw bound
    ``i + 1`` and ``i`` as ``_absorbed`` spells an integer part."""
    return zip(range(n, 1, -1), map(b"%d\x1f".__mod__, range(n - 1, 0, -1)))


def _draws(state: hashlib._Hash, steps: Iterable[tuple[int, bytes]]) -> Iterator[int]:
    """The draw ``j`` of each step of ``_steps``, for a state that has
    absorbed the key: the state is copied, the step's ``i`` absorbed into
    the copy, and the digest taken modulo ``i + 1``."""
    copy = state.copy
    from_bytes = int.from_bytes
    for bound, tag in steps:
        h = copy()
        h.update(tag)
        yield from_bytes(h.digest(), "little") % bound


def swaps(n: int, *key: object) -> Iterator[tuple[int, int]]:
    """The Fisher-Yates steps ``(i, j)`` of a keyed shuffle of ``n`` items.

    ``i`` runs from ``n - 1`` down to 1 and ``j = hash64(*key, i) % (i + 1)``.
    The key is absorbed once, as ``hash64`` absorbs it; each step copies that
    state and absorbs only ``i``, which gives the same digest. Position ``i``
    is final once its step is taken, so a caller may stop early without
    changing any draw.
    """
    return zip(range(n - 1, 0, -1), _draws(_absorbed(key), _steps(n)))


def attempts(n: int, *key: object) -> Iterator[Iterator[int]]:
    """For ``a = 0, 1, 2, ...`` without end: the draws ``j`` of ``swaps(n, *key, a)``.

    A caller that redraws a shuffle until one passes pulls one attempt at a
    time and may stop any attempt early. The key is absorbed once per call
    and ``a`` once per attempt, which gives the digests of ``swaps``.
    """
    prefix = _absorbed(key)
    steps = list(_steps(n))
    for attempt in itertools.count():
        state = prefix.copy()
        state.update(b"%d\x1f" % attempt)
        yield _draws(state, steps)


def shuffled(items: Sequence[T], *key: object) -> list[T]:
    """Fisher-Yates shuffle driven by per-step keyed draws (see ``swaps``)."""
    out = list(items)
    for i, j in swaps(len(out), *key):
        out[i], out[j] = out[j], out[i]
    return out


def indices_with_replacement(n: int, count: int, *key: object) -> np.ndarray:
    """Draw `count` indices in [0, n) with replacement for the key.

    Index i is draw i of the key's stream modulo n, as an ``intp`` array:
    the one-row case of ``index_rows``.
    """
    return index_rows(n, count, [hash64(*key)])[0]


def index_rows(n: int, count: int, states: Sequence[int]) -> np.ndarray:
    """``count`` indices in [0, n) with replacement for each stream state.

    Row r holds draws 0 .. count - 1 of the splitmix64 stream that starts at
    ``states[r]`` (``hash64`` of the row's key), each modulo n, as an
    ``intp`` array of shape ``(len(states), count)``.
    """
    if n <= 0:
        raise ValueError("cannot draw indices from an empty range")
    if n >= 1 << 63:
        raise ValueError(f"cannot draw indices from a range of {n} (limit 2**63 - 1)")
    z = _splitmix_rows(np.array(states, dtype=np.uint64), count)
    # z - z // n * n is z % n: numpy divides by a scalar through a
    # precomputed reciprocal, but takes % one hardware division at a time.
    q = z // np.uint64(n)
    q *= np.uint64(n)
    z -= q
    # Every index is below 2**63, so the int64 view reads the same values.
    return z.view(np.int64).astype(np.intp, copy=False)
