"""Deterministic key derivation and counter-based uniform variates.

Every random quantity in this package is either (a) a pure function of an
integer key, computed by the splitmix-style mixer below, or (b) drawn from a
Philox stream whose key is derived the same way, one generator per stream.
Both give reproducible results independent of scheduling or worker count.

There is one key derivation, `child_key`: `derive_key` folds it, array
callers mix `uint64(key) ^ pair_salt(n)[js]` and `pair_quantile` inlines it.
"""

from __future__ import annotations

import functools

import numpy as np

MASK64 = (1 << 64) - 1

# Weyl increments / multipliers (splitmix64 finalizer constants plus two
# large odd constants for key chaining).
_GOLDEN = 0x9E3779B97F4A7C15
_CHAIN = 0xC2B2AE3D27D4EB4F
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_CHAIN = np.uint64(_CHAIN)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_ONE = np.uint64(1)

_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def mix64(x: int) -> int:
    """Scalar splitmix64 finalizer on python ints (wraps mod 2**64)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _M1) & MASK64
    x ^= x >> 27
    x = (x * _M2) & MASK64
    x ^= x >> 31
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; `x` must be uint64."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> _U30
    x *= _U_M1
    x ^= x >> _U27
    x *= _U_M2
    x ^= x >> _U31
    return x


def derive_key(*parts: int) -> int:
    """Fold integer parts into one 64-bit key by `child_key`, from GOLDEN.

    Used for stream ids such as (master_seed, grid_index, replication,
    kind_tag); the result is order-sensitive and collision-resistant enough
    for statistical independence of the derived streams.
    """
    return functools.reduce(child_key, parts, _GOLDEN)


def child_key(key: int, index: int) -> int:
    """The key of child `index` of `key`: mix64(key ^ (index + 1) * CHAIN)."""
    return mix64(key ^ (((int(index) & MASK64) + 1) * _CHAIN & MASK64))


def pair_quantile(lo_keys: list, cut: float, below: float, a: float, w: float):
    """The unchecked scalar f(i, j) = below if u < cut else a + w * u, i != j,
    where u is uniform01(lo_keys[min(i, j)], max(i, j)): one Python call, the
    mixer inlined.  Every law of the menu has a quantile of this form."""
    def f(i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        x = lo_keys[i] ^ ((j + 1) * _CHAIN & MASK64)
        x = (x ^ x >> 30) * _M1 & MASK64
        x = (x ^ x >> 27) * _M2 & MASK64
        u = ((x ^ x >> 31) >> 11) * _INV53
        return below if u < cut else a + w * u
    return f


def pair_salt(n: int) -> np.ndarray:
    """The xor salt (index + 1) * CHAIN of `child_key` for indices 0..n-1."""
    return (np.arange(n, dtype=np.uint64) + _ONE) * _U_CHAIN


def to_uniform01(h: np.ndarray) -> np.ndarray:
    return (h >> _U11).astype(np.float64) * _INV53


def uniform01(key: int, index: int) -> float:
    """Uniform in [0, 1), a pure function of (key, index)."""
    return (child_key(key, index) >> 11) * _INV53


def stream(key: int) -> np.random.Generator:
    """A new Philox generator keyed by the low 64 bits of `key`.

    Each call builds its own generator, so a stream already handed out keeps
    its sequence whatever other streams are drawn meanwhile.
    """
    return np.random.Generator(np.random.Philox(key=key & MASK64))
