"""O(n)-memory random environment on the complete graph.

Recovery rates xi(j) and edge weights rho(i, j) are i.i.d. draws that are
never stored: each is the law's quantile of a uniform keyed by
`seeding.child_key`, xi(j) by child j of the xi key and rho(i, j), i < j,
by child j of child i of the rho key.  Keying rho by the unordered pair makes
rho(i,j) == rho(j,i) structural and keeps n = 1e5 sweeps in O(n) memory.
Constant laws need no query: the engines test `xi_const` and `rho_const`.
"""

from __future__ import annotations

import numpy as np

from . import seeding
from .distributions import DistSpec, as_mixture, check_roles, quantile
from .errors import IndexOutOfRange, ParamViolation, SelfLoop

_TAG_XI = 0x5849
_TAG_RHO = 0x52484F


class Environment:
    """Immutable view of one environment realization for a given (n, seed).

    Safe for any number of concurrent readers; every query is a pure function
    of its arguments.  The key material that queries cache (`_salt`,
    `_pair_lo_keys` and the `rho_lookup` built on it) and the tuple of
    `xi_values` change no value.
    """

    __slots__ = ("n", "seed", "xi_spec", "rho_spec", "_xi_key", "_rho_key",
                 "xi_const", "rho_const", "xi_max", "rho_max", "_salt",
                 "_pair_lo_keys", "_rho_lookup", "_xi_values")

    def __init__(self, n: int, seed: int, xi_spec: DistSpec, rho_spec: DistSpec):
        if n < 1:
            raise ParamViolation(f"environment requires n >= 1 (got {n})")
        check_roles(xi_spec, rho_spec)
        self.n = int(n)
        self.seed = int(seed)
        self.xi_spec = xi_spec
        self.rho_spec = rho_spec
        # Constant laws are the classic xi = rho = 1 model's fast path: the
        # engines never query them, so their keys are not derived.
        self.xi_const = xi_spec.params[0] if xi_spec.kind == "constant" else None
        self.rho_const = rho_spec.params[0] if rho_spec.kind == "constant" else None
        # Largest value each law can produce: the top of its atoms and
        # intervals that carry mass.  Both engines thin rho at its envelope,
        # and the dynamic engine picks recoveries by rejection at xi_max.
        self.rho_max = max(comp[-1] for _, comp in as_mixture(rho_spec))
        self.xi_max = max(comp[-1] for _, comp in as_mixture(xi_spec))
        self._xi_key = (seeding.derive_key(self.seed, _TAG_XI)
                        if self.xi_const is None else 0)
        self._rho_key = (seeding.derive_key(self.seed, _TAG_RHO)
                         if self.rho_const is None else 0)
        self._salt = None
        self._pair_lo_keys = None
        self._rho_lookup = None
        self._xi_values = None

    def _child_keys(self, key: int, js=slice(None)) -> np.ndarray:
        """child_key(key, j) for the vertices js (default all); the salt
        (j + 1) * CHAIN of every vertex is built on first use."""
        if self._salt is None:
            self._salt = seeding.pair_salt(self.n)
        return seeding.mix64_array(np.uint64(key) ^ self._salt[js])

    def _pair_keys(self) -> tuple:
        """child_key(rho_key, j) of every vertex, and the salt.

        O(n) memory, computed on the first edge query.  Every query path
        keys rho(i, j) by these keys, so they all give the same weights.
        """
        if self._pair_lo_keys is None:
            self._pair_lo_keys = self._child_keys(self._rho_key)
        return self._pair_lo_keys, self._salt

    def xi_block(self, js=slice(None)) -> np.ndarray:
        """Vectorized xi over an index array, by default every vertex (no
        bounds checks: engine path)."""
        h = self._child_keys(self._xi_key, js)
        return np.asarray(quantile(self.xi_spec, seeding.to_uniform01(h)), dtype=float)

    def xi_values(self) -> tuple:
        """xi of every vertex as a tuple of floats, computed on first use.

        The dynamic engine reads it on every run, so runs that share an
        environment (quenched sweeps) hash the recovery rates once.
        """
        if self._xi_values is None:
            self._xi_values = (tuple(self.xi_block().tolist())
                               if self.xi_const is None else (float(self.xi_const),) * self.n)
        return self._xi_values

    def rho_lookup(self):
        """The unchecked scalar rho(i, j), i != j, in one Python call; built
        on first use from the list form of `_pair_keys`."""
        if self._rho_lookup is None:
            p = self.rho_spec.params  # v1 if u < p1 else v2; a + (b - a) u; v
            form = ((p[1], p[0], p[2], 0.0) if self.rho_spec.kind == "two_point"
                    else (0.0, 0.0, p[0], p[-1] - p[0]))
            self._rho_lookup = seeding.pair_quantile(
                self._pair_keys()[0].tolist(), *map(float, form))
        return self._rho_lookup

    def rho_at(self, i: int, j: int) -> float:
        """Edge weight on {i, j}; symmetric and in [0, 1].  The checked form
        of `rho_lookup`."""
        n = self.n
        if not 0 <= i < n:
            raise IndexOutOfRange(f"vertex {i} outside [0, {n})")
        if not 0 <= j < n:
            raise IndexOutOfRange(f"vertex {j} outside [0, {n})")
        if i == j:
            raise SelfLoop(f"edge weight undefined for i == j == {i}")
        return self.rho_lookup()(int(i), int(j))

    def rho_pairs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized elementwise rho over index arrays (i[k] != j[k] assumed)."""
        lo_keys, salt = self._pair_keys()
        h = seeding.mix64_array(lo_keys[np.minimum(i, j)] ^ salt[np.maximum(i, j)])
        return np.asarray(quantile(self.rho_spec, seeding.to_uniform01(h)), dtype=float)

    def rho_full_row(self, i: int) -> np.ndarray:
        """rho(i, j) for every j, with a zero placeholder at position i.

        Uses contiguous slices of the precomputed key material.  No engine
        calls it: it stays as the row form of `rho_pairs`, which the tests
        compare it with and the benchmark's tracer wraps by name.
        """
        n = self.n
        lo_keys, salt = self._pair_keys()
        out = np.empty(n, dtype=float)
        if i + 1 < n:
            h = seeding.mix64_array(lo_keys[i] ^ salt[i + 1:])
            out[i + 1:] = quantile(self.rho_spec, seeding.to_uniform01(h))
        if i > 0:
            h = seeding.mix64_array(lo_keys[:i] ^ salt[i])
            out[:i] = quantile(self.rho_spec, seeding.to_uniform01(h))
        out[i] = 0.0
        return out
