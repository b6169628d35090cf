"""O(n)-memory random environment on the complete graph.

Recovery rates xi(j) and edge weights rho(i, j) are i.i.d. draws that are
never stored: each is the law's quantile of a uniform keyed by
`seeding.child_key`, xi(j) by child j of the xi key and rho(i, j), i < j,
by child i + 2**32 j of the rho key, unique while n <= 2**32.  One hash per
value makes rho(i,j) == rho(j,i) structural and a query's work that of its
indices.  Constant laws need no query: the engines test `xi_const` and
`rho_const`.

An environment built with seed None is the annealed one: it has no keys,
its hashed queries raise ParamViolation, and the dynamic engine integrates
its values out through the laws' hazards (`dynamics`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import seeding
from .distributions import DistSpec, as_mixture, check_roles, quantile
from .errors import IndexOutOfRange, ParamViolation, SelfLoop

_TAG_XI = 0x5849
_TAG_RHO = 0x52484F


class Environment:
    """Immutable view of one environment realization for a given (n, seed),
    or of the annealed environment for seed None.

    Safe for any number of concurrent readers; every query is a pure function
    of its arguments.  What queries cache (the `rho_lookup` closure and the
    tuple of `xi_values`) changes no value.
    """

    __slots__ = ("n", "seed", "xi_spec", "rho_spec", "_xi_key", "_rho_key",
                 "xi_const", "rho_const", "xi_max", "rho_max", "_rho_lookup",
                 "_xi_values")

    def __init__(self, n: int, seed: Optional[int], xi_spec: DistSpec, rho_spec: DistSpec):
        if not 1 <= n <= 1 << 32:  # pair indices i + 2**32 j stay distinct
            raise ParamViolation(f"environment requires 1 <= n <= 2**32 (got n = {n})")
        check_roles(xi_spec, rho_spec)
        self.n = int(n)
        self.seed = None if seed is None else int(seed)
        self.xi_spec = xi_spec
        self.rho_spec = rho_spec
        # Constant laws are the classic xi = rho = 1 model's fast path: the
        # engines never query them, so their keys are not derived.
        self.xi_const = xi_spec.params[0] if xi_spec.kind == "constant" else None
        self.rho_const = rho_spec.params[0] if rho_spec.kind == "constant" else None
        # Largest value each law can produce: the top of its atoms and
        # intervals that carry mass.  Keyed runs of both engines thin rho at
        # its envelope, and dynamic ones pick recoveries by rejection at xi_max.
        self.rho_max = max(comp[-1] for _, comp in as_mixture(rho_spec))
        self.xi_max = max(comp[-1] for _, comp in as_mixture(xi_spec))
        keyed = self.seed is not None
        self._xi_key = (seeding.derive_key(self.seed, _TAG_XI)
                        if keyed and self.xi_const is None else 0)
        self._rho_key = (seeding.derive_key(self.seed, _TAG_RHO)
                         if keyed and self.rho_const is None else 0)
        self._rho_lookup = None
        self._xi_values = None

    def _check_keyed(self) -> None:
        if self.seed is None:
            raise ParamViolation("the annealed environment (seed None) has no hashed "
                                 "values; build one with a seed to query it")

    def xi_block(self, js=None) -> np.ndarray:
        """Vectorized xi over an index array, by default every vertex (no
        bounds checks: engine path); the work is that of the indices."""
        self._check_keyed()
        h = seeding.child_keys(self._xi_key, np.arange(self.n) if js is None else js)
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
        """The unchecked scalar rho(i, j), i != j, in one Python call; the
        same hash of the pair index as `rho_pairs`, whose quantile every law
        of the menu has in the form below if u < cut else a + w * u."""
        if self._rho_lookup is None:
            self._check_keyed()
            p = [float(v) for v in self.rho_spec.params]
            form = ((p[1], p[0], p[2], 0.0) if self.rho_spec.kind == "two_point"
                    else (0.0, 0.0, p[0], p[-1] - p[0]))  # uniform (a, b) or constant (v,)
            self._rho_lookup = seeding.pair_quantile(self._rho_key, *form)
        return self._rho_lookup

    def rho_at(self, i: int, j: int) -> float:
        """Edge weight on {i, j}; symmetric and in [0, 1].  The checked form
        of `rho_lookup`; a constant law returns its value without building
        the lookup."""
        n = self.n
        if not 0 <= i < n:
            raise IndexOutOfRange(f"vertex {i} outside [0, {n})")
        if not 0 <= j < n:
            raise IndexOutOfRange(f"vertex {j} outside [0, {n})")
        if i == j:
            raise SelfLoop(f"edge weight undefined for i == j == {i}")
        if self.rho_const is not None:
            return float(self.rho_const)
        return self.rho_lookup()(int(i), int(j))

    def rho_pairs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized elementwise rho over index arrays (i[k] != j[k] assumed);
        the work is that of the pairs."""
        self._check_keyed()
        lo, hi = np.minimum(i, j).astype(np.uint64), np.maximum(i, j).astype(np.uint64)
        h = seeding.child_keys(self._rho_key, lo + (hi << 32))
        return np.asarray(quantile(self.rho_spec, seeding.to_uniform01(h)), dtype=float)

    def rho_full_row(self, i: int) -> np.ndarray:
        """rho(i, j) for every j, with a zero placeholder at position i.

        No engine calls it: a quenched point's references read vertex 0's
        row (`experiment.batch_stats_from_samples`).
        """
        out = self.rho_pairs(np.full(self.n, i), np.arange(self.n))
        out[i] = 0.0
        return out
