"""Static coupling of the epidemic: final size as directed reachability.

Vertex i is ever infected exactly when there is a directed path
0 = l_0, ..., l_k = i whose every arc satisfies U(l_j, l_{j+1}) <= T(l_j),
where T(v) is an exponential clock with rate xi(v) shared by all arcs out of
v, and U(v, u) is an exponential clock with rate (lam/n) * rho(v, u).  The
two directions of an edge use distinct clocks with the same rate.

Two BFS realizations of the same law:

* "scan": clocks are pure functions of (run_seed, vertex / ordered pair),
  every unvisited target of a frontier vertex is examined.  O(n * r) work,
  and coupled across lam (a clock scales as 1/lam under its fixed uniform),
  so final size is surely nondecreasing in lam at fixed run_seed.
* "skip": for each frontier vertex, the number of envelope successes among
  the m unvisited targets is Binomial(m, p_env) with p_env the open
  probability at rho = 1; a uniform distinct subset of that size is then
  thinned by the actual rho.  Expected work O(lam * r), which is what makes
  1e4-replication sweeps at n = 1e4 cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.integrate import quad

from . import seeding
from .distributions import DistSpec, as_mixture, validate_spec
from .environment import Environment
from .errors import ParamViolation, QuadratureFailure, check_lambda

MODE_SKIP = "skip"
MODE_SCAN = "scan"

_TAG_PERC = 0x504552
_TAG_T = 0x54
_TAG_U = 0x55
_TAG_ER = 0x4552


@dataclass
class ReachResult:
    reached: np.ndarray  # sorted vertex ids, always contains 0
    r_infinity: int
    frontier_history: Optional[List[int]]
    t_draws: int
    u_draws: int
    engine: str
    env_seed: int
    run_seed: int
    mode: str

    def to_dict(self) -> dict:
        return {
            "r_infinity": int(self.r_infinity),
            "extinction_time": None,
            "events_executed": None,
            "engine": self.engine,
            "env_seed": int(self.env_seed),
            "run_seed": int(self.run_seed),
            "truncated": False,
        }


class ClockSample:
    """Lazily sampled clocks for one run, keyed so re-queries are stable.

    recovery_clock(i) is sampled at most once per run (memoized); edge
    clocks for the ordered pair (i, j) are pure functions of the run key, so
    the BFS can evaluate them in bulk without storing anything.
    """

    def __init__(self, env: Environment, lam: float, run_seed: int):
        self.env = env
        self.lam = float(lam)
        self._t_key = seeding.derive_key(run_seed, _TAG_PERC, _TAG_T)
        self._u_key = seeding.derive_key(run_seed, _TAG_PERC, _TAG_U)
        self._t_cache: dict = {}
        self.t_draws = 0
        self.u_draws = 0

    def recovery_clock(self, i: int) -> float:
        t = self._t_cache.get(i)
        if t is None:
            xi = self.env.xi_at(i)
            t = -math.log(seeding.open01(self._t_key, i)) / xi
            self._t_cache[i] = t
            self.t_draws += 1
        return t

    def edge_clocks(self, i: int, js: np.ndarray) -> np.ndarray:
        """U(i, j) for the ordered pairs (i, j), j ranging over js."""
        u = seeding.open01_array(seeding.child_key(self._u_key, i), js)
        rate = (self.lam / self.env.n) * self.env.rho_row(i, js)
        self.u_draws += len(js)
        with np.errstate(divide="ignore"):
            return np.where(rate > 0.0, -np.log(u) / rate, np.inf)


def percolation_final_size(env: Environment, lam: float, run_seed: int,
                           mode: str = MODE_SKIP,
                           record_frontier: bool = False) -> ReachResult:
    """BFS from vertex 0 over arcs open iff U(i, j) <= T(i).

    The resulting r_infinity has exactly the law of the dynamic engine's
    final size under the annealed measure (and under the quenched measure
    for a fixed environment).
    """
    check_lambda(lam)
    if mode == MODE_SCAN:
        return _scan_bfs(env, lam, run_seed, record_frontier)
    if mode == MODE_SKIP:
        return _skip_bfs(env, lam, run_seed, record_frontier)
    raise ParamViolation(f"unknown percolation mode {mode!r}")


def _scan_bfs(env, lam, run_seed, record_frontier):
    n = env.n
    clocks = ClockSample(env, lam, run_seed)
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    unvisited = np.arange(1, n, dtype=np.int64)
    frontier = [0]
    history = [1] if record_frontier else None
    reached_count = 1
    while frontier and unvisited.size:
        newly_open = np.zeros(unvisited.size, dtype=bool)
        for i in frontier:
            t_i = clocks.recovery_clock(int(i))
            newly_open |= clocks.edge_clocks(int(i), unvisited) <= t_i
        new_vertices = unvisited[newly_open]
        if new_vertices.size == 0:
            break
        visited[new_vertices] = True
        reached_count += new_vertices.size
        unvisited = unvisited[~newly_open]
        frontier = new_vertices.tolist()
        if history is not None:
            history.append(int(new_vertices.size))
    return ReachResult(
        reached=np.flatnonzero(visited),
        r_infinity=reached_count,
        frontier_history=history,
        t_draws=clocks.t_draws,
        u_draws=clocks.u_draws,
        engine="percolation",
        env_seed=env.seed,
        run_seed=run_seed,
        mode=MODE_SCAN,
    )


def _distinct_positions(rng, counts, m):
    """Uniform distinct positions in [0, m) within each owner group.

    Draws with replacement and redraws within-group collisions (keeping the
    first occurrence); the procedure is equivariant under relabeling of the
    m positions, so each group gets an exactly uniform distinct subset.
    Groups asking for more than half the pool fall back to permutations.
    """
    big = counts > max(8, m // 2)
    if big.any():
        pos = np.empty(int(counts.sum()), dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for g, k in enumerate(counts):
            if k == 0:
                continue
            if big[g]:
                pos[offsets[g]:offsets[g + 1]] = rng.permutation(m)[:k]
            else:
                pos[offsets[g]:offsets[g + 1]] = _draw_distinct(rng, int(k), m)
        return pos
    total = int(counts.sum())
    owner_idx = np.repeat(np.arange(len(counts)), counts)
    pos = rng.integers(0, m, size=total)
    while True:
        order = np.lexsort((pos, owner_idx))
        same = (owner_idx[order][1:] == owner_idx[order][:-1]) & \
               (pos[order][1:] == pos[order][:-1])
        if not same.any():
            return pos
        pos[order[1:][same]] = rng.integers(0, m, size=int(same.sum()))


def _draw_distinct(rng, k, m):
    seen = set()
    out = np.empty(k, dtype=np.int64)
    filled = 0
    while filled < k:
        v = int(rng.integers(0, m))
        if v not in seen:
            seen.add(v)
            out[filled] = v
            filled += 1
    return out


def _skip_bfs(env, lam, run_seed, record_frontier):
    n = env.n
    lam_n = lam / n
    rho_const = env.rho_const
    rng = seeding.stream(seeding.derive_key(run_seed, _TAG_PERC))
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    unvisited = np.arange(1, n, dtype=np.int64)
    frontier = np.array([0], dtype=np.int64)
    history = [1] if record_frontier else None
    reached_count = 1
    t_draws = 0
    u_draws = 0
    while frontier.size and unvisited.size:
        m = unvisited.size
        if env.xi_const is not None:
            t_clock = rng.standard_exponential(frontier.size) / env.xi_const
        else:
            t_clock = rng.standard_exponential(frontier.size) / env.xi_block(frontier)
        t_draws += frontier.size
        p_env = -np.expm1(-lam_n * t_clock)
        counts = rng.binomial(m, p_env)
        total = int(counts.sum())
        if total == 0:
            break
        if int(counts.max()) <= 1:
            # at most one candidate per frontier vertex: positions are
            # trivially distinct within each owner group
            pos = rng.integers(0, m, size=total)
        else:
            pos = _distinct_positions(rng, counts, m)
        owners = np.repeat(np.arange(frontier.size), counts)
        cand = unvisited[pos]
        u_draws += total
        if rho_const is not None and rho_const >= 1.0:
            accept = slice(None)  # envelope is exact: every candidate opens
        else:
            if rho_const is not None:
                p_arc = -np.expm1(-lam_n * rho_const * t_clock[owners])
            else:
                rho = env.rho_pairs(frontier[owners], cand)
                p_arc = -np.expm1(-lam_n * rho * t_clock[owners])
            accept = rng.random(total) * p_env[owners] < p_arc
        opened = cand[accept]
        new_vertices = np.unique(opened) if opened.size > 1 else opened
        if new_vertices.size == 0:
            break
        visited[new_vertices] = True
        reached_count += new_vertices.size
        unvisited = unvisited[~visited[unvisited]]
        frontier = new_vertices
        if history is not None:
            history.append(int(new_vertices.size))
    return ReachResult(
        reached=np.flatnonzero(visited),
        r_infinity=reached_count,
        frontier_history=history,
        t_draws=t_draws,
        u_draws=u_draws,
        engine="percolation",
        env_seed=env.seed,
        run_seed=run_seed,
        mode=MODE_SKIP,
    )


# ---------------------------------------------------------------------------
# Per-arc open probability E[(lam/n) rho / ((lam/n) rho + xi)]


def per_edge_open_probability(rho_spec: DistSpec, xi_spec: DistSpec,
                              lam: float, n: int) -> float:
    """Probability an infective endpoint infects a given neighbor before
    recovering, in closed form where possible and 1-d quadrature otherwise.
    """
    validate_spec(rho_spec)
    validate_spec(xi_spec)
    if n < 1:
        raise ParamViolation(f"n must satisfy n >= 1 (got {n})")
    check_lambda(lam)
    c = lam / n
    if c == 0.0:
        return 0.0
    total = 0.0
    for w_r, comp_r in as_mixture(rho_spec):
        for w_x, comp_x in as_mixture(xi_spec):
            total += w_r * w_x * _open_prob_component(comp_r, comp_x, c)
    return total


def _open_prob_component(comp_r, comp_x, c):
    if comp_r[0] == "atom":
        v = comp_r[1]
        if v == 0.0:
            return 0.0
        if comp_x[0] == "atom":
            return c * v / (c * v + comp_x[1])
        a, b = comp_x[1], comp_x[2]
        return c * v * math.log1p((b - a) / (a + c * v)) / (b - a)
    a, b = comp_r[1], comp_r[2]
    if comp_x[0] == "atom":
        return _open_prob_uniform_rho(a, b, comp_x[1], c)
    a2, b2 = comp_x[1], comp_x[2]
    val, err = quad(lambda s: _open_prob_uniform_rho(a, b, s, c), a2, b2,
                    epsabs=1e-14, epsrel=1e-12, limit=200)
    val /= (b2 - a2)
    err /= (b2 - a2)
    if err > max(1e-10 * abs(val), 1e-13):
        raise QuadratureFailure(
            f"open-probability integral error {err} exceeds tolerance")
    return val


def _open_prob_uniform_rho(a, b, s, c):
    # E[c rho/(c rho + s)] for rho ~ Uniform(a, b) and fixed recovery rate s.
    return 1.0 - (s / (c * (b - a))) * math.log1p(c * (b - a) / (c * a + s))


# ---------------------------------------------------------------------------
# Erdos-Renyi giant component comparison


class _UnionFind:
    __slots__ = ("parent", "size", "max_size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.max_size = 1

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        if self.size[ra] > self.max_size:
            self.max_size = self.size[ra]


def er_giant_component(n: int, mu: float, seed: int) -> int:
    """Largest connected component of G(n, min(mu/n, 1)) via union-find.

    Edges are sampled by geometric gap-skipping over the n(n-1)/2 linearized
    pairs, so the cost is proportional to the edge count, not n^2.
    """
    if n < 1:
        raise ParamViolation(f"n must satisfy n >= 1 (got {n})")
    if mu < 0:
        raise ParamViolation(f"mu must satisfy mu >= 0 (got {mu})")
    if n == 1 or mu == 0.0:
        return 1
    p = mu / n
    if p >= 1.0:
        return n
    rng = seeding.stream(seeding.derive_key(seed, _TAG_ER))
    total_pairs = n * (n - 1) // 2
    uf = _UnionFind(n)
    log1mp = math.log1p(-p)
    current = -1
    block = 1 << 15
    while True:
        u = rng.random(block)  # 1 - u lies in (0, 1], keeping the log finite
        gaps = np.floor(np.log1p(-u) / log1mp).astype(np.int64) + 1
        idx = current + np.cumsum(gaps)
        if idx[-1] >= total_pairs:
            idx = idx[idx < total_pairs]
            _union_edges(uf, idx)
            break
        _union_edges(uf, idx)
        current = int(idx[-1])
    return uf.max_size


def _union_edges(uf: _UnionFind, linear: np.ndarray) -> None:
    if linear.size == 0:
        return
    # Decode L = j(j-1)/2 + i with 0 <= i < j; float sqrt then integer fixup.
    j = np.floor((1.0 + np.sqrt(1.0 + 8.0 * linear.astype(np.float64))) / 2.0
                 ).astype(np.int64)
    tri = j * (j - 1) // 2
    over = tri > linear
    j[over] -= 1
    tri[over] = j[over] * (j[over] - 1) // 2
    under = linear - tri >= j
    j[under] += 1
    tri[under] = j[under] * (j[under] - 1) // 2
    i = linear - tri
    union = uf.union
    for a, b in zip(i.tolist(), j.tolist()):
        union(a, b)
