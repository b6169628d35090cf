"""Static coupling of the epidemic: final size as directed reachability.

Vertex i is ever infected exactly when there is a directed path
0 = l_0, ..., l_k = i whose every arc satisfies U(l_j, l_{j+1}) <= T(l_j),
where T(v) is an exponential clock with rate xi(v) shared by all arcs out of
v, and U(v, u) is an exponential clock with rate (lam/n) * rho(v, u).  The
two directions of an edge use distinct clocks with the same rate.

Annealed final sizes, where every run draws a fresh environment, come from
`sellke_final_sizes` without any `Environment`: the BFS examines each
unordered edge at most once, so given T(v) the arc (v, u) opens with
probability 1 - phi(lam T(v) / n), phi(u) = E e^{-u rho}, independently of
everything else.  That is Sellke's threshold epidemic (Sellke 1983): each
susceptible holds a threshold Q ~ Exp(1), the k-th infective adds pressure
X_k = -log phi(lam T_k / n), and r = 1 + min{k : Q_(k+1) > X_0 + ... + X_k},
with the order statistics Q_(k) of the n - 1 thresholds drawn by Renyi's
representation.  A run costs O(r).  Runs are drawn in lockstep blocks from
one generator per block, and a block's steps come in chunks: 16 steps
first, then twice the steps of the chunk before, at most _SELLKE_CHUNK
draws of each kind per chunk.  Sweeps with measure "annealed" and engine
"percolation" (the `no-spread` batch included) use it.

Quenched sweeps, which fix one environment, and `sirkn percolate` walk the
environment with one BFS, `percolation_final_size(env, lam, rng)`: given
T(v), the arc (v, u) opens with probability
1 - exp(-(lam/n) rho(v, u) T(v)).  Each frontier vertex v throws
Poisson(lam rho_max T(v)) hits on uniform targets in [0, n) and keeps each
with probability rho(v, u) / rho_max (Lewis & Shedler thinning at
`Environment.rho_max`, the envelope of the dynamic engine); an arc is open
iff it keeps at least one hit, so repeated hits need no bookkeeping.  Hits
on visited vertices (v itself included) are dropped, and constant laws keep
every hit without a weight lookup.  A vertex expecting more hits than there
are unvisited vertices draws those arcs directly.  Expected work
O(lam * r).

Every sampler here draws from the generator its caller hands it and derives
no key.

The Erdos-Renyi comparison, `er_giant_component(n, mu, rng)`, finds the
largest component of G(n, mu/n) by the exploration walk (Karp 1990): each
vertex holds one Geometric(mu/n) clock, the step at which an edge from the
explorer first reaches it, so the walk needs no edge list.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DistSpec, log_laplace, quantile
from .dynamics import RunResult
from .environment import Environment
from .errors import ParamViolation, check_lambda

# Expected arc draws of one BFS generation handled at once; a larger
# generation is processed in frontier slices so memory stays bounded.
_SLICE_HITS = 1 << 21

# Draws of one lockstep chunk (live runs x steps); bounds its memory.
_SELLKE_CHUNK = 1 << 14
# Steps of a block's first chunk; later chunks double it.  Each chunk costs
# about 25 numpy calls whether 256 runs are live or 3, and most subcritical
# runs stop within a few steps, so timing chose it: on the perc-subcritical
# benchmark grid (classic law, n = 1e3 and 1e5, 0.5 and 0.9 lambda_c, 1500
# replications) `collect_final_sizes` took 11.4 / 9.7 / 9.5 / 10.5 / 13.2 /
# 20.2 ms CPU at first chunks of 1 / 4 / 8 / 16 / 32 / 64 steps (median of
# 15 runs on a 2-core host; 8 and 16 are within 7% of each other), and the
# perc-random-env grid varied by under 5% from 1 to 16 steps.
_SELLKE_FIRST_STEPS = 16


def percolation_final_size(env: Environment, lam: float,
                           rng: np.random.Generator) -> RunResult:
    """BFS from vertex 0 over arcs open iff U(i, j) <= T(i), by thinned
    Poisson hits (see the module docstring), with the draws of rng.

    The resulting r_infinity has exactly the law of the dynamic engine's
    final size under the annealed measure (and under the quenched measure
    for a fixed environment).
    """
    check_lambda(lam)
    n = env.n
    lam_n = lam / n
    hit_rate = lam * env.rho_max  # envelope hits on [0, n) per unit of T
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    reached_count = 1
    t_draws = 0
    u_draws = 0
    while frontier.size and reached_count < n:
        xi = env.xi_const if env.xi_const is not None else env.xi_block(frontier)
        t_clock = rng.standard_exponential(frontier.size) / xi
        t_draws += frontier.size
        mu = hit_rate * t_clock
        cuts = [0, frontier.size]
        if mu.sum() > _SLICE_HITS:
            # a dense source costs one draw per unvisited vertex, not mu
            work = np.cumsum(np.minimum(mu, n - reached_count))
            cuts[1:1] = (np.flatnonzero(np.diff(work // _SLICE_HITS)) + 1).tolist()
        found = []
        for a, b in zip(cuts, cuts[1:]):
            new, draws = _open_targets(env, rng, visited, n - reached_count, lam_n,
                                       frontier[a:b], t_clock[a:b], mu[a:b])
            visited[new] = True
            reached_count += new.size
            u_draws += draws
            found.append(new)
        frontier = found[0] if len(found) == 1 else np.concatenate(found)
    return RunResult(
        r_infinity=reached_count,
        extinction_time=None,
        events_executed=None,
        engine="percolation",
        env_seed=env.seed,
        t_draws=t_draws,
        u_draws=u_draws,
    )


def _open_targets(env, rng, visited, m, lam_n, src, t_clock, mu):
    """Unvisited heads of the open arcs out of src, and the arcs examined.

    A source v throws Poisson(mu_v) hits on uniform targets in [0, n) and
    keeps each with probability rho(v, u) / rho_max, so a kept hit on (v, u)
    exists with probability 1 - exp(-lam_n rho(v, u) T(v)), independently
    over u; hits on visited vertices, v itself included, are dropped.  The
    hits of all sources are one Poisson(sum mu) batch, each hit owned by v
    with probability mu_v / sum mu independently of its target, so owners
    are drawn only for surviving hits of non-constant laws.  A source
    expecting more hits than the m unvisited vertices draws each of those
    arcs directly.
    """
    n = visited.size
    cum = np.cumsum(mu)
    dense = mu > m
    any_dense = cum[-1] > m and dense.any()
    if any_dense:
        cum = np.cumsum(np.where(dense, 0.0, mu))
    draws = rng.poisson(cum[-1])
    heads = np.empty(0, dtype=np.int64)
    if draws:
        heads = rng.integers(0, n, size=draws)
        heads = heads[~visited[heads]]
        if env.rho_const is None and heads.size:
            owners = src[np.searchsorted(cum, rng.random(heads.size) * cum[-1], side="right")]
            heads = heads[rng.random(heads.size) * env.rho_max < env.rho_pairs(owners, heads)]
    if any_dense:
        unvisited = np.flatnonzero(~visited)
        src = src[dense]
        rho = env.rho_const
        if rho is None:
            rho = env.rho_pairs(np.repeat(src, m), np.tile(unvisited, src.size))
            rho = rho.reshape(src.size, m)
        # arc (v, u) opens iff its Exp(1) clock is at most lam_n rho(v, u) T(v)
        rate = lam_n * t_clock[dense][:, None] * rho
        hit = (rng.standard_exponential((src.size, m)) <= rate).any(axis=0)
        heads = np.concatenate((heads, unvisited[hit]))
        draws += src.size * m
    return (np.unique(heads) if heads.size > 1 else heads), draws


def sellke_final_sizes(xi_spec: DistSpec, rho_spec: DistSpec, n: int, lam: float,
                       reps: int, rng: np.random.Generator) -> np.ndarray:
    """Final sizes of `reps` independent annealed runs, drawn from rng in
    lockstep (see the module docstring).

    Every live run takes the same steps: step k draws the spacing E of the
    threshold Q_(k+1) = Q_(k) + E / (n - 1 - k), the clock T_k ~ Exp(xi) and
    so the pressure X_k, and the run stops at the first step where
    Q_(k+1) exceeds X_0 + ... + X_k.  Steps are drawn in chunks: the first
    has _SELLKE_FIRST_STEPS = 16 steps and each later one twice the steps of
    the one before, but a chunk holds at most _SELLKE_CHUNK draws of each
    kind (or one step of every live run if there are more) and never runs
    past step n - 2.  A run that stops inside a chunk leaves the rest of its
    draws unused.  Per chunk the draws are the spacings, then the clocks,
    then (unless xi is constant) the uniforms that give xi.
    """
    check_lambda(lam)
    sizes = np.full(reps, n, dtype=np.int64)
    live = np.arange(reps)
    q = np.zeros(reps)  # Q_(k) of each live run
    pressure = np.zeros(reps)  # X_0 + ... + X_{k-1}
    s = lam / n
    xi_const = xi_spec.params[0] if xi_spec.kind == "constant" else None
    k = 0
    length = _SELLKE_FIRST_STEPS
    while live.size and k < n - 1:
        steps = min(length, max(1, _SELLKE_CHUNK // live.size), n - 1 - k)
        shape = (live.size, steps)
        gaps = rng.standard_exponential(shape)
        gaps /= np.arange(n - 1 - k, n - 1 - k - steps, -1)
        t = rng.standard_exponential(shape)
        t /= xi_const if xi_const is not None else quantile(xi_spec, rng.random(shape))
        q_next = np.cumsum(gaps, axis=1, out=gaps)
        q_next += q[:, None]
        t *= s
        total = np.cumsum(log_laplace(rho_spec, t), axis=1, out=t)  # t is spent
        np.subtract(pressure[:, None], total, out=total)
        escaped = q_next > total
        stop = escaped.any(axis=1)
        sizes[live[stop]] = k + 1 + escaped[stop].argmax(axis=1)
        go = ~stop
        live, q, pressure = live[go], q_next[go, -1], total[go, -1]
        k += steps
        length *= 2
    return sizes


# ---------------------------------------------------------------------------
# Erdos-Renyi giant component comparison


def er_giant_component(n: int, mu: float, rng: np.random.Generator) -> int:
    """Largest connected component of G(n, min(mu/n, 1)), explored with the
    draws of rng.

    The exploration walk (Karp 1990) explores one seen vertex per step and
    reveals its edges to every unseen vertex, each a fresh Bernoulli(p) coin,
    p = mu/n.  Vertex w's coins are spent one per step while it is unseen, so
    it joins at step G_w ~ Geometric(p), its first success, unless it was
    taken as a root first.  One clock per vertex is drawn up front, and
    joins[t] counts the clocks that fire at step t.  A component closes when
    no seen vertex is left to explore; the next root is the lowest-index
    vertex whose clock has not fired, and its clock leaves joins.  The walk
    stops once the unseen vertices cannot beat the largest component.
    Expected work O(n) in numpy and at most n steps in Python.
    """
    if n < 1:
        raise ParamViolation(f"n must satisfy n >= 1 (got {n})")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ParamViolation(f"mu must be finite and satisfy mu >= 0 (got {mu})")
    if n == 1 or mu == 0.0:
        return 1
    p = mu / n
    if p >= 1.0:
        return n
    clock = rng.geometric(p, size=n)
    # clocks past step n never fire; numpy saturates them at 2**63 - 1 for tiny p
    joins = np.bincount(clock[clock <= n], minlength=n + 1).tolist()
    clock = clock.tolist()
    largest = root = t = 0  # t is also the number of vertices seen
    while n - t > largest:
        while clock[root] <= t:
            root += 1
        if clock[root] <= n:
            joins[clock[root]] -= 1
        root += 1
        active = size = 1
        while active:
            t += 1
            j = joins[t]
            active += j - 1
            size += j
        if size > largest:
            largest = size
    return largest
