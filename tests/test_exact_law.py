"""Final-size samplers against the exact law P(r = k).

The law comes from Ball's triangular identity (Ball 1986): with N = n - 1
susceptibles, T = r - 1 of them ever infected and psi(theta) = E[phi(lam
T_0 / n)^theta] (`distributions.psi` at s = lam / n),

    sum_{k <= l} C(N - k, l - k) P(T = k) / psi(N - l)^(k + 1) = C(N, l)

for l = 0 .. N, solved by forward substitution.  The solve cancels more as n
grows, so it is used only up to n = 20 and checks its own output.  For the
classic law xi = rho = 1 the jump chain of (S, I) gives the law at any n
without cancellation, in O(n^2); it is checked against the solve up to
n = 20 and used alone beyond.  When xi and rho are both two-point, psi is a
finite sum of positive terms, so the solve runs in decimal arithmetic at two
precisions 40 digits apart, which must agree; that law is used up to n = 200.

Every sampler is tested against that law, not against another engine at a
shared seed.  The goodness-of-fit cells of the sampler grid share one
family-wise level: a cell fails when its p-value is below FAMILY_ALPHA /
CELLS, so a correct program fails the grid with probability at most
FAMILY_ALPHA.  The cells that drive each branch of the skip BFS are a second
family at the same level, the classic cells past n = 20 a third, the
two-point cells past n = 20 a fourth, and the dynamic engine's cells with a
wide recovery law, whose annealed runs thin every recovery, a fifth.

Quenched runs are held to the law of one fixed environment, P(r = k |
xi, rho), from a memoized recursion over the (S, I) bitmasks of the chain
(Kiss, Miller & Simon 2017, ch. 2); both engines on each environment form a
sixth family.
"""

import decimal
import functools
import math
import os

import numpy as np
import pytest
from scipy import signal

from sirkn import percolation, seeding
from sirkn.distributions import (ROLE_RECOVERY, ROLE_WEIGHT, critical_lambda,
                                 parse_dist, psi)
from sirkn.dynamics import gillespie_run
from sirkn.environment import Environment
from sirkn.experiment import ExperimentConfig, collect_final_sizes, no_spread_finite_n
from sirkn.percolation import percolation_final_size

from reference_stats import gof_p_value

LAWS = {
    "classic": ("constant:1", "constant:1"),
    "two-point-xi": ("two_point:1:0.5:2", "uniform:0:1"),
    "sparse-rho": ("uniform:1:3", "two_point:0.01:0.99:1"),
}
NS = (2, 10, 20)
MULTS = (0.5, 2.0)
SAMPLERS = ("sellke", "dynamic", "skip")
GRID = [(law, n, mult) for law in LAWS for n in NS for mult in MULTS]
CELLS = len(SAMPLERS) * len(GRID)
FAMILY_ALPHA = 0.01
# xi = two_point:1:0.5:2 with these (rho, n, lam, _SLICE_HITS or None)
SKIP_BRANCHES = {
    "uniform": ("uniform:0:1", 20, 4.0, None),
    "constant": ("constant:0.5", 20, 4.0, None),
    "sparse": ("two_point:0.01:0.99:1", 20, 40.0, None),
    # most sources expect more hits than there are unvisited vertices
    "dense": ("uniform:0:1", 10, 30.0, None),
    # generations cut into frontier slices of a few expected hits each
    "sliced": ("uniform:0:1", 20, 4.0, 4),
}
# classic cells past n = 20: (sampler, n) x MULTS; at n = 400, 2 lambda_c
# (and in no smaller cell) Sellke chunks reach the _SELLKE_CHUNK cap
LARGE_CLASSIC = [("sellke", n) for n in (50, 100, 200, 400)] + [("skip", 400)]
LARGE_CELLS = len(LARGE_CLASSIC) * len(MULTS)
# xi and rho both two-point, past n = 20: (sampler, n) x MULTS against the
# decimal solve; the skip BFS keys new weights on every fresh environment
PAIR_XI = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
PAIR_RHO = parse_dist("two_point:0.25:0.5:1", ROLE_WEIGHT)
PAIR_NS = (50, 100, 200)
LARGE_PAIR = [(sampler, n) for sampler in ("sellke", "dynamic") for n in PAIR_NS]
LARGE_PAIR += [("skip", 200)]
PAIR_CELLS = len(LARGE_PAIR) * len(MULTS)
# the dynamic engine, xi wide and rho constant: an annealed run thins its
# recoveries at E[xi] and accepts every infection
WIDE_XI = ("two_point:1:0.9:10", "constant:1")
WIDE_CELLS = len(NS) * len(MULTS)
# fixed environments: (xi, rho, n, environment seed, lambda / lambda_c)
FIXED_ENVS = {
    "uniform": ("two_point:1:0.5:4", "uniform:0:1", 8, 12345, 2.0),
    # one edge at weight 1, every other at 0.01
    "sparse": ("two_point:1:0.5:10", "two_point:0.01:0.99:1", 6, 108, 2.0),
    # most runs' sources expect more hits than there are unvisited vertices
    "dense": ("uniform:1:10", "uniform:0:1", 6, 778, 3.0),
}
FIXED_CELLS = 2 * len(FIXED_ENVS)
JOBS = min(2, os.cpu_count() or 1)


def specs(law):
    xi_text, rho_text = LAWS[law]
    return parse_dist(xi_text, ROLE_RECOVERY), parse_dist(rho_text, ROLE_WEIGHT)


def exact_final_size_law(xi, rho, lam, n):
    """P(r = k) for k = 1 .. n, as an array indexed by k - 1."""
    big_n = n - 1
    s = lam / n
    psis = [1.0] + [psi(xi, rho, s, theta) for theta in range(1, big_n + 1)]
    p = []
    for l in range(big_n + 1):
        base = psis[big_n - l]
        known = math.fsum(math.comb(big_n - k, l - k) * p[k] / base ** (k + 1)
                          for k in range(l))
        p.append((math.comb(big_n, l) - known) * base ** (l + 1))
    p = np.array(p)
    assert (p >= 0.0).all(), p
    assert abs(math.fsum(p) - 1.0) <= 1e-12, math.fsum(p)
    return p


def classic_embedded_chain_law(lam, n):
    """P(r = k) for xi = rho = 1 from the jump chain of (S, I), one level of
    S at a time.  With s susceptibles and i > 0 infectives an infection comes
    next with probability p_s = lam s / (lam s + n), whatever i is, so the
    mass a_s(i) that ever visits (s, i) solves a_s(i) = in_s(i) +
    (1 - p_s) a_s(i + 1), one first-order filter over i from the top, where
    in_s(i) = p_(s+1) a_(s+1)(i - 1) comes down from level s + 1.  a_s(0) is
    P(r = n - s), and the whole law costs O(n^2)."""
    p = np.zeros(n)
    inflow = np.zeros(n + 1)  # in_s(i), i = 0 .. n
    inflow[1] = 1.0
    for s in range(n - 1, -1, -1):
        up = lam * s / (lam * s + n)
        mass = signal.lfilter([1.0], [1.0, -(1.0 - up)], inflow[::-1])[::-1]
        p[n - s - 1] = mass[0]
        inflow = np.zeros(n + 1)
        inflow[2:] = up * mass[1:-1]
    return p


@functools.lru_cache(maxsize=None)
def two_point_pair_law(n, mult, digits):
    """P(r = k) for k = 1 .. n under PAIR_XI, PAIR_RHO at mult lambda_c, as Decimals
    indexed by k - 1, from the triangular solve in `digits`-digit arithmetic.

    With rho = v1 w.p. p1 else v2, phi(u)^theta is the binomial sum over j of
    C(theta, j) p1^j (1 - p1)^(theta - j) e^(-u (j v1 + (theta - j) v2)), and
    E e^(-c T) = E[xi / (xi + c)] for T ~ Exp(xi), a two-term mean; so psi is
    exact to the precision, whatever the solve then cancels.
    """
    lam = mult * critical_lambda(PAIR_XI, PAIR_RHO)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        (x1, px, x2), (v1, p1, v2) = ([decimal.Decimal(v) for v in spec.params]
                                      for spec in (PAIR_XI, PAIR_RHO))
        s = decimal.Decimal(lam) / n

        def psi_exact(theta):
            total = decimal.Decimal(0)
            for j in range(theta + 1):
                c = s * (j * v1 + (theta - j) * v2)
                total += (math.comb(theta, j) * p1 ** j * (1 - p1) ** (theta - j)
                          * (px * x1 / (x1 + c) + (1 - px) * x2 / (x2 + c)))
            return total

        big_n = n - 1
        psis = [psi_exact(theta) for theta in range(big_n + 1)]
        p = []
        for l in range(big_n + 1):
            inv = 1 / psis[big_n - l]
            known, scale = decimal.Decimal(0), inv  # scale = psi^-(k + 1)
            for k in range(l):
                known += math.comb(big_n - k, l - k) * p[k] * scale
                scale *= inv
            p.append((math.comb(big_n, l) - known) / scale)
    return tuple(p)


def cell_law(law, n, mult):
    xi, rho = specs(law)
    lam = mult * critical_lambda(xi, rho)
    return xi, rho, lam, exact_final_size_law(xi, rho, lam, n)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("mult", MULTS)
def test_exact_law_is_a_law_with_the_no_spread_atom(law, n, mult):
    xi, rho, lam, p = cell_law(law, n, mult)
    assert p[0] == pytest.approx(no_spread_finite_n(xi, rho, lam, n), rel=1e-12)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("lam", (0.5, 2.0))
def test_exact_law_matches_classic_embedded_chain(n, lam):
    # the chain sums positive terms; the triangular solve cancels, which
    # costs it 3e-10 absolute at n = 20, lam = 0.5 (5e-14 at n = 10)
    xi, rho = specs("classic")
    np.testing.assert_allclose(exact_final_size_law(xi, rho, lam, n),
                               classic_embedded_chain_law(lam, n), rtol=0, atol=1e-9)


def annealed_samples(xi, rho, n, lam, reps, engine, seed):
    config = ExperimentConfig(xi_spec=xi, rho_spec=rho, n_grid=(n,), lambda_grid=(lam,),
                              replications=reps, engine=engine, master_seed=seed)
    [(samples, failures)] = collect_final_sizes(config, [(0, n, lam)], jobs=JOBS)
    assert failures == 0
    return samples


def skip_samples(xi, rho, n, lam, reps, env_seed):
    """Final sizes of the skip BFS, each run on a fresh environment."""
    return [percolation_final_size(Environment(n, seeding.derive_key(env_seed, r), xi, rho),
                                   lam, seeding.stream(r)).r_infinity
            for r in range(reps)]


@pytest.mark.parametrize("law,n,mult", GRID)
def test_sellke_sampler_fits_exact_law(law, n, mult):
    xi, rho, lam, p = cell_law(law, n, mult)
    samples = annealed_samples(xi, rho, n, lam, 50_000, "percolation", 7001)
    assert gof_p_value(samples, p) > FAMILY_ALPHA / CELLS


@pytest.mark.parametrize("law,n,mult", GRID)
def test_dynamic_engine_fits_exact_law(law, n, mult):
    xi, rho, lam, p = cell_law(law, n, mult)
    samples = annealed_samples(xi, rho, n, lam, 4_000, "dynamic", 7002)
    assert gof_p_value(samples, p) > FAMILY_ALPHA / CELLS


@pytest.mark.parametrize("law,n,mult", GRID)
def test_skip_bfs_on_fresh_environments_fits_exact_law(law, n, mult):
    xi, rho, lam, p = cell_law(law, n, mult)
    samples = skip_samples(xi, rho, n, lam, 4_000, 7003)
    assert gof_p_value(samples, p) > FAMILY_ALPHA / CELLS


@pytest.mark.parametrize("branch", list(SKIP_BRANCHES))
def test_skip_bfs_branches_fit_exact_law(monkeypatch, branch):
    rho_text, n, lam, slice_hits = SKIP_BRANCHES[branch]
    if slice_hits is not None:
        monkeypatch.setattr(percolation, "_SLICE_HITS", slice_hits)
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    samples = skip_samples(xi, rho, n, lam, 10_000, 4)
    p = exact_final_size_law(xi, rho, lam, n)
    assert gof_p_value(samples, p) > FAMILY_ALPHA / len(SKIP_BRANCHES)


@pytest.mark.parametrize("sampler,n", LARGE_CLASSIC)
@pytest.mark.parametrize("mult", MULTS)
def test_samplers_fit_classic_law_past_n_20(sampler, n, mult):
    xi, rho = specs("classic")
    lam = mult * critical_lambda(xi, rho)
    if sampler == "sellke":
        samples = annealed_samples(xi, rho, n, lam, 50_000, "percolation", 7001)
    else:
        samples = skip_samples(xi, rho, n, lam, 4_000, 7003)
    assert gof_p_value(samples, classic_embedded_chain_law(lam, n)) > FAMILY_ALPHA / LARGE_CELLS


@pytest.mark.parametrize("n", PAIR_NS)
@pytest.mark.parametrize("mult", MULTS)
def test_two_point_pair_law_agrees_across_precisions(n, mult):
    low, high = (two_point_pair_law(n, mult, digits) for digits in (100, 140))
    assert max(abs(a - b) for a, b in zip(low, high)) <= 1e-15
    assert min(high) >= -1e-15
    assert abs(float(sum(high)) - 1.0) <= 1e-12
    lam = mult * critical_lambda(PAIR_XI, PAIR_RHO)
    assert float(high[0]) == pytest.approx(no_spread_finite_n(PAIR_XI, PAIR_RHO, lam, n),
                                           rel=1e-12)


@pytest.mark.parametrize("sampler,n", LARGE_PAIR)
@pytest.mark.parametrize("mult", MULTS)
def test_samplers_fit_two_point_pair_law_past_n_20(sampler, n, mult):
    xi, rho = PAIR_XI, PAIR_RHO
    lam = mult * critical_lambda(xi, rho)
    if sampler == "sellke":
        samples = annealed_samples(xi, rho, n, lam, 50_000, "percolation", 7001)
    elif sampler == "dynamic":
        samples = annealed_samples(xi, rho, n, lam, 4_000, "dynamic", 7002)
    else:
        samples = skip_samples(xi, rho, n, lam, 4_000, 7003)
    p = np.array([float(v) for v in two_point_pair_law(n, mult, 140)])
    assert gof_p_value(samples, p) > FAMILY_ALPHA / PAIR_CELLS


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("mult", MULTS)
def test_dynamic_engine_with_wide_recovery_law_fits_exact_law(n, mult):
    xi, rho = parse_dist(WIDE_XI[0], ROLE_RECOVERY), parse_dist(WIDE_XI[1], ROLE_WEIGHT)
    lam = mult * critical_lambda(xi, rho)
    samples = annealed_samples(xi, rho, n, lam, 4_000, "dynamic", 7002)
    assert gof_p_value(samples, exact_final_size_law(xi, rho, lam, n)) > FAMILY_ALPHA / WIDE_CELLS


def quenched_final_size_law(xi, rho, lam):
    """P(r = k | xi, rho) for k = 1 .. n, indexed by k - 1, on the recovery
    rates xi[v] and weights rho[u][v] of one environment.

    From (S, I) the next event recovers v in I at rate xi[v] or infects u
    in S at rate (lam/n) sum over v in I of rho[u][v]; the law of r from a
    state is the event-probability mixture of the laws after each event.
    """
    n = len(xi)

    @functools.lru_cache(maxsize=None)
    def law(s, i):
        if not i:
            out = np.zeros(n)
            out[n - bin(s).count("1") - 1] = 1.0
            return out
        infectives = [v for v in range(n) if i >> v & 1]
        moves = [(xi[v], s, i ^ 1 << v) for v in infectives]
        moves += [(lam / n * math.fsum(rho[u][v] for v in infectives), s ^ 1 << u, i | 1 << u)
                  for u in range(n) if s >> u & 1]
        total = math.fsum(rate for rate, _, _ in moves)
        return sum(rate / total * law(s_next, i_next) for rate, s_next, i_next in moves)

    return law((1 << n) - 2, 1)


@functools.lru_cache(maxsize=None)
def fixed_environment(name):
    """The environment, lambda, and the exact law of its values and of its
    values with xi(1 .. n - 1) reversed."""
    xi_text, rho_text, n, env_seed, mult = FIXED_ENVS[name]
    xi_spec, rho_spec = parse_dist(xi_text, ROLE_RECOVERY), parse_dist(rho_text, ROLE_WEIGHT)
    env = Environment(n, env_seed, xi_spec, rho_spec)
    lam = mult * critical_lambda(xi_spec, rho_spec)
    xi = env.xi_values()
    rho = [[env.rho_at(u, v) if u != v else 0.0 for v in range(n)] for u in range(n)]
    return (env, lam, quenched_final_size_law(xi, rho, lam),
            quenched_final_size_law(xi[:1] + xi[:0:-1], rho, lam))


@functools.lru_cache(maxsize=None)
def fixed_environment_samples(name, engine):
    env, lam, _, _ = fixed_environment(name)
    run = percolation_final_size if engine == "skip" else gillespie_run
    rng = seeding.stream(7004)
    return tuple(run(env, lam, rng).r_infinity for _ in range(3_000))


def test_quenched_law_is_a_law_of_the_environment():
    for name in FIXED_ENVS:
        _, _, p, reversed_p = fixed_environment(name)
        assert abs(math.fsum(p) - 1.0) <= 1e-12 and (p >= 0.0).all()
        assert abs(p - reversed_p).max() > 0.01, name  # the law reads the labels
    env = fixed_environment("sparse")[0]
    assert sorted(env.rho_at(u, v) for u in range(6) for v in range(u))[-2:] == [0.01, 1.0]
    # constant rates and weights: the recursion gives the classic chain law
    classic = Environment(6, 1, *specs("classic"))
    np.testing.assert_allclose(
        quenched_final_size_law(classic.xi_values(), [[1.0] * 6] * 6, 2.0),
        classic_embedded_chain_law(2.0, 6), rtol=0, atol=1e-13)


@pytest.mark.parametrize("engine", ["dynamic", "skip"])
@pytest.mark.parametrize("name", list(FIXED_ENVS))
def test_quenched_engines_fit_the_law_of_their_environment(name, engine):
    _, _, p, _ = fixed_environment(name)
    assert gof_p_value(fixed_environment_samples(name, engine), p) > FAMILY_ALPHA / FIXED_CELLS


def test_dense_environment_takes_the_skip_bfs_dense_branch(monkeypatch):
    open_targets, dense = percolation._open_targets, []

    def spy(env, rng, visited, m, lam_n, src, t_clock, mu):
        dense.append(bool((mu > m).any()))  # the dense branch runs iff this holds
        return open_targets(env, rng, visited, m, lam_n, src, t_clock, mu)

    monkeypatch.setattr(percolation, "_open_targets", spy)
    env, lam, _, _ = fixed_environment("dense")
    rng = seeding.stream(7005)
    for _ in range(200):
        percolation_final_size(env, lam, rng)
    assert sum(dense) > len(dense) / 4


@pytest.mark.parametrize("name", list(FIXED_ENVS))
def test_quenched_engines_reject_the_law_of_reversed_recovery_rates(name):
    # The same samples against the law of xi(1 .. n - 1) reversed: the
    # family above would miss an engine that reads xi at the wrong vertex
    # only if its reference could not tell the two apart.
    samples = sum((fixed_environment_samples(name, engine) for engine in ("dynamic", "skip")),
                  ())
    assert gof_p_value(samples, fixed_environment(name)[3]) < 1e-9
