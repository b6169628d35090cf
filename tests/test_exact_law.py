"""Final-size samplers against the exact law P(r = k).

The law comes from Ball's triangular identity (Ball 1986): with N = n - 1
susceptibles, T = r - 1 of them ever infected and psi(theta) = E[phi(lam
T_0 / n)^theta] (`distributions.psi` at s = lam / n),

    sum_{k <= l} C(N - k, l - k) P(T = k) / psi(N - l)^(k + 1) = C(N, l)

for l = 0 .. N, solved by forward substitution.  The solve cancels more as n
grows, so it is used only up to n = 20 and checks its own output.

Every sampler is tested against that law, not against another engine at a
shared seed.  The goodness-of-fit cells of the sampler grid share one
family-wise level: a cell fails when its p-value is below FAMILY_ALPHA /
CELLS, so a correct program fails the grid with probability at most
FAMILY_ALPHA.  The cells that drive each branch of the skip BFS are a second
family at the same level.
"""

import math
import os

import numpy as np
import pytest
from scipy import stats

from sirkn import percolation, seeding
from sirkn.distributions import (ROLE_RECOVERY, ROLE_WEIGHT, critical_lambda,
                                 parse_dist, psi)
from sirkn.environment import Environment
from sirkn.experiment import ExperimentConfig, collect_final_sizes, no_spread_finite_n
from sirkn.percolation import percolation_final_size

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
    """P(r = k) for xi = rho = 1 from the jump chain of (S, I): from (s, i) an
    infection comes next with probability (lam s / n) / (lam s / n + 1)."""
    p = np.zeros(n)
    states = {(n - 1, 1): 1.0}
    while states:
        nxt = {}
        for (s, i), mass in states.items():
            if i == 0:
                p[n - s - 1] += mass
                continue
            up = lam * s / n / (lam * s / n + 1.0) if s else 0.0
            if up:
                nxt[(s - 1, i + 1)] = nxt.get((s - 1, i + 1), 0.0) + mass * up
            nxt[(s, i - 1)] = nxt.get((s, i - 1), 0.0) + mass * (1.0 - up)
        states = nxt
    return p


def gof_p_value(samples, law):
    """Chi-square p-value of r samples against P(r = k); cells are merged in
    k order until each expects at least 5 observations."""
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=law.size + 1)[1:]
    assert counts.size == law.size, "a sample outside 1 .. n"
    expected = law * counts.sum()
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    if len(obs) < 2:
        return 1.0
    return float(stats.chisquare(obs, exp).pvalue)


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
    reps = 4_000
    samples = [percolation_final_size(Environment(n, seeding.derive_key(7003, r), xi, rho),
                                      lam, r).r_infinity for r in range(reps)]
    assert gof_p_value(samples, p) > FAMILY_ALPHA / CELLS


@pytest.mark.parametrize("branch", list(SKIP_BRANCHES))
def test_skip_bfs_branches_fit_exact_law(monkeypatch, branch):
    rho_text, n, lam, slice_hits = SKIP_BRANCHES[branch]
    if slice_hits is not None:
        monkeypatch.setattr(percolation, "_SLICE_HITS", slice_hits)
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    reps = 10_000
    samples = [percolation_final_size(Environment(n, seeding.derive_key(4, r), xi, rho),
                                      lam, r).r_infinity for r in range(reps)]
    p = exact_final_size_law(xi, rho, lam, n)
    assert gof_p_value(samples, p) > FAMILY_ALPHA / len(SKIP_BRANCHES)
