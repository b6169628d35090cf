import hashlib
import itertools
import math

import numpy as np
import pytest

from sirkn import percolation, seeding
from sirkn.distributions import (ROLE_RECOVERY, ROLE_WEIGHT, critical_lambda,
                                 parse_dist)
from sirkn.dynamics import gillespie_run
from sirkn.environment import Environment
from sirkn.errors import ParamViolation
from sirkn.experiment import wilson_interval
from sirkn.percolation import er_giant_component, percolation_final_size, sellke_final_sizes

from reference_stats import chi_square_two_sample, gof_p_value

XI1 = parse_dist("constant:1", ROLE_RECOVERY)
RHO1 = parse_dist("constant:1", ROLE_WEIGHT)
XI2 = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
RHOU = parse_dist("uniform:0:1", ROLE_WEIGHT)


def test_lambda_zero_reaches_only_origin():
    env = Environment(50, 3, XI1, RHO1)
    res = percolation_final_size(env, 0.0, seeding.stream(7))
    assert res.r_infinity == 1


def test_two_vertex_race():
    env = Environment(2, 17, XI1, RHO1)
    reps = 20_000
    hits = sum(percolation_final_size(env, 2.0, seeding.stream(r)).r_infinity == 2
               for r in range(reps))
    lo, hi = wilson_interval(hits, reps, 0.99)
    assert lo <= 0.5 <= hi


def test_matches_dynamic_engine_small_n():
    reps = 10_000
    lam = 3.0
    perc = np.empty(reps, dtype=np.int64)
    dyn = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        env = Environment(10, seeding.derive_key(9, r), XI2, RHOU)
        perc[r] = percolation_final_size(env, lam, seeding.stream(r)).r_infinity
        dyn[r] = gillespie_run(env, lam, seeding.stream(r ^ 5)).r_infinity
    _, _, p = chi_square_two_sample(perc, dyn)
    assert p > 0.01


def test_lazy_sampling_counters():
    env = Environment(300, 5, XI2, RHOU)
    res = percolation_final_size(env, 2.0, seeding.stream(11))
    assert res.t_draws <= res.r_infinity
    assert res.u_draws <= res.r_infinity * env.n


def test_constant_weight_scales_out_of_the_bfs(monkeypatch):
    # At the envelope rho_max = rho, a constant law keeps every skip hit
    # without a weight lookup or an acceptance draw, so halving rho and
    # doubling lambda reaches the same vertices, found in the same order;
    # lam = 40 runs the dense branch as well.
    def no_lookup(*args):
        raise AssertionError("constant law looked up a weight")

    found = []  # the vertices that each _open_targets call newly reaches

    def recording(*args):
        new, draws = open_targets(*args)
        found.append(new.tolist())
        return new, draws

    def reached(rho, lam, seed):
        found.clear()
        percolation_final_size(Environment(30, 1, XI2, rho), lam, seeding.stream(seed))
        return list(found)

    open_targets = percolation._open_targets
    monkeypatch.setattr(Environment, "rho_pairs", no_lookup)
    monkeypatch.setattr(percolation, "_open_targets", recording)
    half = parse_dist("constant:0.5", ROLE_WEIGHT)
    for lam in (1.5, 40.0):
        for seed in range(20):
            assert reached(RHO1, lam, seed) == reached(half, 2 * lam, seed)


def test_determinism():
    env = Environment(123, 9, XI2, RHOU)
    a = percolation_final_size(env, 1.5, seeding.stream(42))
    b = percolation_final_size(env, 1.5, seeding.stream(42))
    assert (a.r_infinity, a.t_draws, a.u_draws) == (b.r_infinity, b.t_draws, b.u_draws)


# -- Sellke sampler ------------------------------------------------------------

_SELLKE_LAWS = {
    "classic": ("constant:1", "constant:1"),
    "uniform": ("two_point:1:0.5:2", "uniform:0:1"),
    "sparse": ("two_point:1:0.5:2", "two_point:0.01:0.99:1"),
}
# sha256 of the sizes of one block of 256 runs at mult * lambda_c, drawn from
# seeding.stream(17): any change to the sampler's arithmetic or draw order
# shows here.
_GOLDEN_SELLKE = {
    ("classic", 100, 0.5): "ddbc75164eab5c106dd197e9f6a909fd5d47fd7612adb6d06483ff1880e6b1a5",
    ("classic", 100, 2.0): "8aafbe84e80782cbf502f4dc560b693c67394cb8a43f74ae16f332dc64284e35",
    ("classic", 10000, 0.5): "2caab40a8b5b930061a0f4dfce660e64c7ccef3e918dc3487b2fcfa69566ebc6",
    ("classic", 10000, 2.0): "3ef2d143e07804bbe7491aa8374039a67218c7873e16622d0a061768e39f0aed",
    ("uniform", 100, 0.5): "26bbc99c7a360b73c1b3c7f5d77beffd57d265b0f7ebf0649c1944912651818c",
    ("uniform", 100, 2.0): "e6544120ddd37d3f0e601208219e5f0c543c40153f47cfc26d586bc0a0b031a2",
    ("uniform", 10000, 0.5): "0d69276ec957eb4093a61aae32c2a2bc5b5c0123dd8dcee6dfd79d186fd638e2",
    ("uniform", 10000, 2.0): "5742e76aea2308e9d678a0b6f855c0a0da141eaf1fcd63f530691e4d1abf5d5e",
    ("sparse", 100, 0.5): "d1ac0d8609d899d317710b2b10210a8063ff59d633e6c0a48eaa59bb14ce552c",
    ("sparse", 100, 2.0): "80a6853b2ef28e6f91f5b6bd1ad126bb7a1466b2bf7a76c90daa33d7fd477fcc",
    ("sparse", 10000, 0.5): "3cfbd3b2e550124b40ad54e61f85fc1363987aebe2498e39d552d5161b02d780",
    ("sparse", 10000, 2.0): "c5835e6249c48253ab16ca55d925878c310ec9a6636c8afd2ae7364cf19374ac",
}


@pytest.mark.parametrize("law,n,mult", sorted(_GOLDEN_SELLKE))
def test_golden_sellke_blocks_are_byte_identical(law, n, mult):
    xi_text, rho_text = _SELLKE_LAWS[law]
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    sizes = sellke_final_sizes(xi, rho, n, mult * critical_lambda(xi, rho), 256,
                               seeding.stream(17))
    assert hashlib.sha256(sizes.tobytes()).hexdigest() == _GOLDEN_SELLKE[law, n, mult]


# -- Erdos-Renyi comparison ---------------------------------------------------

# (n, mu) of the exact-law cells; they share one family-wise level
ER_LAW_CELLS = ((5, 1.5), (6, 2.0), (6, 4.0))
ER_FAMILY_ALPHA = 0.01


def er_largest_component_law(n, p):
    """P(largest component of G(n, p) = k) for k = 1 .. n, by enumerating all
    2^C(n, 2) graphs, each a bitmask over the pairs, in one array."""
    pairs = list(itertools.combinations(range(n), 2))
    graphs = np.arange(1 << len(pairs), dtype=np.int64)
    adj = [np.zeros_like(graphs) for _ in range(n)]  # neighbour bitmask of v
    for e, (a, b) in enumerate(pairs):
        bit = (graphs >> e) & 1
        adj[a] |= bit << b
        adj[b] |= bit << a
    largest = np.ones_like(graphs)
    for v in range(n):
        reach = np.full_like(graphs, 1 << v)
        for _ in range(n - 1):
            for u in range(n):
                reach |= np.where((reach >> u) & 1, adj[u], 0)
        largest = np.maximum(largest, np.bitwise_count(reach))
    edges = np.bitwise_count(graphs)
    weight = p ** edges * (1.0 - p) ** (len(pairs) - edges)
    return np.bincount(largest, weights=weight, minlength=n + 1)[1:]


def test_er_enumerated_law_is_a_law():
    law = er_largest_component_law(5, 0.3)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert law[0] == pytest.approx(0.7 ** 10, rel=1e-12)  # no edge
    # connected graphs on 5 labelled vertices, counted by their edges
    assert law[4] == pytest.approx(sum(c * 0.3 ** e * 0.7 ** (10 - e) for e, c in
                                       ((4, 125), (5, 222), (6, 205), (7, 120),
                                        (8, 45), (9, 10), (10, 1))), rel=1e-12)


def test_er_sampler_fits_exact_law():
    rng = seeding.stream(29)
    for n, mu in ER_LAW_CELLS:
        samples = [er_giant_component(n, mu, rng) for _ in range(40_000)]
        p_value = gof_p_value(samples, er_largest_component_law(n, mu / n))
        assert p_value > ER_FAMILY_ALPHA / len(ER_LAW_CELLS), (n, mu, p_value)


def test_er_trivial_cases():
    assert er_giant_component(10, 10.0, seeding.stream(0)) == 10  # p = 1: complete graph
    assert er_giant_component(10, 0.0, seeding.stream(0)) == 1
    assert er_giant_component(1, 5.0, seeding.stream(0)) == 1


@pytest.mark.parametrize("mu", [-1.0, float("nan"), float("inf")])
def test_er_rejects_invalid_mu(mu):
    with pytest.raises(ParamViolation):
        er_giant_component(10, mu, seeding.stream(0))


def test_er_supercritical_fraction():
    n = 30_000
    z = 0.7968121300200202  # root of z = 1 - exp(-2 z)
    frac = er_giant_component(n, 2.0, seeding.stream(13)) / n
    assert abs(frac - z) < 0.02


def test_er_subcritical_small_components():
    n = 30_000
    for seed in range(5):
        assert er_giant_component(n, 0.5, seeding.stream(seed)) <= 10 * math.log(n)
