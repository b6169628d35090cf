import hashlib
import math

import numpy as np
import pytest

from sirkn import seeding
from sirkn.distributions import (ROLE_RECOVERY, ROLE_WEIGHT, critical_lambda,
                                 parse_dist)
from sirkn.dynamics import gillespie_run
from sirkn.environment import Environment
from sirkn.errors import ParamViolation
from sirkn.experiment import wilson_interval
from sirkn.percolation import er_giant_component, percolation_final_size, sellke_final_sizes

from reference_stats import chi_square_two_sample

XI1 = parse_dist("constant:1", ROLE_RECOVERY)
RHO1 = parse_dist("constant:1", ROLE_WEIGHT)
XI2 = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
RHOU = parse_dist("uniform:0:1", ROLE_WEIGHT)


def test_lambda_zero_reaches_only_origin():
    env = Environment(50, 3, XI1, RHO1)
    res = percolation_final_size(env, 0.0, 7)
    assert res.r_infinity == 1
    assert list(res.reached) == [0]


def test_two_vertex_race():
    env = Environment(2, 17, XI1, RHO1)
    reps = 20_000
    hits = sum(percolation_final_size(env, 2.0, r).r_infinity == 2
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
        perc[r] = percolation_final_size(env, lam, r).r_infinity
        dyn[r] = gillespie_run(env, lam, r ^ 5).r_infinity
    _, _, p = chi_square_two_sample(perc, dyn)
    assert p > 0.01


def test_lazy_sampling_counters():
    env = Environment(300, 5, XI2, RHOU)
    res = percolation_final_size(env, 2.0, 11)
    assert res.t_draws <= res.r_infinity
    assert res.u_draws <= res.r_infinity * env.n


def test_constant_weight_scales_out_of_the_bfs(monkeypatch):
    # At the envelope rho_max = rho, a constant law keeps every skip hit
    # without a weight lookup or an acceptance draw, so halving rho and
    # doubling lambda reaches the same vertices; lam = 40 runs the dense
    # branch as well.
    def no_lookup(*args):
        raise AssertionError("constant law looked up a weight")

    monkeypatch.setattr(Environment, "rho_pairs", no_lookup)
    half = parse_dist("constant:0.5", ROLE_WEIGHT)
    for lam in (1.5, 40.0):
        for seed in range(20):
            a = percolation_final_size(Environment(30, 1, XI2, RHO1), lam, seed)
            b = percolation_final_size(Environment(30, 1, XI2, half), 2 * lam, seed)
            np.testing.assert_array_equal(a.reached, b.reached)


def test_determinism():
    env = Environment(123, 9, XI2, RHOU)
    a = percolation_final_size(env, 1.5, 42)
    b = percolation_final_size(env, 1.5, 42)
    assert a.r_infinity == b.r_infinity
    np.testing.assert_array_equal(a.reached, b.reached)


def test_reached_always_contains_origin():
    env = Environment(30, 1, XI1, RHOU)
    for r in range(50):
        res = percolation_final_size(env, 1.0, r)
        assert 0 in res.reached
        assert res.r_infinity == len(res.reached) >= 1


# -- Sellke sampler ------------------------------------------------------------

_SELLKE_LAWS = {
    "classic": ("constant:1", "constant:1"),
    "uniform": ("two_point:1:0.5:2", "uniform:0:1"),
    "sparse": ("two_point:1:0.5:2", "two_point:0.01:0.99:1"),
}
# sha256 of sellke_final_sizes(xi, rho, n, mult * lambda_c, 256, 17).tobytes():
# any change to the sampler's arithmetic or draw order shows here.
_GOLDEN_SELLKE = {
    ("classic", 100, 0.5): "7ad90c084e9d3ad3685b9c68a893e605f30c3cc5749e4520d2516769d1d36e0b",
    ("classic", 100, 2.0): "68877dbca0006c2687ed9a7d7ef77dddc9d7b0f5953e6958c22af6c0a44c06c9",
    ("classic", 10000, 0.5): "d80e62b67efd323c84eac1a9e461336def0b6e730d22bcdea55aa7f8b7a803c1",
    ("classic", 10000, 2.0): "fdf499ced413428831582ca06a7f532b547a5f2b4936d250d37baf6f6ac62253",
    ("uniform", 100, 0.5): "82637acb34d9d07fe164b425ce5ef458588af0e2e2354a6b70312ddafce9bac4",
    ("uniform", 100, 2.0): "7d56bb964ba63c5f1c9a88086204819e567cf1079772bc46f6b06fcc080fc840",
    ("uniform", 10000, 0.5): "12c362101ca1cb2e451d48629924f630c3e9fae69b7dda18ef60708dece9071f",
    ("uniform", 10000, 2.0): "7f6568bf1900e272910d371668ce0da9c3337631c8df5f0df9ca92447ebdae0d",
    ("sparse", 100, 0.5): "6e1aa0010b6fb8260f81da6b842210d2f3063af7e8560425bd0d885bf7775133",
    ("sparse", 100, 2.0): "88dca584c1d0ce04870028a3c25a01ef714a8a8c95453cc600de2a18ead6328f",
    ("sparse", 10000, 0.5): "2a4ed1a911ce4864cfa1a1d69a14f680d2d697113df21731655f2f3b9d398152",
    ("sparse", 10000, 2.0): "05c1c18defca1c765baabfcac82bb446b50189337f930b4648355fdb94993310",
}


@pytest.mark.parametrize("law,n,mult", sorted(_GOLDEN_SELLKE))
def test_golden_sellke_blocks_are_byte_identical(law, n, mult):
    xi_text, rho_text = _SELLKE_LAWS[law]
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    sizes = sellke_final_sizes(xi, rho, n, mult * critical_lambda(xi, rho), 256, 17)
    assert hashlib.sha256(sizes.tobytes()).hexdigest() == _GOLDEN_SELLKE[law, n, mult]


# -- Erdos-Renyi comparison ---------------------------------------------------

def test_er_trivial_cases():
    assert er_giant_component(10, 10.0, 0) == 10  # p = 1: complete graph
    assert er_giant_component(10, 0.0, 0) == 1
    assert er_giant_component(1, 5.0, 0) == 1


@pytest.mark.parametrize("mu", [-1.0, float("nan"), float("inf")])
def test_er_rejects_invalid_mu(mu):
    with pytest.raises(ParamViolation):
        er_giant_component(10, mu, 0)


def test_er_pair_decode_is_exhaustive():
    # p = 1 forces every linear index through the decoder exactly once
    from sirkn.percolation import _UnionFind, _union_edges
    n = 12
    uf = _UnionFind(n)
    _union_edges(uf, np.arange(n * (n - 1) // 2, dtype=np.int64))
    assert uf.max_size == n


def test_er_supercritical_fraction():
    n = 30_000
    z = 0.7968121300200202  # root of z = 1 - exp(-2 z)
    frac = er_giant_component(n, 2.0, 13) / n
    assert abs(frac - z) < 0.02


def test_er_subcritical_small_components():
    n = 30_000
    for seed in range(5):
        assert er_giant_component(n, 0.5, seed) <= 10 * math.log(n)
