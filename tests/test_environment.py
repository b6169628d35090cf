import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

from sirkn import seeding
from sirkn.distributions import ROLE_RECOVERY, ROLE_WEIGHT, parse_dist, quantile
from sirkn.dynamics import gillespie_run
from sirkn.environment import Environment
from sirkn.errors import IndexOutOfRange, ParamViolation, SelfLoop

from reference_stats import cdf

XI1 = parse_dist("constant:1", ROLE_RECOVERY)
RHO1 = parse_dist("constant:1", ROLE_WEIGHT)


def xi_reference(env, j):
    """xi(j) from its definition: the quantile of the uniform of child j."""
    return float(quantile(env.xi_spec, (seeding.child_key(env._xi_key, j) >> 11) * 2**-53))


def rho_reference(env, i, j):
    """rho(i, j) from its definition: the quantile of the uniform of child
    lo + 2**32 hi of the rho key."""
    lo, hi = min(i, j), max(i, j)
    u = (seeding.child_key(env._rho_key, lo + (hi << 32)) >> 11) * 2**-53
    return float(quantile(env.rho_spec, u))


def traced_peak(query):
    """query() and the tracemalloc peak, in bytes, that it reached."""
    tracemalloc.start()
    try:
        return query(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_constant_rho_value():
    env = Environment(10, 123, XI1, RHO1)
    assert env.rho_at(3, 7) == 1.0


def test_annealed_environment_hashes_nothing():
    # seed None: the dynamic engine reveals values from its runs' streams,
    # so every hashed query raises instead of reading a key that is not there
    env = Environment(10, None, parse_dist("two_point:1:0.5:2", ROLE_RECOVERY),
                      parse_dist("uniform:0:1", ROLE_WEIGHT))
    assert env.seed is None and (env.xi_max, env.rho_max) == (2.0, 1.0)
    for query in (env.xi_values, env.xi_block, env.rho_lookup, lambda: env.rho_at(1, 2),
                  lambda: env.rho_pairs(np.array([1]), np.array([2]))):
        with pytest.raises(ParamViolation):
            query()
    classic = Environment(3, None, XI1, RHO1)
    assert classic.xi_values() == (1.0, 1.0, 1.0) and classic.rho_at(0, 1) == 1.0
    assert gillespie_run(classic, 2.0, seeding.stream(1)).env_seed is None


def test_symmetry_and_determinism_scalar():
    env = Environment(50, 9, XI1, parse_dist("uniform:0:1", ROLE_WEIGHT))
    assert env.rho_at(3, 7) == env.rho_at(7, 3)
    assert env.rho_at(3, 7) == env.rho_at(3, 7)


def test_symmetry_exhaustive_n100():
    env = Environment(100, 2024, XI1, parse_dist("uniform:0:1", ROLE_WEIGHT))
    i, j = np.triu_indices(100, k=1)
    forward = env.rho_pairs(i, j)
    backward = env.rho_pairs(j, i)
    np.testing.assert_array_equal(forward, backward)
    assert ((forward >= 0) & (forward <= 1)).all()


def test_two_environments_agree():
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist("uniform:0:1", ROLE_WEIGHT)
    a = Environment(64, 777, xi, rho)
    b = Environment(64, 777, xi, rho)
    js = np.arange(64)
    np.testing.assert_array_equal(a.xi_block(js), b.xi_block(js))
    i, j = np.triu_indices(64, k=1)
    np.testing.assert_array_equal(a.rho_pairs(i, j), b.rho_pairs(i, j))


def test_different_seeds_differ():
    rho = parse_dist("uniform:0:1", ROLE_WEIGHT)
    a = Environment(64, 1, XI1, rho)
    b = Environment(64, 2, XI1, rho)
    i, j = np.triu_indices(64, k=1)
    assert not np.array_equal(a.rho_pairs(i, j), b.rho_pairs(i, j))


def test_scalar_matches_vector_paths():
    xi = parse_dist("shifted:uniform:0:1:+1", ROLE_RECOVERY)
    rho = parse_dist("two_point:0.2:0.3:0.9", ROLE_WEIGHT)
    env = Environment(40, 5, xi, rho)
    js = np.arange(40)
    xb = env.xi_block(js)
    for j in (0, 7, 39):
        assert env.xi_values()[j] == xb[j] == xi_reference(env, j)
    i, j = np.array([0, 3, 12]), np.array([5, 9, 2])
    rp = env.rho_pairs(i, j)
    for k in range(3):
        a, b = int(i[k]), int(j[k])
        assert env.rho_at(a, b) == rp[k] == rho_reference(env, a, b)


@pytest.mark.parametrize("rho_text", ["uniform:0:1", "two_point:0.2:0.3:0.9",
                                      "constant:0.4", "two_point:0.2:0:0.9",
                                      "two_point:0.2:1:0.9", "uniform:0.25:0.5"])
def test_rho_at_memo_agrees_with_vector_paths(rho_text):
    # The engine's unchecked rho_lookup and the checked rho_at, in either
    # argument order, match rho_pairs and rho_full_row on a fresh environment
    # and on one that a dynamic run has already used.
    n = 30
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    reused = Environment(n, 78, XI1, rho)
    assert gillespie_run(reused, 20.0, seeding.stream(1)).r_infinity > 1  # the run infected
    for env in (Environment(n, 77, XI1, rho), reused):
        lookup = env.rho_lookup()
        for _ in range(2):  # second pass: the lookup and its keys are cached
            for lo in (0, 4, 17, n - 1):
                rows = np.array([env.rho_at(lo, j) if j != lo else 0.0
                                 for j in range(n)])
                swapped = np.array([env.rho_at(np.int64(j), lo) if j != lo else 0.0
                                    for j in range(n)])
                direct = np.array([lookup(j, lo) if j != lo else 0.0
                                   for j in range(n)])
                np.testing.assert_array_equal(rows, swapped)
                np.testing.assert_array_equal(rows, direct)
                np.testing.assert_array_equal(rows, env.rho_full_row(lo))
                others = np.delete(np.arange(n), lo)
                np.testing.assert_array_equal(
                    rows[others], env.rho_pairs(np.full(n - 1, lo), others))
            assert env.rho_lookup() is lookup
            assert type(env.rho_at(3, 5)) is float
            with pytest.raises(SelfLoop):
                env.rho_at(4, 4)
            for i, j in ((4, n), (n, 4), (-1, 4), (4, -1)):
                with pytest.raises(IndexOutOfRange):
                    env.rho_at(i, j)


@pytest.mark.parametrize("xi_text", ["constant:1.5", "two_point:1:0.5:2",
                                     "shifted:uniform:0:1:+1"])
def test_xi_values_computed_once_and_runs_on_reused_environment_agree(xi_text):
    # The dynamic engine reads xi from the environment's cached tuple, so a
    # run on an environment that earlier runs have used equals the same run
    # on a fresh environment.
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist("uniform:0:1", ROLE_WEIGHT)
    n = 40
    reused = Environment(n, 5, xi, rho)
    values = reused.xi_values()
    assert values is reused.xi_values()
    assert values == tuple(reused.xi_block(np.arange(n)).tolist())
    assert values == tuple(xi_reference(reused, j) for j in range(n))
    assert max(values) <= reused.xi_max
    for run_seed in range(8):
        a = gillespie_run(reused, 4.0, seeding.stream(run_seed), record_trajectory=True)
        b = gillespie_run(Environment(n, 5, xi, rho), 4.0, seeding.stream(run_seed),
                          record_trajectory=True)
        assert a.trajectory == b.trajectory and a.r_infinity == b.r_infinity


def test_xi_block_keys_only_the_vertices_asked_for():
    # Key work scales with the indices given, not with n: two recovery rates
    # of a 1e7-vertex environment allocate no n-long key array.
    env = Environment(10 ** 7, 5, parse_dist("two_point:1:0.5:2", ROLE_RECOVERY), RHO1)
    values, peak = traced_peak(lambda: env.xi_block(np.array([0, 5])))
    assert peak < 1 << 20
    assert values.tolist() == [xi_reference(env, 0), xi_reference(env, 5)]


def test_rho_queries_key_only_the_pairs_asked_for():
    # One hash per weight: two pairs of a 1e7-vertex environment, and the
    # engine's scalar lookup at n = 1e6, allocate nothing n-long.
    rho = parse_dist("uniform:0:1", ROLE_WEIGHT)
    env = Environment(10 ** 7, 5, XI1, rho)
    values, peak = traced_peak(lambda: env.rho_pairs(np.array([0, 10 ** 7 - 1]),
                                                     np.array([9_999_998, 3])))
    assert peak < 1 << 20
    assert values.tolist() == [rho_reference(env, 0, 9_999_998),
                               rho_reference(env, 3, 10 ** 7 - 1)]
    env = Environment(10 ** 6, 5, XI1, rho)
    lookup, peak = traced_peak(env.rho_lookup)
    assert peak < 1 << 20
    assert lookup(999_999, 17) == env.rho_at(17, 999_999) == rho_reference(env, 17, 999_999)


def test_environments_of_one_seed_agree_on_shared_pairs():
    # The pair index does not depend on n, so a larger environment of the
    # same seed extends a smaller one on both the vector and the scalar path.
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist("two_point:0.2:0.3:0.9", ROLE_WEIGHT)
    small, large = Environment(100, 41, xi, rho), Environment(1000, 41, xi, rho)
    i, j = np.triu_indices(100, k=1)
    np.testing.assert_array_equal(small.rho_pairs(i, j), large.rho_pairs(j, i))
    np.testing.assert_array_equal(small.xi_block(), large.xi_block(np.arange(100)))
    lookup = large.rho_lookup()
    for a, b in zip(i[::37].tolist(), j[::37].tolist()):
        assert small.rho_at(a, b) == lookup(b, a)


def test_largest_environment_keys_its_top_pair_and_no_larger_is_built():
    top = 1 << 32
    env = Environment(top, 5, XI1, parse_dist("uniform:0:1", ROLE_WEIGHT))
    want = rho_reference(env, top - 2, top - 1)
    assert env.rho_at(top - 1, top - 2) == want
    assert env.rho_pairs(np.array([top - 1]), np.array([top - 2])).tolist() == [want]
    with pytest.raises(ParamViolation, match=f"n = {top + 1}"):
        Environment(top + 1, 5, XI1, RHO1)


@pytest.mark.parametrize("xi_text,xi_max", [
    ("two_point:1:1:2", 1.0), ("shifted:two_point:0:1:3:+1", 1.0),
    ("two_point:1:0.5:2", 2.0)])
def test_xi_max_ignores_atoms_without_mass(xi_text, xi_max):
    # The recovery pick rejects at xi_max, so an atom without mass above
    # every xi would only make it reject more proposals.
    env = Environment(40, 5, parse_dist(xi_text, ROLE_RECOVERY),
                      parse_dist("uniform:0:1", ROLE_WEIGHT))
    assert env.xi_max == xi_max
    assert max(env.xi_values()) == xi_max


def test_errors():
    env = Environment(10, 0, XI1, RHO1)
    with pytest.raises(SelfLoop):
        env.rho_at(4, 4)
    with pytest.raises(IndexOutOfRange):
        env.rho_at(0, 10)
    with pytest.raises(ParamViolation):
        Environment(0, 0, XI1, RHO1)
    with pytest.raises(ParamViolation):
        Environment(10, 0, RHO1, XI1)  # roles swapped


def test_xi_at_least_one_exactly():
    for text in ("constant:1", "two_point:1:0.5:2", "shifted:uniform:0:1:+1",
                 "uniform:1:4"):
        env = Environment(500, 31, parse_dist(text, ROLE_RECOVERY), RHO1)
        assert (env.xi_block(np.arange(500)) >= 1.0).all()


def test_rho_uniform_sample_mean_within_three_sigma():
    # 1e4 distinct pairs; 3 sigma = 3 * (1/sqrt(12)) / 100 for Uniform(0,1)
    env = Environment(200, 42, XI1, parse_dist("uniform:0:1", ROLE_WEIGHT))
    i, j = np.triu_indices(200, k=1)
    i, j = i[:10_000], j[:10_000]
    vals = env.rho_pairs(i, j)
    assert abs(vals.mean() - 0.5) < 3.0 * (1.0 / np.sqrt(12.0)) / 100.0


@pytest.mark.parametrize("text,role", [
    ("uniform:0:1", ROLE_WEIGHT),
    ("uniform:1:4", ROLE_RECOVERY),
    ("shifted:uniform:0:1:+1", ROLE_RECOVERY),
])
def test_continuous_families_pass_ks(text, role):
    spec = parse_dist(text, role)
    if role == ROLE_WEIGHT:
        env = Environment(200, 7, XI1, spec)
        i, j = np.triu_indices(200, k=1)
        draws = env.rho_pairs(i[:10_000], j[:10_000])
    else:
        env = Environment(10_000, 7, spec, RHO1)
        draws = env.xi_block(np.arange(10_000))
    stat = spstats.kstest(draws, lambda x: cdf(spec, x))
    assert stat.pvalue > 0.01


def test_discrete_family_frequencies():
    # KS is invalid for atomic laws; check atom frequencies binomially instead.
    spec = parse_dist("two_point:1:0.3:2", ROLE_RECOVERY)
    env = Environment(20_000, 11, spec, RHO1)
    draws = env.xi_block(np.arange(20_000))
    assert set(np.unique(draws)) == {1.0, 2.0}
    p_hat = (draws == 1.0).mean()
    se = np.sqrt(0.3 * 0.7 / 20_000)
    assert abs(p_hat - 0.3) < 4 * se


def test_constant_family_exact():
    env = Environment(100, 3, parse_dist("constant:2", ROLE_RECOVERY),
                      parse_dist("constant:0.25", ROLE_WEIGHT))
    assert (env.xi_block(np.arange(100)) == 2.0).all()
    assert env.rho_at(0, 99) == 0.25


def test_constant_rho_at_builds_no_lookup(monkeypatch):
    # a constant law answers rho_at after its checks, without a lookup
    def no_lookup(*args):
        raise AssertionError("constant law built a weight lookup")

    monkeypatch.setattr(seeding, "pair_quantile", no_lookup)
    env = Environment(100_000, 3, XI1, parse_dist("constant:0.25", ROLE_WEIGHT))
    assert env.rho_at(0, 99_999) == 0.25
    assert type(env.rho_at(np.int64(7), 3)) is float
    assert env._rho_lookup is None
    with pytest.raises(SelfLoop):
        env.rho_at(4, 4)
    for i, j in ((4, 100_000), (-1, 4)):
        with pytest.raises(IndexOutOfRange):
            env.rho_at(i, j)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=2, max_value=300))
def test_symmetry_property(seed, n):
    env = Environment(n, seed, XI1, parse_dist("uniform:0:1", ROLE_WEIGHT))
    rng = np.random.default_rng(seed % 2 ** 32)
    i = rng.integers(0, n, 32)
    j = (i + 1 + rng.integers(0, n - 1, 32)) % n
    np.testing.assert_array_equal(env.rho_pairs(i, j), env.rho_pairs(j, i))
