import concurrent.futures
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import sirkn
import sirkn.distributions
import sirkn.experiment
from sirkn import seeding
from sirkn.distributions import ROLE_RECOVERY, ROLE_WEIGHT, as_mixture, parse_dist
from sirkn.dynamics import EpidemicState, gillespie_run
from sirkn.environment import Environment
from sirkn.errors import ParamViolation, QuadratureFailure, SirknError
from sirkn.experiment import (ExperimentConfig, batch_stats_from_samples,
                              collect_final_sizes,
                              config_from_dict, config_hash, config_lambda_c,
                              config_to_dict, mean_interval,
                              no_spread_finite_n, no_spread_limit,
                              read_config_fields, resolved_lambda_grid, run_batch,
                              sweep, sweep_csv_text, SWEEP_CSV_COLUMNS,
                              wilson_interval, write_sweep)
from sirkn.meanfield import MeanFieldState, final_size_fixed_point, ode_solve
from sirkn.percolation import SELLKE_BLOCK, percolation_final_size, sellke_final_sizes

from reference_stats import chi_square_two_sample

XI1 = parse_dist("constant:1", ROLE_RECOVERY)
RHO1 = parse_dist("constant:1", ROLE_WEIGHT)
XI2 = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
RHOU = parse_dist("uniform:0:1", ROLE_WEIGHT)


def make_config(**kw):
    base = dict(xi_spec=XI1, rho_spec=RHO1, n_grid=(20,), lambda_grid=(1.0,),
                replications=200, master_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


# -- Wilson interval ----------------------------------------------------------

def test_wilson_boundaries():
    assert wilson_interval(0, 50, 0.95)[0] == 0.0
    assert wilson_interval(50, 50, 0.95)[1] == 1.0


def test_wilson_frozen_value():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.404, abs=0.002)
    assert hi == pytest.approx(0.596, abs=0.002)


def test_wilson_validation():
    with pytest.raises(ParamViolation):
        wilson_interval(5, 0, 0.95)
    with pytest.raises(ParamViolation):
        wilson_interval(5, 4, 0.95)
    with pytest.raises(ParamViolation):
        wilson_interval(1, 4, 1.5)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.5, max_value=0.999))
def test_wilson_contains_point_estimate(successes, trials, level):
    successes = min(successes, trials)
    lo, hi = wilson_interval(successes, trials, level)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_mean_interval_contains_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    m, lo, hi = mean_interval(x, 0.95)
    assert lo < m == 2.5 < hi


# -- chi-square helper ----------------------------------------------------------

def test_chi_square_same_distribution_passes():
    rng = np.random.default_rng(0)
    a = rng.poisson(3.0, 5000)
    b = rng.poisson(3.0, 5000)
    _, _, p = chi_square_two_sample(a, b)
    assert p > 0.01


def test_chi_square_detects_difference():
    rng = np.random.default_rng(1)
    a = rng.poisson(3.0, 5000)
    b = rng.poisson(3.6, 5000)
    _, _, p = chi_square_two_sample(a, b)
    assert p < 0.01


def test_chi_square_degenerate_is_trivial():
    a = np.ones(100, dtype=int)
    b = np.ones(100, dtype=int)
    stat, dof, p = chi_square_two_sample(a, b)
    assert p == 1.0


# -- batches -------------------------------------------------------------------

def test_lambda_zero_batch_exact():
    config = make_config(lambda_grid=(0.0,), n_grid=(50,), replications=300)
    stats = run_batch(config, 50, 0.0)
    assert stats.mean_r_inf == 1.0
    assert stats.mean_final_fraction == stats.mean_r_inf / 50
    assert stats.exceed_probability == 0.0
    assert stats.p_no_spread == 1.0


def test_estimator_sanity():
    config = make_config(n_grid=(30,), lambda_grid=(2.0,), replications=2000)
    [(samples, failures)] = collect_final_sizes(config, [(0, 30, 2.0)])
    stats = batch_stats_from_samples(config, 30, 2.0, samples, failures)
    assert stats.mean_final_fraction == stats.mean_r_inf / 30
    p_spread = (samples >= 2).mean()
    assert stats.p_no_spread + p_spread == pytest.approx(1.0, abs=1e-12)
    assert stats.mean_ci[0] <= stats.mean_r_inf <= stats.mean_ci[1]


def test_subcritical_markov_bound():
    # empirical counterpart of exceed <= E[r]/(eps n), with the CI upper end
    config = make_config(n_grid=(200,), lambda_grid=(0.5,), replications=4000,
                         epsilon=0.05)
    stats = run_batch(config, 200, 0.5)
    assert stats.exceed_probability <= stats.mean_ci[1] / (0.05 * 200) + 1e-12
    assert stats.subcritical_mean_bound == pytest.approx(2.0)


def test_engines_give_same_estimator_scale():
    cfg_p = make_config(engine="percolation", n_grid=(40,), lambda_grid=(2.0,),
                        replications=4000)
    cfg_d = make_config(engine="dynamic", n_grid=(40,), lambda_grid=(2.0,),
                        replications=4000)
    [(samples_p, _)] = collect_final_sizes(cfg_p, [(0, 40, 2.0)])
    [(samples_d, _)] = collect_final_sizes(cfg_d, [(0, 40, 2.0)])
    _, _, p = chi_square_two_sample(samples_p, samples_d)
    assert p > 0.01


# -- no-spread probability -------------------------------------------------------

def test_no_spread_finite_n_constants():
    # xi = rho = 1, lam = 1, n = 2: 1 / (1 + 1/2) = 2/3
    assert no_spread_finite_n(XI1, RHO1, 1.0, 2) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_no_spread_limit_constants():
    assert no_spread_limit(XI1, RHO1, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_no_spread_limit_two_point():
    # E[xi/(xi+1)] = 0.5*(1/2) + 0.5*(2/3) = 7/12
    assert no_spread_limit(XI2, RHO1, 1.0) == pytest.approx(7.0 / 12.0, rel=1e-12)


def test_no_spread_finite_n_two_point_rho_exact_vs_mc():
    rho = parse_dist("two_point:0.2:0.4:0.8", ROLE_WEIGHT)
    val = no_spread_finite_n(XI2, rho, 1.5, 12)
    rng = np.random.default_rng(3)
    reps = 400_000
    from sirkn.distributions import quantile
    s = np.asarray(quantile(rho, rng.random((reps, 11)))).sum(axis=1)
    xi = np.asarray(quantile(XI2, rng.random(reps)))
    mc = (xi / (xi + (1.5 / 12) * s)).mean()
    assert val == pytest.approx(mc, abs=4 * 0.3 / np.sqrt(reps))


def test_no_spread_finite_n_uniform_rho_mc_path():
    val = no_spread_finite_n(XI1, RHOU, 2.0, 50)
    rng = np.random.default_rng(11)
    reps = 400_000
    s = rng.random((reps, 49)).sum(axis=1)
    mc = (1.0 / (1.0 + (2.0 / 50) * s)).mean()
    assert val == pytest.approx(mc, abs=5e-4)
    # deterministic
    assert no_spread_finite_n(XI1, RHOU, 2.0, 50) == val


def test_no_spread_trivial_cases():
    assert no_spread_finite_n(XI1, RHO1, 0.0, 10) == 1.0
    assert no_spread_finite_n(XI1, RHO1, 2.0, 1) == 1.0


def expect_self_over_self_plus_vec(spec, c):
    """E[X / (X + c)] over an array of nonneg shifts c, closed form per
    mixture component."""
    c = np.asarray(c, dtype=float)
    total = np.zeros_like(c)
    for w, comp in as_mixture(spec):
        if comp[0] == "atom":
            total += w * comp[1] / (comp[1] + c)
        else:
            a, b = comp[1], comp[2]
            total += w * (1.0 - c * np.log1p((b - a) / (a + c)) / (b - a))
    return total


def binomial_no_spread(xi_spec, rho_spec, lam, n):
    """Exact P(r = 1) for an atomic weight law by binomial convolution: with
    k of the n-1 weights on the first atom, S = k v1 + (n-1-k) v2."""
    mix = as_mixture(rho_spec)
    if len(mix) == 1:
        weights = np.array([1.0])
        s_values = np.array([mix[0][1][1] * (n - 1)])
    else:
        (p1, (_, v1)), (_, (_, v2)) = mix
        k = np.arange(n)
        weights = spstats.binom.pmf(k, n - 1, p1)
        s_values = k * v1 + (n - 1 - k) * v2
    return float(np.dot(weights, expect_self_over_self_plus_vec(xi_spec, (lam / n) * s_values)))


@pytest.mark.parametrize("rho_text", ["two_point:0.2:0.4:0.8", "constant:1",
                                      "two_point:0:0.5:1", "two_point:0.01:0.99:1"])
@pytest.mark.parametrize("xi_text", ["constant:1", "two_point:1:0.5:2", "uniform:1:3"])
def test_no_spread_finite_n_matches_binomial_convolution(xi_text, rho_text):
    # large n * lam reaches t where phi(c t)^(n-1) underflows in linear space
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    for n in (2, 12, 1000, 100_000):
        for lam in (0.5, 2.0, 8.0):
            assert no_spread_finite_n(xi, rho, lam, n) == pytest.approx(
                binomial_no_spread(xi, rho, lam, n), abs=1e-10), (n, lam)


@pytest.mark.parametrize("rho_text", ["uniform:0:1", "two_point:0.2:0.4:0.8"])
@pytest.mark.parametrize("xi_text", ["two_point:1:0.5:2", "uniform:1:3"])
def test_no_spread_finite_n_resolves_large_n(xi_text, rho_text):
    # phi^(n-1) amplifies any absolute error of log phi by n, so log_laplace
    # must keep its relative precision at small arguments; P(r = 1) then
    # nears the limit, within (lam + lam^2) / n by a Taylor bound on
    # E[xi / (xi + lam y)] about y = E[rho] (the mean and variance of S/n)
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    for lam in (0.1, 2.0, 50.0):
        limit = no_spread_limit(xi, rho, lam)
        for n in (10**7, 10**8, 10**9):
            assert no_spread_finite_n(xi, rho, lam, n) == pytest.approx(
                limit, abs=(lam + lam * lam) / n), (n, lam)


def test_no_spread_finite_n_raises_on_quadrature_error(monkeypatch):
    # psi, which no_spread_finite_n calls, looks quad up in sirkn.distributions
    monkeypatch.setattr(sirkn.distributions, "quad", lambda *a, **k: (0.5, 1e-3))
    with pytest.raises(QuadratureFailure):
        no_spread_finite_n(XI2, RHOU, 1.0, 100)


@pytest.mark.parametrize("lam", [-1.0, -10.0 / 9.0, float("nan"), float("inf")])
def test_no_spread_references_reject_invalid_lambda(lam):
    with pytest.raises(ParamViolation):
        no_spread_finite_n(XI1, RHO1, lam, 10)
    with pytest.raises(ParamViolation):
        no_spread_limit(XI1, RHO1, lam)


_LAMBDA_ENTRIES = {
    "EpidemicState": lambda lam: EpidemicState(Environment(10, 1, XI1, RHOU), lam).run(
        seeding.stream(0), 1),
    "gillespie_run": lambda lam: gillespie_run(Environment(10, 1, XI1, RHO1), lam, 0),
    "percolation_final_size": lambda lam: percolation_final_size(
        Environment(10, 1, XI1, RHO1), lam, 0),
    "sellke_final_sizes": lambda lam: sellke_final_sizes(XI1, RHO1, 10, lam, 4, 0),
    "validate_config": lambda lam: make_config(lambda_grid=(lam,)),
    "ode_solve": lambda lam: ode_solve(lam, MeanFieldState(s=0.99, i=0.01, r=0.0)),
    "final_size_fixed_point": lambda lam: final_size_fixed_point(lam, 0.99, 0.01),
}


@pytest.mark.parametrize("entry", sorted(_LAMBDA_ENTRIES))
@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_public_entries_reject_invalid_lambda(entry, lam):
    with pytest.raises(ParamViolation):
        _LAMBDA_ENTRIES[entry](lam)


def test_every_exported_name_resolves():
    # `import sirkn` does not read __all__, so a stale export would go unseen
    missing = [name for name in sirkn.__all__ if not hasattr(sirkn, name)]
    assert not missing


def test_estimate_p_no_spread_matches_analytic():
    config = make_config(n_grid=(10,), lambda_grid=(1.0,), replications=20_000)
    est = run_batch(config, 10, 1.0)
    se = np.sqrt(est.p_no_spread * (1 - est.p_no_spread) / 20_000)
    assert abs(est.p_no_spread - est.no_spread_finite_n) < 4 * se
    assert est.p_no_spread_ci[0] <= est.p_no_spread <= est.p_no_spread_ci[1]


def test_finite_n_converges_to_limit_monotonically():
    lam = 1.3
    limit = no_spread_limit(XI2, RHOU, lam)
    gaps = [abs(no_spread_finite_n(XI2, RHOU, lam, n) - limit)
            for n in (10, 100, 1000, 10_000, 100_000)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# -- annealed vs quenched ---------------------------------------------------------

def test_annealed_equals_average_of_quenched():
    n, lam, eps = 60, 2.0, 0.1
    annealed = make_config(xi_spec=XI2, rho_spec=RHOU, n_grid=(n,),
                           lambda_grid=(lam,), replications=15_000,
                           epsilon=eps, measure="annealed", master_seed=100)
    a_stats = run_batch(annealed, n, lam)
    quenched_probs = []
    for env_idx in range(50):
        q = make_config(xi_spec=XI2, rho_spec=RHOU, n_grid=(n,),
                        lambda_grid=(lam,), replications=300, epsilon=eps,
                        measure="quenched", master_seed=5000 + env_idx)
        quenched_probs.append(run_batch(q, n, lam).exceed_probability)
    q_mean = float(np.mean(quenched_probs))
    q_se = float(np.std(quenched_probs, ddof=1) / np.sqrt(len(quenched_probs)))
    a_se = (a_stats.exceed_ci[1] - a_stats.exceed_ci[0]) / 2
    assert abs(q_mean - a_stats.exceed_probability) < 3 * np.hypot(q_se, a_se)


# -- determinism and parallelism ---------------------------------------------------

def test_jobs_do_not_change_results():
    config = make_config(n_grid=(25,), lambda_grid=(1.5,), replications=500,
                         xi_spec=XI2, rho_spec=RHOU)
    [(ser, f1)] = collect_final_sizes(config, [(0, 25, 1.5)], jobs=1)
    [(par, f2)] = collect_final_sizes(config, [(0, 25, 1.5)], jobs=2)
    np.testing.assert_array_equal(ser, par)
    assert f1 == f2 == 0


def test_collect_many_points_equals_per_point_calls():
    config = make_config(xi_spec=XI2, rho_spec=RHOU, n_grid=(15, 30),
                         lambda_grid=(0.5, 2.0), replications=150)
    points = [(0, 15, 0.5), (1, 30, 0.5), (2, 15, 2.0), (3, 30, 2.0)]
    together = collect_final_sizes(config, points, jobs=2)
    assert len(together) == len(points)
    for point, (samples, failures) in zip(points, together):
        [(alone, alone_failures)] = collect_final_sizes(config, [point])
        assert samples.dtype == alone.dtype
        np.testing.assert_array_equal(samples, alone)
        assert failures == alone_failures == 0


def test_sweep_starts_one_process_pool(monkeypatch):
    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    config = make_config(n_grid=(15, 30), lambda_grid=(0.5, 2.0), replications=100)
    assert len(sweep(config, jobs=2).rows) == 4
    assert starts == [2]


def test_single_task_point_runs_without_a_pool(monkeypatch):
    # An annealed percolation point of at most SELLKE_BLOCK replications is
    # one task; a pool for it costs more than it saves.
    config = make_config(xi_spec=XI2, rho_spec=RHOU, n_grid=(30,), lambda_grid=(2.0,),
                         replications=SELLKE_BLOCK)
    [(ref, _)] = collect_final_sizes(config, [(0, 30, 2.0)], jobs=1)
    starts = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    [(samples, failures)] = collect_final_sizes(config, [(0, 30, 2.0)], jobs=2)
    assert starts == []
    assert samples.tobytes() == ref.tobytes() and failures == 0
    # two tasks at jobs 3 start a pool of two workers
    collect_final_sizes(config, [(0, 30, 2.0), (1, 15, 2.0)], jobs=3)
    assert starts == [2]


def test_failed_replications_are_dropped_not_counted_as_zero(monkeypatch):
    config = make_config(n_grid=(25,), lambda_grid=(1.5,), replications=100,
                         measure="quenched")
    real = sirkn.experiment.percolation_final_size
    bad_seed = sirkn.experiment._run_seed(config.master_seed, 0, 37)

    def flaky(env, lam, run_seed):
        if run_seed == bad_seed:
            raise QuadratureFailure("injected")
        return real(env, lam, run_seed)

    monkeypatch.setattr(sirkn.experiment, "percolation_final_size", flaky)
    [(samples, failures)] = collect_final_sizes(config, [(0, 25, 1.5)], jobs=1)
    stats = batch_stats_from_samples(config, 25, 1.5, samples, failures)
    assert stats.failures == 1
    assert stats.replications == len(samples) == 99
    assert samples.min() >= 1


def test_all_replications_failing_raises(monkeypatch):
    def broken(env, lam, run_seed):
        raise QuadratureFailure("injected")

    monkeypatch.setattr(sirkn.experiment, "percolation_final_size", broken)
    with pytest.raises(SirknError):
        collect_final_sizes(make_config(replications=10, measure="quenched"),
                            [(0, 20, 1.0)])


def test_failed_sellke_block_drops_all_its_replications(monkeypatch):
    block = SELLKE_BLOCK
    config = make_config(n_grid=(25,), lambda_grid=(1.5,), replications=2 * block + 9)
    real = sirkn.experiment.sellke_final_sizes
    bad_seed = sirkn.experiment._block_seed(config.master_seed, 0, 1)

    def flaky(xi, rho, n, lam, reps, seed):
        if seed == bad_seed:
            raise QuadratureFailure("injected")
        return real(xi, rho, n, lam, reps, seed)

    [(whole, _)] = collect_final_sizes(config, [(0, 25, 1.5)])
    monkeypatch.setattr(sirkn.experiment, "sellke_final_sizes", flaky)
    [(samples, failures)] = collect_final_sizes(config, [(0, 25, 1.5)], jobs=1)
    assert failures == block
    np.testing.assert_array_equal(samples, np.concatenate((whole[:block],
                                                           whole[2 * block:])))

    def broken(*args):
        raise QuadratureFailure("injected")

    monkeypatch.setattr(sirkn.experiment, "sellke_final_sizes", broken)
    with pytest.raises(SirknError):
        collect_final_sizes(config, [(0, 25, 1.5)])


@pytest.mark.parametrize("reps", [1, SELLKE_BLOCK - 1, SELLKE_BLOCK, SELLKE_BLOCK + 1,
                                  3 * SELLKE_BLOCK + 7])
def test_annealed_percolation_blocks_are_jobs_invariant(reps):
    config = make_config(xi_spec=XI2, rho_spec=RHOU, n_grid=(30,), lambda_grid=(2.0,),
                         replications=reps)
    [(ref, failures)] = collect_final_sizes(config, [(0, 30, 2.0)], jobs=1)
    assert len(ref) == reps and failures == 0
    for jobs in (2, 3):
        [(samples, _)] = collect_final_sizes(config, [(0, 30, 2.0)], jobs=jobs)
        assert samples.dtype == ref.dtype
        assert samples.tobytes() == ref.tobytes(), jobs


@pytest.mark.parametrize("measure", ["annealed", "quenched"])
def test_dynamic_point_splits_on_replications(monkeypatch, measure):
    # Dynamic points key one stream per replication, so a point of fewer
    # than SELLKE_BLOCK replications still splits across workers.
    spans = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, tasks):
            tasks = list(tasks)
            spans.extend(task[-2:] for task in tasks)
            return super().map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = make_config(engine="dynamic", measure=measure, xi_spec=XI2,
                         rho_spec=RHOU, n_grid=(30,), lambda_grid=(4.0,),
                         replications=8)
    [(ref, failures)] = collect_final_sizes(config, [(0, 30, 4.0)], jobs=1)
    assert len(ref) == 8 and failures == 0
    [(samples, _)] = collect_final_sizes(config, [(0, 30, 4.0)], jobs=2)
    assert spans == [(0, 4), (4, 8)]
    assert samples.tobytes() == ref.tobytes()


@pytest.mark.parametrize("engine,reps", [("percolation", SELLKE_BLOCK + 44),
                                         ("dynamic", 4)])
def test_pool_gets_costliest_points_first(monkeypatch, engine, reps):
    # The pool is handed the tasks in descending (lambda, n) order; the
    # results still come back per point, equal to point-by-point calls.
    keys = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, tasks):
            tasks = list(tasks)
            keys.extend((task[3], task[2]) for task in tasks)
            return super().map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = make_config(engine=engine, xi_spec=XI2, rho_spec=RHOU, n_grid=(30, 15),
                         lambda_grid=(2.0, 0.5, 1.0), replications=reps)
    points = [(g, n, lam) for g, (lam, n)
              in enumerate(itertools.product(config.lambda_grid, config.n_grid))]
    together = collect_final_sizes(config, points, jobs=2)
    expected = [(lam, n) for lam in (2.0, 1.0, 0.5) for n in (30, 15) for _ in range(2)]
    assert keys == expected
    for point, (samples, failures) in zip(points, together):
        [(alone, alone_failures)] = collect_final_sizes(config, [point], jobs=1)
        assert samples.tobytes() == alone.tobytes(), point
        assert failures == alone_failures == 0


def test_quenched_shares_one_environment():
    config = make_config(measure="quenched", xi_spec=XI2, rho_spec=RHOU,
                         replications=64)
    # all replications must query the same environment seed
    from sirkn.experiment import _env_seed
    seeds = {_env_seed(config.master_seed, 0, rep, "quenched") for rep in range(64)}
    assert len(seeds) == 1
    annealed = {_env_seed(config.master_seed, 0, rep, "annealed") for rep in range(64)}
    assert len(annealed) == 64


# -- config handling -----------------------------------------------------------

CONFIG_TEXT = """
# phase sweep config
xi_spec = two_point:1:0.5:2
rho_spec = uniform:0:1
n_grid = 100, 1000
lambda_grid = 0.5, 2.0
lambda_units = lambda_c
replications = 50
engine = percolation
measure = annealed
epsilon = 0.05
master_seed = 31
"""


def test_parse_config_text():
    config = config_from_dict(read_config_fields(CONFIG_TEXT))
    assert config.n_grid == (100, 1000)
    assert config.lambda_units == "lambda_c"
    lc = config_lambda_c(config)
    assert lc == pytest.approx(8.0 / 3.0, rel=1e-12)
    lams = resolved_lambda_grid(config)
    assert lams[0] == pytest.approx(0.5 * lc)
    assert lams[1] == pytest.approx(2.0 * lc)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ParamViolation):
        config_from_dict(read_config_fields("bogus = 3\n" + CONFIG_TEXT))


def test_parse_config_rejects_repeated_field():
    text = CONFIG_TEXT + "replications = 7\n"
    with pytest.raises(ParamViolation, match="line 13: field 'replications' given twice"):
        read_config_fields(text)


def test_parse_config_requires_fields():
    with pytest.raises(ParamViolation):
        config_from_dict(read_config_fields("xi_spec = constant:1\n"))


@pytest.mark.parametrize("key,val", [("n_grid", [10.7]), ("replications", 2.9),
                                     ("master_seed", 3.5), ("n_grid", [float("inf")])])
def test_config_rejects_non_integral_integer_fields(key, val):
    values = {**read_config_fields(CONFIG_TEXT), key: val}
    with pytest.raises(ParamViolation, match=f"config field {key} must be an integer"):
        config_from_dict(values)


def test_config_accepts_integral_numbers_for_integer_fields():
    values = {**read_config_fields(CONFIG_TEXT), "n_grid": [10.0, 20],
              "replications": 3.0, "master_seed": 4}
    config = config_from_dict(values)
    assert (config.n_grid, config.replications, config.master_seed) == ((10, 20), 3, 4)
    assert all(type(n) is int for n in config.n_grid + (config.replications,))


def test_config_roundtrip_and_hash_stability():
    config = config_from_dict(read_config_fields(CONFIG_TEXT))
    again = config_from_dict(config_to_dict(config))
    assert again == config
    assert config_hash(config) == config_hash(again)


def test_config_validation():
    with pytest.raises(ParamViolation):
        make_config(replications=0)
    with pytest.raises(ParamViolation):
        make_config(epsilon=1.5)
    with pytest.raises(ParamViolation):
        make_config(engine="magic")
    with pytest.raises(ParamViolation):
        make_config(n_grid=())
    with pytest.raises(ParamViolation):
        make_config(lambda_grid=(-0.5,))


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    [version] = re.findall(r'^version = "([^"]*)"$', text, flags=re.M)
    assert version == sirkn.__version__


# -- sweeps ---------------------------------------------------------------------

def test_sweep_structure_and_witnesses(tmp_path):
    config = make_config(n_grid=(20, 40), lambda_grid=(0.5, 2.0),
                         replications=400, master_seed=12)
    result = sweep(config)
    assert len(result.rows) == 4
    assert [w["lambda"] for w in result.supercritical_witnesses] == [2.0]
    w = result.supercritical_witnesses[0]
    assert w["c"] == config.epsilon
    assert w["b"] == min(r.exceed_probability for r in result.rows if r.lam == 2.0)
    assert [c["lambda"] for c in result.subcritical_checks] == [0.5]

    csv_path, json_path = write_sweep(result, tmp_path)
    text = csv_path.read_text()
    assert text.splitlines()[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(text.splitlines()) == 5
    payload = json.loads(json_path.read_text())
    assert payload["provenance"]["config_hash"] == config_hash(config)
    assert payload["provenance"]["version"] == sirkn.__version__ == "0.1.0"
    assert len(payload["rows"]) == 4
    # classic specs carry the mean-field final size as a reference field
    mf = {entry["lambda"]: entry["final_size_fraction"]
          for entry in payload["mean_field_reference"]}
    assert mf[0.5] == 0.0
    assert mf[2.0] == pytest.approx(0.7968, abs=1e-4)


def test_sweep_mean_field_reference_absent_for_random_env():
    config = make_config(xi_spec=XI2, rho_spec=RHOU, n_grid=(15,),
                         lambda_grid=(1.0,), replications=50)
    assert sweep(config).mean_field_reference == []


def test_sweep_only_subcritical_has_no_witnesses():
    config = make_config(n_grid=(20,), lambda_grid=(0.3, 0.6), replications=100)
    result = sweep(config)
    assert result.supercritical_witnesses == []


# sha256 of sweep_csv_text for annealed dynamic sweeps, one per weight law
# family that looks up weights; a change to any draw, its order or a float
# expression of the dynamic engine or the sweep statistics shows here.
_GOLDEN_DYNAMIC_SWEEPS = {
    "uniform:0:1": "86c117cb99f7004ca6a2d6aa078a89cf6f81bed23fc96477ed00936edc7b6faf",
    "two_point:0.01:0.99:1":
        "e874bada4b372fb5fa4d806cbee6446e98f2b41ac759d3a5a81b403c392b62c8",
}


@pytest.mark.parametrize("rho_text", sorted(_GOLDEN_DYNAMIC_SWEEPS))
def test_dynamic_sweep_csv_is_byte_identical(rho_text):
    config = make_config(xi_spec=XI2, rho_spec=parse_dist(rho_text, ROLE_WEIGHT),
                         n_grid=(20, 150), lambda_grid=(0.5, 2.0), replications=40,
                         engine="dynamic", lambda_units="lambda_c", master_seed=21)
    text = sweep_csv_text(sweep(config))
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_DYNAMIC_SWEEPS[rho_text]


def test_sweep_deterministic_output(tmp_path):
    config = make_config(n_grid=(15,), lambda_grid=(1.5,), replications=300)
    a = sweep_csv_text(sweep(config, jobs=1))
    b = sweep_csv_text(sweep(config, jobs=2))
    assert a == b
