"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All randomness is derived from the fixed seeds below, so
the suite is deterministic.

Statistical notes baked into these tests:

* The subcritical mean bound lam_c/(lam_c - lam) is asymptotically tight
  (E[final size] = bound - O(1/n)), so the bound is checked as a one-sided
  95% consistency test (the data must not significantly exceed it); the
  plain two-sided upper-CI form is additionally asserted at the smallest n,
  where the bound has real slack.
* Exceedance probabilities at large n are routinely exactly 0 at these
  replication counts, so "decreasing in n" is asserted as nonincreasing at
  every step plus a strict overall drop from the smallest to the largest n.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

from sirkn.cli import main as cli_main
from sirkn.distributions import ROLE_RECOVERY, ROLE_WEIGHT, critical_lambda, parse_dist
from sirkn.dynamics import gillespie_run, trajectory_rows
from sirkn.environment import Environment
from sirkn.experiment import (ExperimentConfig, collect_final_sizes, run_batch,
                              wilson_interval)
from sirkn.meanfield import MeanFieldState, final_size_fixed_point, ode_solve
from sirkn.percolation import er_giant_component

from reference_stats import chi_square_two_sample

XI1 = parse_dist("constant:1", ROLE_RECOVERY)
RHO1 = parse_dist("constant:1", ROLE_WEIGHT)
XI2 = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
RHOU = parse_dist("uniform:0:1", ROLE_WEIGHT)

JOBS = min(2, os.cpu_count() or 1)


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL — {desc}")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL (runtime budget)"
    print(f"[criterion {num}] {verdict} — {desc} ({elapsed:.1f}s / {budget_s:.0f}s budget)")
    assert elapsed < budget_s, f"criterion {num} runtime {elapsed:.1f}s over budget"


def samples_for(xi, rho, n, lam, reps, engine, master_seed, measure="annealed"):
    config = ExperimentConfig(xi_spec=xi, rho_spec=rho, n_grid=(n,),
                              lambda_grid=(lam,), replications=reps,
                              engine=engine, measure=measure,
                              master_seed=master_seed)
    [(samples, failures)] = collect_final_sizes(config, [(0, n, lam)], jobs=JOBS)
    assert failures == 0
    return samples


def mean_consistent_with_bound(samples: np.ndarray, bound: float) -> float:
    """One-sided z score of H0: E[r] <= bound (reject above 1.645)."""
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    return (samples.mean() - bound) / se


def mean_field_final_size() -> float:
    return brentq(lambda r: 1.0 - math.exp(-2.0 * r) - r, 1e-9, 1.0)


def test_criterion_1_two_vertex_exact_law():
    with criterion(1, "two-vertex race: P(r=2) in 99% Wilson CI of 1/2, both engines", 10):
        for engine in ("dynamic", "percolation"):
            samples = samples_for(XI1, RHO1, 2, 2.0, 100_000, engine, master_seed=4)
            hits = int((samples == 2).sum())
            lo, hi = wilson_interval(hits, len(samples), 0.99)
            assert lo <= 0.5 <= hi, (engine, hits / len(samples), lo, hi)


def test_criterion_2_engine_equivalence_grid():
    with criterion(2, "engine equivalence chi-square over the full grid", 120):
        failures = []
        for xi in (XI1, XI2):
            for rho in (RHO1, RHOU):
                lc = critical_lambda(xi, rho)
                for mult in (0.5, 2.0):
                    lam = mult * lc
                    for n in (2, 10, 30):
                        dyn = samples_for(xi, rho, n, lam, 10_000, "dynamic",
                                          master_seed=20240001)
                        perc = samples_for(xi, rho, n, lam, 10_000, "percolation",
                                           master_seed=20240001)
                        _, _, p = chi_square_two_sample(dyn, perc)
                        if p <= 0.01:
                            failures.append((xi.kind, rho.kind, lam, n, p))
        assert not failures, failures


def _subcritical_checks(xi, rho, lam, lam_c, master_seed, label):
    bound = lam_c / (lam_c - lam)
    ns = (100, 1000, 10_000)
    exceeds = []
    for n in ns:
        samples = samples_for(xi, rho, n, lam, 10_000, "percolation", master_seed)
        z = mean_consistent_with_bound(samples, bound)
        assert z <= 1.645, (label, n, samples.mean(), z)
        if n == ns[0]:
            # at the smallest n the bound has real slack: literal upper-CI form
            se = samples.std(ddof=1) / math.sqrt(len(samples))
            assert samples.mean() + 1.96 * se <= bound, (label, n, samples.mean())
        exceeds.append(float((samples >= 0.05 * n).mean()))
    assert all(b <= a for a, b in zip(exceeds, exceeds[1:])), (label, exceeds)
    assert exceeds[-1] < exceeds[0], (label, exceeds)
    assert exceeds[-1] <= 1e-3, (label, exceeds)
    return exceeds


def test_criterion_3_subcritical_bound_classic():
    with criterion(3, "subcritical mean bound and vanishing exceedance (classic)", 300):
        _subcritical_checks(XI1, RHO1, 0.5, 1.0, master_seed=11, label="classic")


def test_criterion_4_supercritical_witness_classic():
    with criterion(4, "supercritical exceedance witness and conditional size", 300):
        z_star = mean_field_final_size()
        assert abs(z_star - 0.7968) < 1e-4
        exceeds = {}
        for n in (100, 1000, 10_000):
            samples = samples_for(XI1, RHO1, n, 2.0, 1_000, "percolation",
                                  master_seed=12)
            exceeds[n] = float((samples >= 0.1 * n).mean())
            if n == 10_000:
                big = samples[samples >= 0.1 * n] / n
                assert abs(big.mean() - z_star) < 0.05, big.mean()
        assert min(exceeds.values()) >= 0.2, exceeds


def test_criterion_5_random_environment_threshold():
    with criterion(5, "random-environment threshold placement at 8/3", 300):
        lc = critical_lambda(XI2, RHOU)
        assert lc == pytest.approx(8.0 / 3.0, rel=1e-12)
        _subcritical_checks(XI2, RHOU, 0.5 * lc, lc, master_seed=14, label="random-env")
        exceeds = {}
        for n in (100, 1000, 10_000):
            samples = samples_for(XI2, RHOU, n, 2.0 * lc, 1_000, "percolation",
                                  master_seed=13)
            exceeds[n] = float((samples >= 0.1 * n).mean())
        assert min(exceeds.values()) >= 0.2, exceeds


def test_criterion_6_no_spread_formulas():
    with criterion(6, "no-spread probability vs exact and limiting formulas", 60):
        for xi, rho in ((XI1, RHO1), (XI2, RHOU)):
            for lam in (0.5, 2.0):
                gaps = []
                for n in (10, 1000):
                    config = ExperimentConfig(xi_spec=xi, rho_spec=rho, n_grid=(n,),
                                              lambda_grid=(lam,), replications=20_000,
                                              master_seed=60_000 + n)
                    est = run_batch(config, n, lam, jobs=JOBS)
                    se = max(math.sqrt(est.p_no_spread * (1 - est.p_no_spread) / 20_000),
                             1e-4)
                    assert abs(est.p_no_spread - est.no_spread_finite_n) < 4 * se, \
                        (xi.kind, rho.kind, lam, n, est)
                    gaps.append(abs(est.no_spread_finite_n - est.no_spread_limit))
                assert gaps[0] > gaps[1], (xi.kind, rho.kind, lam, gaps)


def _aligned_sup_distance(n: int, run_seed: int, lam=2.0, threshold=0.05,
                          step=2e-3, horizon=30.0):
    env = Environment(n, 1000 + n, XI1, RHO1)
    res = gillespie_run(env, lam, run_seed, record_trajectory=True)
    rows = trajectory_rows(res, n)
    times = np.array([r[0] for r in rows])
    i_frac = np.array([r[4] for r in rows]) / n
    s_frac = np.array([r[3] for r in rows]) / n
    k = int(np.argmax(i_frac >= threshold))
    if i_frac[k] < threshold:
        return None  # early extinction: not a surviving run
    init = MeanFieldState(s=float(s_frac[k]), i=float(i_frac[k]),
                          r=float(1.0 - s_frac[k] - i_frac[k]))
    traj = ode_solve(lam, init, horizon=horizon, step=step)
    ode_i = np.array([state.i for state in traj])
    idx = np.clip(np.round((times[k:] - times[k]) / step).astype(int),
                  0, len(ode_i) - 1)
    return float(np.max(np.abs(i_frac[k:] - ode_i[idx])))


def test_criterion_7_mean_field_reference():
    with criterion(7, "mean-field ODE, fixed point, and density-dependence proxy", 30):
        traj = ode_solve(2.0, MeanFieldState(s=0.999, i=1e-3, r=0.0),
                         horizon=80.0, step=1e-3)
        assert max(state.conservation_error() for state in traj) <= 1e-9
        fp = final_size_fixed_point(2.0, 0.999, 1e-3)
        assert fp.bracketed
        assert abs(traj[-1].r - fp.value) < 1e-3

        medians = {}
        for n in (100, 1000, 10_000):
            dists = []
            seed = 0
            while len(dists) < 50 and seed < 400:
                d = _aligned_sup_distance(n, seed)
                seed += 1
                if d is not None:
                    dists.append(d)
            assert len(dists) == 50, (n, len(dists))
            medians[n] = float(np.median(dists))
        assert medians[100] > medians[1000] > medians[10_000], medians
        assert medians[10_000] <= 0.03, medians


def test_criterion_8_erdos_renyi_comparison():
    with criterion(8, "Erdos-Renyi giant component against the fixed point", 60):
        n = 100_000
        z_star = brentq(lambda z: 1.0 - math.exp(-2.0 * z) - z, 1e-9, 1.0)
        frac = er_giant_component(n, 2.0, seed=0) / n
        assert abs(frac - z_star) < 0.01, frac
        cap = 10.0 * math.log(n)
        for seed in range(20):
            assert er_giant_component(n, 0.5, seed=seed) <= cap


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI reruns are byte-identical at any --jobs", 120):
        old = os.getcwd()
        os.chdir(tmp_path)
        try:
            sim = ["simulate", "--n", "200", "--lambda", "2", "--xi",
                   "two_point:1:0.5:2", "--rho", "uniform:0:1", "--seed", "5",
                   "--trajectory"]
            assert cli_main(sim + ["--outdir", "s1"]) == 0
            assert cli_main(sim + ["--outdir", "s2"]) == 0
            for name in ("run.json", "trajectory.csv"):
                assert (tmp_path / "s1" / name).read_bytes() == \
                       (tmp_path / "s2" / name).read_bytes()

            per = ["percolate", "--n", "500", "--lambda", "3", "--seed", "6"]
            assert cli_main(per + ["--outdir", "p1"]) == 0
            assert cli_main(per + ["--outdir", "p2"]) == 0
            assert (tmp_path / "p1" / "run.json").read_bytes() == \
                   (tmp_path / "p2" / "run.json").read_bytes()

            sweep_args = ["sweep", "--xi", "two_point:1:0.5:2", "--rho", "uniform:0:1",
                          "--n-grid", "20,50", "--lambda-grid", "0.5,2.0",
                          "--lambda-units", "lambda_c", "--reps", "400", "--seed", "9"]
            assert cli_main(sweep_args + ["--jobs", "1", "--outdir", "w1"]) == 0
            assert cli_main(sweep_args + ["--jobs", "2", "--outdir", "w2"]) == 0
            assert cli_main(sweep_args + ["--jobs", "2", "--outdir", "w3"]) == 0
            for name in ("sweep.csv", "sweep.json"):
                ref = (tmp_path / "w1" / name).read_bytes()
                assert (tmp_path / "w2" / name).read_bytes() == ref
                assert (tmp_path / "w3" / name).read_bytes() == ref
            rows = (tmp_path / "w1" / "sweep.csv").read_text().splitlines()
            assert len(rows) == 1 + 4

            for args, name in ((["er", "--n", "10000", "--mu", "2", "--seed", "3"], "er.json"),
                               (["meanfield", "--lambda", "2", "--i0", "0.001"], "meanfield.json"),
                               (["no-spread", "--n", "50", "--lambda", "1",
                                 "--reps", "1000", "--jobs", "2"], "no_spread.json")):
                assert cli_main(args + ["--outdir", "a1_" + name]) == 0
                assert cli_main(args + ["--outdir", "a2_" + name]) == 0
                assert (tmp_path / ("a1_" + name) / name).read_bytes() == \
                       (tmp_path / ("a2_" + name) / name).read_bytes()
        finally:
            os.chdir(old)
