import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirkn import seeding
from sirkn.distributions import (ROLE_RECOVERY, ROLE_WEIGHT, critical_lambda,
                                 parse_dist, support)
from sirkn.dynamics import (INFECTION, RECOVERY, EpidemicState, gillespie_run,
                            trajectory_rows)
from sirkn.environment import Environment
from sirkn.errors import DeadState, ParamViolation, SupportViolation
from sirkn.experiment import wilson_interval
from sirkn.percolation import percolation_final_size

from reference_stats import chi_square_two_sample

XI1 = parse_dist("constant:1", ROLE_RECOVERY)
RHO1 = parse_dist("constant:1", ROLE_WEIGHT)
# Two weight laws for tests parametrized over the acceptance of thinning:
# about half of the proposals are accepted under the first, 2% under the
# sparse one.
RHO_THINNING = "uniform:0:1"
RHO_SPARSE = "two_point:0.01:0.99:1"
LAW_IDS = ["thinning", "sparse"]


def final_size_distribution_symmetric(n: int, lam: float) -> dict:
    """Exact law of the final size for xi = rho = 1 by recursion over (s, i).

    From (s, i) the next event is an infection with probability
    s*(lam/n) / (s*(lam/n) + 1) (the infective count cancels), independent
    of history; absorption at i = 0 leaves r = n - s ever-infected vertices.
    """
    out = {}

    def recurse(s, i, prob):
        if i == 0:
            out[n - s] = out.get(n - s, 0.0) + prob
            return
        if s == 0:
            out[n] = out.get(n, 0.0) + prob
            return
        p_inf = s * (lam / n) / (s * (lam / n) + 1.0)
        recurse(s - 1, i + 1, prob * p_inf)
        recurse(s, i - 1, prob * (1.0 - p_inf))

    recurse(n - 1, 1, 1.0)
    return out


def test_oracle_is_a_distribution():
    dist = final_size_distribution_symmetric(3, 2.0)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    # hand-checked values for n=3, lam=2: P(1)=3/7, P(2)=36/175, P(3)=64/175
    assert dist[1] == pytest.approx(3.0 / 7.0, rel=1e-12)
    assert dist[2] == pytest.approx(36.0 / 175.0, rel=1e-12)
    assert dist[3] == pytest.approx(64.0 / 175.0, rel=1e-12)


def test_lambda_zero_single_recovery():
    env = Environment(100, 5, XI1, RHO1)
    res = gillespie_run(env, 0.0, seeding.stream(1))
    assert res.r_infinity == 1
    assert res.events_executed == 1
    assert not res.truncated


def test_n1_instant_absorption():
    env = Environment(1, 5, XI1, RHO1)
    res = gillespie_run(env, 2.0, seeding.stream(3))
    assert res.r_infinity == 1
    assert res.events_executed == 1


def test_two_vertex_race_probability():
    # P(r = 2) = (lam/n) / ((lam/n) + 1) = 1/2 at lam = 2, n = 2
    env = Environment(2, 17, XI1, RHO1)
    reps = 20_000
    hits = sum(gillespie_run(env, 2.0, seeding.stream(r)).r_infinity == 2
               for r in range(reps))
    lo, hi = wilson_interval(hits, reps, 0.99)
    assert lo <= 0.5 <= hi


def test_three_vertex_distribution_matches_enumeration():
    env = Environment(3, 8, XI1, RHO1)
    reps = 100_000
    samples = np.fromiter(
        (gillespie_run(env, 2.0, seeding.stream(r)).r_infinity
         for r in range(reps)), dtype=np.int64, count=reps)
    dist = final_size_distribution_symmetric(3, 2.0)
    observed = np.array([(samples == k).sum() for k in (1, 2, 3)], dtype=float)
    expected = np.array([dist[k] * reps for k in (1, 2, 3)])
    stat = float(((observed - expected) ** 2 / expected).sum())
    from scipy.stats import chi2
    assert chi2.sf(stat, 2) > 0.01


def test_final_state_absorbed_and_r_equals_removed():
    env = Environment(60, 4, parse_dist("two_point:1:0.5:2", ROLE_RECOVERY),
                      parse_dist("uniform:0:1", ROLE_WEIGHT))
    res = gillespie_run(env, 4.0, seeding.stream(2), record_trajectory=True)
    assert not res.truncated
    rows = trajectory_rows(res, 60)
    # absorbing state: no infectives left, removed count equals r_infinity
    assert rows[-1][4] == 0
    assert rows[-1][5] == res.r_infinity
    times = [row[0] for row in rows]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_monotone_removal_and_unit_steps():
    env = Environment(50, 12, XI1, RHO1)
    res = gillespie_run(env, 3.0, seeding.stream(9), record_trajectory=True)
    r_prev, i_prev = 0, 1
    for _, kind, _vertex in res.trajectory:
        if kind == RECOVERY:
            r_prev += 1
            i_prev -= 1
        else:
            i_prev += 1
        assert i_prev >= 0 and r_prev >= 0
    assert r_prev == res.r_infinity


def test_seed_determinism_bit_identical():
    env = Environment(40, 3, parse_dist("two_point:1:0.25:3", ROLE_RECOVERY),
                      parse_dist("uniform:0.2:0.9", ROLE_WEIGHT))
    a = gillespie_run(env, 2.5, seeding.stream(77), record_trajectory=True)
    b = gillespie_run(env, 2.5, seeding.stream(77), record_trajectory=True)
    assert a.r_infinity == b.r_infinity
    assert a.extinction_time == b.extinction_time
    assert a.trajectory == b.trajectory


def test_event_cap_flags_truncated():
    env = Environment(200, 6, XI1, RHO1)
    res = gillespie_run(env, 5.0, seeding.stream(1), max_events=3)
    assert res.truncated
    assert res.events_executed == 3
    assert res.r_infinity >= 1  # lower bound on ever-infected


def first_event(env, lam, rng):
    """(kind, vertex) of the first event of a fresh state, stepped once."""
    trajectory = []
    assert EpidemicState(env, lam=lam).run(rng, 1, trajectory) == 1
    _, kind, vertex = trajectory[0]
    return kind, vertex


def test_next_event_forced_recovery():
    env = Environment(1, 2, XI1, RHO1)
    state = EpidemicState(env, lam=2.0)
    trajectory = []
    assert state.run(seeding.stream(1), 1, trajectory) == 1
    [(t, kind, vertex)] = trajectory
    assert kind == RECOVERY and vertex == 0 and t > 0
    assert state.i_list == [] and state.time == t


def test_next_event_dead_state():
    env = Environment(2, 2, XI1, RHO1)
    state = EpidemicState(env, lam=2.0)
    state.run(seeding.stream(1), 3)  # n = 2 absorbs within 3 events
    assert state.i_list == []
    with pytest.raises(DeadState):
        state.run(seeding.stream(1), 1)


def test_next_event_two_vertex_infection_probability():
    env = Environment(2, 17, XI1, RHO1)
    rng = seeding.stream(99)
    reps = 20_000
    hits = sum(first_event(env, 2.0, rng)[0] == INFECTION for _ in range(reps))
    lo, hi = wilson_interval(hits, reps, 0.99)
    assert lo <= 0.5 <= hi


@pytest.mark.parametrize("rho_text", ["uniform:0.1:1", RHO_SPARSE], ids=LAW_IDS)
def test_next_event_three_vertex_frequencies_match_rates(rho_text):
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    env = Environment(3, 23, xi, rho)
    lam = 1.7
    # exact per-event probabilities from the environment itself
    rec_rate = env.xi_values()[0]
    w1, w2 = env.rho_at(1, 0), env.rho_at(2, 0)
    total = rec_rate + (lam / 3) * (w1 + w2)
    probs = {(RECOVERY, 0): rec_rate / total,
             (INFECTION, 1): (lam / 3) * w1 / total,
             (INFECTION, 2): (lam / 3) * w2 / total}
    rng = seeding.stream(5)
    reps = 100_000
    counts = {k: 0 for k in probs}
    for _ in range(reps):
        counts[first_event(env, lam, rng)] += 1
    for ev, p in probs.items():
        se = np.sqrt(p * (1 - p) / reps)
        assert abs(counts[ev] / reps - p) < 3 * se, ev


def test_recovery_pick_with_two_infectives_matches_rates():
    # After a first infection of v, I = {0, v} and S = {w}: the next event is
    # a recovery of 0 or of v, at rates xi(0) and xi(v), or the infection of
    # w at rate (lam/3)(rho(w, 0) + rho(w, v)).  Here xi(0) = 2 = xi_max and
    # xi(1) = xi(2) = 1, so the pick rejects half of its proposals of v.
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    env = Environment(3, 23, xi, parse_dist("uniform:0.1:1", ROLE_WEIGHT))
    lam = 1.7
    assert list(env.xi_values()) == [env.xi_max, 1.0, 1.0]
    rng = seeding.stream(7)
    counts = {1: {}, 2: {}}
    for _ in range(40_000):
        state = EpidemicState(env, lam=lam)
        trajectory = []
        state.run(rng, 1, trajectory)
        (_, kind, v), = trajectory
        if kind == INFECTION:
            state.run(rng, 1, trajectory)
            event = trajectory[1][1:]
            counts[v][event] = counts[v].get(event, 0) + 1
    xi_of = env.xi_values()
    for v, w in ((1, 2), (2, 1)):
        rates = {(RECOVERY, 0): xi_of[0], (RECOVERY, v): xi_of[v],
                 (INFECTION, w): (lam / 3) * (env.rho_at(w, 0) + env.rho_at(w, v))}
        total, reps = sum(rates.values()), sum(counts[v].values())
        assert set(counts[v]) <= set(rates) and reps > 2_000
        for ev, rate in rates.items():
            p = rate / total
            se = np.sqrt(p * (1 - p) / reps)
            assert abs(counts[v].get(ev, 0) / reps - p) < 3 * se, (v, ev)


@pytest.mark.parametrize("xi_text, rho_text", [
    ("shifted:uniform:0:1:+1", RHO_THINNING),
    ("shifted:uniform:0:1:+1", RHO_SPARSE),
    ("constant:1", "constant:1"),  # steps the constant-law pick
], ids=LAW_IDS + ["classic"])
def test_rate_consistency_along_trajectory(xi_text, rho_text):
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    env = Environment(200, 31, xi, rho)
    lam = 2.0 * critical_lambda(xi, rho)
    state = EpidemicState(env, lam=lam)
    rng = seeding.stream(314)
    xi_of = env.xi_values()
    peak = 1
    for _ in range(160):
        if not state.i_list:
            state = EpidemicState(env, lam=lam)  # restart: check live states only
        assert state.run(rng, 1) == 1
        peak = max(peak, len(state.i_list))
        rec = sum(xi_of[v] for v in state.i_list)
        assert state.total_recovery_rate == pytest.approx(rec, rel=1e-9, abs=1e-12)
        # S leads its list and I is its list: distinct vertices, disjoint, in range(n)
        s_set = set(state.s_list[: state.s_count])
        i_set = set(state.i_list)
        assert len(s_set) == state.s_count and len(i_set) == len(state.i_list)
        assert not s_set & i_set
        assert s_set | i_set <= set(range(env.n))
    assert peak > 1


def test_annealed_state_keeps_infection_times_and_no_labels(monkeypatch):
    # Runs stepped one event at a time on the unseeded environment, until
    # one infects more than 5: the state holds no S list, one infection time
    # per infective, each entering no earlier than those before it, and
    # never queries the environment's hashed values.
    def no_hash(*args):
        raise AssertionError("an annealed run queried a hashed value")

    for name in ("xi_values", "xi_block", "rho_lookup", "rho_pairs"):
        monkeypatch.setattr(Environment, name, no_hash)
    xi = parse_dist("shifted:uniform:0:1:+1", ROLE_RECOVERY)
    rho = parse_dist(RHO_THINNING, ROLE_WEIGHT)
    env = Environment(200, None, xi, rho)
    lam = 2.0 * critical_lambda(xi, rho)
    rng = seeding.stream(314)
    infected = 1
    while infected <= 5:
        state = EpidemicState(env, lam=lam)
        assert state.s_list is None and state.i_list == [0.0]
        infected, removed, latest = 1, 0, 0.0
        while state.i_list:
            assert state.run(rng, 1) == 1
            if env.n - state.s_count > infected:  # an infection, at the state's time
                infected += 1
                assert state.i_list[-1] == state.time >= latest
                latest = state.time
            else:
                removed += 1
            assert len(state.i_list) == infected - removed
            assert state.s_list is None and max(state.i_list, default=0.0) <= latest
    with pytest.raises(ParamViolation, match="trajectory"):
        gillespie_run(env, lam, rng, record_trajectory=True)
    with pytest.raises(ParamViolation, match="trajectory"):
        EpidemicState(env, lam=lam).run(rng, 1, [])


def test_annealed_runs_allocate_nothing_n_long():
    # At n = 1e6 a list of the vertices takes 8 MB; subcritical runs reach
    # a few of them.
    import tracemalloc

    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist(RHO_THINNING, ROLE_WEIGHT)
    env, rng = Environment(10 ** 6, None, xi, rho), seeding.stream(3)
    lam = 0.5 * critical_lambda(xi, rho)
    tracemalloc.start()
    try:
        sizes = [gillespie_run(env, lam, rng).r_infinity for _ in range(20)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and max(sizes) < 1000


@pytest.mark.parametrize("rho_text", [RHO_THINNING, RHO_SPARSE], ids=LAW_IDS)
def test_dynamic_matches_percolation_distribution(rho_text):
    # the percolation engine is the exact static representation of the law
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    lam = 2.0 * critical_lambda(xi, rho)
    env_seed = 55
    reps = 10_000
    dyn = np.empty(reps, dtype=np.int64)
    perc = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        env = Environment(10, seeding.derive_key(env_seed, 0, r), xi, rho)
        dyn[r] = gillespie_run(env, lam, seeding.stream(r)).r_infinity
        env = Environment(10, seeding.derive_key(env_seed, 1, r), xi, rho)
        perc[r] = percolation_final_size(env, lam, seeding.stream(r)).r_infinity
    _, _, p = chi_square_two_sample(dyn, perc)
    assert p > 0.01


# Law pairs whose annealed runs thin recoveries, infections or both
KS_LAWS = [("two_point:1:0.5:2", RHO_THINNING), ("two_point:1:0.9:10", "constant:1"),
           ("uniform:1:3", "two_point:0.25:0.5:1")]
KS_CELLS = [(xi, rho, n) for xi, rho in KS_LAWS for n in (10, 30)]


@pytest.mark.parametrize("xi_text, rho_text, n", KS_CELLS)
def test_annealed_extinction_times_match_quenched_runs_on_fresh_environments(
        xi_text, rho_text, n):
    # The annealed hazards integrate the environment out; quenched runs on
    # a fresh keyed environment each draw it.  Extinction times carry the
    # whole timing of a run, which final sizes do not.  One family-wise
    # level over the cells.
    from scipy.stats import ks_2samp

    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    lam = 2.0 * critical_lambda(xi, rho)
    reps = 3_000
    annealed, rng = Environment(n, None, xi, rho), seeding.stream(8101)
    times = [gillespie_run(annealed, lam, rng).extinction_time for _ in range(reps)]
    rng = seeding.stream(8102)
    keyed = [gillespie_run(Environment(n, seeding.derive_key(8103, r), xi, rho), lam,
                           rng).extinction_time for r in range(reps)]
    assert ks_2samp(times, keyed).pvalue > 0.01 / len(KS_CELLS)


def test_engine_makes_no_row_queries(monkeypatch):
    # Every weight law thins, with one scalar weight lookup per proposal, so
    # even a sparse law at large n makes no vectorized edge query.
    def no_rows(*args):
        raise AssertionError("the engine queried a row of weights")

    monkeypatch.setattr(Environment, "rho_pairs", no_rows)
    monkeypatch.setattr(Environment, "rho_full_row", no_rows)
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    rho = parse_dist(RHO_SPARSE, ROLE_WEIGHT)
    lam = 2.0 * critical_lambda(xi, rho)
    res = gillespie_run(Environment(3000, 14, xi, rho), lam, seeding.stream(7),
                        max_events=50)
    assert res.truncated and res.events_executed == 50


def test_envelope_ignores_atoms_without_mass():
    # two_point:0.1:1:1 puts all its mass at 0.1.  support() still reaches
    # 1.0, so validation is unchanged, but the envelope is the exact 0.1 and
    # thinning accepts every proposal.
    rho = parse_dist("two_point:0.1:1:1", ROLE_WEIGHT)
    assert support(rho) == (0.1, 1.0)
    assert Environment(20, 4, XI1, rho).rho_max == 0.1
    with pytest.raises(SupportViolation):
        parse_dist("two_point:0.5:1:2", ROLE_WEIGHT)


def test_run_without_a_proposal_builds_no_weight_lookup(monkeypatch):
    # The weight lookup is fetched at a run's first proposal, so a run whose
    # only event is the first recovery builds none.
    def no_lookup(*args):
        raise AssertionError("a run without proposals built the weight lookup")

    monkeypatch.setattr(Environment, "rho_lookup", no_lookup)
    rho = parse_dist(RHO_THINNING, ROLE_WEIGHT)
    for seed in range(20):
        res = gillespie_run(Environment(1000, seed, XI1, rho), 1e-12, seeding.stream(seed))
        assert (res.r_infinity, res.events_executed) == (1, 1)


def test_constant_weight_scales_out_of_thinning(monkeypatch):
    # At the tight envelope rho_max = rho, a constant law accepts every
    # proposal without a weight lookup or an acceptance draw, so halving rho
    # and doubling lambda replays the classic run exactly.
    def no_lookup(*args):
        raise AssertionError("constant law looked up a weight")

    monkeypatch.setattr(Environment, "rho_lookup", no_lookup)
    half = parse_dist("constant:0.5", ROLE_WEIGHT)
    for seed in range(20):
        a = gillespie_run(Environment(30, 1, XI1, RHO1), 3.0, seeding.stream(seed),
                          record_trajectory=True)
        b = gillespie_run(Environment(30, 1, XI1, half), 6.0, seeding.stream(seed),
                          record_trajectory=True)
        assert a.trajectory == b.trajectory


# Fixed-seed sample values of the dynamic engine, one per code path: thinning
# with a non-constant xi, the classic constant law, a sparse law that rejects
# about 98% of its proposals, and a truncated sparse run.  A change to any
# draw, its order or a float expression of the engine shows here as a changed
# value.  Each run_seed is the first, counting up from the one pinned before,
# whose run is a major outbreak (the truncated one: whose run reaches its
# cap), so that every case exercises its path.
_GOLDEN_RUNS = {
    "thinning": (("shifted:uniform:0:1:+1", "uniform:0:1", 300, 11, 2.0, 2, None),
                 (228, 455, "0x1.87a8e65b08632p+2",
                  "ca28b7a26f2ddc5031be69b86a63c906bf605027cadea7ecad2ae8b90a9ec614")),
    "classic": (("constant:1", "constant:1", 300, 12, 3.0, 1, None),
                (268, 535, "0x1.3f5ce25211b2bp+3",
                 "b21ee54f86256c6e7c7cdd1f7ba92f1aaf584f1dc0f31ed624db23efdb8b0ea5")),
    "sparse": (("two_point:1:0.5:2", RHO_SPARSE, 200, 13, 2.0, 10, None),
               (143, 285, "0x1.95f2e3d7ef0f3p+3",
                "efa7175e18284db6c3e2b35bbb3d1f18a9a5e12b182213da666f80e299b6b13d")),
    "truncated": (("two_point:1:0.5:2", RHO_SPARSE, 3000, 14, 2.0, 7, 400),
                  (265, 400, "0x1.045bba3f2da2bp+2",
                   "4a6f326d3ecaf1c6e9b67c1cb555e1af5b2f66536a4e97ad869641e4d0d0ad63")),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_RUNS))
def test_golden_runs_are_byte_identical(case):
    (xi_text, rho_text, n, env_seed, lam_units, run_seed, cap), expected = _GOLDEN_RUNS[case]
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    lam = lam_units * critical_lambda(xi, rho)
    res = gillespie_run(Environment(n, env_seed, xi, rho),
                        lam, seeding.stream(run_seed), max_events=cap,
                        record_trajectory=True)
    text = "\n".join(f"{t.hex()} {kind} {v}" for t, kind, v in res.trajectory)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (res.r_infinity, res.events_executed, res.extinction_time.hex(),
            digest) == expected
    assert res.truncated is (cap is not None)


def test_invalid_params_rejected():
    env = Environment(5, 0, XI1, RHO1)
    with pytest.raises(ParamViolation):
        gillespie_run(env, -1.0, seeding.stream(0))
    with pytest.raises(ParamViolation):
        gillespie_run(env, 1.0, seeding.stream(0), max_events=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 40),
       st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.0, max_value=6.0))
def test_run_invariants_property(seed, n, lam):
    env = Environment(n, seed, XI1, parse_dist("uniform:0:1", ROLE_WEIGHT))
    res = gillespie_run(env, lam, seeding.stream(seed ^ 1))
    assert 1 <= res.r_infinity <= n
    assert res.extinction_time > 0
    assert res.events_executed == 2 * res.r_infinity - 1  # r recoveries + r-1 infections
