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
    res = gillespie_run(env, 0.0, 1)
    assert res.r_infinity == 1
    assert res.events_executed == 1
    assert not res.truncated


def test_n1_instant_absorption():
    env = Environment(1, 5, XI1, RHO1)
    res = gillespie_run(env, 2.0, 3)
    assert res.r_infinity == 1
    assert res.events_executed == 1


def test_two_vertex_race_probability():
    # P(r = 2) = (lam/n) / ((lam/n) + 1) = 1/2 at lam = 2, n = 2
    env = Environment(2, 17, XI1, RHO1)
    reps = 20_000
    hits = sum(gillespie_run(env, 2.0, r).r_infinity == 2
               for r in range(reps))
    lo, hi = wilson_interval(hits, reps, 0.99)
    assert lo <= 0.5 <= hi


def test_three_vertex_distribution_matches_enumeration():
    env = Environment(3, 8, XI1, RHO1)
    reps = 100_000
    samples = np.fromiter(
        (gillespie_run(env, 2.0, r).r_infinity
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
    res = gillespie_run(env, 4.0, 2, record_trajectory=True)
    assert not res.truncated
    rows = trajectory_rows(res, 60)
    # absorbing state: no infectives left, removed count equals r_infinity
    assert rows[-1][4] == 0
    assert rows[-1][5] == res.r_infinity
    times = [row[0] for row in rows]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_monotone_removal_and_unit_steps():
    env = Environment(50, 12, XI1, RHO1)
    res = gillespie_run(env, 3.0, 9, record_trajectory=True)
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
    a = gillespie_run(env, 2.5, 77, record_trajectory=True)
    b = gillespie_run(env, 2.5, 77, record_trajectory=True)
    assert a.r_infinity == b.r_infinity
    assert a.extinction_time == b.extinction_time
    assert a.trajectory == b.trajectory


def test_event_cap_flags_truncated():
    env = Environment(200, 6, XI1, RHO1)
    res = gillespie_run(env, 5.0, 1, max_events=3)
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
    assert state.i_count == 0 and state.time == t


def test_next_event_dead_state():
    env = Environment(2, 2, XI1, RHO1)
    state = EpidemicState(env, lam=2.0)
    state.run(seeding.stream(1), 3)  # n = 2 absorbs within 3 events
    assert state.i_count == 0
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


@pytest.mark.parametrize("rho_text", [RHO_THINNING, RHO_SPARSE], ids=LAW_IDS)
def test_rate_consistency_along_trajectory(rho_text):
    xi = parse_dist("shifted:uniform:0:1:+1", ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    env = Environment(200, 31, xi, rho)
    lam = 2.0 * critical_lambda(xi, rho)
    state = EpidemicState(env, lam=lam)
    rng = seeding.stream(314)
    peak = 1
    for _ in range(160):
        if state.i_count == 0:
            state = EpidemicState(env, lam=lam)  # restart: check live states only
        assert state.run(rng, 1) == 1
        peak = max(peak, state.i_count)
        rec = float(np.asarray(state.xi)[state.i_list[: state.i_count]].sum())
        assert state.total_recovery_rate == pytest.approx(rec, rel=1e-9, abs=1e-12)
        # s_pos/i_pos index the packed lists and partition the vertex set
        s_pos, i_pos = np.asarray(state.s_pos), np.asarray(state.i_pos)
        for lst, pos, count in ((state.s_list, s_pos, state.s_count),
                                (state.i_list, i_pos, state.i_count)):
            np.testing.assert_array_equal(pos[lst[:count]], np.arange(count))
            assert (pos >= 0).sum() == count
        assert not ((s_pos >= 0) & (i_pos >= 0)).any()
    assert peak > 1


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
        dyn[r] = gillespie_run(env, lam, r).r_infinity
        env = Environment(10, seeding.derive_key(env_seed, 1, r), xi, rho)
        perc[r] = percolation_final_size(env, lam, r).r_infinity
    _, _, p = chi_square_two_sample(dyn, perc)
    assert p > 0.01


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
    res = gillespie_run(Environment(3000, 14, xi, rho), lam, 7, max_events=50)
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
    # The lookup and its O(n) key list are fetched at a run's first
    # proposal, so a run whose only event is the first recovery builds none.
    def no_lookup(*args):
        raise AssertionError("a run without proposals built the weight lookup")

    monkeypatch.setattr(Environment, "rho_lookup", no_lookup)
    rho = parse_dist(RHO_THINNING, ROLE_WEIGHT)
    for seed in range(20):
        res = gillespie_run(Environment(1000, seed, XI1, rho), 1e-12, seed)
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
        a = gillespie_run(Environment(30, 1, XI1, RHO1), 3.0, seed, record_trajectory=True)
        b = gillespie_run(Environment(30, 1, XI1, half), 6.0, seed, record_trajectory=True)
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
                 (210, 419, "0x1.2f144478a8419p+3",
                  "b8c4ae54f082ca09276d5ad3ca37ee1a90d3b8dfa32d8f44a7052898f5d91fb7")),
    "classic": (("constant:1", "constant:1", 300, 12, 3.0, 1, None),
                (268, 535, "0x1.3f5ce25211b2bp+3",
                 "b21ee54f86256c6e7c7cdd1f7ba92f1aaf584f1dc0f31ed624db23efdb8b0ea5")),
    "sparse": (("two_point:1:0.5:2", RHO_SPARSE, 200, 13, 2.0, 7, None),
               (128, 255, "0x1.6ed410a878bb8p+3",
                "3c04e3e645e8bcdb3c4f8831d6246750e68e7b180a5a52d79c8b6995714de78e")),
    "truncated": (("two_point:1:0.5:2", RHO_SPARSE, 3000, 14, 2.0, 7, 400),
                  (245, 400, "0x1.20f80a3d507f2p+2",
                   "1f8256ab3044aaefec0703822ec3b9740a07dcabfc9f178d8d189bd354ffe09c")),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_RUNS))
def test_golden_runs_are_byte_identical(case):
    (xi_text, rho_text, n, env_seed, lam_units, run_seed, cap), expected = _GOLDEN_RUNS[case]
    xi = parse_dist(xi_text, ROLE_RECOVERY)
    rho = parse_dist(rho_text, ROLE_WEIGHT)
    lam = lam_units * critical_lambda(xi, rho)
    res = gillespie_run(Environment(n, env_seed, xi, rho),
                        lam, run_seed, max_events=cap, record_trajectory=True)
    text = "\n".join(f"{t.hex()} {kind} {v}" for t, kind, v in res.trajectory)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (res.r_infinity, res.events_executed, res.extinction_time.hex(),
            digest) == expected
    assert res.truncated is (cap is not None)


def test_invalid_params_rejected():
    env = Environment(5, 0, XI1, RHO1)
    with pytest.raises(ParamViolation):
        gillespie_run(env, -1.0, 0)
    with pytest.raises(ParamViolation):
        gillespie_run(env, 1.0, 0, max_events=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 40),
       st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.0, max_value=6.0))
def test_run_invariants_property(seed, n, lam):
    env = Environment(n, seed, XI1, parse_dist("uniform:0:1", ROLE_WEIGHT))
    res = gillespie_run(env, lam, seed ^ 1)
    assert 1 <= res.r_infinity <= n
    assert res.extinction_time > 0
    assert res.events_executed == 2 * res.r_infinity - 1  # r recoveries + r-1 infections
