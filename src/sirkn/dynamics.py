"""Exact continuous-time simulation of the epidemic on the complete graph.

The process starts from one infective at vertex 0.  An infective i recovers
at rate xi(i); a susceptible i is infected at rate (lam/n) * sum of rho(i, j)
over infective j.  `EpidemicState.run` is the one event loop: it holds the
state in local variables and executes events until absorption or a cap.
Each event picks its vertex by a position in the list of S or of I and
moves the list's last entry into that place.  `gillespie_run(env, lam,
rng)`, called like `percolation.percolation_final_size`, runs it once on the
generator it is handed, deriving no key; runs handed one generator in turn
draw successive stretches of its stream.  Tests step the loop one event at
a time.

Infections are selected by thinning (Lewis & Shedler) for every weight law:
a uniform pair (i, j) in S x I is proposed at the envelope rate
(lam/n) * rho_max * |S| * |I| and accepted with probability
rho(i, j) / rho_max, one call of `Environment.rho_lookup`; rho_max is the
largest weight the law puts mass on (`Environment.rho_max`).  Constant laws
accept every proposal and never look up a weight.

A recovery draws uniform infectives until one, v, is kept with probability
xi(v) / xi_max (`Environment.xi_max`); constant xi laws keep the first one
without an acceptance draw.  Exponentials and uniforms come from the run's
generator in blocks of _BLOCK, each used once, and a run leaves the rest of
its last blocks unused: the block size changes the samples, not their law.

On the annealed environment (built with seed None) xi and rho are i.i.d.,
so a run reveals each value from its own `uniform` iterator the first time
it needs it, through the law's quantile form `below if u < cut else
a + w * u` (`distributions.quantile_form`), and keeps it for the rest of the
run.  The draw order: xi(0) is the first uniform of the state's first `run`;
xi(v) is the uniform right after v's infection is selected; rho(i, j), with
i susceptible and j infective, is the uniform between the proposal of the
pair and its acceptance test, at the pair's first proposal only, and is
stored under the key i * n + j.  An edge is only ever proposed in that one
orientation, since its infective end was infected first, so a re-proposal
reads the stored weight.  Constant laws reveal nothing, so their samples
are those of any seeded environment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .distributions import quantile_form
from .environment import Environment
from .errors import DeadState, ParamViolation, check_lambda

RECOVERY = "recovery"
INFECTION = "infection"

_BLOCK = 32  # variates per generator call, chosen by timing (CHANGES.md)


def _variates(draw, size: int):
    """Endless iterator over the variates of draw(size), one block at a time."""
    return itertools.chain.from_iterable(
        map(np.ndarray.tolist, map(draw, itertools.repeat(size))))


@dataclass
class RunResult:
    """Summary of one run of either engine; trajectory rows are (time, event,
    vertex).  A percolation run has no clock and no events (None) and counts
    its clock and arc draws instead."""

    r_infinity: int
    extinction_time: Optional[float]
    events_executed: Optional[int]
    engine: str
    env_seed: Optional[int]  # None on the annealed environment
    truncated: bool = False
    trajectory: Optional[List[Tuple[float, str, int]]] = None
    t_draws: Optional[int] = None
    u_draws: Optional[int] = None

    def to_dict(self) -> dict:
        """The keys of run.json but `run_seed`, which the CLI adds: a run
        keeps no record of the generator it drew from."""
        return {key: getattr(self, key) for key in (
            "r_infinity", "extinction_time", "events_executed", "engine",
            "env_seed", "truncated")}


class EpidemicState:
    """State (S_t, I_t, R_t) of one run plus its total recovery rate.

    S and I are the first s_count entries of s_list and the first i_count
    entries of i_list; R is every other vertex, and removed vertices never
    leave.  The lists are Python lists; xi is the environment's read-only
    tuple of recovery rates, or on the annealed environment the dict of the
    rates revealed so far, with rho_seen the dict of revealed weights (None
    when nothing is revealed).  The annealed state's total recovery rate is
    0 until its first `run` reveals xi(0).  The incrementally maintained
    total recovery rate must agree with a from-scratch sum to relative 1e-9.
    """

    __slots__ = ("env", "lam", "n", "xi", "rho_seen", "s_list", "s_count", "i_list",
                 "i_count", "total_recovery_rate", "time")

    def __init__(self, env: Environment, lam: float):
        check_lambda(lam)
        n = env.n
        self.env = env
        self.lam = float(lam)
        self.n = n
        self.s_list = list(range(1, n))
        self.s_count = n - 1
        self.i_list = [0] * n
        self.i_count = 1
        annealed = env.seed is None
        self.xi = {} if annealed and env.xi_const is None else env.xi_values()
        self.rho_seen = {} if annealed and env.rho_const is None else None
        self.total_recovery_rate = self.xi[0] if self.xi else 0.0
        self.time = 0.0

    def run(self, rng: np.random.Generator, max_events: int,
            trajectory: Optional[list] = None) -> int:
        """Execute events until no infective is left or max_events have run.

        Each event advances the clock by an exponential with the total rate
        and is a recovery of i in I with probability xi(i)/total, else an
        infection of i in S with probability (lam/n) sum_{j in I} rho(i, j) /
        total; thinning loops its rejected proposals inside one event, so it
        realizes this law.  Appends (time, kind, vertex) per event to
        `trajectory` when given, and returns the number of events executed.
        The state lives in local variables while the loop runs and is
        written back before returning.
        """
        if self.i_count == 0:
            raise DeadState("no infectives: total rate is zero")
        env, n = self.env, self.n
        xi, xi_max, xi_varies = self.xi, env.xi_max, env.xi_const is None
        s_list, s_count = self.s_list, self.s_count
        i_list, i_count = self.i_list, self.i_count
        rec, time = self.total_recovery_rate, self.time
        exponential = _variates(rng.standard_exponential, _BLOCK).__next__
        uniform = _variates(rng.random, _BLOCK).__next__
        rho, rho_const, rho_max = None, env.rho_const, env.rho_max
        seen, reveal_xi = self.rho_seen, type(xi) is dict
        if reveal_xi or seen is not None:  # the annealed environment's quantile forms
            xi_cut, xi_below, xi_a, xi_w = quantile_form(env.xi_spec)
            cut, below, a, w = quantile_form(env.rho_spec)
        if reveal_xi and not xi:  # vertex 0, infective from the start
            u = uniform()
            xi[0] = rec = xi_below if u < xi_cut else xi_a + xi_w * u
        envelope = self.lam / n * rho_max
        events = 0
        while i_count and events < max_events:
            elapsed = 0.0
            while True:
                total = rec + envelope * s_count * i_count
                elapsed += exponential() / total
                if uniform() * total < rec:
                    k = -1  # a recovery; else k is the infected one's place in s_list
                    break
                if rho is None:
                    if rho_const is not None:
                        k = int(uniform() * s_count)
                        break
                    # once, at the run's first proposal
                    rho = env.rho_lookup() if seen is None else seen.get
                # one uniform picks the proposed pair (i, j) in S x I
                k, m = divmod(int(uniform() * (s_count * i_count)), i_count)
                if seen is None:
                    weight = rho(s_list[k], i_list[m])
                else:
                    key = s_list[k] * n + i_list[m]
                    weight = rho(key)
                    if weight is None:  # the pair's first proposal reveals its weight
                        u = uniform()
                        weight = seen[key] = below if u < cut else a + w * u
                if uniform() * rho_max < weight:
                    break
                # rejected proposal: time already advanced, redraw
            time += elapsed
            if k >= 0:
                v = s_list[k]
                s_count -= 1
                s_list[k] = s_list[s_count]
                i_list[i_count] = v
                i_count += 1
                if reveal_xi:
                    u = uniform()
                    xi[v] = xi_below if u < xi_cut else xi_a + xi_w * u
                rec += xi[v]
                kind = INFECTION
            else:
                k = 0
                if i_count > 1:
                    # a uniform infective, kept with probability xi(v) / xi_max
                    k = int(uniform() * i_count)
                    while xi_varies and uniform() * xi_max >= xi[i_list[k]]:
                        k = int(uniform() * i_count)
                v = i_list[k]
                i_count -= 1
                i_list[k] = i_list[i_count]
                rec -= xi[v]
                if i_count == 0:
                    rec = 0.0
                kind = RECOVERY
            events += 1
            if trajectory is not None:
                trajectory.append((time, kind, v))
        self.s_count, self.i_count = s_count, i_count
        self.total_recovery_rate, self.time = rec, time
        return events


def gillespie_run(env: Environment, lam: float, rng: np.random.Generator,
                  max_events: Optional[int] = None,
                  record_trajectory: bool = False) -> RunResult:
    """Simulate with the draws of rng to absorption (I empty) or the event
    cap, max_events (default 50 n).

    r_infinity counts ever-infected vertices, which equals n - |S_final|
    because S only shrinks and R_0 is empty.  Truncated runs therefore report
    a lower bound.  With record_trajectory the result keeps one
    (time, event, vertex) row per event.
    """
    if max_events is None:
        max_events = 50 * env.n
    if max_events < 1:
        raise ParamViolation(f"max_events must satisfy max_events >= 1 (got {max_events})")

    state = EpidemicState(env, lam)
    trajectory = [] if record_trajectory else None
    events = state.run(rng, max_events, trajectory)
    return RunResult(
        r_infinity=state.n - state.s_count,
        extinction_time=state.time,
        events_executed=events,
        engine="dynamic",
        env_seed=env.seed,
        truncated=state.i_count > 0,
        trajectory=trajectory,
    )


def trajectory_rows(result: RunResult, n: int):
    """Expand a recorded trajectory into (time, event, vertex, s, i, r) rows."""
    if result.trajectory is None:
        raise ParamViolation("run was not recorded with record_trajectory=True")
    s, i, r = n - 1, 1, 0
    rows = []
    for t, kind, vertex in result.trajectory:
        if kind == INFECTION:
            s -= 1
            i += 1
        else:
            i -= 1
            r += 1
        rows.append((t, kind, vertex, s, i, r))
    return rows
