"""Exact continuous-time simulation of the epidemic on the complete graph.

The process starts from one infective at vertex 0.  An infective i recovers
at rate xi(i); a susceptible i is infected at rate (lam/n) * sum of rho(i, j)
over infective j.  `EpidemicState.run` is the one event loop: it holds the
state in local variables and executes events until absorption or a cap.
An event moves the last entry of the list of S or of I into the place it
picks; annealed runs keep no list of S.  `gillespie_run(env, lam,
rng)`, called like `percolation.percolation_final_size`, runs it once on the
generator it is handed, deriving no key; runs handed one generator in turn
draw successive stretches of its stream.  Tests step the loop one event at
a time.

On a keyed environment infections are selected by thinning (Lewis &
Shedler) for every weight law: a uniform pair (i, j) in S x I is proposed at
the envelope rate (lam/n) * rho_max * |S| * |I| and accepted with
probability rho(i, j) / rho_max, one call of `Environment.rho_lookup`;
rho_max is the largest weight the law puts mass on (`Environment.rho_max`).
A recovery draws uniform infectives until one, v, is kept with probability
xi(v) / xi_max (`Environment.xi_max`).

On the annealed environment (seed None) no value is drawn.  Each edge
enters at most one arc, from whichever end was infected first, so given the
history an infective of age a recovers at rate h_xi(a) and infects each
susceptible at rate (lam/n) h_rho(lam a / n), h(s) = E[X e^{-sX}] /
E[e^{-sX}] (`distributions.hazard`; Sellke 1983).  h falls from h(0) = E[X],
so both kinds of event are proposed at E[xi] |I| and (lam/n) E[rho] |S| |I|
by a uniform infective and kept with probability h(age) / E[X].  The state
keeps infection times and no vertex label, so it holds nothing n-long.

Constant laws accept without an acceptance draw, so they draw alike on both
environments.  Exponentials and uniforms come from the run's generator in
blocks of _BLOCK, each used once, and a run leaves the rest of its last
blocks unused: the block size changes the samples, not their law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .distributions import hazard
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
    """State (S_t, I_t, R_t) of one run.

    On a keyed environment S is the first s_count entries of s_list, i_list
    holds I and total_recovery_rate its summed xi, within relative 1e-9 of a
    fresh sum; removed vertices never leave R.  On the annealed environment
    no vertex has a label: s_list is None, i_list holds infection times and
    total_recovery_rate is E[xi] |I|, the rate recoveries are proposed at.
    """

    __slots__ = ("env", "lam", "s_list", "s_count", "i_list", "total_recovery_rate", "time")

    def __init__(self, env: Environment, lam: float):
        check_lambda(lam)
        self.env = env
        self.lam = float(lam)
        self.s_count = env.n - 1
        self.time = 0.0
        if env.seed is None:
            self.s_list, self.i_list = None, [0.0]
            self.total_recovery_rate = hazard(env.xi_spec)(0.0)
        else:
            self.s_list, self.i_list = list(range(1, env.n)), [0]
            self.total_recovery_rate = env.xi_values()[0]

    def run(self, rng: np.random.Generator, max_events: int,
            trajectory: Optional[list] = None) -> int:
        """Execute events until no infective is left or max_events have run.

        Each event advances the clock by an exponential with the total rate
        and is an infection or a recovery with probability proportional to
        its rate; thinning loops its rejected proposals inside one event.
        Appends (time, kind, vertex) per event to `trajectory` when given,
        which an annealed state, without labels, rejects.  Returns the
        number of events executed.
        """
        s_list, i_list = self.s_list, self.i_list
        if not i_list:
            raise DeadState("no infectives: total rate is zero")
        annealed = s_list is None
        if annealed and trajectory is not None:
            raise ParamViolation("an annealed run has no vertex labels to record a "
                                 "trajectory with; key the environment with a seed")
        env, lam_n = self.env, self.lam / self.env.n
        xi_const, rho_const = env.xi_const, env.rho_const
        if annealed:  # thinned at the hazards' tops, the laws' means
            h_xi, rho = hazard(env.xi_spec), hazard(env.rho_spec)
            xi_top, rho_top = h_xi(0.0), rho(0.0)
        else:  # rho, the weight lookup, is built at the run's first proposal
            xi, xi_top, rho_top, rho = env.xi_values(), env.xi_max, env.rho_max, None
        s_count, i_count = self.s_count, len(i_list)
        rec, time = self.total_recovery_rate, self.time
        exponential = _variates(rng.standard_exponential, _BLOCK).__next__
        uniform = _variates(rng.random, _BLOCK).__next__
        envelope = lam_n * rho_top
        events = 0
        while i_count and events < max_events:
            elapsed = 0.0
            while True:
                total = rec + envelope * s_count * i_count
                elapsed += exponential() / total
                kind = RECOVERY if uniform() * total < rec else INFECTION
                if kind is RECOVERY:  # of the infective at place k of i_list
                    k = int(uniform() * i_count) if i_count > 1 else 0
                    if xi_const is None:
                        if annealed:  # kept with probability h_xi(age) / E[xi]
                            if uniform() * xi_top >= h_xi(time + elapsed - i_list[k]):
                                continue
                        elif i_count > 1:  # kept with probability xi(v) / xi_max
                            while uniform() * xi_top >= xi[i_list[k]]:
                                k = int(uniform() * i_count)
                    break
                if rho_const is not None:  # k: the infected one's place in s_list
                    k = int(uniform() * s_count)
                    break
                if rho is None:
                    rho = env.rho_lookup()
                # one uniform picks the proposed pair (i, j) in S x I, kept with
                # probability rho(i, j) / rho_max or h_rho(lam age(j) / n) / E[rho]
                k, m = divmod(int(uniform() * (s_count * i_count)), i_count)
                if uniform() * rho_top < (rho(lam_n * (time + elapsed - i_list[m])) if annealed
                                          else rho(s_list[k], i_list[m])):
                    break
                # rejected proposal: time already advanced, redraw
            time += elapsed
            if kind is INFECTION:
                s_count -= 1
                i_count += 1
                if annealed:
                    i_list.append(time)
                else:
                    v = s_list[k]
                    s_list[k] = s_list[s_count]
                    i_list.append(v)
                    rec += xi[v]
            else:
                i_count -= 1
                v = i_list[k]
                i_list[k] = i_list[i_count]
                i_list.pop()
                if not annealed:
                    rec = rec - xi[v] if i_count else 0.0
            if annealed:
                rec = xi_top * i_count
            events += 1
            if trajectory is not None:
                trajectory.append((time, kind, v))
        self.s_count, self.total_recovery_rate, self.time = s_count, rec, time
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
        r_infinity=env.n - state.s_count,
        extinction_time=state.time,
        events_executed=events,
        engine="dynamic",
        env_seed=env.seed,
        truncated=bool(state.i_list),
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
