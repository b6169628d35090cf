"""Exact continuous-time simulation of the epidemic on the complete graph.

The process starts from one infective at vertex 0.  An infective i recovers
at rate xi(i); a susceptible i is infected at rate (lam/n) * sum of rho(i, j)
over infective j.  `EpidemicState.run` is the one event loop: it holds the
state in local variables (Python lists for the packed vertex sets) and
executes events until absorption or a cap.  `gillespie_run(env, lam,
run_seed)`, called like `percolation.percolation_final_size`, runs it once;
tests step it one event at a time.

Infections are selected by thinning (Lewis & Shedler) for every weight law:
a uniform pair (i, j) in S x I is proposed at the envelope rate
(lam/n) * rho_max * |S| * |I| and accepted with probability
rho(i, j) / rho_max, one call of `Environment.rho_lookup`; rho_max is the
largest weight the law puts mass on (`Environment.rho_max`).  Constant laws
accept every proposal and never look up a weight.

A recovery draws uniform infectives until one, v, is kept with probability
xi(v) / xi_max (`Environment.xi_max`); constant xi laws keep the first one
without an acceptance draw.  Exponentials and uniforms come from the run's
stream in blocks of _BLOCK, each used once: the block size changes the
samples, not their law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import seeding
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
    """Summary of one run; trajectory rows are (time, event, vertex)."""

    r_infinity: int
    extinction_time: float
    events_executed: int
    engine: str
    env_seed: int
    run_seed: int
    truncated: bool = False
    trajectory: Optional[List[Tuple[float, str, int]]] = None

    def to_dict(self) -> dict:
        return {
            "r_infinity": int(self.r_infinity),
            "extinction_time": float(self.extinction_time),
            "events_executed": int(self.events_executed),
            "engine": self.engine,
            "env_seed": int(self.env_seed),
            "run_seed": int(self.run_seed),
            "truncated": bool(self.truncated),
        }


class EpidemicState:
    """State (S_t, I_t, R_t) of one run plus its total recovery rate.

    A vertex is susceptible iff s_pos >= 0, infective iff i_pos >= 0 and
    removed otherwise; removed vertices never leave.  The packed lists and
    positions are Python lists; xi is the environment's read-only tuple of
    recovery rates.  The incrementally maintained total recovery rate must
    agree with a from-scratch sum to relative 1e-9.
    """

    __slots__ = ("env", "lam", "n", "xi",
                 "s_list", "s_pos", "s_count", "i_list", "i_pos", "i_count",
                 "total_recovery_rate", "time")

    def __init__(self, env: Environment, lam: float):
        check_lambda(lam)
        n = env.n
        self.env = env
        self.lam = float(lam)
        self.n = n
        # Packed vertex lists with positional index for O(1) swap-removal;
        # both share one set of int objects.
        ids = list(range(n))
        self.s_list = ids[1:]
        self.s_pos = [-1] + ids[:-1]  # s_pos[v] = v - 1, vertex 0 is infective
        self.s_count = n - 1
        self.i_list = [0] * n
        self.i_pos = [-1] * n
        self.i_pos[0] = 0
        self.i_count = 1
        self.xi = env.xi_values()
        self.total_recovery_rate = self.xi[0]
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
        env = self.env
        xi, xi_max, xi_varies = self.xi, env.xi_max, env.xi_const is None
        s_list, s_pos, s_count = self.s_list, self.s_pos, self.s_count
        i_list, i_pos, i_count = self.i_list, self.i_pos, self.i_count
        rec, time = self.total_recovery_rate, self.time
        exponential = _variates(rng.standard_exponential, _BLOCK).__next__
        uniform = _variates(rng.random, _BLOCK).__next__
        rho, rho_const, rho_max = None, env.rho_const, env.rho_max
        envelope = self.lam / self.n * rho_max
        events = 0
        while i_count and events < max_events:
            v = -1  # the infected susceptible, if the event is an infection
            elapsed = 0.0
            while True:
                total = rec + envelope * s_count * i_count
                elapsed += exponential() / total
                if uniform() * total < rec:
                    break
                if rho is None:
                    if rho_const is not None:
                        v = s_list[int(uniform() * s_count)]
                        break
                    rho = env.rho_lookup()  # once, at the run's first proposal
                # one uniform picks the proposed pair (i, j) in S x I
                k, m = divmod(int(uniform() * (s_count * i_count)), i_count)
                if uniform() * rho_max < rho(s_list[k], i_list[m]):
                    v = s_list[k]
                    break
                # rejected proposal: time already advanced, redraw
            time += elapsed
            if v >= 0:
                pos = s_pos[v]
                s_count -= 1
                moved = s_list[s_count]
                s_list[pos] = moved
                s_pos[moved] = pos
                s_pos[v] = -1
                i_list[i_count] = v
                i_pos[v] = i_count
                i_count += 1
                rec += xi[v]
                kind = INFECTION
            else:
                if i_count == 1:
                    v = i_list[0]
                else:
                    # a uniform infective, kept with probability xi(v) / xi_max
                    v = i_list[int(uniform() * i_count)]
                    while xi_varies and uniform() * xi_max >= xi[v]:
                        v = i_list[int(uniform() * i_count)]
                pos = i_pos[v]
                i_count -= 1
                moved = i_list[i_count]
                i_list[pos] = moved
                i_pos[moved] = pos
                i_pos[v] = -1
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


def gillespie_run(env: Environment, lam: float, run_seed: int,
                  max_events: Optional[int] = None,
                  record_trajectory: bool = False) -> RunResult:
    """Simulate from the stream keyed by run_seed to absorption (I empty) or
    the event cap, max_events (default 50 n).

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
    events = state.run(seeding.stream(run_seed), max_events, trajectory)
    return RunResult(
        r_infinity=state.n - state.s_count,
        extinction_time=state.time,
        events_executed=events,
        engine="dynamic",
        env_seed=env.seed,
        run_seed=run_seed,
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
