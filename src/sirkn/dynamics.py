"""Exact continuous-time simulation of the epidemic on the complete graph.

The process starts from one infective at vertex 0.  An infective i recovers
at rate xi(i); a susceptible i is infected at rate (lam/n) * sum of rho(i, j)
over infective j.  `EpidemicState.run` is the one event loop: it holds the
state in local variables (Python lists for the packed vertex sets) and
executes events until absorption or a cap.  `gillespie_run(env, lam,
run_seed)`, called like `percolation.percolation_final_size`, runs it once;
tests step it one event at a time.  The weight law picks one of its two
exact event selections:

* thinning (Lewis & Shedler), used when the mean acceptance
  E[rho] / rho_max is at least _MIN_THINNING_ACCEPTANCE, rho_max being the
  largest weight the law puts mass on (`Environment.rho_max`): infections
  are proposed at the envelope rate (lam/n) * rho_max * |S| * |I| for a
  uniform pair (i, j) in S x I and accepted with probability
  rho(i, j) / rho_max, looked up by `Environment.rho_at`.  Constant laws
  accept every proposal and never look up a weight.
* direct (Gillespie), for sparser laws: maintains the per-susceptible
  pressure w(i) and picks events proportionally (O(n) pressure update per
  event), so no proposal is wasted.

A recovery draws uniform infectives until one, v, is kept with probability
xi(v) / xi_max (`Environment.xi_max`); constant xi laws keep the first one
without an acceptance draw.  Exponentials and uniforms come from the run's
stream in blocks of _BLOCK, each used once: the block size changes the
samples, not their law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import seeding
from .distributions import mean
from .environment import Environment
from .errors import DeadState, ParamViolation, check_lambda

RECOVERY = "recovery"
INFECTION = "infection"

# Thinning wastes a share 1 - E[rho]/rho_max of its proposals; the direct
# path pays an O(n) pressure update per event instead.  Below this mean
# acceptance the direct path is used.  Paired timings over n = 300-1000 and
# 0.5-2 lambda_c (CHANGES.md) put the break-even between 0.03 (subcritical
# runs) and 0.055 (surviving runs at n = 300), near 0.04 over the grid.
_MIN_THINNING_ACCEPTANCE = 0.05
_BLOCK = 32  # variates per generator call, chosen by timing (CHANGES.md)


def _variates(draw, size: int):
    """Endless iterator over the variates of draw(size), one block at a time."""
    while True:
        yield from draw(size).tolist()


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
    """State (S_t, I_t, R_t) of one run plus the aggregate rates for selection.

    A vertex is susceptible iff s_pos >= 0, infective iff i_pos >= 0 and
    removed otherwise; removed vertices never leave.  The packed lists and
    positions are Python lists; xi is the environment's read-only tuple of
    recovery rates.  The incrementally maintained totals must agree with a
    from-scratch recomputation to relative 1e-9.
    `thinning` records which event selection the weight law picked; the
    pressure vector w, the array mirror s_arr of s_list and the row cache
    exist only on the direct path.
    """

    __slots__ = ("env", "lam", "n", "xi", "thinning",
                 "s_list", "s_pos", "s_count", "i_list", "i_pos", "i_count",
                 "s_arr", "w", "total_recovery_rate", "_pressure_acc", "time",
                 "_row_cache")

    def __init__(self, env: Environment, lam: float):
        check_lambda(lam)
        n = env.n
        self.env = env
        self.lam = float(lam)
        self.n = n
        self.thinning = mean(env.rho_spec) >= _MIN_THINNING_ACCEPTANCE * env.rho_max
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
        self.s_arr = self.w = None
        self._pressure_acc = 0.0
        # Full weight rows of active infectives are cached at moderate n so a
        # recovery can subtract the same values its infection added without
        # re-hashing (bounded by n^2 floats, so gated).
        self._row_cache = {} if (not self.thinning and n <= 2048) else None
        if not self.thinning:
            self.s_arr = sus = np.arange(1, n, dtype=np.int64)
            self.w = np.zeros(n, dtype=np.float64)
            if self.s_count > 0:
                if self._row_cache is not None:
                    row = self._row_cache[0] = env.rho_full_row(0)
                    self.w[sus] = row[sus]
                else:
                    self.w[sus] = env.rho_row(0, sus)
                self._pressure_acc = float(self.w[sus].sum())
        self.time = 0.0

    def run(self, rng: np.random.Generator, max_events: int,
            trajectory: Optional[list] = None) -> int:
        """Execute events until no infective is left or max_events have run.

        Each event advances the clock by an exponential with the total rate
        and is a recovery of i in I with probability xi(i)/total, else an
        infection of i in S with probability (lam/n) w(i)/total; thinning
        loops its rejected proposals inside one event, so both selections
        realize this law.  Appends (time, kind, vertex) per event to
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
        s_arr, w, acc, cache = self.s_arr, self.w, self._pressure_acc, self._row_cache
        rec, time = self.total_recovery_rate, self.time
        exponential = _variates(rng.standard_exponential, _BLOCK).__next__
        uniform = _variates(rng.random, _BLOCK).__next__
        rho_at, rho_const, rho_max = env.rho_at, env.rho_const, env.rho_max
        thinning = self.thinning
        lam_n = self.lam / self.n
        envelope = lam_n * rho_max
        events = 0
        while i_count and events < max_events:
            v = -1  # the infected susceptible, if the event is an infection
            if thinning:
                elapsed = 0.0
                while True:
                    total = rec + envelope * s_count * i_count
                    elapsed += exponential() / total
                    if uniform() * total < rec:
                        break
                    if rho_const is not None:
                        v = s_list[int(uniform() * s_count)]
                        break
                    # one uniform picks the proposed pair (i, j) in S x I
                    k, m = divmod(int(uniform() * (s_count * i_count)), i_count)
                    if uniform() * rho_max < rho_at(s_list[k], i_list[m]):
                        v = s_list[k]
                        break
                    # rejected proposal: time already advanced, redraw
                time += elapsed
            else:
                total = rec + lam_n * acc
                time += exponential() / total
                if uniform() * total >= rec and s_count > 0:
                    c = w[s_arr[:s_count]].cumsum()
                    if c[-1] > 0.0:
                        k = int(c.searchsorted(uniform() * c[-1], "right"))
                        v = s_list[min(k, s_count - 1)]
                    # Otherwise the pressure drifted to zero between
                    # bookkeeping and selection: the (measure-zero) recovery.
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
                if w is not None:
                    s_arr[pos] = moved
                    acc -= float(w[v])
                    if s_count > 0:
                        sus = s_arr[:s_count]
                        if cache is not None:
                            row = cache[v] = env.rho_full_row(v)
                            row = row[sus]
                        else:
                            row = env.rho_row(v, sus)
                        w[sus] += row
                        acc += float(row.sum())
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
                if w is not None:
                    row = cache.pop(v, None) if cache is not None else None
                    if s_count > 0:
                        sus = s_arr[:s_count]
                        row = row[sus] if row is not None else env.rho_row(v, sus)
                        w_slice = w[sus] - row
                        np.maximum(w_slice, 0.0, out=w_slice)  # clamp float residue
                        w[sus] = w_slice
                        acc = max(float(acc - row.sum()), 0.0)
                kind = RECOVERY
            events += 1
            if trajectory is not None:
                trajectory.append((time, kind, v))
        self.s_count, self.i_count = s_count, i_count
        self._pressure_acc, self.total_recovery_rate, self.time = acc, rec, time
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
