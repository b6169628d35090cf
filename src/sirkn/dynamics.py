"""Exact continuous-time simulation of the epidemic on the complete graph.

The process starts from one infective at vertex 0.  An infective i recovers
at rate xi(i); a susceptible i is infected at rate (lam/n) * sum of rho(i, j)
over infective j.  The weight law picks one of two exact event selections:

* thinning (Lewis & Shedler), used when the mean acceptance
  E[rho] / rho_max is at least _MIN_THINNING_ACCEPTANCE, rho_max being the
  largest weight the law puts mass on (`Environment.rho_max`): infections
  are proposed at the envelope rate (lam/n) * rho_max * |S| * |I| for a
  uniform pair (i, j) in S x I and accepted with probability
  rho(i, j) / rho_max.  Constant laws accept every proposal and never look
  up a weight.
* direct (Gillespie), for sparser laws: maintains the per-susceptible
  pressure w(i) and picks events proportionally (O(n) pressure update per
  event), so no proposal is wasted.
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
# path pays an O(n) pressure update per event instead.  Paired timings
# (CHANGES.md) put the break-even near an acceptance of 0.11-0.14 for
# surviving runs at n = 300-1000; below this constant the direct path is used.
_MIN_THINNING_ACCEPTANCE = 0.12


@dataclass(frozen=True)
class SimParams:
    lam: float
    run_seed: int
    max_events: Optional[int] = None  # defaults to 50 * n
    record_trajectory: bool = False


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
    """Mutable state (S_t, I_t, R_t) plus the aggregate rates for selection.

    A vertex is susceptible iff s_pos >= 0, infective iff i_pos >= 0 and
    removed otherwise; removed vertices never leave.  The incrementally
    maintained totals must agree with a from-scratch recomputation to
    relative 1e-9.  `thinning` records which event selection the weight law
    picked; the pressure vector w exists only on the direct path.
    """

    __slots__ = ("env", "lam", "n", "xi", "thinning", "rho_max",
                 "s_list", "s_pos", "s_count", "i_list", "i_pos", "i_count",
                 "w", "total_recovery_rate", "_pressure_acc", "time",
                 "_xi_const", "_rho_const", "_row_cache")

    def __init__(self, env: Environment, lam: float):
        check_lambda(lam)
        n = env.n
        self.env = env
        self.lam = float(lam)
        self.n = n
        self._xi_const = env.xi_const
        self._rho_const = env.rho_const
        self.rho_max = env.rho_max
        self.thinning = mean(env.rho_spec) >= _MIN_THINNING_ACCEPTANCE * self.rho_max
        self.xi = env.xi_block(np.arange(n))
        # Packed vertex lists with positional index for O(1) swap-removal.
        self.s_list = np.arange(1, n, dtype=np.int64)
        self.s_pos = np.arange(-1, n - 1, dtype=np.int64)  # s_pos[0] = -1
        self.s_count = n - 1
        self.i_list = np.zeros(n, dtype=np.int64)
        self.i_pos = np.full(n, -1, dtype=np.int64)
        self.i_list[0] = 0
        self.i_pos[0] = 0
        self.i_count = 1
        self.total_recovery_rate = float(self.xi[0])
        self.w = None
        self._pressure_acc = 0.0
        # Full weight rows of active infectives are cached at moderate n so a
        # recovery can subtract the same values its infection added without
        # re-hashing (bounded by n^2 floats, so gated).
        self._row_cache = {} if (not self.thinning and n <= 2048) else None
        if not self.thinning:
            env._ensure_pair_keys()
            self.w = np.zeros(n, dtype=np.float64)
            if self.s_count > 0:
                row = self._infective_row(0)
                sus = self.s_list[: self.s_count]
                self.w[sus] = row[sus] if self._row_cache is not None else row
                self._pressure_acc = float(self.w[sus].sum())
        self.time = 0.0

    def _infective_row(self, vertex: int) -> np.ndarray:
        """Weight row of a newly infective vertex (full row when cached)."""
        if self._row_cache is not None:
            row = self.env.rho_full_row(vertex)
            self._row_cache[vertex] = row
            return row
        return self.env.rho_row(vertex, self.s_list[: self.s_count])

    # -- transitions -------------------------------------------------------

    def _remove_susceptible(self, v: int) -> None:
        pos = self.s_pos[v]
        last = self.s_count - 1
        moved = self.s_list[last]
        self.s_list[pos] = moved
        self.s_pos[moved] = pos
        self.s_pos[v] = -1
        self.s_count = last

    def _remove_infective(self, v: int) -> None:
        pos = self.i_pos[v]
        last = self.i_count - 1
        moved = self.i_list[last]
        self.i_list[pos] = moved
        self.i_pos[moved] = pos
        self.i_pos[v] = -1
        self.i_count = last

    def apply(self, kind: str, vertex: int) -> None:
        """Execute one transition, keeping the aggregate rates in step."""
        if kind == INFECTION:
            self._remove_susceptible(vertex)
            self.i_list[self.i_count] = vertex
            self.i_pos[vertex] = self.i_count
            self.i_count += 1
            self.total_recovery_rate += float(self.xi[vertex])
            if not self.thinning:
                self._pressure_acc -= float(self.w[vertex])
                if self.s_count > 0:
                    sus = self.s_list[: self.s_count]
                    row = self._infective_row(vertex)
                    if self._row_cache is not None:
                        row = row[sus]
                    self.w[sus] += row
                    self._pressure_acc += float(row.sum())
        elif kind == RECOVERY:
            self._remove_infective(vertex)
            self.total_recovery_rate -= float(self.xi[vertex])
            if self.i_count == 0:
                self.total_recovery_rate = 0.0
            if not self.thinning and self.s_count > 0:
                sus = self.s_list[: self.s_count]
                if self._row_cache is not None:
                    row = self._row_cache.pop(vertex)[sus]
                else:
                    row = self.env.rho_row(vertex, sus)
                w_slice = self.w[sus] - row
                np.maximum(w_slice, 0.0, out=w_slice)  # clamp float residue
                self.w[sus] = w_slice
                self._pressure_acc = max(float(self._pressure_acc - row.sum()), 0.0)
            elif self._row_cache is not None:
                self._row_cache.pop(vertex, None)
        else:
            raise ParamViolation(f"unknown event kind {kind!r}")


def next_event(state: EpidemicState, rng: np.random.Generator
               ) -> Tuple[float, Tuple[str, int]]:
    """Draw (dt, event) from the current state without mutating it.

    dt is exponential with the total rate; the event is a recovery of i in I
    with probability xi(i)/total, else an infection of i in S with
    probability (lam/n) w(i)/total.  Thinning loops internal proposals, so
    the returned pair has this law on both selection paths.
    """
    if state.i_count == 0:
        raise DeadState("no infectives: total rate is zero")
    if state.thinning:
        return _next_event_thinning(state, rng)
    return _next_event_direct(state, rng)


def _pick_infective(state, rng) -> int:
    if state.i_count == 1:
        return int(state.i_list[0])
    if state._xi_const is not None:
        return int(state.i_list[int(rng.random() * state.i_count)])
    xi_inf = state.xi[state.i_list[: state.i_count]]
    c = np.cumsum(xi_inf)
    k = int(np.searchsorted(c, rng.random() * c[-1], side="right"))
    return int(state.i_list[min(k, state.i_count - 1)])


def _next_event_direct(state, rng):
    rec = state.total_recovery_rate
    total = rec + (state.lam / state.n) * state._pressure_acc
    dt = rng.standard_exponential() / total
    if rng.random() * total >= rec and state.s_count > 0:
        weights = state.w[state.s_list[: state.s_count]]
        c = np.cumsum(weights)
        tot_w = c[-1]
        if tot_w > 0.0:
            k = int(np.searchsorted(c, rng.random() * tot_w, side="right"))
            return dt, (INFECTION, int(state.s_list[min(k, state.s_count - 1)]))
        # Pressure drifted to zero between bookkeeping and selection; fall
        # through to the (measure-zero) recovery branch.
    return dt, (RECOVERY, _pick_infective(state, rng))


def _next_event_thinning(state, rng):
    lam_n = state.lam / state.n
    rho_max = state.rho_max
    elapsed = 0.0
    while True:
        rec = state.total_recovery_rate
        total = rec + lam_n * rho_max * state.s_count * state.i_count
        elapsed += rng.standard_exponential() / total
        if rng.random() * total < rec:
            return elapsed, (RECOVERY, _pick_infective(state, rng))
        if state._rho_const is not None:
            return elapsed, (INFECTION, int(state.s_list[int(rng.random() * state.s_count)]))
        # one uniform picks the proposed pair (i, j) in S x I
        k, m = divmod(int(rng.random() * (state.s_count * state.i_count)), state.i_count)
        si = int(state.s_list[k])
        if rng.random() * rho_max < state.env.rho_at(si, int(state.i_list[m])):
            return elapsed, (INFECTION, si)
        # rejected proposal: time already advanced, redraw


def gillespie_run(env: Environment, params: SimParams) -> RunResult:
    """Simulate to absorption (I empty) or the event cap.

    r_infinity counts ever-infected vertices, which equals n - |S_final|
    because S only shrinks and R_0 is empty.  Truncated runs therefore report
    a lower bound.
    """
    check_lambda(params.lam)
    max_events = params.max_events if params.max_events is not None else 50 * env.n
    if max_events < 1:
        raise ParamViolation(f"max_events must satisfy max_events >= 1 (got {max_events})")

    rng = seeding.stream(params.run_seed)
    state = EpidemicState(env, params.lam)
    trajectory = [] if params.record_trajectory else None
    events = 0
    truncated = False
    while state.i_count > 0:
        if events >= max_events:
            truncated = True
            break
        dt, (kind, vertex) = next_event(state, rng)
        state.time += dt
        state.apply(kind, vertex)
        events += 1
        if trajectory is not None:
            trajectory.append((state.time, kind, vertex))
    return RunResult(
        r_infinity=state.n - state.s_count,
        extinction_time=state.time,
        events_executed=events,
        engine="dynamic",
        env_seed=env.seed,
        run_seed=params.run_seed,
        truncated=truncated,
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
