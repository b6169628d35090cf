"""Deterministic large-n limit for the classic unit-rate model.

When both the recovery rate and the edge weight are identically 1, the
fractions (|S_t|/n, |I_t|/n, |R_t|/n) converge to the solution of

    ds/dt = -lam * i * s,   di/dt = i * (lam * s - 1),   dr/dt = i.

This module integrates that system with a classical fixed-step 4th-order
scheme and solves the final-size fixed point r = 1 - s0 * exp(-lam * r),
which serves as the reference value for supercritical sweeps.  No mean-field
limit is provided for non-constant rate laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple

from .distributions import DistSpec
from .errors import ParamViolation, StepTooLarge, check_lambda

I_EXTINCT = 1e-12


@dataclass(frozen=True)
class MeanFieldState:
    s: float
    i: float
    r: float
    t: float = 0.0

    def conservation_error(self) -> float:
        return abs(self.s + self.i + self.r - 1.0)


def _validate_state(state: MeanFieldState) -> None:
    for name, v in (("s", state.s), ("i", state.i), ("r", state.r)):
        if not 0.0 <= v <= 1.0:
            raise ParamViolation(f"fraction {name} must lie in [0, 1] (got {v})")
    if state.conservation_error() > 1e-9:
        raise ParamViolation(
            f"fractions must sum to 1 (error {state.conservation_error():.3e})")


def _rhs(lam: float, s: float, i: float):
    return -lam * i * s, i * (lam * s - 1.0), i


def ode_solve(lam: float, init: MeanFieldState, horizon: float = 50.0,
              step: float = 1e-3) -> List[MeanFieldState]:
    """Fixed-step RK4 trajectory; stops early once i drops below 1e-12.

    Raises StepTooLarge if the conservation s + i + r = 1 drifts past 1e-6
    at any sample (the scheme preserves the linear invariant to roundoff, so
    this triggers only on wildly inappropriate steps).
    """
    check_lambda(lam)
    if step <= 0:
        raise ParamViolation(f"step must be positive (got {step})")
    if horizon < 0:
        raise ParamViolation(f"horizon must be nonnegative (got {horizon})")
    _validate_state(init)

    out = [init]
    s, i, r, t = init.s, init.i, init.r, init.t
    steps = int(math.ceil(horizon / step)) if horizon > 0 else 0
    for _ in range(steps):
        if i < I_EXTINCT:
            break
        k1 = _rhs(lam, s, i)
        k2 = _rhs(lam, s + 0.5 * step * k1[0], i + 0.5 * step * k1[1])
        k3 = _rhs(lam, s + 0.5 * step * k2[0], i + 0.5 * step * k2[1])
        k4 = _rhs(lam, s + step * k3[0], i + step * k3[1])
        s += (step / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        i += (step / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        r += (step / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        t += step
        state = MeanFieldState(s=s, i=max(i, 0.0), r=r, t=t)
        if state.conservation_error() > 1e-6:
            raise StepTooLarge(
                f"conservation drifted to {state.conservation_error():.3e} "
                f"with step {step}")
        out.append(state)
    return out


class FixedPointResult(NamedTuple):
    value: float
    bracketed: bool  # False when only the trivial no-spread root exists


def final_size_fixed_point(lam: float, s0: float, i0: float) -> FixedPointResult:
    """Largest root in [0, 1] of r = 1 - s0 * exp(-lam * r), by bisection.

    With i0 > 0 the bracket [0, 1] always contains exactly one root.  With
    i0 = 0 and lam * s0 <= 1 there is no positive root; the trivial root is
    returned with bracketed=False.
    """
    if not (0.0 <= i0 and 0.0 <= s0 and s0 + i0 <= 1.0 + 1e-12):
        raise ParamViolation(
            f"initial fractions must satisfy s0, i0 >= 0 and s0 + i0 <= 1 "
            f"(got s0={s0}, i0={i0})")
    check_lambda(lam)

    def g(r: float) -> float:
        return 1.0 - s0 * math.exp(-lam * r) - r

    lo, hi = 0.0, 1.0
    if g(lo) <= 0.0:
        # Only possible when i0 = 0 and s0 = 1: seek a positive root to the
        # right of the maximum of g, which exists only when lam > 1.
        if lam * s0 <= 1.0:
            return FixedPointResult(1.0 - s0, False)
        lo = math.log(lam * s0) / lam
        if g(lo) <= 0.0:
            return FixedPointResult(1.0 - s0, False)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return FixedPointResult(0.5 * (lo + hi), True)


def classic_specs(xi_spec: DistSpec, rho_spec: DistSpec) -> bool:
    """True iff both laws are the constant 1, the only case the ODE covers."""
    return (xi_spec.kind == "constant" and xi_spec.params[0] == 1.0
            and rho_spec.kind == "constant" and rho_spec.params[0] == 1.0)


def require_classic(xi_spec: DistSpec, rho_spec: DistSpec) -> None:
    if not classic_specs(xi_spec, rho_spec):
        raise ParamViolation(
            "mean-field reference applies only to constant unit rates "
            "(xi = rho = 1); no deterministic limit is provided for random "
            "rate laws")
