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
from typing import List, NamedTuple

from .distributions import DistSpec
from .errors import ParamViolation, StepTooLarge, check_lambda

I_EXTINCT = 1e-12


class MeanFieldState(NamedTuple):
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


def ode_solve(lam: float, init: MeanFieldState, horizon: float = 50.0,
              step: float = 1e-3) -> List[MeanFieldState]:
    """Fixed-step RK4 trajectory; stops early once i drops below 1e-12.

    Raises StepTooLarge if the conservation s + i + r = 1 drifts past 1e-6
    at any sample (the scheme preserves the linear invariant to roundoff, so
    this triggers only on wildly inappropriate steps).
    """
    check_lambda(lam)
    if not (math.isfinite(step) and step > 0.0):
        raise ParamViolation(f"step must be finite and positive (got {step})")
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ParamViolation(f"horizon must be finite and nonnegative (got {horizon})")
    if not math.isfinite(horizon / step):
        raise ParamViolation(f"horizon / step must be finite (got {horizon} / {step})")
    _validate_state(init)

    out = [init]
    append = out.append
    s, i, r, t = init.s, init.i, init.r, init.t
    half, sixth = 0.5 * step, step / 6.0
    steps = int(math.ceil(horizon / step)) if horizon > 0 else 0
    for _ in range(steps):
        if i < I_EXTINCT:
            break
        # RK4 stages of (ds, di, dr) = (-lam i s, i (lam s - 1), i)
        s1, i1 = -lam * i * s, i * (lam * s - 1.0)
        ss, ii = s + half * s1, i + half * i1
        s2, i2, r2 = -lam * ii * ss, ii * (lam * ss - 1.0), ii
        ss, ii = s + half * s2, i + half * i2
        s3, i3, r3 = -lam * ii * ss, ii * (lam * ss - 1.0), ii
        ss, ii = s + step * s3, i + step * i3
        s4, i4, r4 = -lam * ii * ss, ii * (lam * ss - 1.0), ii
        s += sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        r += sixth * (i + 2.0 * r2 + 2.0 * r3 + r4)
        i += sixth * (i1 + 2.0 * i2 + 2.0 * i3 + i4)
        t += step
        i_clamped = max(i, 0.0)
        drift = abs(s + i_clamped + r - 1.0)
        if drift > 1e-6:
            raise StepTooLarge(f"conservation drifted to {drift:.3e} with step {step}")
        append(MeanFieldState(s, i_clamped, r, t))
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
