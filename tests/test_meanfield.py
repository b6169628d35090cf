import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sirkn.distributions import ROLE_RECOVERY, ROLE_WEIGHT, parse_dist
from sirkn.errors import ParamViolation
from sirkn.meanfield import (MeanFieldState, classic_specs, final_size_fixed_point,
                             ode_solve)


def test_equilibrium_when_no_infectives():
    init = MeanFieldState(s=0.7, i=0.0, r=0.3)
    traj = ode_solve(2.0, init, horizon=5.0)
    assert len(traj) == 1
    assert traj[0] == init


def test_subcritical_infective_fraction_strictly_decreasing():
    init = MeanFieldState(s=0.9, i=0.1, r=0.0)
    traj = ode_solve(0.8, init, horizon=10.0, step=1e-3)
    i_vals = [st.i for st in traj]
    assert all(a > b for a, b in zip(i_vals, i_vals[1:]))


def test_conservation_and_step_halving():
    init = MeanFieldState(s=0.999, i=0.001, r=0.0)
    traj = ode_solve(2.0, init, horizon=50.0, step=1e-3)
    assert max(st.conservation_error() for st in traj) <= 1e-9
    traj_half = ode_solve(2.0, init, horizon=50.0, step=5e-4)
    assert abs(traj[-1].r - traj_half[-1].r) <= 1e-8


def test_terminal_matches_fixed_point():
    init = MeanFieldState(s=0.999, i=0.001, r=0.0)
    traj = ode_solve(2.0, init, horizon=80.0, step=1e-3)
    fp = final_size_fixed_point(2.0, 0.999, 0.001)
    assert fp.bracketed
    assert abs(traj[-1].r - fp.value) < 1e-3


def test_fixed_point_lambda_zero():
    fp = final_size_fixed_point(0.0, 0.6, 0.4)
    assert fp.value == pytest.approx(0.4, abs=1e-12)


def test_fixed_point_supercritical_limit():
    # independent oracle: brentq on z = 1 - exp(-2 z)
    z = brentq(lambda r: 1.0 - math.exp(-2.0 * r) - r, 1e-9, 1.0)
    fp = final_size_fixed_point(2.0, 1.0, 0.0)
    assert fp.bracketed
    assert fp.value == pytest.approx(z, abs=1e-10)
    assert fp.value == pytest.approx(0.79681, abs=1e-5)


def test_fixed_point_critical_degenerates():
    fp = final_size_fixed_point(1.0, 1.0, 0.0)
    assert not fp.bracketed
    assert fp.value == 0.0
    # approaching from i0 > 0 the root also collapses
    assert final_size_fixed_point(1.0, 1.0 - 1e-9, 1e-9).value < 1e-3


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_fixed_point_residual(lam, s0, i0):
    if s0 + i0 > 1.0:
        s0, i0 = s0 / (s0 + i0), i0 / (s0 + i0)
    fp = final_size_fixed_point(lam, s0, i0)
    assert 0.0 <= fp.value <= 1.0
    if fp.bracketed:
        residual = 1.0 - s0 * math.exp(-lam * fp.value) - fp.value
        assert abs(residual) < 1e-9


def test_validation_errors():
    with pytest.raises(ParamViolation):
        ode_solve(-1.0, MeanFieldState(1.0, 0.0, 0.0))
    with pytest.raises(ParamViolation):
        ode_solve(1.0, MeanFieldState(0.5, 0.2, 0.3), step=0.0)
    for bad in ({"step": math.nan}, {"step": math.inf}, {"horizon": math.nan},
                {"horizon": math.inf}, {"horizon": -1.0},
                {"horizon": 1e308, "step": 1e-10}):
        with pytest.raises(ParamViolation):
            ode_solve(1.0, MeanFieldState(0.5, 0.2, 0.3), **bad)
    with pytest.raises(ParamViolation):
        ode_solve(1.0, MeanFieldState(0.9, 0.5, 0.3))  # sums to 1.7
    with pytest.raises(ParamViolation):
        final_size_fixed_point(1.0, 0.8, 0.4)


def test_classic_spec_gate():
    xi1 = parse_dist("constant:1", ROLE_RECOVERY)
    rho1 = parse_dist("constant:1", ROLE_WEIGHT)
    assert classic_specs(xi1, rho1)
    xi2 = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    assert not classic_specs(xi2, rho1)
    rho_half = parse_dist("constant:0.5", ROLE_WEIGHT)
    assert not classic_specs(xi1, rho_half)
