import decimal
import functools
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from sirkn.distributions import (DistSpec, ROLE_RECOVERY, ROLE_WEIGHT, _exp_tail,
                                 as_mixture, critical_lambda,
                                 expect_self_over_self_plus, format_dist,
                                 gamma_p2, log_laplace, log_laplace_deriv, mean,
                                 mean_inverse, parse_dist, quantile, support,
                                 validate_spec)
from sirkn.errors import ParamViolation, SupportViolation

from reference_stats import cdf


# -- validation --------------------------------------------------------------

def test_constant_one_recovery_is_valid_boundary():
    spec = DistSpec("constant", (1.0,), ROLE_RECOVERY)
    assert validate_spec(spec) == spec == parse_dist("constant:1", ROLE_RECOVERY)


def test_constant_zero_weight_rejected():
    with pytest.raises(SupportViolation):
        parse_dist("constant:0", ROLE_WEIGHT)


def test_uniform_reversed_endpoints_rejected():
    with pytest.raises(ParamViolation):
        parse_dist("uniform:0.5:0.2", ROLE_WEIGHT)


def test_recovery_support_below_one_rejected():
    with pytest.raises(SupportViolation):
        parse_dist("uniform:0.5:2", ROLE_RECOVERY)
    with pytest.raises(SupportViolation):
        parse_dist("two_point:0.9:0.5:2", ROLE_RECOVERY)


def test_weight_support_above_one_rejected():
    with pytest.raises(SupportViolation):
        parse_dist("constant:1.5", ROLE_WEIGHT)
    with pytest.raises(SupportViolation):
        parse_dist("uniform:0:1.2", ROLE_WEIGHT)


def test_two_point_all_mass_at_zero_rejected():
    with pytest.raises(SupportViolation):
        parse_dist("two_point:0:1:0.5", ROLE_WEIGHT)
    # mass 0.5 above zero is fine
    parse_dist("two_point:0:0.5:0.5", ROLE_WEIGHT)


def test_probability_parameter_range():
    with pytest.raises(ParamViolation):
        parse_dist("two_point:1:1.5:2", ROLE_RECOVERY)


def test_shifted_uniform_expresses_one_plus_uniform():
    spec = parse_dist("shifted:uniform:0:1:+1", ROLE_RECOVERY)
    assert support(spec) == (1.0, 2.0)
    assert format_dist(spec) == "uniform:1:2"
    with pytest.raises(SupportViolation):
        parse_dist("shifted:uniform:0:1:-0.5", ROLE_RECOVERY)


@pytest.mark.parametrize("text,family,role", [
    ("shifted:constant:0:+1", "constant:1", ROLE_RECOVERY),
    ("shifted:uniform:0:1:+1", "uniform:1:2", ROLE_RECOVERY),
    ("shifted:two_point:0:0.5:1:+1", "two_point:1:0.5:2", ROLE_RECOVERY),
    ("shifted:uniform:0.5:1.5:-0.5", "uniform:0:1", ROLE_WEIGHT),
])
def test_shifted_parses_into_its_family(text, family, role):
    # `shifted:` is shorthand: the values move by the offset, p1 stays
    assert parse_dist(text, role) == parse_dist(family, role)


def test_nested_shift_rejected():
    with pytest.raises(ParamViolation):
        parse_dist("shifted:shifted:uniform:0:1:+1:+1", ROLE_RECOVERY)
    for off in ("inf", "-inf", "nan"):
        with pytest.raises(ParamViolation, match="offset must be finite"):
            parse_dist(f"shifted:uniform:0:1:{off}", ROLE_RECOVERY)
    # the moved endpoints round to one value, so the family check fails
    with pytest.raises(ParamViolation, match="a < b"):
        parse_dist("shifted:uniform:0:1e-17:+1", ROLE_RECOVERY)


# -- parsing -----------------------------------------------------------------

@pytest.mark.parametrize("text,kind", [
    ("constant:1.0", "constant"),
    ("uniform:0.0:1.0", "uniform"),
    ("two_point:1.0:0.5:2.0", "two_point"),
    ("shifted:uniform:0:1:+1", "uniform"),
])
def test_parse_examples(text, kind):
    role = ROLE_WEIGHT if text.startswith("uniform") else ROLE_RECOVERY
    spec = parse_dist(text, role)
    assert spec.kind == kind


def test_parse_rejects_gibberish():
    with pytest.raises(ParamViolation):
        parse_dist("gaussian:0:1", ROLE_WEIGHT)
    with pytest.raises(ParamViolation):
        parse_dist("uniform:0", ROLE_WEIGHT)
    with pytest.raises(ParamViolation):
        parse_dist("uniform:a:b", ROLE_WEIGHT)


def test_format_roundtrip():
    for text, role in [("constant:1", ROLE_RECOVERY),
                       ("uniform:0:1", ROLE_WEIGHT),
                       ("two_point:1:0.5:2", ROLE_RECOVERY),
                       ("shifted:uniform:0:1:+1", ROLE_RECOVERY)]:
        spec = parse_dist(text, role)
        again = parse_dist(format_dist(spec), role)
        assert again == spec


# -- moments and the critical rate -------------------------------------------

def test_moments_constants():
    xi = parse_dist("constant:1", ROLE_RECOVERY)
    rho = parse_dist("constant:1", ROLE_WEIGHT)
    assert (mean(rho), mean_inverse(xi), critical_lambda(xi, rho)) == (1.0, 1.0, 1.0)


def test_moments_uniform_weight_mean():
    assert mean(parse_dist("uniform:0:1", ROLE_WEIGHT)) == pytest.approx(0.5, abs=0)


def test_moments_two_point_recovery():
    xi = parse_dist("two_point:1:0.5:2", ROLE_RECOVERY)
    assert mean_inverse(xi) == pytest.approx(0.75, abs=0)


@pytest.mark.parametrize("rho,xi,expected", [
    (("constant", 1.0), ("constant", 1.0), 1.0),
    (("uniform", 0.0, 1.0), ("constant", 1.0), 2.0),
    (("constant", 1.0), ("two_point", 1.0, 0.5, 2.0), 4.0 / 3.0),
])
def test_critical_lambda_examples(rho, xi, expected):
    rho_spec = DistSpec(rho[0], tuple(rho[1:]), ROLE_WEIGHT)
    xi_spec = DistSpec(xi[0], tuple(xi[1:]), ROLE_RECOVERY)
    lc = critical_lambda(validate_spec(xi_spec), validate_spec(rho_spec))
    assert lc == pytest.approx(expected, rel=1e-14)


def test_degenerate_moments_rejected():
    # E[rho] = 0 would make the threshold infinite; the unvalidated weight
    # law is validated on the way in and fails there
    xi = parse_dist("constant:1", ROLE_RECOVERY)
    with pytest.raises(SupportViolation, match="positive mass above 0"):
        critical_lambda(xi, DistSpec("constant", (0.0,), ROLE_WEIGHT))


def test_critical_lambda_rejects_swapped_roles():
    xi = parse_dist("constant:1", ROLE_RECOVERY)
    rho = parse_dist("constant:1", ROLE_WEIGHT)
    with pytest.raises(ParamViolation, match="xi_spec must have role=recovery"):
        critical_lambda(rho, xi)
    with pytest.raises(ParamViolation, match="rho_spec must have role=weight"):
        critical_lambda(xi, xi)


def test_mean_inverse_uniform_matches_quadrature():
    spec = parse_dist("uniform:1:3", ROLE_RECOVERY)
    val, _ = integrate.quad(lambda x: (1.0 / x) / 2.0, 1.0, 3.0)
    assert mean_inverse(spec) == pytest.approx(val, rel=1e-12)


# -- strategy for valid specs -------------------------------------------------

def _specs(kind, role, params):
    return params.map(lambda p: validate_spec(DistSpec(kind, p, role)))


def recovery_specs():
    finite = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)
    role = ROLE_RECOVERY
    return st.one_of(
        _specs("constant", role, st.tuples(finite)),
        _specs("uniform", role, st.tuples(finite, finite).filter(lambda ab: ab[0] < ab[1])),
        _specs("two_point", role,
               st.tuples(finite, st.floats(min_value=0.0, max_value=1.0), finite)),
    )


def weight_specs():
    unit = st.floats(min_value=0.0, max_value=1.0)
    role = ROLE_WEIGHT
    return st.one_of(
        _specs("constant", role, st.tuples(unit.filter(lambda v: v > 0))),
        _specs("uniform", role, st.tuples(unit, unit).filter(lambda ab: ab[0] < ab[1])),
        _specs("two_point", role,
               st.tuples(unit, st.floats(min_value=0.01, max_value=0.99), unit)
               .filter(lambda t: t[0] > 0 or t[2] > 0)),
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(recovery_specs(), weight_specs()))
def test_format_parse_roundtrip_exact(spec):
    assert parse_dist(format_dist(spec), spec.role) == spec


@settings(max_examples=60, deadline=None)
@given(recovery_specs())
def test_recovery_moment_invariants(spec):
    inv = mean_inverse(spec)
    assert 0.0 < inv <= 1.0  # xi >= 1
    assert 1.0 / mean(spec) <= inv + 1e-15  # Jensen


@settings(max_examples=60, deadline=None)
@given(weight_specs(), st.integers(min_value=0, max_value=2 ** 32))
def test_quantile_within_support(spec, seed):
    u = np.random.default_rng(seed).random(64)
    x = np.asarray(quantile(spec, u))
    lo, hi = support(spec)
    assert ((x >= lo) & (x <= hi)).all()


@settings(max_examples=40, deadline=None)
@given(recovery_specs(), st.floats(min_value=0.0, max_value=20.0))
def test_expect_ratio_matches_quadrature(spec, c):
    got = expect_self_over_self_plus(spec, c)
    want = 0.0
    for w, comp in as_mixture(spec):
        if comp[0] == "atom":
            want += w * comp[1] / (comp[1] + c) if comp[1] + c > 0 else w
        else:
            a, b = comp[1], comp[2]
            val, _ = integrate.quad(lambda x: x / (x + c) / (b - a), a, b)
            want += w * val
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_cdf_matches_quantile_mass():
    spec = parse_dist("two_point:0.2:0.3:0.8", ROLE_WEIGHT)
    xs = np.array([0.1, 0.2, 0.5, 0.8, 1.0])
    np.testing.assert_allclose(cdf(spec, xs), [0.0, 0.3, 0.3, 1.0, 1.0])
    u = np.linspace(0, 1, 10001, endpoint=False)
    draws = np.asarray(quantile(spec, u))
    assert abs((draws == 0.2).mean() - 0.3) < 1e-3


def test_mean_matches_sample_mean():
    spec = parse_dist("shifted:uniform:0:1:+1", ROLE_RECOVERY)
    u = np.random.default_rng(0).random(200_000)
    assert mean(spec) == pytest.approx(float(np.mean(quantile(spec, u))), abs=2e-3)


# -- Laplace transforms ---------------------------------------------------------

def test_gamma_p2_matches_scipy():
    zs = np.logspace(-12, 3, 301)
    got = np.array([gamma_p2(float(z)) for z in zs])
    np.testing.assert_allclose(got, special.gammainc(2.0, zs), rtol=1e-14, atol=0)
    assert gamma_p2(0.0) == 0.0


def _laplace_reference(spec, s, moment):
    """E[X^moment e^{-s X}] in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(s)
        total = Decimal(0)
        for w, comp in as_mixture(spec):
            if comp[0] == "atom":
                v = Decimal(comp[1])
                total += Decimal(w) * (v if moment else 1) * (-s * v).exp()
                continue
            a, b = Decimal(comp[1]), Decimal(comp[2])
            if moment == 0:  # int_a^b e^{-sx} dx
                part = ((-s * a).exp() - (-s * b).exp()) / s
            else:  # int_a^b x e^{-sx} dx
                part = (((-s * a).exp() * (1 + s * a) - (-s * b).exp() * (1 + s * b))
                        / (s * s))
            total += Decimal(w) * part / (b - a)
        return float(total.ln())


@pytest.mark.parametrize("text,role", [
    ("constant:1", ROLE_WEIGHT), ("uniform:0:1", ROLE_WEIGHT),
    ("uniform:0.25:0.75", ROLE_WEIGHT), ("two_point:0.2:0.4:0.8", ROLE_WEIGHT),
    ("two_point:0:0.5:1", ROLE_WEIGHT), ("uniform:1:3", ROLE_RECOVERY),
    ("two_point:1:0.5:2", ROLE_RECOVERY),
])
def test_log_laplace_keeps_relative_precision(text, role):
    # psi raises phi to the power n - 1, so log phi needs relative, not
    # absolute, precision as s -> 0
    spec = parse_dist(text, role)
    grid = np.logspace(-12, 3, 61)
    refs = [_laplace_reference(spec, float(s), 0) for s in grid]
    for s, ref in zip(grid, refs):
        assert log_laplace(spec, float(s)) == pytest.approx(ref, rel=1e-14, abs=0), s
        if role == ROLE_RECOVERY:
            assert log_laplace_deriv(spec, float(s)) == pytest.approx(
                _laplace_reference(spec, float(s), 1), rel=1e-13, abs=1e-15), s
    # the elementwise form, which the Sellke sampler uses, s = 0 included
    np.testing.assert_allclose(log_laplace(spec, np.append(grid, 0.0)), refs + [0.0],
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("top", [0.0, 1e-9, 1e-2, 0.5, 0.999])
def test_exp_tail_all_small_path_matches_gathered_path(top):
    # With every |x| < 1 the series is formed on x itself; one entry of
    # |x| >= 1 sends the call through the gather and scatter instead.  The
    # series length comes from the largest small |x| in both, so the small
    # entries must agree bit for bit.
    x = np.concatenate([-np.linspace(0.0, top, 40), np.geomspace(1e-300, top or 1e-300, 9),
                        [-0.0]])
    fast = _exp_tail(x)
    assert fast.shape == x.shape
    for extra in (1.0, -3.5):
        assert fast.tobytes() == _exp_tail(np.append(x, extra))[:-1].tobytes(), extra
    assert _exp_tail(x.reshape(5, 10)).tobytes() == fast.tobytes()  # the Sellke blocks


@pytest.mark.parametrize("fn,text,role", [
    (log_laplace, "uniform:0:1", ROLE_WEIGHT),
    (log_laplace, "two_point:0.2:0.4:0.8", ROLE_WEIGHT),
    (log_laplace, "shifted:two_point:0:0.5:1:+1", ROLE_RECOVERY),
    (log_laplace_deriv, "uniform:1:3", ROLE_RECOVERY),
    (log_laplace_deriv, "shifted:two_point:0:0.5:1:+1", ROLE_RECOVERY),
    (gamma_p2, None, None),
])
def test_laplace_helpers_are_elementwise(fn, text, role):
    # psi calls these on the quadrature nodes and the Sellke sampler on 2-D
    # blocks: both must see the values a float gives.  Near-equal, not
    # equal: the series in _exp_tail takes as many terms as the largest
    # argument in the array needs.
    f = functools.partial(fn, parse_dist(text, role)) if text else fn
    grid = np.append(0.0, np.logspace(-12, 3, 47)).reshape(6, 8)
    got = f(grid)
    assert got.shape == grid.shape
    want = [[float(f(float(s))) for s in row] for row in grid]
    np.testing.assert_allclose(got, want, rtol=2 * np.finfo(float).eps, atol=0)
