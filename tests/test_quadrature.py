import math

import pytest

from sirkn.quadrature import quad

TOL = dict(epsabs=1e-14, epsrel=1e-12, limit=200)


@pytest.mark.parametrize("f,a,b,exact", [
    *[(lambda t, k=k: t ** k * math.exp(-t), 0.0, math.inf, math.factorial(k))
      for k in range(6)],
    (lambda t: 1.0 / (1.0 + t * t), 0.0, math.inf, math.pi / 2),
    (lambda t: 1.0 / (1.0 + t * t), 1.0, math.inf, math.pi / 4),
    (math.sin, 0.0, 3.0, 1.0 - math.cos(3.0)),
    (lambda x: math.exp(-x * x), -1.0, 2.0,
     0.5 * math.sqrt(math.pi) * (math.erf(2.0) + math.erf(1.0))),
])
def test_known_integrals(f, a, b, exact):
    val, err = quad(f, a, b, **TOL)
    assert abs(val - exact) <= err
    assert val == pytest.approx(exact, rel=1e-12, abs=0)
    assert err <= max(TOL["epsabs"], TOL["epsrel"] * abs(val))


def test_unresolved_integrand_reports_error_above_tolerance():
    # x^-0.99 on [0, 1] integrates to 100; its singularity needs far more
    # than 5 subintervals, so the estimate must fail the callers' check
    val, err = quad(lambda x: x ** -0.99, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=5)
    assert not err <= max(1e-10 * abs(val), 1e-13)


def test_empty_interval_is_zero():
    assert quad(math.exp, 2.0, 2.0, **TOL) == (0.0, 0.0)
