import math

import numpy as np
import pytest

from sirkn.quadrature import quad

TOL = dict(epsabs=1e-14, epsrel=1e-12, limit=200)


@pytest.mark.parametrize("f,a,b,exact", [
    *[(lambda t, k=k: t ** k * np.exp(-t), 0.0, math.inf, math.factorial(k))
      for k in range(6)],
    (lambda t: 1.0 / (1.0 + t * t), 0.0, math.inf, math.pi / 2),
    (lambda t: 1.0 / (1.0 + t * t), 1.0, math.inf, math.pi / 4),
    (np.sin, 0.0, 3.0, 1.0 - math.cos(3.0)),
    (lambda x: np.exp(-x * x), -1.0, 2.0,
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
    assert quad(np.exp, 2.0, 2.0, **TOL) == (0.0, 0.0)


def test_integrand_called_once_per_subinterval():
    # x^-0.99 is never resolved, so quad bisects until `limit` subintervals
    # exist: [0, 1] first, then the two halves of each of limit - 1 bisections
    calls = []

    def f(x):
        calls.append(x)
        return x ** -0.99

    quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=5)
    assert len(calls) == 1 + 2 * (5 - 1)
    assert all(isinstance(x, np.ndarray) and x.shape == (15,) for x in calls)
    assert len({float(x[7]) for x in calls}) == len(calls)  # one call per centre
