"""Globally adaptive 15-point Gauss-Kronrod quadrature.

The rule, its error heuristic and the map of [a, inf) onto (0, 1] are those
of QUADPACK's qags and qagi (Piessens et al. 1983), without the epsilon
extrapolation: the integrals the package needs are smooth and decay
exponentially, so bisection alone converges quickly.  The integrand is
vectorised: it takes the 15 nodes of a subinterval as one ndarray and returns
their values as one.
"""

from __future__ import annotations

import heapq
import math
import sys

import numpy as np

# Kronrod abscissae on [-1, 1] in the order x, 0, -x, and the Kronrod and the
# 7-point Gauss weights at each of them (the Gauss rule uses every second
# abscissa of each half and the centre).
_X7 = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                0.207784955007898467600689403773245])
_XGK = np.concatenate((_X7, [0.0], -_X7))
_W7 = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649])
_WGK = np.concatenate((_W7, [0.209482141084727828012999174891714], _W7))
_G3 = [0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0]
_WG = np.array(_G3 + [0.417959183673469387755102040816327] + _G3)

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _gk15(f, lo: float, hi: float):
    """(integral, error estimate) of f over [lo, hi], lo < hi."""
    half = 0.5 * (hi - lo)
    fx = f(0.5 * (lo + hi) + half * _XGK)
    kronrod = float((_WGK * fx).sum())
    resabs = half * float((_WGK * np.abs(fx)).sum())
    resasc = half * float((_WGK * np.abs(fx - 0.5 * kronrod)).sum())
    err = abs((kronrod - float((_WG * fx).sum())) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return kronrod * half, err


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(integral of f over [a, b], estimate of its absolute error); b may be inf.

    `f` maps an ndarray of abscissae to the ndarray of its values; it is
    called once per subinterval, on that subinterval's 15 nodes.  Bisects the
    subinterval with the largest error estimate until the summed estimate is
    at most max(epsabs, epsrel * |integral|) or `limit` subintervals exist.
    It never raises on missing accuracy: callers compare the returned error
    with their own tolerance.  On [a, inf) the integrand is taken to (0, 1]
    by t = a + (1 - x) / x, dt = -dx / x^2, as qagi does.
    """
    if math.isinf(b):
        return quad(lambda x: f(a + (1.0 - x) / x) / (x * x), 0.0, 1.0,
                    epsabs, epsrel, limit)
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    while True:
        total = math.fsum(item[3] for item in heap)
        error = math.fsum(-item[0] for item in heap)
        if error <= max(epsabs, epsrel * abs(total)) or len(heap) >= limit:
            return total, error
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for left, right in ((lo, mid), (mid, hi)):
            val, err = _gk15(f, left, right)
            heapq.heappush(heap, (-err, left, right, val))
