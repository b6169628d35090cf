"""Statistical references that only the tests use.

The two-sample chi-square compares final-size samples from two engines, and
`cdf` gives the analytic distribution function of a law for goodness-of-fit
tests.  Neither is needed to run sirkn, so they live here, beside the tests
that call them, and the package keeps numpy as its only run-time dependency.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from sirkn.distributions import DistSpec


def chi_square_two_sample(a: np.ndarray, b: np.ndarray,
                          min_pooled: int = 10) -> Tuple[float, int, float]:
    """Two-sample chi-square on integer-valued samples.

    Buckets are the pooled distinct values, merged (in value order) until
    each pooled bucket holds at least `min_pooled` observations.  Returns
    (statistic, dof, p_value); degenerate bucketings return p = 1.
    """
    from scipy.stats import chi2

    a = np.asarray(a)
    b = np.asarray(b)
    values = np.union1d(a, b)
    ca = np.array([(a == v).sum() for v in values], dtype=float)
    cb = np.array([(b == v).sum() for v in values], dtype=float)
    pooled = ca + cb
    # merge adjacent buckets until every pooled count is large enough
    ma, mb = [], []
    acc_a = acc_b = 0.0
    for k in range(len(values)):
        acc_a += ca[k]
        acc_b += cb[k]
        if acc_a + acc_b >= min_pooled:
            ma.append(acc_a)
            mb.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0:
        if ma:
            ma[-1] += acc_a
            mb[-1] += acc_b
        else:
            ma, mb = [acc_a], [acc_b]
    ma = np.array(ma)
    mb = np.array(mb)
    if len(ma) < 2:
        return 0.0, 0, 1.0
    na, nb = ma.sum(), mb.sum()
    pooled = ma + mb
    ea = pooled * na / (na + nb)
    eb = pooled * nb / (na + nb)
    stat = float((((ma - ea) ** 2) / ea).sum() + (((mb - eb) ** 2) / eb).sum())
    dof = len(ma) - 1
    return stat, dof, float(chi2.sf(stat, dof))


def cdf(spec: DistSpec, x: Union[float, np.ndarray]):
    """Analytic CDF, vectorized over x."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "constant":
        return (x >= spec.params[0]).astype(float)
    if spec.kind == "uniform":
        a, b = spec.params
        return np.clip((x - a) / (b - a), 0.0, 1.0)
    v1, p1, v2 = spec.params
    return p1 * (x >= v1) + (1.0 - p1) * (x >= v2)
