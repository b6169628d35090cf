"""At lambda = lambda_c the final size depends on the recovery law, through
the offspring variance.

At criticality an infective's offspring count is mixed Poisson with mean 1
and variance sigma^2 = 2 E[1/xi^2] / E[1/xi]^2 (classic law: 2).  In the
critical window the exploration walk is sigma B(x) + a x - x^2 / 2 with
x = k / n^{2/3}; substituting x = sigma^{2/3} y makes it law-free, and the
progeny tail sqrt(2 / (pi sigma^2)) k^{-1/2} cut off at that scale gives
E[r] proportional to sigma^{-2/3} n^{1/3} (Martin-Lof 1998; Aldous 1997).
So E[r] / n^{1/3} separates recovery laws of different sigma, and the values
scaled by sigma^{2/3} agree.  A wrong E[1/xi^2], or a critical scale that
did not depend on the law, fails one of the two tests.
"""

import math

import numpy as np
import pytest
from scipy import stats

from sirkn.distributions import (ROLE_RECOVERY, ROLE_WEIGHT, as_mixture, critical_lambda,
                                 mean_inverse, parse_dist)
from sirkn.experiment import ExperimentConfig, collect_final_sizes

N = 10_000
REPS = 51_200
RHO1 = parse_dist("constant:1", ROLE_WEIGHT)
# classic, narrow and wide recovery laws; sigma^2 = 2, 2.22 and 6.04
LAWS = ("constant:1", "two_point:1:0.5:2", "two_point:1:0.1:10")


def offspring_variance(xi) -> float:
    """2 E[1/xi^2] / E[1/xi]^2 for a law of atoms."""
    inv2 = sum(w / comp[1] ** 2 for w, comp in as_mixture(xi))
    return 2.0 * inv2 / mean_inverse(xi) ** 2


@pytest.fixture(scope="module")
def critical_means():
    """Per law: (E[r] / n^{1/3}, its standard error, sigma^2), by the Sellke
    sampler at lambda = lambda_c, each law from its own master seed."""
    out = []
    for seed, text in enumerate(LAWS):
        xi = parse_dist(text, ROLE_RECOVERY)
        lam_c = critical_lambda(xi, RHO1)
        config = ExperimentConfig(xi_spec=xi, rho_spec=RHO1, n_grid=(N,), lambda_grid=(lam_c,),
                                  replications=REPS, master_seed=seed)
        [(samples, failures)] = collect_final_sizes(config, [(0, N, lam_c)])
        assert failures == 0
        scale = N ** (1.0 / 3.0)
        out.append((samples.mean() / scale,
                    samples.std(ddof=1) / math.sqrt(samples.size) / scale,
                    offspring_variance(xi)))
    return out


def test_critical_mean_separates_recovery_laws(critical_means):
    # unscaled, the wide law sits well below the classic one
    (classic, classic_se, _), _, (wide, wide_se, _) = critical_means
    gap = (classic - wide) / math.hypot(classic_se, wide_se)
    assert gap > 5.0, gap


def test_critical_mean_collapses_under_offspring_variance_scaling(critical_means):
    scaled = np.array([m * s2 ** (1.0 / 3.0) for m, _, s2 in critical_means])
    se = np.array([e * s2 ** (1.0 / 3.0) for _, e, s2 in critical_means])
    weights = se ** -2.0
    pooled = (weights * scaled).sum() / weights.sum()
    statistic = float((weights * (scaled - pooled) ** 2).sum())
    p = stats.chi2.sf(statistic, len(scaled) - 1)
    assert p > 0.001, (scaled, se, p)
