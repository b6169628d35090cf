#!/usr/bin/env python3
"""Compare the event-driven engine against the percolation engine.

Draws final-size samples from both engines on a small grid and prints the
two-sample chi-square p-value per grid point.  The two engines realize the
same law by construction, so p-values should look uniform.  The weight
laws cover both event selections of the dynamic engine: thinning for the
constant and uniform laws, direct selection for the sparse two-point law.
constant:0.5 thins at an envelope below 1 in both engines; at the same
seeds both engines scale it out exactly, so its rows repeat the constant:1
rows.

Usage: python scripts/run_engine_agreement.py [--reps 5000]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sirkn.distributions import critical_lambda, moments, parse_dist  # noqa: E402
from sirkn.experiment import (ExperimentConfig, chi_square_two_sample,  # noqa: E402
                              collect_final_sizes)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=5000)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print(f"{'xi':>18} {'rho':>21} {'lam/lc':>7} {'n':>4} {'p-value':>8}")
    for xi_text in ("constant:1", "two_point:1:0.5:2"):
        for rho_text in ("constant:1", "constant:0.5", "uniform:0:1",
                         "two_point:0.01:0.99:1"):
            xi = parse_dist(xi_text, "recovery")
            rho = parse_dist(rho_text, "weight")
            lc = critical_lambda(moments(rho, xi))
            cells = [(mult, n) for mult in (0.5, 2.0) for n in (10, 30)]
            # every cell reuses grid index 0: the streams of a one-point run
            points = [(0, n, mult * lc) for mult, n in cells]
            samples = {}
            for engine in ("dynamic", "percolation"):
                cfg = ExperimentConfig(
                    xi_spec=xi, rho_spec=rho, n_grid=(10, 30),
                    lambda_grid=(0.5, 2.0), lambda_units="lambda_c",
                    replications=args.reps, engine=engine,
                    master_seed=args.seed)
                samples[engine] = collect_final_sizes(cfg, points, jobs=args.jobs)
            for (mult, n), (dyn, _), (perc, _) in zip(
                    cells, samples["dynamic"], samples["percolation"]):
                _, _, p = chi_square_two_sample(dyn, perc)
                print(f"{xi_text:>18} {rho_text:>21} {mult:>7.2f} {n:>4d} {p:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
