#!/usr/bin/env python3
"""Reproduce the phase-transition evidence at desk scale.

Runs annealed sweeps for the classic unit-rate model and for a random
environment (two-point recovery rates, uniform edge weights), with the
infection rate expressed in multiples of the critical value
lambda_c = 1 / (E[rho] * E[1/xi]).  Writes sweep.csv / sweep.json under
out/ and prints the exceedance table.

Usage: python scripts/run_phase_sweep.py [--reps 2000] [--jobs 2]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sirkn.experiment import (ExperimentConfig, config_hash, sweep,  # noqa: E402
                              write_sweep)
from sirkn.distributions import parse_dist  # noqa: E402

MODELS = {
    "classic": ("constant:1", "constant:1"),
    "random-env": ("two_point:1:0.5:2", "uniform:0:1"),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=20240811)
    args = ap.parse_args()

    for name, (xi_text, rho_text) in MODELS.items():
        config = ExperimentConfig(
            xi_spec=parse_dist(xi_text, "recovery"),
            rho_spec=parse_dist(rho_text, "weight"),
            n_grid=(100, 1000, 10_000),
            lambda_grid=(0.5, 1.0, 2.0),
            lambda_units="lambda_c",
            replications=args.reps,
            engine="percolation",
            measure="annealed",
            epsilon=0.05,
            master_seed=args.seed,
        )
        result = sweep(config, jobs=args.jobs)
        outdir = Path("out") / f"{name}-{config_hash(config)}"
        csv_path, _ = write_sweep(result, outdir)
        print(f"\n=== {name}: lambda_c = {result.lambda_c:.6g} -> {csv_path}")
        print(f"{'lambda/lc':>10} {'n':>7} {'mean r':>9} {'P(r/n>=eps)':>12} {'P(r=1)':>8}")
        for row in result.rows:
            print(f"{row.lam_over_lambda_c:>10.2f} {row.n:>7d} {row.mean_r_inf:>9.2f} "
                  f"{row.exceed_probability:>12.4f} {row.p_no_spread:>8.4f}")
        for w in result.supercritical_witnesses:
            print(f"witness: lambda={w['lambda']:.4g} c={w['c']} b={w['b']:.4f} "
                  f"epsilon_below_z_star={w['epsilon_below_z_star']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
