"""Command-line entry point.

Subcommands expose the two engines, the sweep harness, the mean-field
reference, the Erdos-Renyi comparison and the no-spread estimator.  Every
invocation resolves its full configuration, embeds it in the output files,
and writes to ./out/<config-hash>/ unless --outdir is given, so identical
invocations produce byte-identical artifacts at any --jobs value.

Exit codes: 0 success, 1 validation or usage error (message names the
violated constraint), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import seeding
from .distributions import ROLE_RECOVERY, ROLE_WEIGHT, format_dist, parse_dist
from .dynamics import gillespie_run, trajectory_rows
from .environment import Environment
from .errors import ParamViolation, SirknError, SupportViolation
from .experiment import (ExperimentConfig, config_from_dict, config_to_dict,
                         config_hash, read_config_fields, run_batch, sweep,
                         write_sweep)
from .meanfield import MeanFieldState, final_size_fixed_point, ode_solve
from .percolation import er_giant_component, percolation_final_size

_TAG_CLI_ENV = 0x434C45
_TAG_CLI_RUN = 0x434C52


def _outdir(args, resolved: dict | ExperimentConfig) -> Path:
    return Path(args.outdir) if args.outdir else Path("out") / config_hash(resolved)


def _write(path: Path, text: str) -> None:
    # the directory is made at the first write, so a failed command leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParamViolation(message)


def _jobs(args) -> int:
    _require(args.jobs >= 0, f"jobs >= 0 is required (got {args.jobs})")
    return args.jobs or (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_run(args, engine, options=()) -> int:
    """One run of `simulate` or `percolate`: the engine call is
    engine(env, lambda, run_seed, *options), where options name the
    subcommand's own flags, passed on in order and recorded by name."""
    xi = parse_dist(args.xi, ROLE_RECOVERY)
    rho = parse_dist(args.rho, ROLE_WEIGHT)
    resolved = {
        "subcommand": args.subcommand,
        "n": args.n,
        "lambda": args.lam,
        "xi_spec": format_dist(xi),
        "rho_spec": format_dist(rho),
        "seed": args.seed,
    }
    resolved.update((name, getattr(args, name)) for name in options)
    out = _outdir(args, resolved)
    env = Environment(args.n, seeding.derive_key(args.seed, _TAG_CLI_ENV), xi, rho)
    result = engine(env, args.lam, seeding.derive_key(args.seed, _TAG_CLI_RUN),
                    *(resolved[name] for name in options))
    _write_json(out / "run.json", {"config": resolved, "result": result.to_dict()})
    if resolved.get("trajectory"):
        rows = trajectory_rows(result, args.n)
        lines = ["time,event,vertex,s_count,i_count,r_count"]
        for t, kind, vertex, s, i, r in rows:
            lines.append(f"{t!r},{kind},{vertex},{s},{i},{r}")
        _write(out / "trajectory.csv", "\n".join(lines) + "\n")
    print(out / "run.json")
    return 0


def _config_from_args(args) -> ExperimentConfig:
    # flags replace the file's raw field text; config_from_dict converts once
    values = read_config_fields(Path(args.config).read_text()) if args.config else {}
    overrides = {
        "xi_spec": args.xi,
        "rho_spec": args.rho,
        "n_grid": args.n_grid.split(",") if args.n_grid else None,
        "lambda_grid": args.lambda_grid.split(",") if args.lambda_grid else None,
        "lambda_units": args.lambda_units,
        "replications": args.reps,
        "engine": args.engine,
        "measure": args.measure,
        "epsilon": args.epsilon,
        "confidence": args.confidence,
        "master_seed": args.seed,
    }
    values.update((key, val) for key, val in overrides.items() if val is not None)
    return config_from_dict(values)


def _cmd_sweep(args) -> int:
    jobs = _jobs(args)
    config = _config_from_args(args)
    out = _outdir(args, config)
    result = sweep(config, jobs=jobs)
    csv_path, json_path = write_sweep(result, out)
    print(csv_path)
    print(json_path)
    return 0


def _cmd_meanfield(args) -> int:
    s0 = args.s0 if args.s0 is not None else 1.0 - args.i0
    resolved = {
        "subcommand": "meanfield",
        "lambda": args.lam,
        "s0": s0,
        "i0": args.i0,
        "step": args.step,
        "horizon": args.horizon,
    }
    out = _outdir(args, resolved)
    # by subtraction r can come out a rounding error below 0
    init = MeanFieldState(s=s0, i=args.i0, r=max(0.0, 1.0 - s0 - args.i0))
    traj = ode_solve(args.lam, init, horizon=args.horizon, step=args.step)
    fp = final_size_fixed_point(args.lam, s0, args.i0)
    lines = ["t,s,i,r"]
    for st in traj:
        lines.append(f"{st.t!r},{st.s!r},{st.i!r},{st.r!r}")
    _write(out / "meanfield.csv", "\n".join(lines) + "\n")
    terminal = traj[-1]
    _write_json(out / "meanfield.json", {
        "config": resolved,
        "terminal": {"t": terminal.t, "s": terminal.s, "i": terminal.i,
                     "r": terminal.r},
        "fixed_point": {"value": fp.value, "bracketed": fp.bracketed},
    })
    print(out / "meanfield.json")
    return 0


def _cmd_er(args) -> int:
    resolved = {"subcommand": "er", "n": args.n, "mu": args.mu, "seed": args.seed}
    out = _outdir(args, resolved)
    size = er_giant_component(args.n, args.mu, args.seed)
    _write_json(out / "er.json", {
        "config": resolved,
        "largest_component": size,
        "largest_component_fraction": size / args.n,
    })
    print(out / "er.json")
    return 0


def _cmd_no_spread(args) -> int:
    jobs = _jobs(args)
    config = config_from_dict({
        "xi_spec": args.xi,
        "rho_spec": args.rho,
        "n_grid": [args.n],
        "lambda_grid": [args.lam],
        "replications": args.reps,
        "engine": args.engine,
        "master_seed": args.seed,
    })
    resolved = config_to_dict(config)
    resolved["subcommand"] = "no-spread"
    out = _outdir(args, resolved)
    stats = run_batch(config, args.n, args.lam, jobs=jobs)
    _write_json(out / "no_spread.json", {
        "config": resolved,
        "estimate": stats.p_no_spread,
        "ci": list(stats.p_no_spread_ci),
        "finite_n_analytic": stats.no_spread_finite_n,
        "limit_analytic": stats.no_spread_limit,
    })
    print(out / "no_spread.json")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirkn",
        description="SIR epidemics with random recovery rates and edge "
                    "weights on complete graphs",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--outdir", default=None,
                       help="output directory (default out/<config-hash>/)")

    def add_model(p):
        p.add_argument("--n", type=int, required=True, help="vertex count")
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="infection rate (lambda >= 0)")
        p.add_argument("--xi", default="constant:1",
                       help="recovery-rate law, e.g. constant:1, two_point:1:0.5:2")
        p.add_argument("--rho", default="constant:1",
                       help="edge-weight law, e.g. constant:1, uniform:0:1")
        p.add_argument("--seed", type=int, default=0, help="master seed")

    p = sub.add_parser("simulate", help="one event-driven run", exit_on_error=False)
    add_model(p)
    p.add_argument("--max-events", type=int, default=None)
    p.add_argument("--trajectory", action="store_true",
                   help="also write trajectory.csv")
    add_common(p)
    p.set_defaults(func=functools.partial(_cmd_run, engine=gillespie_run,
                                          options=("max_events", "trajectory")))

    p = sub.add_parser("percolate", help="one reachability run", exit_on_error=False)
    add_model(p)
    add_common(p)
    p.set_defaults(func=functools.partial(_cmd_run, engine=percolation_final_size))

    p = sub.add_parser("sweep", help="Monte Carlo grid sweep", exit_on_error=False)
    p.add_argument("--config", default=None, help="config file path")
    p.add_argument("--xi", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--n-grid", default=None, help="comma list, e.g. 100,1000")
    p.add_argument("--lambda-grid", default=None, help="comma list, e.g. 0.5,2")
    p.add_argument("--lambda-units", choices=["absolute", "lambda_c"],
                   default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--engine", choices=["dynamic", "percolation"], default=None)
    p.add_argument("--measure", choices=["annealed", "quenched"], default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--confidence", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = available parallelism)")
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("meanfield", help="deterministic limit trajectory",
                       exit_on_error=False)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--i0", type=float, default=1e-3)
    p.add_argument("--s0", type=float, default=None)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=50.0)
    add_common(p)
    p.set_defaults(func=_cmd_meanfield)

    p = sub.add_parser("er", help="Erdos-Renyi largest component", exit_on_error=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, required=True, help="mean degree")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_er)

    p = sub.add_parser("no-spread", help="P(final size = 1) vs analytic values",
                       exit_on_error=False)
    add_model(p)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--engine", choices=["dynamic", "percolation"],
                   default="percolation")
    p.add_argument("--jobs", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_no_spread)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits 0, usage errors exit 2
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ParamViolation, SupportViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SirknError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
