"""Sweep benchmark for sirkn: end-to-end timings and a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/sirkn`).
Each workload writes a sweep config made from `--seed` and runs
`sirkn sweep --config ... --jobs J --outdir ...` in a fresh interpreter, the
way a user does, as many times as fit in `--seconds`.  Every written
`sweep.json` passes the correctness gate below or the run reports
`"correct": false`.  The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` (replications) and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer ones with `--trace 1`.
The line before it records where and on what the figures were measured.

Scratch files go to `.perfbench_out/` in the checkout.  See
`perfbench/README.md` for the workloads, the metrics and the seed figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# A row whose estimate sits this many standard errors from its analytic
# reference fails the gate.  The gate runs on thousands of rows across a
# benchmark campaign, so the bound is far out in the tail: a correct program
# trips it with probability ~6e-7 per row.
Z_MAX = 5.0

# A run must end within 180 s; no sweep of these workloads comes near this.
SWEEP_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    xi: str
    rho: str
    engine: str
    n_grid: Tuple[int, ...]
    lambda_grid: Tuple[float, ...]
    reps: int
    jobs: int


# Every workload is annealed with lambda in units of lambda_c.  Why each one
# exists, and which layer it stresses, is in BENCHMARK.json and README.md.
WORKLOADS = {
    "perc-subcritical": Workload("constant:1", "constant:1", "percolation",
                                 (1000, 100000), (0.5, 0.9), 1500, 1),
    "perc-random-env": Workload("two_point:1:0.5:2", "uniform:0:1", "percolation",
                                (100, 1000, 10000), (0.5, 1.0, 2.0), 200, 2),
    "dyn-uniform": Workload("two_point:1:0.5:2", "uniform:0:1", "dynamic",
                            (300, 1000), (0.5, 2.0), 75, 1),
}

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "completed_frac": "frac",
}

PER_LAYER = {
    "seeding.stream_calls": "count",
    "seeding.stream_s": "s",
    "seeding.derive_key_calls": "count",
    "seeding.derive_key_s": "s",
    "seeding.mix64_array_calls": "count",
    "seeding.mix64_array_s": "s",
    "environment.inits": "count",
    "environment.init_s": "s",
    "environment.rho_pairs_calls": "count",
    "environment.rho_pairs_values": "count",
    "environment.rho_pairs_s": "s",
    "environment.rho_full_row_calls": "count",
    "environment.rho_full_row_s": "s",
    "environment.xi_block_s": "s",
    "environment.rho_at_calls": "count",
    "distributions.quantile_values": "count",
    "distributions.quantile_s": "s",
    "percolation.runs": "count",
    "percolation.self_s": "s",
    **{f"percolation.run_us_{q}.n{n}": "us"
       for q in ("p50", "p99") for n in (100, 1000, 10000, 100000)},
    "percolation.t_draws": "count",
    "percolation.u_draws": "count",
    "percolation.accept_ratio": "ratio",
    "dynamics.runs": "count",
    "dynamics.events": "count",
    "dynamics.event_us": "us",
    "dynamics.self_s": "s",
    "dynamics.truncated": "count",
    "experiment.collect_s": "s",
    "experiment.no_spread_calls": "count",
    "experiment.no_spread_s": "s",
    "experiment.pool_starts": "count",
    "experiment.worker_cpu_s": "s",
    "experiment.parallel_eff": "ratio",
    "experiment.stats_s": "s",
    "experiment.write_s": "s",
    "meanfield.fixed_point_s": "s",
    "cli.config_s": "s",
    "trace.overhead_frac": "frac",
}

# Layers whose spans run inside pool workers; with jobs > 1 they are taken
# from a second traced sweep at jobs 1.
ENGINE_LAYERS = ("seeding.", "environment.", "distributions.", "percolation.",
                 "dynamics.")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a failed command)."""


def master_seed(seed: int, index: int) -> int:
    """Master seed of the index-th sweep of a run; a function of --seed only."""
    return 1000 * seed + index


def config_text(w: Workload, seed: int) -> str:
    return "\n".join([
        f"xi_spec = {w.xi}",
        f"rho_spec = {w.rho}",
        f"n_grid = {', '.join(str(n) for n in w.n_grid)}",
        f"lambda_grid = {', '.join(repr(l) for l in w.lambda_grid)}",
        "lambda_units = lambda_c",
        f"replications = {w.reps}",
        f"engine = {w.engine}",
        "measure = annealed",
        f"master_seed = {seed}",
    ]) + "\n"


# ---------------------------------------------------------------------------
# Correctness gate


def check_sweep(doc: dict, w: Workload) -> List[str]:
    """Problems with one written sweep.json; empty when it passes.

    The checks test laws, not sample values, so a change that alters
    individual samples but keeps every law still passes:

    * no replication failed;
    * the grid and replication count are the configured ones;
    * P(r = 1) is within Z_MAX binomial standard errors of its exact
      finite-n reference;
    * below lambda_c the mean final size is not above the branching bound
      lambda_c / (lambda_c - lambda) by more than Z_MAX standard errors (the
      written 95% interval alone would fail 2.5% of sweeps where the mean
      sits at the bound, as at n = 1e5, lambda = 0.9 lambda_c);
    * at lambda = 2 lambda_c the exceedance Wilson interval excludes 0.
    """
    problems = []
    rows = doc.get("rows", [])
    expected = len(w.n_grid) * len(w.lambda_grid)
    if len(rows) != expected:
        problems.append(f"sweep has {len(rows)} rows, expected {expected}")
    z_conf = statistics.NormalDist().inv_cdf(0.5 + 0.5 * doc["config"]["confidence"])
    for k, row in enumerate(rows):
        where = f"row {k} (n={row['n']}, lambda/lambda_c={row['lambda_over_lambda_c']:.6g})"
        if row["failures"]:
            problems.append(f"{where}: {row['failures']} replications failed")
        if row["replications"] != w.reps:
            problems.append(f"{where}: {row['replications']} replications, "
                            f"expected {w.reps}")
        q = row["no_spread_finite_n"]
        p = row["p_no_spread"]
        se = math.sqrt(q * (1.0 - q) / row["replications"])
        z = (p - q) / se if se > 0 else (0.0 if p == q else math.inf)
        if abs(z) > Z_MAX:
            problems.append(f"{where}: p_no_spread {p:.6g} is {z:+.2f} standard "
                            f"errors from analytic_no_spread {q:.6g}")
        bound = row["subcritical_mean_bound"]
        if bound is not None:
            mean = row["mean_r_inf"]
            se_mean = (mean - row["mean_ci"][0]) / z_conf
            if mean - Z_MAX * se_mean > bound:
                problems.append(f"{where}: mean_r_inf {mean:.6g} exceeds bound_eq34 "
                                f"{bound:.6g} by more than {Z_MAX} standard errors")
        if math.isclose(row["lambda_over_lambda_c"], 2.0) and row["exceed_ci"][0] <= 0.0:
            problems.append(f"{where}: exceedance interval {row['exceed_ci']} "
                            f"does not exclude 0")
    return problems


# ---------------------------------------------------------------------------
# One sweep in a fresh interpreter


@dataclass
class Sweep:
    master_seed: int
    setup_s: float
    sweep_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    csv: bytes
    problems: List[str]
    versions: dict
    layers: Optional[dict]


def run_sweep(w: Workload, seed: int, jobs: int, workdir: Path, tag: str,
              trace: bool = False) -> Sweep:
    """Run `sirkn sweep` once in a new interpreter, then gate its output."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / f"{tag}.cfg"
    cfg.write_text(config_text(w, seed))
    outdir = workdir / tag
    result = workdir / f"{tag}.result.json"
    cmd = [sys.executable, "-s", str(CHILD), "--src", str(ROOT / "src"),
           "--result", str(result)]
    if trace:
        cmd += ["--trace", str(workdir / f"{tag}.spans.csv")]
    cmd += ["--", "sweep", "--config", str(cfg), "--jobs", str(jobs),
            "--outdir", str(outdir)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sweep {tag} did not finish in {SWEEP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sweep {tag} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    timing = json.loads(result.read_text())
    doc = json.loads((outdir / "sweep.json").read_text())
    rows = doc.get("rows", [])
    return Sweep(
        master_seed=seed,
        setup_s=timing["setup_end"] - started,
        sweep_s=timing["sweep_s"],
        cpu_s=timing["cpu_s"],
        peak_rss_mb=timing["peak_rss_mb"],
        attempted=sum(r["replications"] for r in rows),
        failed=sum(r["failures"] for r in rows),
        csv=(outdir / "sweep.csv").read_bytes(),
        problems=check_sweep(doc, w),
        versions=timing["versions"],
        layers=timing.get("layers"),
    )


# ---------------------------------------------------------------------------
# Runs


def timed_run(w: Workload, seed: int, seconds: float, workdir: Path
              ) -> Tuple[dict, List[Sweep], List[str]]:
    """Sweeps with distinct master seeds while they fit in `seconds`.

    The last sweep repeats the first one's config and must write a
    byte-identical sweep.csv.  `setup_s` and `peak_rss_mb` do not depend on
    the master seed, so they are medians over every sweep.  `sweep_s` and
    `cpu_s` do: on the dynamic workloads the sweeps of one run differ by up
    to 1.6x in work, through the number of major outbreaks.  They are
    therefore the mean over the distinct master seeds, the repeat averaged
    into the first, which is the time per sweep of all the work the run did.
    """
    sweeps: List[Sweep] = []
    problems: List[str] = []
    began = time.monotonic()
    while True:
        t0 = time.monotonic()
        sweeps.append(run_sweep(w, master_seed(seed, len(sweeps)), w.jobs, workdir,
                                f"sweep{len(sweeps)}"))
        took = time.monotonic() - t0
        # room for one more distinct sweep and the closing repeat
        if time.monotonic() - began + 2 * took > seconds:
            break
    repeat = run_sweep(w, master_seed(seed, 0), w.jobs, workdir, "repeat")
    if repeat.csv != sweeps[0].csv:
        problems.append("repeating the first sweep wrote a different sweep.csv")
    sweeps.append(repeat)
    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)

    def per_sweep(field: str) -> float:
        values = [getattr(s, field) for s in sweeps[:-1]]
        values[0] = (values[0] + getattr(repeat, field)) / 2
        return statistics.fmean(values)

    metrics = {
        "setup_s": statistics.median(s.setup_s for s in sweeps),
        "sweep_s": per_sweep("sweep_s"),
        "cpu_s": per_sweep("cpu_s"),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in sweeps),
        "completed_frac": (attempted - failed) / attempted,
    }
    return metrics, sweeps, problems


def traced_run(w: Workload, seed: int, workdir: Path
               ) -> Tuple[dict, List[Sweep], List[str]]:
    """The same sweep untraced, traced and untraced again, and for jobs > 1
    traced at jobs 1 (engine spans inside pool workers are lost).

    The tracing overhead compares the traced sweep with the mean of the two
    untraced ones around it, which cancels a drift in machine speed.
    """
    problems: List[str] = []
    ms = master_seed(seed, 0)
    plain = run_sweep(w, ms, w.jobs, workdir, "plain")
    traced = run_sweep(w, ms, w.jobs, workdir, "traced", trace=True)
    plain_after = run_sweep(w, ms, w.jobs, workdir, "plain-after")
    sweeps = [plain, traced, plain_after]
    layers = dict(traced.layers)
    if w.jobs > 1:
        serial = run_sweep(w, ms, 1, workdir, "traced-jobs1", trace=True)
        sweeps.append(serial)
        layers.update({k: v for k, v in serial.layers.items()
                       if k.startswith(ENGINE_LAYERS)})
    for s in sweeps[1:]:
        if s.csv != plain.csv:
            problems.append("a traced repeat wrote a different sweep.csv")
    layers["trace.overhead_frac"] = (2 * traced.sweep_s
                                     / (plain.sweep_s + plain_after.sweep_s) - 1.0)
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise BenchError(f"trace did not produce {missing}")
    return {k: layers[k] for k in PER_LAYER}, sweeps, problems


def provenance(name: str, w: Workload, seed: int, seconds: float, trace: bool,
               sweeps: List[Sweep]) -> dict:
    sha = None  # unless the checkout is itself a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sirkn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "master_seeds": sorted({s.master_seed for s in sweeps}),
        "reps": w.reps,
        "jobs": w.jobs,
        "seconds": seconds,
        "trace": trace,
        "sweeps": len(sweeps),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        **sweeps[0].versions,
        "setup_s": [s.setup_s for s in sweeps],
        "sweep_s": [s.sweep_s for s in sweeps],
        "cpu_s": [s.cpu_s for s in sweeps],
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: Optional[Path] = None) -> dict:
    """Run one workload; returns the record whose `result` is the output line."""
    if not (ROOT / "src" / "sirkn" / "__init__.py").is_file():
        raise BenchError(f"no sirkn sources under {ROOT / 'src'}; "
                         "run from the root of a sirkn checkout")
    w = WORKLOADS[name]
    if workdir is None:
        workdir = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics, sweeps, problems = traced_run(w, seed, workdir)
        units = PER_LAYER
    else:
        metrics, sweeps, problems = timed_run(w, seed, seconds, workdir)
        units = END_TO_END
    for k, s in enumerate(sweeps):
        problems += [f"sweep {k}: {p}" for p in s.problems]
    record = {
        "provenance": provenance(name, w, seed, seconds, trace, sweeps),
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": sum(s.attempted for s in sweeps),
            "failed": sum(s.failed for s in sweeps),
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()},
        },
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed sweeps may take in total")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"perfbench: incorrect: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
