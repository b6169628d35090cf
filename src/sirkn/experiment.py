"""Monte Carlo batches, lambda sweeps, estimators and persistence.

This layer turns the two engines into reproducible phase-transition
evidence.  It is the one layer that keys streams: one per (grid point,
block of STREAM_BLOCK replications) from the master seed, for every engine
and measure.  Annealed percolation points hand a block's stream to
`percolation.sellke_final_sizes`; every other point hands it to one engine
call after another, so a block's runs draw successive stretches of it.  No
annealed point draws an environment: annealed dynamic runs integrate it out
on the unseeded `Environment`.  Quenched points run either
engine on the one environment the master seed keys.  Every block is a
generator of its own, so results are independent of worker count and
scheduling.  The layer also computes the order-parameter estimators with
confidence intervals and attaches the analytic references (the critical
rate, the subcritical mean bound, the exact and limiting no-spread
probabilities, the major-outbreak final fraction) that the tests check the
simulations against.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from statistics import NormalDist
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, seeding
from .distributions import (DistSpec, ROLE_RECOVERY, ROLE_WEIGHT, check_roles,
                            critical_lambda, expect_self_over_self_plus,
                            format_dist, mean, parse_dist, psi)
# Not used here; perfbench/child.py traces it under this module's name.
from .distributions import quantile  # noqa: F401
from .dynamics import gillespie_run
from .environment import Environment
from .errors import ParamViolation, SirknError, check_lambda
from .meanfield import final_size_fixed_point
from .percolation import percolation_final_size, sellke_final_sizes

ENGINE_DYNAMIC = "dynamic"
ENGINE_PERCOLATION = "percolation"
MEASURE_ANNEALED = "annealed"
MEASURE_QUENCHED = "quenched"
UNITS_ABSOLUTE = "absolute"
UNITS_LAMBDA_C = "lambda_c"

_TAG_ENV = 0x454E56
_TAG_BLOCK = 0x424C4B

# Replications that draw from one stream; every point keys and cuts its
# replications in blocks of this size, and `sellke_final_sizes` draws a
# block in lockstep.
STREAM_BLOCK = 256


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ExperimentConfig:
    xi_spec: DistSpec
    rho_spec: DistSpec
    n_grid: Tuple[int, ...]
    lambda_grid: Tuple[float, ...]
    replications: int
    engine: str = ENGINE_PERCOLATION
    measure: str = MEASURE_ANNEALED
    epsilon: float = 0.05
    confidence: float = 0.95
    lambda_units: str = UNITS_ABSOLUTE
    master_seed: int = 0

    def __post_init__(self):
        validate_config(self)


def validate_config(config: ExperimentConfig) -> None:
    check_roles(config.xi_spec, config.rho_spec)
    for key in ("n_grid", "lambda_grid"):
        grid = getattr(config, key)
        if not grid:
            raise ParamViolation(f"{key} must be non-empty")
        if len(set(grid)) < len(grid):
            raise ParamViolation(f"{key} must not repeat a value (got {list(grid)})")
    for n in config.n_grid:
        if n < 1:
            raise ParamViolation(f"n must satisfy n >= 1 (got {n})")
    for lam in config.lambda_grid:
        check_lambda(lam)
    if config.replications < 1:
        raise ParamViolation(
            f"replications must satisfy replications >= 1 (got {config.replications})")
    if not 0.0 < config.epsilon < 1.0:
        raise ParamViolation(f"epsilon must lie in (0, 1) (got {config.epsilon})")
    if not 0.0 < config.confidence < 1.0:
        raise ParamViolation(
            f"confidence must lie in (0, 1) (got {config.confidence})")
    if config.engine not in (ENGINE_DYNAMIC, ENGINE_PERCOLATION):
        raise ParamViolation(f"engine must be dynamic|percolation (got {config.engine!r})")
    if config.measure not in (MEASURE_ANNEALED, MEASURE_QUENCHED):
        raise ParamViolation(f"measure must be annealed|quenched (got {config.measure!r})")
    if config.lambda_units not in (UNITS_ABSOLUTE, UNITS_LAMBDA_C):
        raise ParamViolation(
            f"lambda_units must be absolute|lambda_c (got {config.lambda_units!r})")


def resolved_lambda_grid(config: ExperimentConfig) -> Tuple[float, ...]:
    """Absolute infection rates; multiples of lambda_c are resolved here."""
    if config.lambda_units == UNITS_ABSOLUTE:
        return tuple(float(l) for l in config.lambda_grid)
    lc = critical_lambda(config.xi_spec, config.rho_spec)
    return tuple(float(l) * lc for l in config.lambda_grid)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Field values of a config as JSON values, laws in their text form."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    values.update(xi_spec=format_dist(config.xi_spec), rho_spec=format_dist(config.rho_spec),
                  n_grid=list(config.n_grid), lambda_grid=list(config.lambda_grid))
    return values


def config_hash(config: ExperimentConfig | dict) -> str:
    """First 12 hex digits of the sha256 of a resolved configuration, either
    an ExperimentConfig or a plain dict, as sorted JSON."""
    if isinstance(config, ExperimentConfig):
        config = config_to_dict(config)
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


def read_config_fields(text: str) -> dict:
    """Raw field text of the plain-text key = value config document.

    Nothing is split or converted, so command-line flags can replace any
    field before `config_from_dict` converts them all.
    """
    names = {f.name for f in fields(ExperimentConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamViolation(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in names:
            raise ParamViolation(f"config line {lineno}: unknown field {key!r}")
        if key in values:
            raise ParamViolation(f"config line {lineno}: field {key!r} given twice")
        values[key] = val
    return values


def _number(key: str, kind: type, val):
    try:
        out = kind(val)
        if kind is float or isinstance(val, str) or out == val:  # int(2.5) is 2
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a number"
    raise ParamViolation(f"config field {key} must be {what} (got {val!r})")


def config_from_dict(values: dict) -> ExperimentConfig:
    """Build a config from field values given as text, by a config file or
    by command-line flags.

    This is the one place where config values are converted: laws are
    parsed, a grid given as text is split at commas (empty items skipped),
    and a number that does not convert (or is not integral, for an integer
    field) raises ParamViolation naming its field.  `ExperimentConfig`
    checks the result, choice fields included; absent fields default.
    """
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ParamViolation(f"config missing required fields: {', '.join(missing)}")
    given = {f.name: values[f.name] for f in fields(ExperimentConfig) if f.name in values}
    given["xi_spec"] = parse_dist(str(given["xi_spec"]), ROLE_RECOVERY)
    given["rho_spec"] = parse_dist(str(given["rho_spec"]), ROLE_WEIGHT)
    for key, kind in (("n_grid", int), ("lambda_grid", float)):
        items = given[key]
        if isinstance(items, str):
            items = [v.strip() for v in items.split(",") if v.strip()]
        given[key] = tuple(_number(key, kind, v) for v in items)
    for key, kind in (("replications", int), ("epsilon", float), ("confidence", float),
                      ("master_seed", int)):
        if key in given:
            given[key] = _number(key, kind, given[key])
    return ExperimentConfig(**given)


# ---------------------------------------------------------------------------
# Interval statistics


def wilson_interval(successes: int, trials: int, level: float) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ParamViolation(f"trials must satisfy trials >= 1 (got {trials})")
    if not 0 <= successes <= trials:
        raise ParamViolation(
            f"successes must lie in [0, trials] (got {successes}/{trials})")
    if not 0.0 < level < 1.0:
        raise ParamViolation(f"level must lie in (0, 1) (got {level})")
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def mean_interval(samples: np.ndarray, level: float) -> Tuple[float, float, float]:
    """(mean, lo, hi) with a normal-approximation CI."""
    samples = np.asarray(samples, dtype=float)
    m = float(samples.mean())
    if samples.size < 2:
        return m, m, m
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    half = z * float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return m, m - half, m + half


# ---------------------------------------------------------------------------
# Replication streams and batch collection


def _env_seed(master_seed: int) -> int:
    """Seed of the one environment of a quenched sweep."""
    return seeding.derive_key(master_seed, _TAG_ENV)


def _block_seed(master_seed: int, grid_index: int, block: int) -> int:
    return seeding.derive_key(master_seed, _TAG_BLOCK, grid_index, block)


def _collect_range(task):
    config, grid_index, n, lam, start, stop = task
    sellke = config.engine == ENGINE_PERCOLATION and config.measure == MEASURE_ANNEALED
    if not sellke:  # annealed dynamic runs use the unseeded environment
        env = Environment(n, _env_seed(config.master_seed)
                          if config.measure == MEASURE_QUENCHED else None,
                          config.xi_spec, config.rho_spec)
        engine = gillespie_run if config.engine == ENGINE_DYNAMIC else percolation_final_size
    parts, failed = [], 0
    for first in range(start, stop, STREAM_BLOCK):
        size = min(STREAM_BLOCK, stop - first)
        rng = seeding.stream(_block_seed(config.master_seed, grid_index,
                                         first // STREAM_BLOCK))
        if sellke:
            try:
                part = sellke_final_sizes(config.xi_spec, config.rho_spec, n, lam, size, rng)
            except SirknError:  # the whole block fails
                part = ()
        else:
            part = []
            for _ in range(size):
                try:
                    part.append(engine(env, lam, rng).r_infinity)
                except SirknError:  # one run fails; the next draws on
                    pass
        failed += size - len(part)
        parts.append(np.asarray(part, dtype=np.uint32))
    return np.concatenate(parts), failed


def collect_final_sizes(config: ExperimentConfig,
                        points: Sequence[Tuple[int, int, float]],
                        jobs: int = 1) -> List[Tuple[np.ndarray, int]]:
    """Final sizes of the completed replications at each (grid_index, n,
    lambda) point, in replication order, and the number of failed ones.

    Every point draws its replications in blocks of STREAM_BLOCK, one
    stream per (master_seed, grid_index, block).  Annealed percolation
    points hand a block's stream to `sellke_final_sizes`, and a block that
    raises counts all its replications as failed.  Every other point hands
    it to one engine call per replication in turn: annealed dynamic runs on
    the unseeded environment, quenched runs on the master seed's one
    environment, each chunk building its environment once.  A call that
    raises counts one failed replication, and the block's later runs go on
    drawing from the same stream.  Each point's blocks are cut into `jobs`
    contiguous chunks and every chunk of every point goes through one map:
    the builtin one at jobs <= 1 or for a single chunk, else one process
    pool of at most one worker per chunk, which is handed the chunks in
    descending (lambda, n) order, costliest first for both engines, so the
    largest point does not start last; results go back in point order.
    Chunks end on block boundaries, so the output is byte-identical for
    every `jobs` value.
    """
    blocks = -(-config.replications // STREAM_BLOCK)
    bounds = np.linspace(0, blocks, max(jobs, 1) + 1, dtype=int) * STREAM_BLOCK
    bounds = np.minimum(bounds, config.replications)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    tasks = [(config, g, n, lam, a, b) for g, n, lam in points for a, b in spans]
    if jobs <= 1 or len(tasks) == 1:
        chunks = list(map(_collect_range, tasks))
    else:
        order = sorted(range(len(tasks)), reverse=True,
                       key=lambda i: (tasks[i][3], tasks[i][2]))
        chunks = [None] * len(tasks)
        workers = min(jobs, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            ranked = pool.map(_collect_range, [tasks[i] for i in order])
            for i, chunk in zip(order, ranked):
                chunks[i] = chunk
    out = []
    for k, (_, n, lam) in enumerate(points):
        mine = chunks[k * len(spans):(k + 1) * len(spans)]
        samples = np.concatenate([arr for arr, _ in mine])
        if samples.size == 0:
            raise SirknError(f"all {config.replications} replications failed "
                             f"at n={n}, lambda={lam}")
        out.append((samples, sum(fails for _, fails in mine)))
    return out


# ---------------------------------------------------------------------------
# No-spread probability: exact / analytic references


def no_spread_limit(xi_spec: DistSpec, rho_spec: DistSpec, lam: float) -> float:
    """Large-n limit of P(the initial infective infects nobody)."""
    check_lambda(lam)
    return expect_self_over_self_plus(xi_spec, lam * mean(rho_spec))


def no_spread_finite_n(xi_spec: DistSpec, rho_spec: DistSpec, lam: float,
                       n: int) -> float:
    """E[xi / (xi + (lam/n) S)], S the sum of n-1 iid weights: P(r = 1).

    This is psi(n - 1) at s = lam/n (`distributions.psi`): the initial
    infective, infectious for T ~ Exp(xi), misses each of the n - 1 others
    independently with probability phi(lam T / n), phi(u) = E e^{-u rho}.
    """
    check_lambda(lam)
    if n < 1:
        raise ParamViolation(f"n must satisfy n >= 1 (got {n})")
    if n == 1 or lam == 0.0:
        return 1.0
    return psi(xi_spec, rho_spec, lam / n, n - 1)


# ---------------------------------------------------------------------------
# Batch statistics and sweeps


@dataclass
class BatchStats:
    n: int
    lam: float
    lam_over_lambda_c: float
    replications: int  # completed; the statistics use these only
    failures: int
    mean_r_inf: float
    mean_ci: Tuple[float, float]
    mean_final_fraction: float
    mean_final_fraction_ci: Tuple[float, float]
    exceed_probability: float
    exceed_ci: Tuple[float, float]
    p_no_spread: float
    p_no_spread_ci: Tuple[float, float]
    lambda_c: float
    subcritical_mean_bound: Optional[float]
    mean_limit: Optional[float]
    no_spread_finite_n: float
    no_spread_limit: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        d["lambda_over_lambda_c"] = d.pop("lam_over_lambda_c")
        return d


def batch_stats_from_samples(config: ExperimentConfig, n: int, lam: float,
                             samples: np.ndarray, failures: int) -> BatchStats:
    """Estimators of one grid point, with references.

    `subcritical_mean_bound` is the paper's annealed bound lc / (lc - lam),
    and `mean_limit` the large-n limit of E[r] under the point's measure;
    both are None at and above lc.  An annealed point averages over
    environments, so its mean limit is the bound.  A quenched point
    conditions on the one environment its master seed fixes.  With
    w = (lam/n) sum_u rho(0, u), vertex 0 infects about w / xi(0) others,
    each starting an annealed cluster, so the mean limit is
    1 + (w / xi(0)) lc / (lc - lam); P(r = 1) is xi(0) / (xi(0) + w) at n
    and xi(0) / (xi(0) + lam E[rho]) as n grows."""
    lc = critical_lambda(config.xi_spec, config.rho_spec)
    bound = mean_limit = lc / (lc - lam) if lam < lc else None
    if config.measure == MEASURE_QUENCHED:
        env = Environment(n, _env_seed(config.master_seed), config.xi_spec, config.rho_spec)
        xi0 = float(env.xi_block([0])[0])
        w = lam / n * float(env.rho_full_row(0).sum())
        finite = xi0 / (xi0 + w)
        limit = xi0 / (xi0 + lam * mean(config.rho_spec))
        if bound is not None:
            mean_limit = 1.0 + w / xi0 * bound
    else:
        finite = no_spread_finite_n(config.xi_spec, config.rho_spec, lam, n)
        limit = no_spread_limit(config.xi_spec, config.rho_spec, lam)
    level = config.confidence
    mean_r, lo, hi = mean_interval(samples, level)
    exceed_hits = int((samples >= config.epsilon * n).sum())
    no_spread_hits = int((samples == 1).sum())
    return BatchStats(
        n=n,
        lam=lam,
        lam_over_lambda_c=lam / lc,
        replications=len(samples),
        failures=failures,
        mean_r_inf=mean_r,
        mean_ci=(lo, hi),
        mean_final_fraction=mean_r / n,
        mean_final_fraction_ci=(lo / n, hi / n),
        exceed_probability=exceed_hits / len(samples),
        exceed_ci=wilson_interval(exceed_hits, len(samples), level),
        p_no_spread=no_spread_hits / len(samples),
        p_no_spread_ci=wilson_interval(no_spread_hits, len(samples), level),
        lambda_c=lc,
        subcritical_mean_bound=bound,
        mean_limit=mean_limit,
        no_spread_finite_n=finite,
        no_spread_limit=limit,
    )


def run_batch(config: ExperimentConfig, n: int, lam: float,
              jobs: int = 1) -> BatchStats:
    """All estimators for one (n, lambda) grid point.

    Annealed mode averages over environments, which neither the Sellke
    sampler nor the dynamic engine draws.  Quenched mode fixes one
    environment from the master seed and varies only the runs' draws.
    """
    [(samples, failures)] = collect_final_sizes(config, [(0, n, lam)], jobs)
    return batch_stats_from_samples(config, n, lam, samples, failures)


@dataclass
class SweepResult:
    """`mean_field_reference` holds, per lambda and for every law, the root z
    of z = 1 - exp(-(lambda/lambda_c) z), the large-n final fraction of a
    major outbreak; `bracketed` is false (z = 0) for lambda <= lambda_c."""

    config: ExperimentConfig
    lambda_c: float
    resolved_lambdas: Tuple[float, ...]
    rows: List[BatchStats]
    supercritical_witnesses: List[dict]
    subcritical_checks: List[dict]
    mean_field_reference: List[dict]
    provenance: dict


def sweep(config: ExperimentConfig, jobs: int = 1) -> SweepResult:
    """Full (lambda, n) grid of batches plus the theorem-shaped summaries.

    For each supercritical lambda the witnessed pair is (c, b) =
    (epsilon, min over the n grid of the exceedance probability), and
    `epsilon_below_z_star` says whether epsilon lies below the major-outbreak
    fraction z*(lambda / lambda_c); if not, P(r >= epsilon n) decays with n
    and the pair cannot show supercriticality.  For each subcritical lambda
    the exceedance probabilities are checked to be nonincreasing along the
    sorted n grid.
    """
    lc = critical_lambda(config.xi_spec, config.rho_spec)
    lambdas = resolved_lambda_grid(config)
    points = [(g, n, lam) for g, (lam, n)
              in enumerate(itertools.product(lambdas, config.n_grid))]
    rows = [batch_stats_from_samples(config, n, lam, samples, failures)
            for (_, n, lam), (samples, failures)
            in zip(points, collect_final_sizes(config, points, jobs))]
    witnesses = []
    subchecks = []
    mean_field = []
    for lam in sorted(set(lambdas)):
        fp = final_size_fixed_point(lam / lc, 1.0, 0.0)
        mean_field.append({"lambda": lam, "final_size_fraction": fp.value,
                           "bracketed": fp.bracketed})
        lam_rows = sorted((r for r in rows if r.lam == lam), key=lambda r: r.n)
        if lam > lc:
            witnesses.append({
                "lambda": lam,
                "c": config.epsilon,
                "b": min(r.exceed_probability for r in lam_rows),
                "epsilon_below_z_star": config.epsilon < fp.value,
            })
        elif lam < lc:
            probs = [r.exceed_probability for r in lam_rows]
            subchecks.append({
                "lambda": lam,
                "exceed_nonincreasing": all(q <= p for p, q in zip(probs, probs[1:])),
            })
    return SweepResult(
        config=config,
        lambda_c=lc,
        resolved_lambdas=lambdas,
        rows=rows,
        supercritical_witnesses=witnesses,
        subcritical_checks=subchecks,
        mean_field_reference=mean_field,
        provenance={
            "config_hash": config_hash(config),
            "master_seed": config.master_seed,
            "engine": config.engine,
            "version": __version__,
        },
    )


# ---------------------------------------------------------------------------
# Persistence

SWEEP_CSV_COLUMNS = ("n", "lambda", "lambda_over_lambda_c", "mean_r_inf",
                     "ci_lo", "ci_hi", "exceed_prob", "exceed_lo", "exceed_hi",
                     "p_no_spread", "analytic_no_spread", "bound_eq34")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def sweep_csv_text(result: SweepResult) -> str:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for r in result.rows:
        lines.append(",".join([
            _fmt(r.n), _fmt(r.lam), _fmt(r.lam_over_lambda_c), _fmt(r.mean_r_inf),
            _fmt(r.mean_ci[0]), _fmt(r.mean_ci[1]), _fmt(r.exceed_probability),
            _fmt(r.exceed_ci[0]), _fmt(r.exceed_ci[1]), _fmt(r.p_no_spread),
            _fmt(r.no_spread_finite_n), _fmt(r.subcritical_mean_bound),
        ]))
    return "\n".join(lines) + "\n"


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "config": config_to_dict(result.config),
        "lambda_c": result.lambda_c,
        "resolved_lambdas": list(result.resolved_lambdas),
        "rows": [r.to_dict() for r in result.rows],
        "supercritical_witnesses": result.supercritical_witnesses,
        "subcritical_checks": result.subcritical_checks,
        "mean_field_reference": result.mean_field_reference,
        "provenance": result.provenance,
    }


def write_sweep(result: SweepResult, outdir) -> Tuple[Path, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "sweep.csv"
    json_path = outdir / "sweep.json"
    csv_path.write_text(sweep_csv_text(result))
    json_path.write_text(json.dumps(sweep_to_dict(result), sort_keys=True,
                                    indent=2) + "\n")
    return csv_path, json_path
