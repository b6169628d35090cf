"""Run one `sirkn` command line in this fresh interpreter and time it.

Usage:

    python3 perfbench/child.py --src SRC --result OUT.json [--trace SPANS] -- sweep ...

Everything after `--` is passed to `sirkn.cli.main`, exactly what the
`sirkn` console script does.  Before that call the script wraps a few module
attributes of the package from outside, so that nothing under `src/` has to
know about the benchmark:

* always: `cli._config_from_args` (end of set-up), `cli.sweep` and
  `cli.write_sweep` (the timed sweep, its CPU time and peak RSS);
* with `--trace`: the public functions of every layer, recording one span
  (name, start, end, parent) per call.  Spans stay in memory and are written
  to SPANS when the command has returned; their per-layer aggregates go into
  the result file.

Set-up ends when the configuration has been parsed and validated; the parent
reads that instant on the shared monotonic clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Highest RSS of this process or of any reaped child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tracer:
    """Span recorder; each span is [name, start, end, parent_index, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, out)
            return out

        return traced

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def install_tracer(tracer: Tracer, probe: dict) -> None:
    """Wrap each layer's entry points on the module attributes callers use."""
    import concurrent.futures

    from sirkn import environment, experiment, seeding

    for fn in ("stream", "derive_key", "mix64_array"):
        setattr(seeding, fn, tracer.wrap(f"seeding.{fn}", getattr(seeding, fn)))

    env_cls = environment.Environment
    env_cls.__init__ = tracer.wrap("environment.init", env_cls.__init__)
    env_cls.rho_pairs = tracer.wrap("environment.rho_pairs", env_cls.rho_pairs,
                                    note=lambda a, out: len(out))
    for fn in ("rho_full_row", "xi_block", "rho_at"):
        setattr(env_cls, fn, tracer.wrap(f"environment.{fn}", getattr(env_cls, fn)))

    # `quantile` is imported by name into its two callers.
    for mod in (environment, experiment):
        mod.quantile = tracer.wrap("distributions.quantile", mod.quantile,
                                   note=lambda a, out: int(np.size(a[1])))

    experiment.percolation_final_size = tracer.wrap(
        "percolation.run", experiment.percolation_final_size,
        note=lambda a, out: (a[0].n, out.r_infinity, out.t_draws, out.u_draws))
    experiment.gillespie_run = tracer.wrap(
        "dynamics.run", experiment.gillespie_run,
        note=lambda a, out: (a[0].n, out.events_executed, out.truncated))
    experiment.collect_final_sizes = tracer.wrap(
        "experiment.collect", experiment.collect_final_sizes)
    experiment.no_spread_finite_n = tracer.wrap(
        "experiment.no_spread", experiment.no_spread_finite_n)
    experiment.batch_stats_from_samples = tracer.wrap(
        "experiment.stats", experiment.batch_stats_from_samples)
    experiment.final_size_fixed_point = tracer.wrap(
        "meanfield.fixed_point", experiment.final_size_fixed_point)

    base_pool = concurrent.futures.ProcessPoolExecutor

    class CountingPool(base_pool):
        def __init__(self, *args, **kwargs):
            probe["pool_starts"] += 1
            super().__init__(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = CountingPool


def _pctl(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, probe: dict) -> dict:
    """Aggregate spans into the per-layer figures the benchmark reports."""
    self_s = tracer.self_times()
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    run_us = defaultdict(list)
    m = dict.fromkeys(("environment.rho_pairs_values", "distributions.quantile_values",
                       "percolation.t_draws", "percolation.u_draws",
                       "dynamics.events", "dynamics.truncated"), 0)
    reached = 0
    for span, s in zip(tracer.spans, self_s):
        name, start, end, _, note = span
        calls[name] += 1
        total[name] += end - start
        own[name] += s
        if name == "environment.rho_pairs":
            m["environment.rho_pairs_values"] += note
        elif name == "distributions.quantile":
            m["distributions.quantile_values"] += note
        elif name == "percolation.run":
            n, r, t_draws, u_draws = note
            run_us[n].append((end - start) * 1e6)
            reached += r
            m["percolation.t_draws"] += t_draws
            m["percolation.u_draws"] += u_draws
        elif name == "dynamics.run":
            m["dynamics.events"] += note[1]
            m["dynamics.truncated"] += int(note[2])

    for fn in ("stream", "derive_key", "mix64_array"):
        m[f"seeding.{fn}_calls"] = calls[f"seeding.{fn}"]
        m[f"seeding.{fn}_s"] = own[f"seeding.{fn}"]
    m["environment.inits"] = calls["environment.init"]
    m["environment.init_s"] = own["environment.init"]
    m["environment.rho_pairs_calls"] = calls["environment.rho_pairs"]
    m["environment.rho_pairs_s"] = own["environment.rho_pairs"]
    m["environment.rho_full_row_calls"] = calls["environment.rho_full_row"]
    m["environment.rho_full_row_s"] = own["environment.rho_full_row"]
    m["environment.xi_block_s"] = own["environment.xi_block"]
    m["environment.rho_at_calls"] = calls["environment.rho_at"]
    m["distributions.quantile_s"] = own["distributions.quantile"]

    runs = calls["percolation.run"]
    m["percolation.runs"] = runs
    m["percolation.self_s"] = own["percolation.run"]
    for n in (100, 1000, 10000, 100000):
        m[f"percolation.run_us_p50.n{n}"] = _pctl(run_us.get(n), 50)
        m[f"percolation.run_us_p99.n{n}"] = _pctl(run_us.get(n), 99)
    u_draws = m["percolation.u_draws"]
    m["percolation.accept_ratio"] = (reached - runs) / u_draws if u_draws else 0.0

    m["dynamics.runs"] = calls["dynamics.run"]
    events = m["dynamics.events"]
    m["dynamics.event_us"] = total["dynamics.run"] / events * 1e6 if events else 0.0
    m["dynamics.self_s"] = own["dynamics.run"]

    m["experiment.collect_s"] = total["experiment.collect"]
    m["experiment.no_spread_calls"] = calls["experiment.no_spread"]
    m["experiment.no_spread_s"] = total["experiment.no_spread"]
    # stats without the no-spread reference it calls
    m["experiment.stats_s"] = own["experiment.stats"]
    m["experiment.write_s"] = probe["write_s"]
    m["experiment.pool_starts"] = probe["pool_starts"]
    m["experiment.worker_cpu_s"] = probe["worker_cpu_s"]
    collect = m["experiment.collect_s"]
    m["experiment.parallel_eff"] = (probe["worker_cpu_s"] / (probe["jobs"] * collect)
                                    if probe["pool_starts"] and collect else 0.0)
    m["meanfield.fixed_point_s"] = total["meanfield.fixed_point"]
    m["cli.config_s"] = probe["config_s"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding sirkn/")
    parser.add_argument("--result", required=True, help="where to write timings")
    parser.add_argument("--trace", default=None, help="trace this run; spans file")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import scipy
    import sirkn.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"sirkn imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    probe = {"pool_starts": 0, "jobs": 1, "worker_cpu_s": 0.0, "write_s": 0.0,
             "config_s": 0.0}
    mark = {}

    config_from_args = cli._config_from_args
    sweep = cli.sweep
    write_sweep = cli.write_sweep

    def timed_config(parsed):
        t0 = time.perf_counter()
        config = config_from_args(parsed)
        mark["setup_end"] = time.monotonic()
        probe["config_s"] = time.perf_counter() - t0
        return config

    def timed_sweep(config, jobs=1):
        probe["jobs"] = jobs
        mark["cpu0"] = _cpu_s()
        mark["kids0"] = _children_cpu_s()
        mark["t0"] = time.perf_counter()
        return sweep(config, jobs=jobs)

    def timed_write(result, outdir):
        t0 = time.perf_counter()
        paths = write_sweep(result, outdir)
        t1 = time.perf_counter()
        probe["write_s"] = t1 - t0
        probe["worker_cpu_s"] = _children_cpu_s() - mark["kids0"]
        mark["sweep_s"] = t1 - mark["t0"]
        mark["cpu_s"] = _cpu_s() - mark["cpu0"]
        return paths

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracer(tracer, probe)
    cli._config_from_args = timed_config
    cli.sweep = timed_sweep
    cli.write_sweep = timed_write

    code = cli.main(cli_argv)
    if code != 0:
        return code
    result = {
        "setup_end": mark["setup_end"],
        "sweep_s": mark["sweep_s"],
        "cpu_s": mark["cpu_s"],
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, probe)
        tracer.write(Path(args.trace))
    Path(args.result).write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
