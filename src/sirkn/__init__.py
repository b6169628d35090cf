"""SIR epidemics with random recovery rates and random edge infection
weights on complete graphs.

The package provides an exact event-driven engine, an equivalent static
percolation engine for final sizes, analytic references (critical rate,
no-spread probabilities, mean-field limit), and a Monte Carlo sweep harness
that locates the phase transition at lambda_c = 1 / (E[rho] * E[1/xi]).
"""

# Set before the submodules load: `experiment` records it in sweep provenance.
__version__ = "0.1.0"

from .distributions import DistSpec, critical_lambda, parse_dist
from .dynamics import EpidemicState, RunResult, gillespie_run
from .environment import Environment
from .experiment import ExperimentConfig, run_batch, sweep, wilson_interval
from .meanfield import MeanFieldState, final_size_fixed_point, ode_solve
from .percolation import er_giant_component, percolation_final_size

__all__ = [
    "DistSpec", "parse_dist", "critical_lambda",
    "Environment",
    "EpidemicState", "RunResult", "gillespie_run",
    "percolation_final_size", "er_giant_component",
    "MeanFieldState", "ode_solve", "final_size_fixed_point",
    "ExperimentConfig", "run_batch", "sweep", "wilson_interval",
    "__version__",
]
