"""Exception types shared across the package, and the shared check on lambda."""

import math


class SirknError(Exception):
    """Base class for all package errors."""


class ParamViolation(SirknError, ValueError):
    """A distribution parameter is outside its allowed range."""


class SupportViolation(SirknError, ValueError):
    """A distribution's support violates its role constraint."""


class DegenerateMoments(SirknError, ValueError):
    """Moments make the critical rate undefined (e.g. mean weight 0)."""


class IndexOutOfRange(SirknError, IndexError):
    """Vertex index outside [0, n)."""


class SelfLoop(SirknError, ValueError):
    """Edge weight queried for i == j."""


class DeadState(SirknError, RuntimeError):
    """Event selection requested from a state with zero total rate."""


class QuadratureFailure(SirknError, RuntimeError):
    """Numeric integration did not reach the requested accuracy."""


class StepTooLarge(SirknError, ValueError):
    """ODE step so large that conservation drifted past tolerance."""


def check_lambda(lam: float) -> None:
    """Reject an infection rate that is negative, nan or infinite."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ParamViolation(f"lambda must be finite and satisfy lambda >= 0 (got {lam})")
