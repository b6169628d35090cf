"""Distribution families for recovery rates and edge weights.

Two roles exist: "recovery" laws must have support in [1, inf) and "weight"
laws must live in [0, 1] with positive mass above 0.  The family menu is
deliberately small (constant, uniform, two_point) so that the mean weight,
the mean inverse recovery rate and the Laplace transforms all have closed
forms, which the critical-rate and no-spread formulas require exactly.  The
Laplace helpers behind them have one elementwise ndarray body each, which the
quadrature of `psi` and the Sellke sampler share; a float argument gives a
0-d array.

Text syntax, used verbatim by config files and CLI flags::

    constant:1.0
    uniform:0.0:1.0
    two_point:1.0:0.5:2.0
    shifted:uniform:0:1:+1

The last is shorthand: `shifted:<base>:<off>` parses into the base family
with its values moved by off, here `uniform:1:2`, and is echoed that way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParamViolation, QuadratureFailure, SupportViolation
from .quadrature import quad

ROLE_RECOVERY = "recovery"
ROLE_WEIGHT = "weight"

_ARITY = {"constant": 1, "uniform": 2, "two_point": 3}


@dataclass(frozen=True)
class DistSpec:
    """One distribution family instance plus the role it plays.

    kind/params:
      constant(v)          params = (v,)
      uniform(a, b)        params = (a, b), a < b
      two_point(v1, p1, v2) params = (v1, p1, v2), P(v1) = p1

    Every spec is valid: building one checks the family's parameter ranges
    and the role's support and raises ParamViolation or SupportViolation
    naming the violated constraint.  `parse_dist` builds one from text.
    """

    kind: str
    params: tuple
    role: str

    def __post_init__(self):
        if self.role not in (ROLE_RECOVERY, ROLE_WEIGHT):
            raise ParamViolation(f"role must be one of recovery|weight, got {self.role!r}")
        _check_params(self)
        lo, hi = support(self)
        if self.role == ROLE_RECOVERY:
            if lo < 1.0:
                raise SupportViolation(
                    f"recovery support must satisfy value >= 1 (support reaches {lo})"
                )
        else:
            if lo < 0.0 or hi > 1.0:
                raise SupportViolation(
                    f"weight support must lie in [0, 1] (got [{lo}, {hi}])"
                )
            # as_mixture drops atoms without mass
            if not any(comp[-1] > 0 for _, comp in as_mixture(self)):
                raise SupportViolation("weight law must place positive mass above 0")


def check_roles(xi_spec: DistSpec, rho_spec: DistSpec) -> None:
    """Reject a pair of laws whose roles are not (recovery, weight)."""
    if xi_spec.role != ROLE_RECOVERY:
        raise ParamViolation("xi_spec must have role=recovery")
    if rho_spec.role != ROLE_WEIGHT:
        raise ParamViolation("rho_spec must have role=weight")


def support(spec: DistSpec) -> tuple:
    """Closed support interval (lo, hi) of the law."""
    if spec.kind == "two_point":
        v1, _, v2 = spec.params
        return min(v1, v2), max(v1, v2)
    return spec.params[0], spec.params[-1]  # constant (v,), uniform (a, b)


def _check_params(spec: DistSpec) -> None:
    """Family parameter constraints; the role's support constraints are
    checked by the caller, `DistSpec.__post_init__`."""
    if _ARITY.get(spec.kind) != len(spec.params):
        raise ParamViolation(
            f"unknown distribution kind {spec.kind!r} with {len(spec.params)} parameters")
    if spec.kind == "constant":
        (v,) = spec.params
        if not math.isfinite(v):
            raise ParamViolation("constant value must be finite")
    elif spec.kind == "uniform":
        a, b = spec.params
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ParamViolation("uniform endpoints must be finite")
        if not a < b:
            raise ParamViolation(f"uniform requires a < b (got a={a}, b={b})")
    else:
        v1, p1, v2 = spec.params
        if not (0.0 <= p1 <= 1.0):
            raise ParamViolation(f"two_point requires p1 in [0, 1] (got p1={p1})")
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise ParamViolation("two_point values must be finite")


def _numbers(text: str, fields: list) -> tuple:
    try:
        return tuple(float(f) for f in fields)
    except ValueError as exc:
        raise ParamViolation(f"could not parse number in {text!r}: {exc}") from exc


def _parse_raw(text: str) -> tuple:
    """(kind, params) of spec text; a `shifted:` base is moved, not built."""
    kind, *fields = text.split(":")
    kind = kind.strip()  # float() strips the numbers
    if kind == "shifted" and len(fields) >= 3:
        if fields[0].strip() == "shifted":
            raise ParamViolation("shifted base must not itself be shifted")
        kind, params = _parse_raw(":".join(fields[:-1]))
        (off,) = _numbers(text, fields[-1:])
        if not math.isfinite(off):
            raise ParamViolation("shift offset must be finite")
        if kind == "two_point":
            v1, p1, v2 = params
            return kind, (v1 + off, p1, v2 + off)
        return kind, tuple(v + off for v in params)
    if _ARITY.get(kind) != len(fields):
        raise ParamViolation(
            f"unrecognized distribution syntax {text!r}; expected "
            "constant:v | uniform:a:b | two_point:v1:p1:v2 | shifted:<base>:offset"
        )
    return kind, _numbers(text, fields)


def parse_dist(text: str, role: str) -> DistSpec:
    """Parse the colon-separated spec syntax into a (valid) spec."""
    return DistSpec(*_parse_raw(text), role)


def _fmt_param(p: float) -> str:
    # shortest round-trip form so parse(format(spec)) reproduces spec exactly
    return repr(int(p)) if float(p).is_integer() and abs(p) < 1e15 else repr(float(p))


def format_dist(spec: DistSpec) -> str:
    return ":".join([spec.kind] + [_fmt_param(p) for p in spec.params])


# ---------------------------------------------------------------------------
# Sampling and distribution functions


def quantile(spec: DistSpec, u: Union[float, np.ndarray]):
    """Inverse CDF, elementwise: maps uniforms in [0, 1) to the law."""
    if spec.kind == "constant":
        return np.full(np.shape(u), spec.params[0])
    if spec.kind == "uniform":
        a, b = spec.params
        return a + (b - a) * u
    v1, p1, v2 = spec.params
    return np.where(u < p1, v1, v2)


def as_mixture(spec: DistSpec) -> list:
    """Normalize a spec to mixture components for closed-form expectations.

    Returns a list of (weight, component) with component either
    ("atom", v) or ("uniform", a, b).
    """
    if spec.kind == "constant":
        return [(1.0, ("atom", spec.params[0]))]
    if spec.kind == "uniform":
        a, b = spec.params
        return [(1.0, ("uniform", a, b))]
    v1, p1, v2 = spec.params
    comps = []
    if p1 > 0:
        comps.append((p1, ("atom", v1)))
    if p1 < 1:
        comps.append((1.0 - p1, ("atom", v2)))
    return comps


def mean(spec: DistSpec) -> float:
    total = 0.0
    for w, comp in as_mixture(spec):
        total += w * (comp[1] if comp[0] == "atom" else 0.5 * (comp[1] + comp[2]))
    return total


def mean_inverse(spec: DistSpec) -> float:
    """E[1/X]; requires support bounded away from 0 (true for recovery laws)."""
    total = 0.0
    for w, comp in as_mixture(spec):
        if comp[0] == "atom":
            total += w / comp[1]
        else:
            a, b = comp[1], comp[2]
            # log1p form stays accurate when the interval is narrow
            total += w * math.log1p((b - a) / a) / (b - a)
    return total


def expect_self_over_self_plus(spec: DistSpec, c: float) -> float:
    """E[X / (X + c)] for c >= 0, closed form per mixture component."""
    if c == 0.0:
        return 1.0
    total = 0.0
    for w, comp in as_mixture(spec):
        if comp[0] == "atom":
            total += w * comp[1] / (comp[1] + c)
        else:
            a, b = comp[1], comp[2]
            total += w * (1.0 - c * math.log1p((b - a) / (a + c)) / (b - a))
    return total


def _logsumexp(terms: list):
    top = functools.reduce(np.maximum, terms)
    return top + np.log(sum(np.exp(x - top) for x in terms))


def _below_one(mixture: list, s):
    """E[e^{-sX} - 1], each component term formed without cancellation."""
    total = 0.0
    for w, comp in mixture:
        if comp[0] == "atom":
            total += w * np.expm1(-s * comp[1])
        else:
            a, b = comp[1], comp[2]
            z = s * (b - a)
            head = np.expm1(-s * a) * -np.expm1(-z) if a else -0.0  # -0.0 at a = 0
            total += w * (head - _exp_tail(-z)) / z
    return total


def _log_terms(mixture: list, s) -> list:
    """log of each component's share w E[e^{-sX} | component]."""
    terms = []
    for w, comp in mixture:
        if comp[0] == "atom":
            terms.append(math.log(w) - s * comp[1])
        else:
            a, b = comp[1], comp[2]
            z = s * (b - a)
            terms.append(math.log(w) - s * a + np.log(-np.expm1(-z) / z))
    return terms


def log_laplace(spec: DistSpec, s):
    """log E[exp(-s X)] for s >= 0, elementwise over an array (a float gives
    a 0-d array); closed form per mixture component.

    Where E e^{-sX} >= 1/2 this is log1p of E[e^{-sX} - 1], whose component
    terms are all <= 0 and formed without cancellation, so the value keeps
    its relative precision as s -> 0: `psi` raises it to the power n - 1.
    Below 1/2 the components are summed in log space, so the value stays
    finite where exp(-s X) underflows.  A Uniform(a, b) component has
    E e^{-sX} = e^{-sa} h(z) with h(z) = (1 - e^-z) / z, z = s (b - a), and
    e^{-sa} h(z) - 1 = (e^{-sa} - 1) h(z) - (e^-z - 1 + z) / z.
    """
    s = np.asarray(s, dtype=float)
    mixture = as_mixture(spec)
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 is set below
        below_one = _below_one(mixture, s)
        out = np.asarray(np.log1p(below_one))
        far = below_one < -0.5
        if far.any():
            out[far] = _logsumexp(_log_terms(mixture, s[far]))
    out[s == 0.0] = 0.0
    return out


def log_laplace_deriv(spec: DistSpec, t):
    """log E[X exp(-t X)] (minus the Laplace transform's derivative) for
    t >= 0, elementwise like `log_laplace`.

    Requires support in (0, inf), as every recovery law has.  A Uniform(a, b)
    component contributes exp(-t a) (a h(z) + (b - a) g(z)) with z = t (b - a),
    h(z) = (1 - e^-z) / z and g(z) = (1 - e^-z (1 + z)) / z^2, the latter
    through the regularized incomplete gamma P(2, z) to avoid cancellation.
    Below z = 1e-8 both are Taylor terms, whose error is below 1e-16 relative.
    """
    t = np.asarray(t, dtype=float)
    terms = []
    for w, comp in as_mixture(spec):
        if comp[0] == "atom":
            v = comp[1]
            terms.append(math.log(w * v) - t * v)
        else:
            a, b = comp[1], comp[2]
            d = b - a
            z = t * d
            with np.errstate(divide="ignore", invalid="ignore"):  # z = 0, branch not taken
                inner = np.where(z < 1e-8, a * (1.0 - 0.5 * z) + d * (0.5 - z / 3.0),
                                 a * -np.expm1(-z) / z + d * gamma_p2(z) / (z * z))
            terms.append(np.log(w * inner) - t * a)
    return _logsumexp(terms)


def _exp_tail(x):
    """e^x - 1 - x elementwise, summed as its series where |x| < 1 to avoid
    cancellation: by Horner's rule, as many terms as the largest such |x|
    needs for a truncation error below 1e-17 relative.  When every |x| < 1
    the series is formed on x itself, with the values it has when gathered.
    """
    x = np.asarray(x)
    mag = np.abs(x)
    small = mag < 1.0
    every = small.all()
    y, mag = (x, mag) if every else (x[small], mag[small])
    top = float(mag.max(initial=0.0))
    last = 2  # the series is x^2 (1/2! + x/3! + ... + x^(last-2)/last!)
    while 2.0 * top ** (last - 1) / math.factorial(last + 1) > 1e-17:
        last += 1
    poly = y * (1.0 / math.factorial(last))
    for k in range(last - 1, 1, -1):
        poly += 1.0 / math.factorial(k)
        poly *= y
    poly *= y
    if every:
        return poly
    out = np.asarray(np.expm1(x) - x)
    out[small] = poly
    return out


def gamma_p2(z):
    """Regularized lower incomplete gamma P(2, z) = 1 - e^-z (1 + z) for
    z >= 0, elementwise.

    Below z = 1 the difference cancels, so there it is e^-z (e^z - 1 - z).
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # in the branch not taken
        return np.where(z >= 1.0, -np.expm1(-z) - z * np.exp(-z),
                        np.exp(-z) * _exp_tail(z))


def psi(xi_spec: DistSpec, rho_spec: DistSpec, s: float, theta: float) -> float:
    """psi(theta) = E[phi(s T)^theta] with T ~ Exp(xi), phi(u) = E e^{-u rho}.

    It is the one integral behind the analytic references:

        psi(theta) = int_0^inf E[xi e^{-t xi}] * phi(s t)^theta dt,

    whose factors have closed forms for every law in the menu, so the value
    is exact to quadrature tolerance for atomic and uniform laws alike.  The
    integrand is formed in log space, on all nodes of a subinterval at once;
    phi^theta underflows otherwise.
    """
    def integrand(t):
        return np.exp(log_laplace_deriv(xi_spec, t) + theta * log_laplace(rho_spec, s * t))

    val, err = quad(integrand, 0.0, math.inf, epsabs=1e-14, epsrel=1e-12, limit=200)
    if not err <= max(1e-10 * abs(val), 1e-13):
        raise QuadratureFailure(f"psi integral error {err} exceeds tolerance")
    return val


# ---------------------------------------------------------------------------
# The critical infection rate


def critical_lambda(xi_spec: DistSpec, rho_spec: DistSpec) -> float:
    """The phase-transition threshold 1 / (E[rho] * E[1/xi]).

    Every spec is valid, so the threshold is finite and positive: a weight
    law has mass above 0 and a recovery law lives in [1, inf).
    """
    check_roles(xi_spec, rho_spec)
    return 1.0 / (mean(rho_spec) * mean_inverse(xi_spec))
