"""Closed-form quantities for a telegraph particle pulled toward the origin.

The particle moves on the line at unit speed and flips its velocity at a
state-dependent rate: ``b`` while moving away from the origin, ``a`` while
moving toward it, with ``b >= a > 0``.  The reflected variant lives on the
half line and is pushed back to velocity +1 whenever it reaches 0.  For
``b > a`` both variants are exponentially ergodic with explicit invariant
laws, and the convergence rate and prefactors below are all elementary
functions of ``(a, b)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "DegenerateRatesError",
    "ModelParams",
    "VELOCITY_WEIGHT",
    "critical_rate",
    "excursion_mgf",
    "hitting_exponent",
    "mean_excursion_length",
    "hitting_mgf",
    "invariant_density",
    "invariant_mgf",
    "BoundConstants",
    "bound_constants",
    "tv_bound",
]

# Each velocity value carries probability 1/2 under both invariant laws.
VELOCITY_WEIGHT = 0.5

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class DegenerateRatesError(ValueError):
    """Raised when a quantity requires b > a but the rates are equal."""


@dataclass(frozen=True)
class ModelParams:
    """Switching-rate pair (a, b): rate a toward the origin, b away from it.

    Requires 0 < a <= b.  With b == a the process is the classical
    (driftless) telegraph process; quantities that only exist under the
    restoring drift raise :class:`DegenerateRatesError` in that case.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("rates must be finite")
        if a <= 0.0:
            raise ValueError(f"rate a must be positive, got {a}")
        if b < a:
            raise ValueError(f"need b >= a, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def rate_gap(self) -> float:
        """b - a, the spatial decay rate of the invariant laws."""
        return self.b - self.a

    def require_contracting(self, what: str = "this quantity") -> None:
        if self.b == self.a:
            raise DegenerateRatesError(f"{what} requires b > a, got a == b == {self.a}")


def critical_rate(params: ModelParams) -> float:
    """Exponential convergence rate (sqrt(b) - sqrt(a))**2 / 2; needs b > a."""
    params.require_contracting("the convergence rate")
    return 0.5 * (math.sqrt(params.b) - math.sqrt(params.a)) ** 2


def _sqrt_discriminant(lam: float, params: ModelParams) -> float | None:
    """sqrt((a+b-2*lam)**2 - 4ab), or None when lam lies beyond the domain.

    Factored as (m - 2*sqrt(ab))*(m + 2*sqrt(ab)) with m = a+b-2*lam so the
    cancellation near the critical rate stays benign, and scaled by m only
    where that product passes the float range.  Tiny negative values
    produced by roundoff at the domain boundary are clamped to zero.
    """
    a, b = params.a, params.b
    if lam > 0.5 * (math.sqrt(b) - math.sqrt(a)) ** 2:
        return None
    m = a + b - 2.0 * lam
    two_root = 2.0 * math.sqrt(a * b)
    disc = (m - two_root) * (m + two_root)
    if disc == math.inf and m < math.inf:  # m above about 1.3e154, and m > two_root
        return m * math.sqrt((m - two_root) / m * (1.0 + two_root / m))
    if disc < 0.0:
        # lam is inside the domain, so any negative value is boundary roundoff
        if disc < -1e-12 * (a + b) * (a + b):  # a float ** past the float range would raise
            return None
        return 0.0
    return math.sqrt(disc)


def excursion_mgf(lam: float, params: ModelParams) -> float:
    """E[exp(lam * S)] for the first return time S to the origin from (0, +1).

    Finite exactly on lam <= critical_rate, ``math.inf`` beyond; at the
    boundary the value is sqrt(b / a).  Solves
    a * psi**2 - (a + b - 2*lam) * psi + b = 0 (smaller root).
    """
    s = _sqrt_discriminant(lam, params)
    if s is None:
        return math.inf
    a, b = params.a, params.b
    # the smaller root as 2b/(m + s), since (m - s)/(2a) cancels once 4ab << m**2,
    # halved first so that 2b cannot overflow; m is held at its domain floor
    # 2*sqrt(ab), which rounding can undercut, so psi stays at most sqrt(b/a)
    m = max(a + b - 2.0 * lam, 2.0 * math.sqrt(a * b))
    return b / (0.5 * m + 0.5 * s)


def hitting_exponent(lam: float, params: ModelParams) -> float:
    """Exponent c(lam) with E[exp(lam * S_x)] = exp(x * c(lam)) for descents.

    S_x is the origin hitting time started from (x, -1) in the reflected
    chain.  Finite on lam <= critical_rate, where it equals
    (b - a - sqrt((a+b-2*lam)**2 - 4ab)) / 2, and ``math.inf`` beyond;
    satisfies c = lam + a * (psi - 1).
    """
    s = _sqrt_discriminant(lam, params)
    if s is None:
        return math.inf
    return (params.b - params.a - s) / 2.0


def mean_excursion_length(params: ModelParams) -> float:
    """E[S] = 2 / (b - a); infinite (and rejected) when b == a."""
    params.require_contracting("the mean return time")
    return 2.0 / params.rate_gap


def hitting_mgf(x: float, v: int, lam: float, params: ModelParams) -> float:
    """E[exp(lam * S_(x,v))], origin hitting time of the reflected chain.

    From (x, -1) this is exp(x * c(lam)); from (x, +1) the particle must
    first complete the excursion in progress, giving psi(lam) * exp(x * c(lam)).
    A value past the float range is ``math.inf``, as beyond the domain.
    """
    if v not in (-1, 1):
        raise ValueError(f"velocity must be -1 or +1, got {v}")
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"start position must be finite and nonnegative, got {x}")
    c = hitting_exponent(lam, params)
    if not math.isfinite(c):
        return math.inf
    try:
        base = math.exp(x * c)
    except OverflowError:
        return math.inf
    return base if v == -1 else excursion_mgf(lam, params) * base


def invariant_density(y: float, process: str, params: ModelParams) -> float:
    """Invariant position density at y; velocity is an independent fair sign.

    process="unreflected": ((b-a)/2) * exp(-(b-a)*|y|) on the whole line.
    process="reflected":   (b-a) * exp(-(b-a)*y) on y >= 0.
    """
    params.require_contracting("the invariant law")
    gap = params.rate_gap
    y = float(y)
    if math.isnan(y):
        raise ValueError("position must be a number, got nan")
    if process == "unreflected":
        return 0.5 * gap * math.exp(-gap * abs(y))
    if process == "reflected":
        if y < 0.0:
            raise ValueError(f"reflected positions live on [0, inf), got {y}")
        return gap * math.exp(-gap * y)
    raise ValueError(f"process must be 'reflected' or 'unreflected', got {process!r}")


def invariant_mgf(lam: float, params: ModelParams) -> float:
    """E[exp(lam * X)] under the reflected invariant law Exp(b - a).

    Equals (b-a)/(b-a-lam) for lam < b - a, infinite otherwise.
    """
    params.require_contracting("the invariant law")
    gap = params.rate_gap
    if lam >= gap:
        return math.inf
    return gap / (gap - lam)


class BoundConstants(NamedTuple):
    """Constants of the exponential convergence bounds.

    prefactor           C in the whole-line bound
    spatial_rate        r, growth in exp(r * max |start|); always < b - a
    reflected_prefactor constant of the half-line bound
    """

    prefactor: float
    spatial_rate: float
    reflected_prefactor: float


def bound_constants(params: ModelParams) -> BoundConstants:
    """Prefactors and spatial growth rate entering :func:`tv_bound`."""
    params.require_contracting("the convergence bound")
    a, b = params.a, params.b
    root_ab = math.sqrt(a * b)
    # past the float range a float power raises and a * a underflows to 0; both bounds are inf
    try:
        prefactor = (b / a) ** 2.5 * (a + b) / (root_ab + b)
    except OverflowError:
        prefactor = math.inf
    spatial_rate = max(0.75 * (b - a), b - root_ab)
    square = 2.0 * a * a
    reflected_prefactor = (a + b) * b / square if square > 0.0 else math.inf
    return BoundConstants(prefactor, spatial_rate, reflected_prefactor)


def tv_bound(t: float, x: float, x_other: float, process: str, params: ModelParams) -> float:
    """Total-variation convergence bound between two starts after time t.

    Returns C * exp(r * max(|x|, |x_other|)) * exp(-critical_rate * t) with
    the prefactor appropriate to the process.  May exceed 1; callers clip for
    display.  Far starts are handled in log space, and a bound past the float
    range is ``math.inf``.
    """
    if process not in ("reflected", "unreflected"):
        raise ValueError(f"process must be 'reflected' or 'unreflected', got {process!r}")
    t, x, x_other = float(t), float(x), float(x_other)
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not (math.isfinite(x) and math.isfinite(x_other)):
        raise ValueError(f"start positions must be finite, got {x} and {x_other}")
    consts = bound_constants(params)
    pref = consts.reflected_prefactor if process == "reflected" else consts.prefactor
    growth = consts.spatial_rate * max(abs(x), abs(x_other))
    decay = critical_rate(params) * t
    log_head = math.log(pref) + growth
    if log_head < _LOG_FLOAT_MAX - 1.0:
        # C * exp(r * reach) is finite: the product form keeps written
        # bounds stable to the last digit
        return pref * math.exp(growth) * math.exp(-decay)
    log_bound = log_head - decay
    return math.exp(log_bound) if log_bound < _LOG_FLOAT_MAX else math.inf
