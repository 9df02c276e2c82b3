"""Statistical verification: distances, decay rates and diffusive limits.

Everything here treats the simulators and couplings as black boxes and
checks their outputs against each other or against closed forms: two-sample
distribution tests, binned total-variation lower bounds against coupling
survival upper bounds, tail decay-rate fits, and an Euler-Maruyama oracle
for the Brownian limit with sign drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import coalescent_couple_reflected, coalescent_couple_unreflected
from .excursions import EstimateWithCI
from .model import ModelParams, tv_bound
from .paths import write_csv
from .simulate import sample_reflected_states, sample_unreflected_states

# unused here, but perfbench/tracing.py wraps both names in this module's
# namespace, so they stay importable from it
from .simulate import simulate_reflected, simulate_unreflected  # noqa: F401

__all__ = [
    "EstimateWithCI",
    "TvCurve",
    "ks_two_sample",
    "ks_band",
    "domination_gap",
    "binned_tv_estimate",
    "binned_tv_noise_floor",
    "tv_curve",
    "empirical_decay_rate",
    "sde_oracle",
    "reflected_bm_oracle",
    "default_oracle_dt",
    "scaling_limit_check",
    "write_tv_curve_csv",
]


def ks_two_sample(sample_1, sample_2) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    s1 = np.asarray(sample_1, dtype=np.float64)
    s2 = np.asarray(sample_2, dtype=np.float64)
    if s1.size == 0 or s2.size == 0:
        raise ValueError("samples must be nonempty")
    # scipy.stats is imported here, not with the module: it adds about 70 MB
    # and a second to every CLI run, and only this test needs it
    from scipy.stats import ks_2samp

    res = ks_2samp(s1, s2, method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_band(n: int, m: int, level: float) -> float:
    """Two-sample KS acceptance threshold at the given significance level."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    c = math.sqrt(-0.5 * math.log(level / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def domination_gap(dominated, dominating) -> float:
    """Largest empirical-CDF excess of the dominating sample over the dominated.

    Under stochastic domination (dominated <= dominating in law) the
    population value is <= 0; sampling noise keeps the empirical value below
    the one-sided KS band.
    """
    xs = np.sort(np.asarray(dominated, dtype=np.float64))
    ys = np.sort(np.asarray(dominating, dtype=np.float64))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("samples must be nonempty")
    grid = np.concatenate([xs, ys])
    f_dominated = np.searchsorted(xs, grid, side="right") / xs.size
    f_dominating = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(f_dominating - f_dominated))


def _binned_masses(pos_1, vel_1, pos_2, vel_2, bin_width: float):
    """Per-bin mass fractions of both samples, stacked over the velocity strata."""
    if bin_width <= 0.0:
        raise ValueError("bin width must be positive")
    p1 = np.asarray(pos_1, dtype=np.float64)
    p2 = np.asarray(pos_2, dtype=np.float64)
    v1 = np.asarray(vel_1)
    v2 = np.asarray(vel_2)
    if p1.size == 0 or p2.size == 0:
        raise ValueError("samples must be nonempty")
    lo = min(p1.min(), p2.min())
    hi = max(p1.max(), p2.max())
    n_bins = max(1, int(math.ceil((hi - lo) / bin_width)))
    edges = lo + bin_width * np.arange(n_bins + 1)
    edges[-1] = max(edges[-1], hi)  # guard the top sample against roundoff
    m1 = []
    m2 = []
    for s in (1, -1):
        h1, _ = np.histogram(p1[v1 == s], bins=edges)
        h2, _ = np.histogram(p2[v2 == s], bins=edges)
        m1.append(h1 / p1.size)
        m2.append(h2 / p2.size)
    return np.concatenate(m1), np.concatenate(m2), p1.size, p2.size


def binned_tv_estimate(pos_1, vel_1, pos_2, vel_2, bin_width: float) -> float:
    """Histogram lower bound for the total-variation distance of two state laws.

    Velocities split the mass exactly; positions are binned on a shared grid
    of the given width.  Binning can only lose mass differences, so the
    estimate lower-bounds the true distance up to sampling noise.
    """
    m1, m2, _, _ = _binned_masses(pos_1, vel_1, pos_2, vel_2, bin_width)
    return float(0.5 * np.abs(m1 - m2).sum())


def binned_tv_noise_floor(pos_1, vel_1, pos_2, vel_2, bin_width: float) -> float:
    """Upper bound on the expected binned-TV reading from two same-law samples.

    Each bin's count difference contributes E|d| <= sqrt(p (1/n + 1/m)) by
    Cauchy-Schwarz, with p read off the pooled sample.  The estimator never
    averages below the true binned distance by more than noise, but it sits
    this far ABOVE zero when the laws agree, so sandwich gates must allow
    for it before declaring a violation.
    """
    m1, m2, n1, n2 = _binned_masses(pos_1, vel_1, pos_2, vel_2, bin_width)
    pooled = (n1 * m1 + n2 * m2) / (n1 + n2)
    return float(0.5 * np.sqrt(pooled * (1.0 / n1 + 1.0 / n2)).sum())


@dataclass
class TvCurve:
    """Coupling survival, binned TV and the closed-form bound on one grid.

    ``noise_floor`` holds the same-law reading bound of the histogram at
    each grid time; comparisons of binned_tv against coupling_survival are
    only meaningful above this floor.
    """

    t_grid: np.ndarray
    coupling_survival: np.ndarray
    binned_tv: np.ndarray
    theoretical_bound: np.ndarray
    n_couplings: int
    n_paths: int
    noise_floor: np.ndarray | None = None


def tv_curve(
    start_1,
    start_2,
    process: str,
    t_grid,
    n: int,
    params: ModelParams,
    rng: np.random.Generator,
    bin_width: float | None = None,
) -> TvCurve:
    """Sandwich the distance between two starts along a time grid.

    For each grid time: the fraction of n couplings still uncoalesced (an
    upper bound on the distance), a binned TV estimate from n independent
    walkers per start (a lower bound up to noise), and the closed-form
    bound.  Default bin width 0.05 / (b - a).

    The couplings draw first.  The walkers of each start then advance from
    grid time to grid time, one batch endpoint call per step started from
    their states at the previous grid time; by the Markov property and the
    memoryless clocks that is exact, and a reflected batch is folded after
    every step.  The histograms are read at each grid time as the walkers
    pass it, so no path and no (n, grid) array is built.
    """
    if process not in ("reflected", "unreflected"):
        raise ValueError(f"process must be 'reflected' or 'unreflected', got {process!r}")
    grid = np.asarray(t_grid, dtype=np.float64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0.0) or grid[0] <= 0.0:
        raise ValueError("t_grid must be positive and strictly increasing")
    n = int(n)
    if n < 1000:
        raise ValueError("need at least 1000 runs per leg")
    if bin_width is None:
        params.require_contracting("the default bin width")
        bin_width = 0.05 / params.rate_gap
    pos_a, vel_a = start_1
    pos_b, vel_b = start_2
    horizon = float(grid[-1])
    couple = (
        coalescent_couple_reflected
        if process == "reflected"
        else coalescent_couple_unreflected
    )
    times = np.empty(n, dtype=np.float64)
    for i in range(n):
        res = couple(pos_a, vel_a, pos_b, vel_b, horizon, params, rng, record_paths=False)
        times[i] = math.inf if res.coalescence_time is None else res.coalescence_time
    times.sort()
    survival = (n - np.searchsorted(times, grid, side="right")) / n

    sample = sample_reflected_states if process == "reflected" else sample_unreflected_states
    clouds = [start_1, start_2]
    tv = np.empty(grid.size, dtype=np.float64)
    floor = np.empty(grid.size, dtype=np.float64)
    t_prev = 0.0
    for j, t in enumerate(grid.tolist()):
        clouds = [sample(pos, vel, t - t_prev, n, params, rng) for pos, vel in clouds]
        t_prev = t
        (pos_1, vel_1), (pos_2, vel_2) = clouds
        tv[j] = binned_tv_estimate(pos_1, vel_1, pos_2, vel_2, bin_width)
        floor[j] = binned_tv_noise_floor(pos_1, vel_1, pos_2, vel_2, bin_width)
    bound = np.array([tv_bound(t, pos_a, pos_b, process, params) for t in grid])
    return TvCurve(grid, survival, tv, bound, n, n, floor)


def empirical_decay_rate(curve: TvCurve) -> float:
    """Least-squares decay rate of the coupling survival tail.

    Fits log survival against time on the window where survival lies in
    (0.001, 0.5); needs at least four such grid points.
    """
    s = curve.coupling_survival
    mask = (s > 1e-3) & (s < 0.5)
    if int(mask.sum()) < 4:
        raise ValueError("too few grid points with survival in (0.001, 0.5)")
    slope = np.polyfit(curve.t_grid[mask], np.log(s[mask]), 1)[0]
    return float(-slope)


def sde_oracle(
    drift: float,
    x0: float,
    dt: float,
    horizon: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Euler-Maruyama endpoints of dX = dB - drift * sign(X) dt, sign(0) = 0."""
    dt = float(dt)
    horizon = float(horizon)
    if dt <= 0.0 or horizon < 0.0:
        raise ValueError("need dt > 0 and horizon >= 0")
    n = int(n)
    x = np.full(n, float(x0), dtype=np.float64)
    steps = int(horizon / dt)
    rem = horizon - steps * dt
    root = math.sqrt(dt)
    for _ in range(steps):
        x += -drift * np.sign(x) * dt + root * rng.standard_normal(n)
    if rem > 1e-15 * max(1.0, horizon):
        x += -drift * np.sign(x) * rem + math.sqrt(rem) * rng.standard_normal(n)
    return x


def reflected_bm_oracle(
    drift: float,
    x0: float,
    dt: float,
    horizon: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Euler endpoints of Brownian motion with constant downward drift, folded at 0."""
    if float(x0) < 0.0:
        raise ValueError("reflected start must be nonnegative")
    dt = float(dt)
    horizon = float(horizon)
    if dt <= 0.0 or horizon < 0.0:
        raise ValueError("need dt > 0 and horizon >= 0")
    n = int(n)
    x = np.full(n, float(x0), dtype=np.float64)
    steps = int(horizon / dt)
    rem = horizon - steps * dt
    root = math.sqrt(dt)
    for _ in range(steps):
        x = np.abs(x - drift * dt + root * rng.standard_normal(n))
    if rem > 1e-15 * max(1.0, horizon):
        x = np.abs(x - drift * rem + math.sqrt(rem) * rng.standard_normal(n))
    return x


def default_oracle_dt(drift: float) -> float:
    """Euler step of :func:`scaling_limit_check` when none is given.

    It shrinks with the drift so the sign discontinuity stays well resolved
    at large drift.
    """
    return 1e-3 * min(1.0, 1.0 / (drift * drift)) if drift > 0.0 else 1e-3


def scaling_limit_check(
    scale: float,
    drift: float,
    t: float,
    n: int,
    rng: np.random.Generator,
    dt: float | None = None,
    x0: float = 0.0,
) -> tuple[float, float]:
    """KS comparison of the rescaled telegraph endpoint with its Brownian limit.

    The particle with rates (scale - drift, scale + drift) is run to real
    time t * scale, matching the diffusive clock; the endpoint is compared
    against the Euler oracle of the sign-drift SDE at time t.  Returns the
    KS statistic and p-value; the statistic shrinks as the scale grows.
    """
    scale = float(scale)
    drift = float(drift)
    if scale <= drift:
        raise ValueError("need scale > drift so both rates stay positive")
    if drift < 0.0:
        raise ValueError("drift must be nonnegative")
    params = ModelParams(scale - drift, scale + drift)
    pos, _ = sample_unreflected_states(x0, None, float(t) * scale, n, params, rng)
    if dt is None:
        dt = default_oracle_dt(drift)
    oracle = sde_oracle(drift, x0, dt, t, n, rng)
    return ks_two_sample(pos, oracle)


def write_tv_curve_csv(curve: TvCurve, dest) -> None:
    """Write ``t,coupling_survival,binned_tv,theoretical_bound`` rows."""
    columns = (curve.t_grid, curve.coupling_survival, curve.binned_tv, curve.theoretical_bound)
    write_csv(
        dest,
        "t,coupling_survival,binned_tv,theoretical_bound",
        (
            f"{float(t)!r},{float(s)!r},{float(tv)!r},{float(bd)!r}\n"
            for t, s, tv, bd in zip(*columns)
        ),
    )
