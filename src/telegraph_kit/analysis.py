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

from .coupling import coalescence_times
from .excursions import EstimateWithCI
from .model import ModelParams, tv_bound
from .paths import check_start, write_csv
from .simulate import sample_reflected_states, sample_unreflected_states

# unused here, but perfbench/tracing.py wraps these names in this module's
# namespace, so they stay importable from it
from .coupling import coalescent_couple_reflected, coalescent_couple_unreflected  # noqa: F401
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
    if not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")
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
    return _tv_of_masses(m1, m2)


def binned_tv_noise_floor(pos_1, vel_1, pos_2, vel_2, bin_width: float) -> float:
    """Upper bound on the expected binned-TV reading from two same-law samples.

    Each bin's count difference contributes E|d| <= sqrt(p (1/n + 1/m)) by
    Cauchy-Schwarz, with p read off the pooled sample.  The estimator never
    averages below the true binned distance by more than noise, but it sits
    this far ABOVE zero when the laws agree, so sandwich gates must allow
    for it before declaring a violation.
    """
    return _floor_of_masses(*_binned_masses(pos_1, vel_1, pos_2, vel_2, bin_width))


def _tv_of_masses(m1, m2) -> float:
    return float(0.5 * np.abs(m1 - m2).sum())


def _floor_of_masses(m1, m2, n1: int, n2: int) -> float:
    pooled = (n1 * m1 + n2 * m2) / (n1 + n2)
    return float(0.5 * np.sqrt(pooled * (1.0 / n1 + 1.0 / n2)).sum())


# tv_curve refuses a bin width that would cut the walkers' reach into
# more bins than this, and records at most max(this, 2n) walker states a
# grid call: at least one grid time a call, so O(n) memory
_BIN_CAP = 1_000_000
_GRID_CELLS = 1 << 18


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
    bound.  Default bin width 0.05 / (b - a).  A given width must be finite
    and positive.  Either width is refused before any sampling when it would
    cut the reach of the walkers into more than ``_BIN_CAP`` bins: walkers
    move at unit speed, so at the last grid time T they lie within
    max|start| + T of the origin (on one side of it for the reflected
    process).

    The couplings draw first, as one batch of n time-only runs of
    :func:`~telegraph_kit.coupling.coalescence_times`.  The walkers of both
    starts then run as one batch of 2n through the grid call of the batch
    endpoint sampler, which records every walker as it passes each grid
    time and carries it on.  The grid is taken in chunks of at most
    ``_GRID_CELLS // (2n)`` times (one time at least), each chunk started
    from the states at the last time of the one before; by the Markov
    property that is exact, and the recorded states take O(n) memory.
    Each grid time's histograms are built once, for both the estimate and
    its noise floor.
    """
    if process not in ("reflected", "unreflected"):
        raise ValueError(f"process must be 'reflected' or 'unreflected', got {process!r}")
    grid = np.asarray(t_grid, dtype=np.float64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0.0) or grid[0] <= 0.0:
        raise ValueError("t_grid must be positive and strictly increasing")
    n = int(n)
    if n < 1000:
        raise ValueError("need at least 1000 runs per leg")
    reflected = process == "reflected"
    pos_a, vel_a = check_start(*start_1, reflected=reflected)
    pos_b, vel_b = check_start(*start_2, reflected=reflected)
    horizon = float(grid[-1])
    if bin_width is None:
        params.require_contracting("the default bin width")
        bin_width = 0.05 / params.rate_gap
    else:
        bin_width = float(bin_width)
        if not 0.0 < bin_width < math.inf:
            raise ValueError(f"bin width must be finite and positive, got {bin_width}")
    reach = max(abs(pos_a), abs(pos_b)) + horizon
    bins = (1.0 if reflected else 2.0) * reach / bin_width
    if bins > _BIN_CAP:
        raise ValueError(
            f"bin width {bin_width!r} cuts the walkers' reach into about {bins:.3g} bins,"
            f" past the cap of {_BIN_CAP:,}"
        )
    times, _, _ = coalescence_times(
        n, (pos_a, vel_a), (pos_b, vel_b), horizon, process, params, rng
    )
    times.sort()
    survival = (n - np.searchsorted(times, grid, side="right")) / n

    sample = sample_reflected_states if reflected else sample_unreflected_states
    pos = np.repeat(np.array([pos_a, pos_b], dtype=np.float64), n)
    vel = np.repeat(np.array([vel_a, vel_b]), n)
    tv = np.empty(grid.size, dtype=np.float64)
    floor = np.empty(grid.size, dtype=np.float64)
    per_call = max(1, _GRID_CELLS // (2 * n))
    t_prev = 0.0
    for j0 in range(0, grid.size, per_call):
        chunk = grid[j0 : j0 + per_call]
        rows_pos, rows_vel = sample(pos, vel, chunk - t_prev, 2 * n, params, rng)
        pos, vel, t_prev = rows_pos[-1], rows_vel[-1], chunk[-1]
        for j, p, v in zip(range(j0, j0 + chunk.size), rows_pos, rows_vel):
            masses = _binned_masses(p[:n], v[:n], p[n:], v[n:], bin_width)
            tv[j] = _tv_of_masses(*masses[:2])
            floor[j] = _floor_of_masses(*masses)
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


# normals one draw of sde_oracle holds at most: a block of steps, a row each
_NORMAL_BLOCK = 1 << 16


def sde_oracle(
    drift: float,
    x0: float,
    dt: float,
    horizon: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Euler-Maruyama endpoints of dX = dB - drift * sign(X) dt, sign(0) = 0.

    The normals are drawn a block of steps at a time and each step updates
    the endpoints in place; the draws, the endpoint bits and the generator
    state after the call are those of one ``standard_normal(n)`` call per
    step, the last step being the remainder of horizon/dt if there is one.
    """
    dt = float(dt)
    horizon = float(horizon)
    if dt <= 0.0 or horizon < 0.0:
        raise ValueError("need dt > 0 and horizon >= 0")
    n = int(n)
    x = np.full(n, float(x0), dtype=np.float64)
    steps = int(horizon / dt)
    rem = horizon - steps * dt
    work = np.empty(n, dtype=np.float64)
    per_block = max(1, _NORMAL_BLOCK // max(n, 1))
    for done in range(0, steps, per_block):
        _euler_steps(x, drift, dt, min(per_block, steps - done), rng, work)
    if rem > 1e-15 * max(1.0, horizon):
        _euler_steps(x, drift, rem, 1, rng, work)
    return x


def _euler_steps(x, drift, h, steps, rng, work) -> None:
    """``steps`` Euler steps of length h on x in place, from one block of normals."""
    z = rng.standard_normal((steps, x.size))
    z *= math.sqrt(h)
    pull = -drift * h
    for noise in z:
        np.sign(x, out=work)
        work *= pull
        work += noise
        x += work


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
    It needs n >= 2, as the KS p-value of one walker a side is undefined.
    """
    if int(n) < 2:
        raise ValueError("need at least two walkers for a KS test")
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
