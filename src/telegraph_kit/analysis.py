"""Statistical verification: distances, decay rates and diffusive limits.

Everything here treats the simulators and couplings as black boxes and
checks their outputs against each other or against closed forms: one- and
two-sample Kolmogorov-Smirnov tests sharing one p-value rule, binned
total-variation lower bounds against coupling survival upper bounds, tail
decay-rate fits, and the exact law of the Brownian limit with sign drift,
with an Euler-Maruyama oracle beside it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coupling import coalescence_times
from .model import ModelParams, tv_bound
from .paths import check_start, write_csv
from .simulate import sample_reflected_states, sample_unreflected_states

# unused here, but perfbench/tracing.py wraps these names in this module's
# namespace, so they stay importable from it
from .coupling import coalescent_couple_reflected, coalescent_couple_unreflected  # noqa: F401
from .simulate import simulate_reflected, simulate_unreflected  # noqa: F401

__all__ = [
    "TvCurve",
    "ks_two_sample",
    "ks_band",
    "domination_gap",
    "binned_tv_estimate",
    "binned_tv_noise_floor",
    "tv_curve",
    "empirical_decay_rate",
    "sde_oracle",
    "sign_drift_cdf",
    "ks_one_sample",
    "scaling_limit_check",
    "write_tv_curve_csv",
]


def _ecdf_gaps(sample_1, sample_2) -> np.ndarray:
    """F_1 - F_2, the gap between two nonempty samples' empirical CDFs, at every point of both."""
    s1 = np.sort(np.asarray(sample_1, dtype=np.float64))
    s2 = np.sort(np.asarray(sample_2, dtype=np.float64))
    if s1.size == 0 or s2.size == 0:
        raise ValueError("samples must be nonempty")
    both = np.concatenate([s1, s2])
    gaps = np.searchsorted(s1, both, side="right") / s1.size
    gaps -= np.searchsorted(s2, both, side="right") / s2.size
    return gaps


def ks_two_sample(sample_1, sample_2) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The statistic D is the largest gap between the two empirical CDFs, read
    at every sample point, so ties count on both sides.  The p-value is
    Kolmogorov's limit law at Stephens' finite-size corrected argument
    (sqrt(en) + 0.12 + 0.11/sqrt(en)) * D, with en = nm/(n+m) (Stephens,
    JRSS B 32, 1970).  A NaN in either sample gives (nan, nan).
    """
    x1, x2 = (np.asarray(x, dtype=np.float64) for x in (sample_1, sample_2))
    gaps = _ecdf_gaps(x1, x2)
    if np.isnan(x1).any() or np.isnan(x2).any():
        return math.nan, math.nan
    stat = float(np.abs(gaps).max())
    return stat, _ks_p_value(stat, x1.size * x2.size / (x1.size + x2.size))


def _ks_p_value(stat: float, en) -> float:
    """Kolmogorov's limit law at Stephens' argument (sqrt(en) + 0.12 + 0.11/sqrt(en)) * stat."""
    root = math.sqrt(en)
    return _kolmogorov_sf((root + 0.12 + 0.11 / root) * stat)


def _kolmogorov_sf(lam: float) -> float:
    """P(sup |Brownian bridge| > lam), Kolmogorov's limit law (Kolmogorov, 1933)."""
    if lam >= 1.0:  # alternating series; its sixth term is below exp(-72)
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 6))
    if lam <= 0.0:
        return 1.0
    # Jacobi theta form of the CDF, fast where the series is slow
    terms = sum(math.exp(-(((2 * k - 1) * math.pi / lam) ** 2) / 8.0) for k in range(1, 6))
    return 1.0 - math.sqrt(2.0 * math.pi) / lam * terms


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
    return float(_ecdf_gaps(dominating, dominated).max())


def _binned_tv(pos_1, vel_1, pos_2, vel_2, bin_width: float) -> tuple[float, float]:
    """Binned TV of two state samples and its same-law noise floor, from one binning of each.

    A cell is a position bin, those of velocity -1 past those of +1; other velocities count nowhere.
    """
    if not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")
    p1 = np.asarray(pos_1, dtype=np.float64)
    p2 = np.asarray(pos_2, dtype=np.float64)
    if p1.size == 0 or p2.size == 0:
        raise ValueError("samples must be nonempty")
    lo = min(p1.min(), p2.min())
    hi = max(p1.max(), p2.max())
    n_bins = max(1, int(math.ceil((hi - lo) / bin_width)))
    edges = lo + bin_width * np.arange(n_bins + 1)
    masses = []
    for p, v in ((p1, np.asarray(vel_1)), (p2, np.asarray(vel_2))):
        # a bin holds its left edge, the last also what lies at or past its right
        # one; cell 2*n_bins takes the other velocities and is dropped
        cell = np.minimum(np.searchsorted(edges, p, "right") - 1, n_bins - 1)
        cell = np.where(np.abs(v) == 1, cell + n_bins * (v == -1), 2 * n_bins)
        masses.append(np.bincount(cell.ravel(), minlength=2 * n_bins + 1)[:-1] / p.size)
    m1, m2 = masses
    n1, n2 = p1.size, p2.size
    pooled = (n1 * m1 + n2 * m2) / (n1 + n2)
    tv = float(0.5 * np.abs(m1 - m2).sum())
    return tv, float(0.5 * np.sqrt(pooled * (1.0 / n1 + 1.0 / n2)).sum())


def binned_tv_estimate(pos_1, vel_1, pos_2, vel_2, bin_width: float) -> float:
    """Histogram lower bound for the total-variation distance of two state laws.

    Velocities split the mass exactly; positions are binned on a shared grid
    of the given width.  Binning can only lose mass differences, so the
    estimate lower-bounds the true distance up to sampling noise.
    """
    return _binned_tv(pos_1, vel_1, pos_2, vel_2, bin_width)[0]


def binned_tv_noise_floor(pos_1, vel_1, pos_2, vel_2, bin_width: float) -> float:
    """Upper bound on the expected binned-TV reading from two same-law samples.

    Each bin's count difference contributes E|d| <= sqrt(p (1/n + 1/m)) by
    Cauchy-Schwarz, with p read off the pooled sample.  The estimator never
    averages below the true binned distance by more than noise, but it sits
    this far ABOVE zero when the laws agree, so sandwich gates must allow
    for it before declaring a violation.
    """
    return _binned_tv(pos_1, vel_1, pos_2, vel_2, bin_width)[1]


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
    Each grid time's cells are counted once, for both the estimate and its
    noise floor.
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
            tv[j], floor[j] = _binned_tv(p[:n], v[:n], p[n:], v[n:], bin_width)
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
    """Euler-Maruyama endpoints of dX = dB - drift * sign(X) dt, sign(0) = 0.

    Each step draws one standard normal per walker, ``standard_normal(n)``,
    and updates the endpoints in place; the last step is the remainder of
    horizon/dt if there is one.
    """
    dt = float(dt)
    horizon = float(horizon)
    if not (0.0 < dt < math.inf and 0.0 <= horizon < math.inf):
        raise ValueError(f"need a finite dt > 0 and a finite horizon >= 0, got {dt} and {horizon}")
    n = int(n)
    x = np.full(n, float(x0), dtype=np.float64)
    steps = int(horizon / dt)
    rem = horizon - steps * dt
    # rem < 0 where steps * dt overshoots the horizon by roundoff: no remainder step
    last = (rem,) if rem > 1e-15 * max(1.0, horizon) else ()
    work = np.empty(n, dtype=np.float64)
    for h in itertools.chain(itertools.repeat(dt, steps), last):
        noise = rng.standard_normal(n)
        noise *= math.sqrt(h)
        np.sign(x, out=work)
        work *= -drift * h
        work += noise
        x += work
    return x


# e^a * Phi(-v) is taken as written below _TAIL_SPLIT, and above it as
# e^(a - v*v/2) * e^(v*v/2) * Phi(-v).  The second factor comes from erfc
# below _MILLS_CF, and beyond it from _MILLS_TERMS terms of Laplace's
# continued fraction for the Mills ratio, which are exact to rounding there
# while the rounding of v*v/2 costs the erfc form ever more digits
_TAIL_SPLIT = 1.0
_MILLS_CF = 8.0
_MILLS_TERMS = 16
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_tail(v: np.ndarray) -> np.ndarray:
    """Phi(-v), elementwise."""
    return 0.5 * _erfc(v * math.sqrt(0.5)).astype(np.float64)


def _scaled_tail(v: np.ndarray) -> np.ndarray:
    """e^(v*v/2) * Phi(-v) for v >= _TAIL_SPLIT; at most 1/(v*sqrt(2*pi))."""
    out = np.empty_like(v)
    mid = v < _MILLS_CF
    out[mid] = _normal_tail(v[mid]) * np.exp(0.5 * v[mid] * v[mid])
    far = v[~mid]
    frac = far.copy()  # Laplace: Mills ratio = 1/(v + 1/(v + 2/(v + 3/(v + ...))))
    for k in range(_MILLS_TERMS, 0, -1):
        frac = far + k / frac
    out[~mid] = 1.0 / (math.sqrt(2.0 * math.pi) * frac)
    return out


def _mirror_term(a: np.ndarray, expo: np.ndarray, v: np.ndarray) -> np.ndarray:
    """e^a * Phi(-v), with expo = a - v*v/2 passed in a form that cannot overflow.

    Callers keep a bounded where v < _TAIL_SPLIT, so no finite input gives nan.
    """
    out = np.empty_like(v)
    near = v < _TAIL_SPLIT
    out[near] = np.exp(a[near]) * _normal_tail(v[near])
    far = ~near
    out[far] = np.exp(expo[far]) * _scaled_tail(v[far])
    return out


def sign_drift_cdf(z, x0: float, drift: float, t: float) -> np.ndarray:
    """CDF at time t > 0 of dX = dB - drift * sign(X) dt from x0, at the points z.

    |X| is Brownian motion with drift -c, c = drift, reflected at 0, and
    G(u) = P(|X_t| > u) is one minus Harrison's CDF (Harrison, "Brownian
    Motion and Stochastic Flow Systems", 1985).  From x0 >= 0, the paths
    still above u >= 0 without having reached the origin weigh
    K(u) = Phi((x0 - u - ct)/sqrt t) - e^(2c x0) Phi((-x0 - u - ct)/sqrt t),
    and a path that has reached it is then as likely below -u as above u.
    So P(X_t > u) = (G + K)/2 and P(X_t < -u) = (G - K)/2, and a start
    below the origin is the mirror image.  Both mirror terms share one
    Gaussian exponent, summed from nonnegative parts, so every finite input
    gives a value in [0, 1].
    """
    x0, c, t = float(x0), float(drift), float(t)
    if not (t > 0.0 and c >= 0.0):
        raise ValueError("need t > 0 and drift >= 0")
    z = np.asarray(z, dtype=np.float64)
    mirrored = x0 < 0.0
    if mirrored:
        x0, z = -x0, -z
    u = np.abs(z)
    root, ct = math.sqrt(t), c * t  # Python floats: an overflow reads inf
    with np.errstate(over="ignore"):
        # Phi(-v1) is the killed-path term of K; e^(-2cu) Phi(-v2) and
        # e^(2c x0) Phi(-v3) are the mirror terms of G and K, both with
        # exponent a - v*v/2 = -((x0 - ct)^2 + u^2 + 2u(x0 + ct)) / 2t
        v1 = ((u - x0) + ct) / root
        v2 = ((u - ct) + x0) / root
        v3 = ((u + x0) + ct) / root
        spread = (x0 - ct) * (x0 - ct) + u * u + 2.0 * (u * x0 + (u * c) * t)
        expo = -0.5 * (spread / t)
        m2 = _mirror_term(-2.0 * (c * u), expo, v2)
        m3 = _mirror_term(np.broadcast_to(2.0 * (c * x0), u.shape), expo, v3)
    below = 0.5 * (m2 + m3)  # P(X_t < -u)
    excess = 0.5 * (m2 - m3)  # P(X_t > u) - Phi(-v1)
    if mirrored:  # P(Y >= -z) for Y = -X, which starts at -x0 > 0
        cdf = np.where(z >= 0.0, _normal_tail(v1) + excess, 1.0 - below)
    else:
        cdf = np.where(z >= 0.0, _normal_tail(-v1) - excess, below)
    return np.clip(cdf, 0.0, 1.0)  # rounding can leave it an ulp outside


def ks_one_sample(sample, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value against a continuous CDF.

    ``cdf`` maps a sorted array to its CDF values.  The p-value is the one of
    :func:`ks_two_sample` with en = n.  A NaN in the sample gives (nan, nan).
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    if np.isnan(x[-1]):
        return math.nan, math.nan
    f = cdf(x)
    steps = np.arange(x.size + 1) / x.size
    stat = max(float((steps[1:] - f).max()), float((f - steps[:-1]).max()))
    return stat, _ks_p_value(stat, x.size)


def scaling_limit_check(
    scale: float,
    drift: float,
    t: float,
    n: int,
    rng: np.random.Generator,
    x0: float = 0.0,
) -> tuple[float, float]:
    """KS test of the rescaled telegraph endpoint against its Brownian limit.

    The particle with rates (scale - drift, scale + drift) is run to real
    time t * scale, matching the diffusive clock; its n endpoints are tested
    against :func:`sign_drift_cdf`, the exact law of the sign-drift SDE at
    time t.  Returns the one-sample KS statistic and p-value; the statistic
    shrinks as the scale grows.  At t = 0 both laws are the point mass at
    x0, which reads (0.0, 1.0).  It needs n >= 2, the floor of the CLI's
    ``scaling --n``.
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
    if t == 0.0:
        return 0.0, 1.0
    return ks_one_sample(pos, lambda z: sign_drift_cdf(z, x0, drift, t))


def write_tv_curve_csv(curve: TvCurve, dest) -> None:
    """Write ``t,coupling_survival,binned_tv,theoretical_bound`` rows, floats as repr."""
    columns = (curve.t_grid, curve.coupling_survival, curve.binned_tv, curve.theoretical_bound)
    write_csv(dest, "t,coupling_survival,binned_tv,theoretical_bound", np.array(columns, float))
