import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from conftest import gate
from telegraph_kit import analysis
from telegraph_kit.analysis import (
    TvCurve,
    binned_tv_estimate,
    binned_tv_noise_floor,
    domination_gap,
    empirical_decay_rate,
    ks_band,
    ks_one_sample,
    ks_two_sample,
    scaling_limit_check,
    sde_oracle,
    sign_drift_cdf,
    tv_curve,
    write_tv_curve_csv,
)
from telegraph_kit.model import ModelParams, critical_rate, tv_bound
from telegraph_kit.simulate import make_stream, sample_reflected_states, sample_unreflected_states

P12 = ModelParams(1.0, 2.0)


def test_ks_two_sample_basics():
    rng = make_stream(100, 0)
    x = rng.standard_normal(1500)
    stat, p = ks_two_sample(x, x)
    assert stat == 0.0 and p == 1.0
    y = rng.standard_normal(1500) + 3.0
    stat, p = ks_two_sample(x, y)
    assert stat > 0.8 and p < 1e-10
    with pytest.raises(ValueError):
        ks_two_sample(x, [])


def test_ks_statistic_matches_scipy_bit_for_bit():
    rng = make_stream(102, 0)
    x, y = rng.standard_normal(700), rng.standard_normal(311) + 0.1
    cases = [
        (x, y),  # unequal sizes
        (np.round(x, 1), np.round(y, 1)),  # ties within and across the samples
        (np.round(y, 1), np.round(x, 1)),
        (x[:1], y),  # n = 1
        (y, x[:1]),
        (x, x.copy()),  # identical samples
    ]
    for s1, s2 in cases:
        ref = stats.ks_2samp(s1, s2, method="asymp").statistic
        assert ks_two_sample(s1, s2)[0].hex() == float(ref).hex()


def test_kolmogorov_limit_law_matches_scipy():
    lams = np.linspace(0.05, 10.0, 2000)
    assert (lams < 1.0).sum() > 100 and (lams >= 1.0).sum() > 100  # both branches
    got = [analysis._kolmogorov_sf(float(lam)) for lam in lams]
    np.testing.assert_allclose(got, special.kolmogorov(lams), rtol=1e-12, atol=0.0)
    assert analysis._kolmogorov_sf(0.0) == 1.0


# sizes whose en = nm/(n+m) is a whole number from 25 up: scipy's asymptotic
# p-value rounds en to an integer, which alone moves it by several percent
_KS_SIZES = ((50, 50), (30, 150), (26, 650), (200, 200), (120, 600), (2000, 2000))


def _ks_p_value_gaps(ks) -> list[float]:
    """Relative gaps of ks's p-value to scipy's wherever scipy's lies in [1e-3, 0.5]."""
    gaps = []
    for n, m in _KS_SIZES:
        x, y = (np.arange(n) + 0.5) / n, (np.arange(m) + 0.5) / m
        for shift in np.linspace(0.0, 0.5, 200):
            ref = stats.ks_2samp(x, y + shift, method="asymp").pvalue
            if 1e-3 <= ref <= 0.5:
                gaps.append(abs(ks(x, y + shift)[1] / ref - 1.0))
    return gaps


def test_ks_p_value_is_close_to_scipy():
    gaps = _ks_p_value_gaps(ks_two_sample)
    assert len(gaps) > 300
    assert max(gaps) < 0.05


def test_ks_p_value_check_rejects_the_uncorrected_argument():
    # Kolmogorov's law at sqrt(en) * D, without Stephens' finite-size terms
    def uncorrected(x, y):
        stat, _ = ks_two_sample(x, y)
        return stat, analysis._kolmogorov_sf(math.sqrt(x.size * y.size / (x.size + y.size)) * stat)

    assert max(_ks_p_value_gaps(uncorrected)) > 0.05


def test_ks_two_sample_propagates_nan():
    for s1, s2 in (([0.5, math.nan, 1.0], [0.2, 0.3]), ([0.5], [math.nan]), ([math.nan], [math.nan])):
        stat, p = ks_two_sample(s1, s2)
        assert math.isnan(stat) and math.isnan(p)


def test_ks_level_calibration():
    # same-law pairs should reject at close to the nominal rate
    def check(seed):
        rng = make_stream(101, seed)
        rejections = 0
        for _ in range(100):
            _, p = ks_two_sample(rng.standard_exponential(400), rng.standard_exponential(400))
            if p < 0.01:
                rejections += 1
        return rejections <= 5

    assert gate(check)


def test_ks_band_values():
    expect = math.sqrt(-0.5 * math.log(0.005)) * math.sqrt(2.0 / 1000.0)
    assert math.isclose(ks_band(1000, 1000, 0.01), expect, rel_tol=1e-14)
    assert ks_band(4000, 4000, 0.01) < ks_band(1000, 1000, 0.01)
    assert ks_band(1000, 1000, 0.001) > ks_band(1000, 1000, 0.05)
    with pytest.raises(ValueError):
        ks_band(10, 10, 0.0)
    with pytest.raises(ValueError):
        ks_band(10, 10, 1.0)


def test_domination_gap_directions():
    rng = make_stream(102, 0)
    u = rng.standard_exponential(3000)
    shifted = u + 0.25 + rng.standard_exponential(3000)
    assert domination_gap(u, u) == 0.0
    assert domination_gap(u, shifted) <= ks_band(3000, 3000, 0.01)
    assert domination_gap(shifted, u) > 0.1
    with pytest.raises(ValueError):
        domination_gap([], u)


def test_binned_tv_identical_and_disjoint():
    rng = make_stream(103, 0)
    pos = rng.standard_exponential(2000)
    vel = np.where(rng.uniform(size=2000) < 0.5, 1, -1)
    assert binned_tv_estimate(pos, vel, pos, vel, 0.1) == 0.0
    # supports further apart than one bin never share a cell
    assert binned_tv_estimate(pos, vel, pos + 50.0, vel, 0.1) == 1.0
    # equal positions carried on opposite velocity marks never overlap
    up = np.ones(2000, dtype=np.int8)
    assert binned_tv_estimate(pos, up, pos, -up, 0.1) == 1.0
    with pytest.raises(ValueError):
        binned_tv_estimate(pos, vel, pos, vel, 0.0)
    with pytest.raises(ValueError):
        binned_tv_estimate([], [], pos, vel, 0.1)
    # same law: the estimate sits at the sampling noise floor
    pos2 = rng.standard_exponential(2000)
    vel2 = np.where(rng.uniform(size=2000) < 0.5, 1, -1)
    assert binned_tv_estimate(pos, vel, pos2, vel2, 0.25) < 0.2


def test_binned_tv_noise_floor_bounds_same_law_reading():
    # the floor must cover the same-law reading and shrink with the sample
    def check(seed):
        rng = make_stream(116, seed)
        for n in (500, 4000):
            p1 = rng.standard_exponential(n)
            p2 = rng.standard_exponential(n)
            v1 = np.where(rng.uniform(size=n) < 0.5, 1, -1)
            v2 = np.where(rng.uniform(size=n) < 0.5, 1, -1)
            est = binned_tv_estimate(p1, v1, p2, v2, 0.1)
            floor = binned_tv_noise_floor(p1, v1, p2, v2, 0.1)
            if est > floor + 3.0 / math.sqrt(n):
                return False
        return True

    assert gate(check)
    rng = make_stream(117, 0)
    small = binned_tv_noise_floor(
        rng.standard_exponential(500), np.ones(500),
        rng.standard_exponential(500), np.ones(500), 0.1,
    )
    big = binned_tv_noise_floor(
        rng.standard_exponential(8000), np.ones(8000),
        rng.standard_exponential(8000), np.ones(8000), 0.1,
    )
    assert big < small


def reference_binned_masses(pos_1, vel_1, pos_2, vel_2, bin_width: float):
    """The per-velocity ``np.histogram`` version that the one binned-TV helper replaced.

    Kept verbatim, but for its name and this docstring, with the two
    functions below, to pin the bits of :func:`binned_tv_estimate` and
    :func:`binned_tv_noise_floor`.
    """
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


def reference_tv_of_masses(m1, m2) -> float:
    return float(0.5 * np.abs(m1 - m2).sum())


def reference_floor_of_masses(m1, m2, n1: int, n2: int) -> float:
    pooled = (n1 * m1 + n2 * m2) / (n1 + n2)
    return float(0.5 * np.sqrt(pooled * (1.0 / n1 + 1.0 / n2)).sum())


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(1, 2000),
    st.integers(1, 2000),
    st.sampled_from([(1, -1), (1,), (-1,), (1, -1, 0, 2), (-1, 0.5), (0, 3)]),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 10.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, (1, -1), 1.0, 0.1, False, 0)  # one point a sample
@example(700, 300, (1,), 2.0, 0.05, True, 1)  # no -1 stratum; top point on the last edge
@example(2000, 2000, (1, -1, 0, 2), 5.0, 3.0, False, 2)  # other velocities; one bin wider than the spread
def test_binned_tv_keeps_the_bits_of_the_histograms(n1, n2, velocities, spread, width, on_edge, seed):
    rng = make_stream(118, seed)
    p1 = spread * rng.standard_exponential(n1)
    p2 = spread * rng.standard_exponential(n2) - 0.25 * spread
    v1, v2 = rng.choice(velocities, n1), rng.choice(velocities, n2)
    bin_width = width * spread  # from a thousand bins over the spread to a tenth of a bin
    if on_edge:
        lo = min(p1.min(), p2.min())
        p1[p1.argmax()] = lo + bin_width * math.ceil((max(p1.max(), p2.max()) - lo) / bin_width)
    m1, m2, size_1, size_2 = reference_binned_masses(p1, v1, p2, v2, bin_width)
    est = binned_tv_estimate(p1, v1, p2, v2, bin_width)
    floor = binned_tv_noise_floor(p1, v1, p2, v2, bin_width)
    assert est.hex() == reference_tv_of_masses(m1, m2).hex()
    assert floor.hex() == reference_floor_of_masses(m1, m2, size_1, size_2).hex()
    # one velocity for a whole sample, given as a scalar
    m1, m2, _, _ = reference_binned_masses(p1, velocities[0], p2, v2, bin_width)
    est = binned_tv_estimate(p1, velocities[0], p2, v2, bin_width)
    assert est.hex() == reference_tv_of_masses(m1, m2).hex()


def test_tv_curve_sandwich_and_validation():
    rng = make_stream(104, 0)
    grid = np.array([1.0, 2.0, 4.0, 6.0])
    curve = tv_curve((1.0, 1), (0.0, 1), "reflected", grid, 1000, P12, rng, bin_width=0.25)
    assert curve.n_couplings == 1000 and curve.n_paths == 1000
    assert np.array_equal(curve.t_grid, grid)
    s = curve.coupling_survival
    assert np.all(np.diff(s) <= 0.0)
    assert np.all((s >= 0.0) & (s <= 1.0))
    # lower estimate below upper bound, allowing for the histogram noise
    # floor at this sample size
    assert curve.noise_floor is not None
    assert np.all(curve.binned_tv <= s + curve.noise_floor + 0.05)
    expect_bound = [tv_bound(t, 1.0, 0.0, "reflected", P12) for t in grid]
    assert np.allclose(curve.theoretical_bound, expect_bound, rtol=1e-12)
    with pytest.raises(ValueError, match="process"):
        tv_curve((1.0, 1), (0.0, 1), "folded", grid, 1000, P12, rng)
    with pytest.raises(ValueError, match="t_grid"):
        tv_curve((1.0, 1), (0.0, 1), "reflected", [0.0, 1.0], 1000, P12, rng)
    with pytest.raises(ValueError, match="at least 1000"):
        tv_curve((1.0, 1), (0.0, 1), "reflected", grid, 200, P12, rng)


@pytest.mark.parametrize("process", ["reflected", "unreflected"])
def test_tv_curve_walks_the_grid_in_chunks_of_the_cell_budget(monkeypatch, process):
    # 2n = 2000 walkers and a budget of 6,000 cells: three grid times a call,
    # each call started from the last row of the one before, at times
    # counted from there
    name = f"sample_{process}_states"
    real = getattr(analysis, name)
    calls = []

    def spy(pos, vel, t, n, params, rng):
        calls.append((np.size(pos), np.asarray(t).tolist()))
        return real(pos, vel, t, n, params, rng)

    grid = np.arange(1.0, 8.0)
    whole = tv_curve((1.0, 1), (0.0, 1), process, grid, 1000, P12, make_stream(109, 0), 0.25)
    monkeypatch.setattr(analysis, name, spy)
    monkeypatch.setattr(analysis, "_GRID_CELLS", 6000)
    chunked = tv_curve((1.0, 1), (0.0, 1), process, grid, 1000, P12, make_stream(109, 0), 0.25)
    assert calls == [(2000, [1.0, 2.0, 3.0]), (2000, [1.0, 2.0, 3.0]), (2000, [1.0])]
    assert chunked.coupling_survival.tobytes() == whole.coupling_survival.tobytes()
    assert np.all(chunked.binned_tv <= chunked.coupling_survival + chunked.noise_floor + 0.05)
    assert np.all(np.abs(chunked.binned_tv - whole.binned_tv) <= 2.0 * whole.noise_floor + 0.05)


def test_tv_curve_refuses_invalid_starts():
    rng = make_stream(108, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        tv_curve((-1.0, 1), (0.0, 1), "reflected", [1.0], 1000, P12, rng)
    with pytest.raises(ValueError, match="origin"):
        tv_curve((1.0, 1), (0.0, -1), "reflected", [1.0], 1000, P12, rng)
    with pytest.raises(ValueError, match="-1 or"):
        tv_curve((1.0, 0), (0.0, 1), "unreflected", [1.0], 1000, P12, rng)
    for bad in (math.inf, -math.inf, math.nan):
        for process in ("reflected", "unreflected"):
            with pytest.raises(ValueError, match="finite"):
                tv_curve((bad, 1), (0.0, 1), process, [1.0], 1000, P12, rng)
            with pytest.raises(ValueError, match="finite"):
                tv_curve((1.0, 1), (bad, -1), process, [1.0], 1000, P12, rng)
    # a finite start far out cuts the default width's reach past the bin cap
    with pytest.raises(ValueError, match="past the cap"):
        tv_curve((1e308, 1), (0.0, 1), "reflected", [1.0], 1000, P12, rng)


def test_tv_curve_identical_starts():
    rng = make_stream(105, 0)
    curve = tv_curve(
        (0.5, -1), (0.5, -1), "unreflected", [1.0, 3.0], 1000, P12, rng, bin_width=0.25
    )
    assert np.all(curve.coupling_survival == 0.0)
    assert np.all(curve.binned_tv <= curve.noise_floor + 0.1)


def test_tv_disjoint_supports_saturate():
    # before the legs can possibly meet, the binned distance is exactly one
    rng = make_stream(106, 0)
    pos1, vel1 = sample_unreflected_states(3.0, 1, 1.0, 2000, P12, rng)
    pos2, vel2 = sample_unreflected_states(0.0, 1, 1.0, 2000, P12, rng)
    assert pos1.min() >= 2.0 - 1e-9 and pos2.max() <= 1.0 + 1e-9
    assert binned_tv_estimate(pos1, vel1, pos2, vel2, 0.25) == 1.0


def test_empirical_decay_rate_recovers_slope():
    grid = np.linspace(1.0, 20.0, 40)
    surv = np.exp(-0.3 * grid)
    curve = TvCurve(grid, surv, np.zeros_like(grid), np.ones_like(grid), 1000, 1000)
    assert math.isclose(empirical_decay_rate(curve), 0.3, rel_tol=1e-12)
    noisy = surv * np.exp(0.01 * np.sin(grid))
    curve_n = TvCurve(grid, noisy, np.zeros_like(grid), np.ones_like(grid), 1000, 1000)
    assert abs(empirical_decay_rate(curve_n) - 0.3) < 0.01
    flat = TvCurve(grid, np.full_like(grid, 0.9), surv, surv, 1000, 1000)
    with pytest.raises(ValueError, match="too few"):
        empirical_decay_rate(flat)


def test_coupling_rate_beats_half_critical():
    # the fitted coupling decay should not be slower than half the closed
    # rate; a generous check that the machinery is wired to the right curve
    lc = critical_rate(P12)

    def check(seed):
        rng = make_stream(107, seed)
        grid = np.linspace(4.0, 44.0, 11)
        curve = tv_curve((1.0, 1), (0.0, 1), "reflected", grid, 1500, P12, rng, bin_width=0.5)
        try:
            rate = empirical_decay_rate(curve)
        except ValueError:
            return False
        return rate >= 0.5 * lc

    assert gate(check)


def test_sde_oracle_zero_drift_is_exact():
    # with no drift every Euler step adds an exact Gaussian, so the endpoint
    # is exactly normal at any step size
    def check(seed):
        rng = make_stream(108, seed)
        x = sde_oracle(0.0, 0.0, 0.05, 2.0, 20000, rng)
        p = stats.kstest(x, stats.norm(scale=math.sqrt(2.0)).cdf).pvalue
        return p > 0.01

    assert gate(check)
    with pytest.raises(ValueError):
        sde_oracle(1.0, 0.0, 0.0, 1.0, 10, make_stream(108, 9))
    with pytest.raises(ValueError):
        sde_oracle(1.0, 0.0, 0.01, -1.0, 10, make_stream(108, 9))


def reference_sde_oracle(drift, x0, dt, horizon, n, rng):
    """The Euler loop as first written: one draw and new arrays a step.

    Kept verbatim, but for its name and this docstring, to pin the draws,
    the endpoint bits and the generator state of :func:`sde_oracle`.
    """
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


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.floats(-3.0, 5.0) | st.just(0.0),
    st.floats(-2.0, 2.0) | st.just(0.0),
    st.floats(1e-3, 0.5),
    st.floats(0.0, 3.0),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
@example(1.0, 0.0, 1e-3, 1.0, 1000, 1)  # scaling's size, a thousand steps
@example(1.0, 0.0, 0.3, 1.0, 5, 2)  # three steps and a remainder
@example(0.0, 0.0, 0.25, 1.0, 5, 3)  # no drift: sign(0) times a zero pull
@example(1.0, 0.0, 1e-3, 0.009, 5, 4)  # nine steps overshoot the horizon by roundoff
def test_sde_oracle_keeps_every_draw_of_the_old_loop(drift, x0, dt, horizon, n, seed):
    rng, twin = make_stream(seed, 0), make_stream(seed, 0)
    x = sde_oracle(drift, x0, dt, horizon, n, rng)
    x_ref = reference_sde_oracle(drift, x0, dt, horizon, n, twin)
    assert x.tobytes() == x_ref.tobytes()
    assert rng.random() == twin.random()


def test_sde_oracle_short_time_drift():
    # from a start far above the origin the sign is constant on short
    # windows, so the mean drifts linearly
    def check(seed):
        rng = make_stream(109, seed)
        x = sde_oracle(1.0, 5.0, 1e-3, 0.1, 10000, rng)
        se = float(np.std(x, ddof=1) / math.sqrt(x.size))
        return abs(float(np.mean(x)) - 4.9) < 3.0 * se

    assert gate(check)


def test_sde_oracle_equilibrium_moments():
    # the sign-drift diffusion settles into the two-sided exponential law;
    # check its first absolute moment and symmetry with Euler bias headroom
    def check(seed):
        rng = make_stream(110, seed)
        x = sde_oracle(1.0, 0.0, 1e-3, 18.0, 5000, rng)
        return abs(float(np.mean(np.abs(x))) - 0.5) < 0.04 and abs(float(np.mean(x))) < 0.04

    assert gate(check)


def reflected_bm_cdf(z, x0, drift, t):
    """CDF at time t of Brownian motion with drift -drift reflected at 0, from x0 >= 0.

    Harrison, Brownian Motion and Stochastic Flow Systems (1985).
    """
    root, rise = math.sqrt(t), drift * t - x0
    mirror = np.exp(-2.0 * drift * z) * stats.norm.cdf((rise - z) / root)
    return stats.norm.cdf((z + rise) / root) - mirror


@pytest.mark.parametrize(
    "drift, t, x0, scale, n",
    [
        (0.0, 1.0, 0.0, 16.0, 20000),  # the folded normal
        (1.0, 6.0, 0.0, 16.0, 20000),  # near the Exp(2c) equilibrium, mean 1/(2c)
        (1.0, 1.0, 1.0, 32.0, 10000),  # mixing from a start off the origin
    ],
    ids=["folded-normal", "equilibrium", "from-one"],
)
def test_reflected_states_follow_reflected_bm_in_the_diffusive_limit(drift, t, x0, scale, n):
    # rates (N - c, N + c) run to time t*N give reflected Brownian motion with
    # drift -c at time t; positions scaled by 1.1 must fail the same test, and
    # a start off the origin needs N >= 32 against finite-scale bias
    params = ModelParams(scale - drift, scale + drift)

    def check(seed):
        pos, _ = sample_reflected_states(x0, None, t * scale, n, params, make_stream(111, seed))
        law = (x0, drift, t)
        p_value = stats.kstest(pos, reflected_bm_cdf, args=law).pvalue
        return p_value > 0.01 and stats.kstest(1.1 * pos, reflected_bm_cdf, args=law).pvalue < 0.01

    assert gate(check)


# starts on and off the origin on both sides, drifts, times and points in
# units of sqrt(t) around both +-x0, where the terms of the law turn over
_LAW_CASES = [
    (x0, drift, t)
    for x0 in (0.0, 1.0, -0.5, 3.0, -3.0)
    for drift in (0.0, 0.5, 1.0, 4.0)
    for t in (0.1, 1.0, 6.0)
]


def _law_points(x0, t):
    steps = math.sqrt(t) * np.linspace(-8.0, 8.0, 161)
    return np.sort(np.concatenate([steps, steps + x0, steps - x0]))


def test_sign_drift_law_folds_to_harrisons_reflected_law():
    # |X| is Brownian motion with drift -c reflected at 0, from |x0|
    for x0, drift, t in _LAW_CASES:
        z = np.abs(_law_points(x0, t))
        folded = sign_drift_cdf(z, x0, drift, t) - sign_drift_cdf(-z, x0, drift, t)
        want = reflected_bm_cdf(z, abs(x0), drift, t)
        np.testing.assert_allclose(folded, want, rtol=0.0, atol=1e-12, err_msg=f"{x0, drift, t}")


def test_sign_drift_law_without_drift_is_normal():
    for x0, _, t in _LAW_CASES:
        z = _law_points(x0, t)
        want = stats.norm.cdf(z, loc=x0, scale=math.sqrt(t))
        np.testing.assert_allclose(sign_drift_cdf(z, x0, 0.0, t), want, rtol=0.0, atol=1e-12)


def _mirror_symmetric_law(x0, drift, t):
    """The law of S*|X| for a fair sign S: the exact law with its unhit-path term K dropped."""
    return lambda z: 0.5 + 0.5 * np.sign(z) * reflected_bm_cdf(np.abs(z), abs(x0), drift, t)


@pytest.mark.parametrize("x0", [1.0, -0.5])
def test_sign_drift_law_matches_the_euler_oracle_off_the_origin(x0):
    # from a start off the origin a path that has not yet reached it keeps
    # its side, so the law is not symmetric: the oracle must fit the exact
    # law and reject the symmetric one.  At dt = 1e-3 its bias stayed
    # below the noise of 20,000 endpoints
    def check(seed):
        x = sde_oracle(1.0, x0, 1e-3, 1.0, 20000, make_stream(116, seed))
        _, p = ks_one_sample(x, lambda z: sign_drift_cdf(z, x0, 1.0, 1.0))
        _, p_symmetric = ks_one_sample(x, _mirror_symmetric_law(x0, 1.0, 1.0))
        return p > 0.01 and p_symmetric < 0.01

    assert gate(check)


@pytest.mark.parametrize("x0", [0.0, 1.0, -1.0, 1e308, -1e308, 5e-324])
def test_sign_drift_law_is_a_cdf_at_extreme_inputs(x0):
    # c*sqrt(t) near 1e3 and tiny and huge t; numpy warnings fail the test,
    # so no step may overflow into inf - inf or 0 * inf either
    for drift, t in ((1e3, 1.0), (1.0, 1e6), (0.5, 5e-324), (1.0, 1e-300), (1.0, 1e300),
                     (1e308, 1e308), (0.0, 1e308)):
        root = math.sqrt(t)
        with np.errstate(over="ignore"):
            z = np.concatenate([np.linspace(-1.0, 1.0, 201) * 1e308,
                                *(root * np.linspace(-10.0, 10.0, 201) + m for m in (0.0, x0, -x0))])
        z = np.sort(z[np.isfinite(z)])
        f = sign_drift_cdf(z, x0, drift, t)
        assert np.all((f >= 0.0) & (f <= 1.0)), (drift, t)
        # rounding may step back by a few ulps between neighbours an ulp apart
        assert np.all(np.diff(f) >= -1e-15), (drift, t)
    with pytest.raises(ValueError):
        sign_drift_cdf([0.0], x0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sign_drift_cdf([0.0], x0, -1.0, 1.0)


def test_ks_one_sample_matches_scipy():
    rng = make_stream(117, 0)
    for n in (1, 2, 50, 3000):
        x = rng.standard_normal(n) + 0.05
        stat, p = ks_one_sample(x, stats.norm.cdf)
        ref = stats.kstest(x, stats.norm.cdf).statistic
        assert stat == pytest.approx(ref, rel=1e-13, abs=0.0)
        root = math.sqrt(n)
        assert p == pytest.approx(special.kolmogorov((root + 0.12 + 0.11 / root) * stat), rel=1e-12)
    stat, p = ks_one_sample([0.5, math.nan], stats.norm.cdf)
    assert math.isnan(stat) and math.isnan(p)
    with pytest.raises(ValueError):
        ks_one_sample([], stats.norm.cdf)


def test_scaling_limit_check_behaviour():
    with pytest.raises(ValueError, match="scale"):
        scaling_limit_check(1.0, 2.0, 1.0, 100, make_stream(113, 0))
    with pytest.raises(ValueError, match="drift"):
        scaling_limit_check(4.0, -1.0, 1.0, 100, make_stream(113, 0))

    def check_level(seed):
        _, p = scaling_limit_check(64.0, 0.0, 1.0, 2500, make_stream(114, seed))
        return p > 0.001

    assert gate(check_level)

    def check_shrinks(seed):
        rng = make_stream(115, seed)
        s_coarse, _ = scaling_limit_check(4.0, 0.0, 1.0, 4000, rng)
        s_fine, _ = scaling_limit_check(100.0, 0.0, 1.0, 4000, rng)
        return s_fine < s_coarse

    assert gate(check_shrinks)


def test_write_tv_curve_csv():
    curve = TvCurve(
        np.array([1.0, 2.0]),
        np.array([0.5, 0.25]),
        np.array([0.125, 0.0625]),
        np.array([2.0, 1.5]),
        1000,
        1000,
    )
    buf = io.StringIO()
    write_tv_curve_csv(curve, buf)
    assert buf.getvalue() == (
        "t,coupling_survival,binned_tv,theoretical_bound\n"
        "1.0,0.5,0.125,2.0\n"
        "2.0,0.25,0.0625,1.5\n"
    )
