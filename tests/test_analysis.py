import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import gate
from telegraph_kit import analysis
from telegraph_kit.analysis import (
    TvCurve,
    binned_tv_estimate,
    binned_tv_noise_floor,
    domination_gap,
    empirical_decay_rate,
    ks_band,
    ks_two_sample,
    scaling_limit_check,
    sde_oracle,
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
    """The Euler loop before its normals came in blocks: one draw and new arrays a step.

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
@example(1.0, 0.0, 1e-3, 1.0, 1000, 1)  # scaling's size, several blocks of normals
@example(1.0, 0.0, 0.3, 1.0, 5, 2)  # three steps and a remainder
@example(0.0, 0.0, 0.25, 1.0, 5, 3)  # no drift: sign(0) times a zero pull
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
