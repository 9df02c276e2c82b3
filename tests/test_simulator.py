import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import gate
from telegraph_kit.model import ModelParams, hitting_exponent
from telegraph_kit.paths import reflect_path
from telegraph_kit.simulate import (
    ExpSource,
    make_stream,
    sample_reflected_states,
    sample_unreflected_states,
    simulate_reflected,
    simulate_unreflected,
)

P12 = ModelParams(1.0, 2.0)


def test_streams_are_deterministic_and_distinct():
    a = make_stream(123, 7).standard_exponential(8)
    b = make_stream(123, 7).standard_exponential(8)
    c = make_stream(123, 8).standard_exponential(8)
    d = make_stream(124, 7).standard_exponential(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    streams = [make_stream(5, i) for i in range(4)]
    draws = [s.standard_exponential() for s in streams]
    assert len(set(draws)) == 4
    again = [make_stream(5, i).standard_exponential() for i in range(4)]
    assert draws == again


def test_exp_source_hands_out_the_generator_sequence():
    # refills grow from 32 draws by doubling; the draws must not depend on
    # where the refills fall
    for n in (1, 31, 32, 33, 96, 97, 4000, 20000):
        src = ExpSource(make_stream(124, n))
        got = [src.draw() for _ in range(n)]
        assert got == make_stream(124, n).standard_exponential(n).tolist()


def test_simulation_is_bit_reproducible():
    p1 = simulate_reflected(0.3, 1, 40.0, P12, make_stream(9, 2))
    p2 = simulate_reflected(0.3, 1, 40.0, P12, make_stream(9, 2))
    assert np.array_equal(p1.knot_times, p2.knot_times)
    assert np.array_equal(p1.knot_positions, p2.knot_positions)
    assert np.array_equal(p1.knot_velocities, p2.knot_velocities)
    q1 = simulate_unreflected(-0.4, 1, 40.0, P12, make_stream(9, 3))
    q2 = simulate_unreflected(-0.4, 1, 40.0, P12, make_stream(9, 3))
    assert np.array_equal(q1.knot_times, q2.knot_times)
    assert np.array_equal(q1.knot_positions, q2.knot_positions)


def test_input_validation():
    rng = make_stream(0, 0)
    with pytest.raises(ValueError):
        simulate_reflected(-0.5, 1, 1.0, P12, rng)
    with pytest.raises(ValueError):
        simulate_reflected(0.0, -1, 1.0, P12, rng)
    with pytest.raises(ValueError):
        simulate_reflected(1.0, 2, 1.0, P12, rng)
    with pytest.raises(ValueError):
        simulate_unreflected(0.0, 1, -1.0, P12, rng)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            simulate_reflected(bad, 1, 1.0, P12, rng)
        with pytest.raises(ValueError, match="finite"):
            simulate_unreflected(bad, -1, 1.0, P12, rng)


def test_generated_paths_satisfy_structure():
    for seed in range(6):
        simulate_reflected(0.0, 1, 50.0, P12, make_stream(30, seed)).validate(reflected=True)
        simulate_unreflected(0.5, -1, 50.0, P12, make_stream(31, seed)).validate()


def test_first_flip_from_origin_is_exponential_b():
    """Leaving the origin upward, the first flip happens at rate b."""

    def check(seed):
        rng = make_stream(40, seed)
        firsts = []
        for _ in range(20000):
            path = simulate_reflected(0.0, 1, 30.0, P12, rng)
            events = path.events
            assert events, "a 30-unit window with no flip is essentially impossible"
            firsts.append(events[0][0])
        firsts = np.array(firsts)
        mean_ok = abs(firsts.mean() - 0.5) <= 3.0 * firsts.std(ddof=1) / math.sqrt(firsts.size)
        _, p = stats.kstest(firsts, "expon", args=(0.0, 1.0 / P12.b))
        return mean_ok and p > 0.01

    assert gate(check)


def test_degenerate_rates_give_constant_rate_flips():
    # with a == b the flip rate never depends on the position; first flip
    # times from both approach directions are plain Exp(a) draws (the window
    # truncates ~0.2% of them, far below KS resolution at this n)
    p = ModelParams(1.3, 1.3)

    def check(seed):
        ok = True
        for k, w0 in enumerate((-1, 1)):
            rng = make_stream(41, 2 * seed + k)
            firsts = []
            for _ in range(2000):
                path = simulate_unreflected(5.0, w0, 4.9, p, rng)
                if path.events:
                    firsts.append(path.events[0][0])
            _, pval = stats.kstest(np.array(firsts), "expon", args=(0.0, 1.0 / 1.3))
            ok = ok and pval > 0.01
        return ok

    assert gate(check)


def test_mean_hitting_time_matches_transform_slope():
    """E[hit time from (x,-1)] equals x * c'(0), read off by finite differences."""
    h = 1e-6
    slope = (hitting_exponent(h, P12) - hitting_exponent(-h, P12)) / (2.0 * h)
    target = 3.0 * slope

    def check(seed):
        rng = make_stream(42, seed)
        hits = []
        for _ in range(4000):
            path = simulate_reflected(3.0, -1, 120.0, P12, rng)
            zeros = path.knot_times[path.knot_positions == 0.0]
            # tail truncation at the horizon is ~1e-4 of runs and far below 3*SE
            hits.append(float(zeros[0]) if zeros.size else 120.0)
        hits = np.array(hits)
        se = hits.std(ddof=1) / math.sqrt(hits.size)
        return abs(hits.mean() - target) <= 3.0 * se

    assert gate(check)


def test_reflecting_an_unreflected_run_matches_direct_reflected_run():
    def check(seed):
        n = 4000
        rng1 = make_stream(43, 2 * seed)
        rng2 = make_stream(43, 2 * seed + 1)
        via_fold = []
        for _ in range(n):
            path = reflect_path(simulate_unreflected(-1.3, -1, 5.0, P12, rng1))
            via_fold.append(path.eval(5.0)[0])
        direct = [simulate_reflected(1.3, 1, 5.0, P12, rng2).eval(5.0)[0] for _ in range(n)]
        _, p = stats.ks_2samp(np.array(via_fold), np.array(direct), method="asymp")
        return p > 0.01

    assert gate(check)


def test_batch_sampler_matches_path_simulator_reflected():
    def check(seed):
        n = 4000
        pos_b, vel_b = sample_reflected_states(0.0, 1, 6.0, n, P12, make_stream(44, 2 * seed))
        rng = make_stream(44, 2 * seed + 1)
        states = [simulate_reflected(0.0, 1, 6.0, P12, rng).eval(6.0) for _ in range(n)]
        pos_p = np.array([s[0] for s in states])
        vel_p = np.array([s[1] for s in states])
        _, p = stats.ks_2samp(pos_b, pos_p, method="asymp")
        f_b, f_p = (vel_b == 1).mean(), (vel_p == 1).mean()
        vel_ok = abs(f_b - f_p) <= 3.0 * math.sqrt(0.5 * 0.5 * 2.0 / n)
        return p > 0.01 and vel_ok

    assert gate(check)


def test_batch_sampler_matches_path_simulator_unreflected():
    def check(seed):
        n = 4000
        pos_b, vel_b = sample_unreflected_states(0.5, -1, 6.0, n, P12, make_stream(45, 2 * seed))
        rng = make_stream(45, 2 * seed + 1)
        states = [simulate_unreflected(0.5, -1, 6.0, P12, rng).eval(6.0) for _ in range(n)]
        pos_p = np.array([s[0] for s in states])
        _, p = stats.ks_2samp(pos_b, pos_p, method="asymp")
        f_b, f_p = (vel_b == 1).mean(), (np.array([s[1] for s in states]) == 1).mean()
        vel_ok = abs(f_b - f_p) <= 3.0 * math.sqrt(0.5 * 0.5 * 2.0 / n)
        return p > 0.01 and vel_ok

    assert gate(check)


def test_batch_sampler_randomizes_velocity_when_unspecified():
    pos, vel = sample_unreflected_states(0.0, None, 0.5, 4000, P12, make_stream(46, 0))
    assert set(np.unique(vel)) == {-1, 1}
    assert abs((vel == 1).mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(4000)
    assert np.all(np.abs(pos) <= 0.5 + 1e-12)  # unit speed bound


def test_long_run_velocity_occupation_is_balanced():
    def check(seed):
        path = simulate_reflected(0.0, 1, 10000.0, P12, make_stream(47, seed))
        ts = np.append(path.knot_times, path.horizon)
        durations = np.diff(ts)
        up = durations[path.knot_velocities == 1].sum()
        frac = up / path.horizon
        return 0.49 <= frac <= 0.51

    assert gate(check)


def test_endpoint_law_reaches_exponential_equilibrium():
    def check(seed):
        pos, _ = sample_reflected_states(0.0, 1, 50.0, 4000, P12, make_stream(48, seed))
        _, p = stats.kstest(pos, "expon", args=(0.0, 1.0 / P12.rate_gap))
        return p > 0.01

    assert gate(check)


def stationary_law_holds(process, params, t, seed, chained=False, sampler_params=None):
    """Start 1e5 walkers in the invariant law, run them to t, and test the law they reach.

    The invariant position is Exp(b - a) on the half line and Laplace(b - a)
    on the whole line, with an independent fair velocity, so a sampler
    started there must keep that law at every t.  The positions of each
    velocity go through a one-sample KS against the invariant CDF
    (Bonferroni factor 2), and the +1 fraction through a binomial test.
    ``chained`` runs the grid t/4, ..., t as two grid calls, the second
    restarted from the states at the last time of the first, as
    ``tv_curve`` does; ``sampler_params`` runs the sampler on other rates.
    The law depends on b - a alone, so rates moved together, as
    (a, b) + 0.1, keep it and pass: such a mutant needs an oracle at
    finite t.
    """
    n = 100_000
    rng = make_stream(72, seed)
    gap = params.rate_gap
    pos = rng.exponential(1.0 / gap, n)
    vel = rng.choice(np.array([-1, 1]), n)
    reflected = process == "reflected"
    if not reflected:
        pos *= rng.choice(np.array([-1.0, 1.0]), n)
    sample = sample_reflected_states if reflected else sample_unreflected_states
    run = params if sampler_params is None else sampler_params
    if chained:
        grid, t_prev = t * np.arange(1, 5) / 4.0, 0.0
        for chunk in (grid[:2], grid[2:]):
            rows_pos, rows_vel = sample(pos, vel, chunk - t_prev, n, run, rng)
            pos, vel, t_prev = rows_pos[-1], rows_vel[-1], chunk[-1]
    else:
        pos, vel = sample(pos, vel, t, n, run, rng)

    def cdf(y):
        if reflected:
            return -np.expm1(-gap * y)
        below = 0.5 * np.exp(gap * np.minimum(y, 0.0))
        return np.where(y < 0.0, below, 1.0 - 0.5 * np.exp(-gap * np.maximum(y, 0.0)))

    p_ks = min(stats.kstest(pos[vel == v], cdf).pvalue for v in (-1, 1))
    p_sign = stats.binomtest(int(np.count_nonzero(vel == 1)), n, 0.5).pvalue
    return 2.0 * p_ks > 0.01 and p_sign > 0.01


@pytest.mark.parametrize("chained", [False, True])
@pytest.mark.parametrize("process", ["reflected", "unreflected"])
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(st.floats(0.5, 2.0), st.floats(1.05, 10.0), st.floats(0.5, 10.0))
def test_batch_samplers_keep_the_invariant_law(process, chained, a, ratio, t):
    params = ModelParams(a, a * ratio)
    assert gate(lambda seed: stationary_law_holds(process, params, t, seed, chained))


@pytest.mark.parametrize("wrong", [ModelParams(1.0, 2.1), ModelParams(1.05, 2.0)])
@pytest.mark.parametrize("process", ["reflected", "unreflected"])
def test_stationarity_check_rejects_b_or_a_five_percent_off(process, wrong):
    assert not gate(
        lambda seed: stationary_law_holds(process, P12, 5.0, seed, sampler_params=wrong)
    )
