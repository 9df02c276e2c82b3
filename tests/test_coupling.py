import io
import math

import numpy as np
import pytest
from scipy import stats

from conftest import gate
from telegraph_kit import coupling
from telegraph_kit.analysis import domination_gap, ks_band, ks_two_sample
from telegraph_kit.coupling import (
    CouplingResult,
    coalescent_couple_reflected,
    coalescent_couple_unreflected,
    crossing_couple,
    dominating_time_mgf,
    sample_dominating_time,
    stick_couple,
    write_coupling_batch_csv,
)
from telegraph_kit.excursions import sample_hitting
from telegraph_kit.model import ModelParams, bound_constants, critical_rate
from telegraph_kit.simulate import ExpSource, make_stream, simulate_reflected, simulate_unreflected

P12 = ModelParams(1.0, 2.0)


def test_crossing_input_validation():
    rng = make_stream(0, 0)
    with pytest.raises(ValueError, match="at or above"):
        crossing_couple(1.0, 1, 3.0, 1, P12, rng)
    with pytest.raises(ValueError, match="velocity"):
        crossing_couple(3.0, 0, 1.0, 1, P12, rng)
    with pytest.raises(ValueError, match="nonnegative"):
        crossing_couple(3.0, 1, -1.0, 1, P12, rng)
    with pytest.raises(ValueError, match="origin"):
        crossing_couple(3.0, 1, 0.0, -1, P12, rng)


def test_crossing_meets_with_opposite_velocities():
    # runs until the legs share a position; the upper one must arrive
    # descending and the lower one climbing
    for seed in range(250):
        res = crossing_couple(3.0, 1, 1.0, -1, P12, make_stream(20, seed))
        assert res.crossing_time is not None and res.crossing_time > 0.0
        assert res.coalescence_time is None
        t_c = res.crossing_time
        p_hi, p_lo = res.path_1, res.path_2
        assert p_hi.horizon == t_c and p_lo.horizon == t_c
        pos_hi, vel_hi = p_hi.eval(t_c)
        pos_lo, vel_lo = p_lo.eval(t_c)
        assert math.isclose(pos_hi, pos_lo, abs_tol=1e-9)
        assert math.isclose(pos_hi, res.crossing_position, abs_tol=1e-9)
        assert vel_hi == -1
        assert vel_lo == 1
        p_hi.validate(reflected=True)
        p_lo.validate(reflected=True)


def test_crossing_position_pathwise_bound():
    # run by run the meeting height is at most the average of the starts
    # plus the independent-phase clock
    for x, v, xo, vo in [(3.0, 1, 1.0, -1), (2.0, -1, 1.0, 1), (5.0, 1, 0.0, 1)]:
        cap = 0.5 * (x + xo)
        for seed in range(400):
            res = crossing_couple(x, v, xo, vo, P12, make_stream(21, seed))
            assert res.crossing_position <= cap + res.indep_clock + 1e-9


def test_indep_clock_reported_on_abort():
    # the independent phase runs whether or not the legs cross in time
    for seed in range(20):
        res = crossing_couple(3.0, 1, 1.0, -1, P12, make_stream(26, seed), horizon=1e-3)
        assert res.crossing_time is None
        assert res.indep_clock > 0.0


def test_crossing_preserves_order():
    for seed in range(120):
        res = crossing_couple(3.0, 1, 1.0, -1, P12, make_stream(22, seed))
        grid = np.linspace(0.0, res.crossing_time, 60)
        hi, _ = res.path_1.eval_many(grid)
        lo, _ = res.path_2.eval_many(grid)
        assert np.all(hi >= lo - 1e-9)


def test_crossing_identical_starts_waits_for_origin():
    # equal starts share every clock and only "cross" at the first origin
    # visit, which has the one-sided hitting law
    times = np.empty(2500)
    for seed in range(times.size):
        res = crossing_couple(2.0, -1, 2.0, -1, P12, make_stream(23, seed))
        assert res.crossing_position == 0.0
        assert res.indep_clock == 0.0
        assert np.array_equal(res.path_1.knot_times, res.path_2.knot_times)
        assert np.array_equal(res.path_1.knot_positions, res.path_2.knot_positions)
        times[seed] = res.crossing_time

    def check(seed):
        rng = make_stream(24, seed)
        ref = np.array([sample_hitting(2.0, -1, P12, rng) for _ in range(2500)])
        _, p = ks_two_sample(times, ref)
        return p > 0.01

    assert gate(check)


def test_crossing_head_on_deterministic_branch():
    # from (1,-1) against (0,+1) the gap closes at speed 2, so absent any
    # flip the legs meet at time 1/2, height 1/2; that branch survives with
    # probability exp(-(a+b)/2) and is computed without roundoff
    hits = 0
    n = 600
    for seed in range(n):
        res = crossing_couple(1.0, -1, 0.0, 1, P12, make_stream(25, seed))
        assert res.crossing_time >= 0.5 - 1e-12
        if res.crossing_time == 0.5:
            assert res.crossing_position == 0.5
            hits += 1
    p_exact = math.exp(-1.5)
    se = math.sqrt(p_exact * (1.0 - p_exact) / n)
    assert abs(hits / n - p_exact) < 4.0 * se


def test_stick_merges_and_shares_knots():
    for seed in range(200):
        res = stick_couple(1.5, P12, make_stream(30, seed))
        t_m = res.coalescence_time
        assert t_m is not None and t_m > 0.0
        assert res.crossing_time is None
        assert res.path_1.horizon == t_m
        up_end, up_vel = res.path_1.eval(t_m)
        dn_end, dn_vel = res.path_2.eval(t_m)
        assert up_end == dn_end and up_end > 0.0
        assert up_vel == -1 and dn_vel == -1
        res.path_1.validate(reflected=True)
        res.path_2.validate(reflected=True)


def test_stick_order_and_shared_tail():
    for seed in range(120):
        res = stick_couple(2.0, P12, make_stream(31, seed), horizon=25.0)
        if res.coalescence_time is None:
            continue
        t_m = res.coalescence_time
        pre = np.linspace(0.0, t_m, 50)
        assert np.all(res.path_1.eval_many(pre)[0] >= res.path_2.eval_many(pre)[0] - 1e-9)
        post = np.linspace(t_m, 25.0, 64)
        assert np.array_equal(res.path_1.eval_many(post)[0], res.path_2.eval_many(post)[0])


def test_stick_origin_start_merge_law():
    # from the origin the descent collapses and the merge happens after a
    # single upward clock, so the merge time is exactly Exp(b)
    def check(seed):
        tm = np.array(
            [
                stick_couple(0.0, P12, make_stream(32 + seed, i)).coalescence_time
                for i in range(2000)
            ]
        )
        return stats.kstest(tm, stats.expon(scale=1.0 / P12.b).cdf).pvalue > 0.01

    assert gate(check)


def test_stick_merge_dominated_by_upper_descent():
    # the up leg is a faithful reflected run from (x, +1), and the merge
    # happens strictly before it reaches the origin
    x = 3.0

    def check(seed):
        rng = make_stream(33, seed)
        tm = np.array(
            [stick_couple(x, P12, rng).coalescence_time for _ in range(2500)]
        )
        ref = np.array([sample_hitting(x, 1, P12, rng) for _ in range(2500)])
        return domination_gap(tm, ref) <= ks_band(2500, 2500, 0.01)

    assert gate(check)


def test_reflected_coalescent_marginals():
    # each coupled leg, read at a fixed time, must be indistinguishable from
    # a standalone reflected run with the same start
    t_read = 4.0

    def check(seed):
        n = 1500
        rng = make_stream(40, seed)
        leg1 = np.empty(n)
        leg2 = np.empty(n)
        for i in range(n):
            res = coalescent_couple_reflected(2.0, -1, 0.0, 1, t_read, P12, rng)
            leg1[i] = res.path_1.eval(t_read)[0]
            leg2[i] = res.path_2.eval(t_read)[0]
        rng_ref = make_stream(41, seed)
        ref1 = np.array(
            [
                simulate_reflected(2.0, -1, t_read, P12, rng_ref).eval(t_read)[0]
                for _ in range(n)
            ]
        )
        ref2 = np.array(
            [
                simulate_reflected(0.0, 1, t_read, P12, rng_ref).eval(t_read)[0]
                for _ in range(n)
            ]
        )
        _, p1 = ks_two_sample(leg1, ref1)
        _, p2 = ks_two_sample(leg2, ref2)
        return p1 > 0.01 and p2 > 0.01

    assert gate(check)


def test_reflected_coalescent_exact_after_merge():
    horizon = 30.0
    coalesced = 0
    for seed in range(80):
        res = coalescent_couple_reflected(2.5, 1, 0.5, -1, horizon, P12, make_stream(42, seed))
        res.path_1.validate(reflected=True)
        res.path_2.validate(reflected=True)
        if res.coalescence_time is None:
            continue
        coalesced += 1
        assert res.crossing_time is not None
        assert res.crossing_time <= res.coalescence_time
        grid = np.linspace(res.coalescence_time, horizon, 64)
        pos1, vel1 = res.path_1.eval_many(grid)
        pos2, vel2 = res.path_2.eval_many(grid)
        assert np.array_equal(pos1, pos2)
        assert np.array_equal(vel1, vel2)
    assert coalesced >= 70


def test_reflected_coalescent_tail_bound():
    # survival of the coalescence time against the explicit exponential
    # envelope; the envelope is loose at these horizons but must hold
    consts = bound_constants(P12)
    x_top = 2.0
    envelope = consts.reflected_prefactor * math.exp(consts.spatial_rate * x_top)
    lc = critical_rate(P12)
    horizon = 25.0

    def check(seed):
        n = 2000
        rng = make_stream(43, seed)
        tc = np.array(
            [
                coalescent_couple_reflected(
                    x_top, -1, 0.0, 1, horizon, P12, rng, record_paths=False
                ).coalescence_time
                or horizon
                for _ in range(n)
            ]
        )
        for t in (5.0, 10.0, 15.0):
            surv = float(np.mean(tc > t))
            bound = min(1.0, envelope * math.exp(-lc * t))
            se = math.sqrt(max(surv * (1.0 - surv), 1e-12) / n)
            if surv > bound + 3.0 * se:
                return False
        return True

    assert gate(check)


def test_coalescence_dominated_by_decomposition_draw():
    # the assembled dominating time must stochastically dominate the actual
    # coalescence time for matched starts
    x, xo = 2.0, 0.0

    def check(seed):
        n = 2000
        rng = make_stream(44, seed)
        times = [
            coalescent_couple_reflected(
                x, -1, xo, 1, 200.0, P12, rng, record_paths=False
            ).coalescence_time
            for _ in range(n)
        ]
        # an uncoalesced run counts at the horizon; a genuine 0.0 stays 0.0
        tc = np.array([200.0 if t is None else t for t in times])
        rng_bar = make_stream(45, seed)
        tbar = np.array(
            [sample_dominating_time(x, xo, P12, rng_bar).value for _ in range(n)]
        )
        return domination_gap(tc, tbar) <= ks_band(n, n, 0.01)

    assert gate(check)


def test_dominating_time_components():
    rng = make_stream(46, 0)
    for _ in range(300):
        s = sample_dominating_time(1.5, 0.5, P12, rng)
        parts = (
            s.indep_clock,
            s.indep_returns,
            s.indep_descent,
            s.excursion_first,
            s.excursion_second,
            s.start_descent,
            s.offset,
            s.gap_returns,
        )
        assert all(p >= 0.0 for p in parts)
        assert math.isclose(s.value, sum(parts), rel_tol=1e-12)
        assert s.offset == 1.0
    zero = sample_dominating_time(0.0, 0.0, P12, rng)
    assert zero.offset == 0.0
    assert zero.gap_returns == 0.0
    assert zero.start_descent == 0.0
    with pytest.raises(ValueError):
        sample_dominating_time(1.0, 2.0, P12, rng)
    with pytest.raises(ValueError):
        sample_dominating_time(1.0, -0.5, P12, rng)


def test_dominating_time_mgf_normalisation_and_domain():
    assert math.isclose(float(dominating_time_mgf(1.0, 0.5, 0.0, P12)), 1.0, rel_tol=1e-12)
    assert math.isclose(float(dominating_time_mgf(0.0, 0.0, 0.0, P12)), 1.0, rel_tol=1e-12)
    lc = critical_rate(P12)
    assert dominating_time_mgf(1.0, 0.0, lc, P12).is_finite
    assert not dominating_time_mgf(1.0, 0.0, lc + 1e-6, P12).is_finite
    # growing either start can only increase the transform
    vals = [float(dominating_time_mgf(x, 0.0, 0.5 * lc, P12)) for x in (0.0, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_dominating_time_mgf_matches_samples():
    lam = 0.5 * critical_rate(P12)
    closed = float(dominating_time_mgf(1.0, 0.5, lam, P12))

    def check(seed):
        rng = make_stream(47, seed)
        vals = np.exp(
            lam
            * np.array(
                [sample_dominating_time(1.0, 0.5, P12, rng).value for _ in range(20000)]
            )
        )
        emp = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        return abs(emp - closed) < 3.0 * se

    assert gate(check)


def test_dominating_mgf_below_constants_envelope():
    # at the critical rate the closed transform sits under the packaged
    # prefactor times the spatial factor, which is how the tail constants
    # are justified; check across a grid of ordered starts
    consts = bound_constants(P12)
    lc = critical_rate(P12)
    for x in (0.0, 0.5, 1.0, 2.0, 4.0):
        for xo in (0.0, 0.5 * x, x):
            val = dominating_time_mgf(x, xo, lc, P12)
            assert val.is_finite
            cap = consts.reflected_prefactor * math.exp(consts.spatial_rate * x)
            assert float(val) <= cap * (1.0 + 1e-12)


def test_time_only_runs_stop_at_the_merge(monkeypatch):
    # a merged time-only run draws nothing after the merge, so a longer
    # horizon changes neither its draws nor its times; a time the short run
    # did not reach lies past its horizon in the long run
    draws = []

    class CountingSource(ExpSource):
        def __init__(self, rng):
            super().__init__(rng)
            draws.append(0)

        def draw(self):
            draws[-1] += 1
            return super().draw()

    monkeypatch.setattr(coupling, "ExpSource", CountingSource)
    runs = [
        lambda hz, rng: coalescent_couple_reflected(1.0, 1, 0.0, 1, hz, P12, rng, False),
        lambda hz, rng: coalescent_couple_unreflected(1.0, 1, -0.5, 1, hz, P12, rng, False),
        lambda hz, rng: stick_couple(1.0, P12, rng, horizon=hz, record_paths=False),
    ]
    for run in runs:
        merged = 0
        for seed in range(40):
            short = run(40.0, make_stream(56, seed))
            long = run(4000.0, make_stream(56, seed))
            for got, full in (
                (short.crossing_time, long.crossing_time),
                (short.coalescence_time, long.coalescence_time),
            ):
                assert got == full or (got is None and (full is None or full > 40.0))
            if short.coalesced:
                merged += 1
                assert draws[-2] == draws[-1]
        assert merged >= 30


def test_coalescent_legs_meeting_at_a_rounded_origin_stay_valid():
    # a subnormal gap closes at once and rounds the meeting height to 0.0;
    # the descending leg must still reflect there
    res = coalescent_couple_reflected(0.0, 1, 5e-324, -1, 1.0, P12, make_stream(0, 0))
    assert res.crossing_time == 0.0 and res.crossing_position == 0.0
    res.path_1.validate(reflected=True)
    res.path_2.validate(reflected=True)


def test_unreflected_marginals():
    t_read = 4.0

    def check(seed):
        n = 1200
        rng = make_stream(50, seed)
        leg1 = np.empty(n)
        leg2 = np.empty(n)
        for i in range(n):
            res = coalescent_couple_unreflected(1.5, -1, -0.5, 1, t_read, P12, rng)
            leg1[i] = res.path_1.eval(t_read)[0]
            leg2[i] = res.path_2.eval(t_read)[0]
        rng_ref = make_stream(51, seed)
        ref1 = np.array(
            [
                simulate_unreflected(1.5, -1, t_read, P12, rng_ref).eval(t_read)[0]
                for _ in range(n)
            ]
        )
        ref2 = np.array(
            [
                simulate_unreflected(-0.5, 1, t_read, P12, rng_ref).eval(t_read)[0]
                for _ in range(n)
            ]
        )
        _, p1 = ks_two_sample(leg1, ref1)
        _, p2 = ks_two_sample(leg2, ref2)
        return p1 > 0.01 and p2 > 0.01

    assert gate(check)


def test_unreflected_equal_starts_collapse():
    res = coalescent_couple_unreflected(0.7, -1, 0.7, -1, 20.0, P12, make_stream(52, 0))
    assert res.coalescence_time == 0.0
    assert res.crossing_time is None
    assert np.array_equal(res.path_1.knot_positions, res.path_2.knot_positions)


def test_unreflected_mirror_symmetric_start():
    # starts (y, w) and (-y, w) skip the crossing stage; the clock-swapped
    # blocks merge the legs at (q, -w) with q a fresh upward clock, so the
    # merge height is exactly Exp(b) on the side the leading leg occupies
    def run(seed_base):
        merged = []
        for seed in range(200):
            res = coalescent_couple_unreflected(
                1.0, 1, -1.0, 1, 40.0, P12, make_stream(seed_base, seed)
            )
            res.path_1.validate()
            res.path_2.validate()
            assert res.crossing_time is None
            if res.coalescence_time is None:
                continue
            t_m = res.coalescence_time
            pos, vel = res.path_1.eval(t_m)
            assert pos > 0.0 and vel == -1
            post = np.linspace(t_m, 40.0, 64)
            pos1, vel1 = res.path_1.eval_many(post)
            pos2, vel2 = res.path_2.eval_many(post)
            assert np.array_equal(pos1, pos2)
            assert np.array_equal(vel1, vel2)
            merged.append(pos)
        assert len(merged) >= 170
        return np.array(merged)

    def check(seed):
        heights = run(53 + 1000 * seed)
        return stats.kstest(heights, stats.expon(scale=1.0 / P12.b).cdf).pvalue > 0.01

    assert gate(check)


def test_unreflected_antisymmetric_start():
    # starts (y, w) and (-y, -w) fold onto the same half-line state; the run
    # shares the folded path (knots at the same times, positions negated)
    # until the sign repair begins, then merges the legs exactly
    for y, w in [(1.0, 1), (1.0, -1), (0.0, 1)]:
        coalesced = 0
        for seed in range(150):
            res = coalescent_couple_unreflected(
                y, w, -y, -w if y != 0.0 else -1, 60.0, P12, make_stream(54, seed)
            )
            res.path_1.validate()
            res.path_2.validate()
            assert res.crossing_time is None
            kt1, kp1 = res.path_1.knot_times, res.path_1.knot_positions
            kt2, kp2 = res.path_2.knot_times, res.path_2.knot_positions
            k = 0
            m = min(kt1.size, kt2.size)
            while k < m and kt1[k] == kt2[k] and kp1[k] == -kp2[k]:
                k += 1
            assert k >= 1
            if res.coalescence_time is None:
                # never repaired: the whole record is the mirrored prefix
                assert k == m == kt1.size == kt2.size
                continue
            coalesced += 1
            t_m = res.coalescence_time
            assert kt1[min(k, kt1.size - 1)] <= t_m + 1e-12 or k == kt1.size
            grid = np.linspace(t_m, 60.0, 64)
            p1, v1 = res.path_1.eval_many(grid)
            p2, v2 = res.path_2.eval_many(grid)
            assert np.array_equal(p1, p2)
            assert np.array_equal(v1, v2)
        assert coalesced >= 130


def test_unreflected_coalescent_exact_after_merge():
    horizon = 50.0
    coalesced = 0
    for seed in range(120):
        res = coalescent_couple_unreflected(2.0, 1, -1.0, 1, horizon, P12, make_stream(55, seed))
        res.path_1.validate()
        res.path_2.validate()
        if res.coalescence_time is None:
            continue
        coalesced += 1
        grid = np.linspace(res.coalescence_time, horizon, 64)
        pos1, vel1 = res.path_1.eval_many(grid)
        pos2, vel2 = res.path_2.eval_many(grid)
        assert np.array_equal(pos1, pos2)
        assert np.array_equal(vel1, vel2)
    assert coalesced >= 100


def test_coupling_batch_csv():
    rows = [
        CouplingResult(0.5, 0.25, 2.0, 0.1, None, None, 10.0),
        CouplingResult(None, None, None, 0.0, None, None, 10.0),
        CouplingResult(1.0, 0.0, None, 0.0, None, None, 10.0),
    ]
    buf = io.StringIO()
    write_coupling_batch_csv(rows, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "run_id,crossing_time,coalescence_time,crossing_position,coalesced"
    assert lines[1] == "0,0.5,2.0,0.25,1"
    assert lines[2] == "1,,,,0"
    assert lines[3] == "2,1.0,,0.0,0"
