"""Property tests of the reflected event kernel and the folding built on it.

Rates are drawn with log a in [-1, 1] and b/a in (1 + 1e-3, 10], starts
anywhere on the line and horizons up to 30.  The walk properties are
exact: the whole-line simulators, the excursion simulators, the reflected
batch sampler and both coalescent couplings all run on the one reflected
walk, so equal streams must give equal bits.  The excursion trees are
checked for their structure; the batched hitting times against the event
walk; and, for excursion lengths, hitting times and the origin-visit
functional, a batch of one against a batch of 1,024.  The batch endpoint
sampler is pinned bit for bit to its earlier uncompacted loop, its array
starts to its scalar ones, and two chained calls to one call in law.  The
laws are compared with a two-sample test under the usual reseeded gate.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import gate
from telegraph_kit.coupling import coalescent_couple_reflected, coalescent_couple_unreflected
from telegraph_kit.excursions import (
    first_return_time,
    sample_excursion_recursive,
    sample_excursions,
    sample_hitting,
    sample_sigma,
    simulate_excursion,
)
from telegraph_kit.model import ModelParams
from telegraph_kit.paths import reflect_path, unreflect_path
from telegraph_kit.simulate import (
    ExpSource,
    KnotRecorder,
    fold,
    make_stream,
    sample_reflected_states,
    sample_unreflected_states,
    simulate_reflected,
    simulate_unreflected,
    walk_reflected,
)

SETTINGS = settings(max_examples=25, deadline=None, database=None)

rates = st.builds(
    lambda log_a, ratio: ModelParams(math.exp(log_a), math.exp(log_a) * ratio),
    st.floats(-1.0, 1.0),
    st.floats(1.0 + 1e-3, 10.0, exclude_min=True),
)
positions = st.floats(-5.0, 5.0)
velocities = st.sampled_from((-1, 1))
horizons = st.floats(0.0, 30.0)
coupling_horizons = st.floats(0.0, 30.0, exclude_min=True)
processes = st.sampled_from(("reflected", "unreflected"))
seeds = st.integers(0, 2**32 - 1)
P12 = ModelParams(1.0, 2.0)


def same_bits(p, q) -> bool:
    return (
        p.knot_times.tobytes() == q.knot_times.tobytes()
        and p.knot_positions.tobytes() == q.knot_positions.tobytes()
        and p.knot_velocities.tobytes() == q.knot_velocities.tobytes()
        and p.horizon == q.horizon
    )


@SETTINGS
@given(rates, positions, velocities, horizons, seeds)
def test_paths_are_valid(params, y0, w0, horizon, seed):
    whole = simulate_unreflected(y0, w0, horizon, params, make_stream(seed, 0))
    whole.validate()
    x0, v0, _ = fold(y0, w0)
    half = simulate_reflected(x0, v0, horizon, params, make_stream(seed, 1))
    half.validate(reflected=True)
    assert half.knot_times[-1] <= horizon


@SETTINGS
@given(rates, positions, velocities, horizons, seeds)
def test_folded_whole_line_path_is_the_reflected_path(params, y0, w0, horizon, seed):
    whole = simulate_unreflected(y0, w0, horizon, params, make_stream(seed, 0))
    x0, v0, _ = fold(y0, w0)
    half = simulate_reflected(x0, v0, horizon, params, make_stream(seed, 0))
    assert same_bits(reflect_path(whole), half)
    if y0 != 0.0:
        assert same_bits(unreflect_path(half, y0), whole)


@SETTINGS
@given(rates, seeds)
def test_excursion_path_ends_at_the_first_return(params, seed):
    path = simulate_excursion(params, make_stream(seed, 0))
    assert path.horizon == first_return_time(params, make_stream(seed, 0))
    path.validate(reflected=True)
    assert path.knot_positions[-1] == 0.0
    assert np.all(path.knot_positions[1:-1] > 0.0)


@SETTINGS
@given(rates, seeds)
def test_excursion_trees_are_well_formed(params, seed):
    # 2k - 1 flips for k nodes, and the climb to the top and back down
    # already takes twice the max height
    for rec in sample_excursions(64, params, make_stream(seed, 0)):
        assert rec.jump_count % 2 == 1
        assert 2.0 * rec.max_height <= rec.length


@SETTINGS
@given(rates, st.floats(0.0, 2.0), seeds)
def test_batched_hitting_times_follow_the_event_walk(params, s, seed):
    # starts at s/a take Poisson(s) excursions per descent; both sides are
    # censored a few dozen flips past x, because near-critical excursions
    # can run to millions of events
    x = s / params.a
    horizon = x + 40.0 / (params.a + params.b)
    n = 1000

    def check(k):
        for x0, v0 in ((0.0, 1), (x, 1), (x, -1)):
            batch = sample_hitting(x0, v0, params, make_stream(seed, 2 * k + 1), size=n)
            src = ExpSource(make_stream(seed, 2 * k + 2))
            add = KnotRecorder(x0, v0, store=False).add
            a, b = params.a, params.b
            walks = [
                walk_reflected(x0, v0, 0.0, horizon, a, b, src, add, stop_at_zero=True)
                for _ in range(n)
            ]
            walked = [horizon if t is None else t for t in walks]
            _, p = stats.ks_2samp(np.minimum(batch, horizon), walked, method="asymp")
            if p <= 0.01:
                return False
        return True

    assert gate(check)


@SETTINGS
@given(rates, st.floats(0.0, 1.0), velocities, seeds)
def test_batch_of_one_has_the_batch_law(params, s, v, seed):
    # hitting times from (s/a, v) and the functional at 2s/a take
    # Poisson(s) excursions per draw, which keeps near-critical trees cheap;
    # so do 256 singles against the batch for those two
    x = s / params.a
    samplers = (
        (
            1024,
            lambda rng: sample_excursion_recursive(params, rng).length,
            lambda rng: [r.length for r in sample_excursions(1024, params, rng)],
        ),
        (
            256,
            lambda rng: sample_hitting(x, v, params, rng),
            lambda rng: sample_hitting(x, v, params, rng, size=1024),
        ),
        (
            256,
            lambda rng: sample_sigma(2.0 * x, params, rng),
            lambda rng: sample_sigma(2.0 * x, params, rng, size=1024),
        ),
    )
    for singles, one, batch in samplers:

        def check(k):
            rng = make_stream(seed, 2 * k + 1)
            single = [one(rng) for _ in range(singles)]
            _, p = stats.ks_2samp(single, batch(make_stream(seed, 2 * k + 2)), method="asymp")
            return p > 0.01

        assert gate(check)


def reference_unreflected_states(y0, w0, t, n, params, rng):
    """The batch endpoint loop before its live walkers were compacted.

    Every round gathers the live walkers by index and writes them back
    through masks; kept verbatim to pin the draws of the compacted loop.
    """
    a, b = params.a, params.b
    y = np.full(n, float(y0), dtype=np.float64)
    if w0 is None:
        w = rng.integers(0, 2, size=n) * 2 - 1
    else:
        w = np.full(n, int(w0), dtype=np.int64)
    rem = np.full(n, t, dtype=np.float64)
    idx = np.arange(n)
    while idx.size:
        yi = y[idx]
        wi = w[idx]
        ri = rem[idx]
        toward = yi * wi < 0.0
        rate = np.where(toward, a, b)
        d = rng.standard_exponential(idx.size) / rate
        t_cross = np.where(toward, np.abs(yi), np.inf)
        event = np.minimum(d, t_cross)
        done = event > ri
        fin = idx[done]
        y[fin] = y[fin] + w[fin] * rem[fin]
        live = ~done
        crossing = live & (t_cross <= d)
        c = idx[crossing]
        y[c] = 0.0
        rem[c] -= t_cross[crossing]
        flipping = live & ~crossing
        f = idx[flipping]
        y[f] = y[f] + w[f] * d[flipping]
        w[f] = -w[f]
        rem[f] -= d[flipping]
        idx = idx[live]
    return y, w


starts = st.floats(-3.0, 3.0) | st.just(0.0)
start_velocities = st.sampled_from((-1, 1, None))


@SETTINGS
@given(rates, starts, start_velocities, st.floats(0.0, 20.0), st.integers(1, 200), seeds)
@example(ModelParams(99.0, 101.0), 0.0, None, 5.0 * 99.0, 200, 1)
@example(ModelParams(99.0, 101.0), -1.5, -1, 5.0 * 99.0, 200, 2)
@example(ModelParams(99.0, 101.0), 2.0, 1, 5.0 * 99.0, 200, 3)
def test_compacted_batch_loop_keeps_every_draw(params, y0, w0, s, n, seed):
    # t = s/a, so up to about 20 flips toward the origin per walker; the
    # examples run 1,000 events per walker at rates (99, 101)
    t = s / params.a
    rng, twin = make_stream(seed, 0), make_stream(seed, 0)
    y, w = sample_unreflected_states(y0, w0, t, n, params, rng)
    y_ref, w_ref = reference_unreflected_states(y0, w0, t, n, params, twin)
    assert np.array_equal(y, y_ref) and y.tobytes() == y_ref.tobytes()
    assert np.array_equal(w, w_ref)
    assert w.dtype == np.int64
    assert rng.random() == twin.random()


@SETTINGS
@given(rates, starts, velocities, horizons, seeds)
def test_array_starts_of_one_state_give_the_scalar_bits(params, y0, w0, t, seed):
    n = 64
    y, w = sample_unreflected_states(y0, w0, t, n, params, make_stream(seed, 0))
    starts_y, starts_w = np.full(n, y0), np.full(n, w0)
    y_arr, w_arr = sample_unreflected_states(starts_y, starts_w, t, n, params, make_stream(seed, 0))
    assert y.tobytes() == y_arr.tobytes() and w.tobytes() == w_arr.tobytes()
    assert starts_y.tobytes() == np.full(n, y0).tobytes()  # the caller's starts are left alone
    x0, v0, _ = fold(y0, w0)
    pos, vel = sample_reflected_states(x0, v0, t, n, params, make_stream(seed, 0))
    pos_arr, vel_arr = sample_reflected_states(
        np.full(n, x0), np.full(n, v0), t, n, params, make_stream(seed, 0)
    )
    assert pos.tobytes() == pos_arr.tobytes() and vel.tobytes() == vel_arr.tobytes()


def test_array_starts_are_checked():
    rng = make_stream(7, 0)
    with pytest.raises(ValueError, match="one per walker"):
        sample_unreflected_states(np.zeros(3), 1, 1.0, 4, P12, rng)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        sample_unreflected_states(0.0, np.array([1, 0, -1, 1]), 1.0, 4, P12, rng)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_reflected_states(np.array([1.0, -0.5]), 1, 1.0, 2, P12, rng)
    with pytest.raises(ValueError, match="origin"):
        sample_reflected_states(np.array([1.0, 0.0]), np.array([1, -1]), 1.0, 2, P12, rng)
    for t in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_unreflected_states(0.0, 1, t, 4, P12, rng)


def chained_states(sample, x0, v0, t1, t, n, params, rng, restart=False):
    """States at t from two calls, the second started where the first ended at t1.

    ``restart`` is the mutant that forgets the velocities between the calls.
    """
    pos, vel = sample(x0, v0, t1, n, params, rng)
    if restart:
        vel = np.ones(n, dtype=np.int64)
    return sample(pos, vel, t - t1, n, params, rng)


def chaining_holds(process, params, x0, v0, t1, t, seed, restart=False):
    """Gated two-sample KS of chained against one-call states, on pos and pos*vel.

    Positions are rounded to 1e-9 first: a walker that has not flipped sits
    on an atom, at x0 + v0*t after one call and at (x0 + v0*t1) + v0*(t - t1)
    after two, and those differ in the last bits.
    """
    sample = sample_reflected_states if process == "reflected" else sample_unreflected_states
    n = 2000

    def keys(pos, vel):
        pos = np.round(pos, 9)
        return pos, pos * vel

    def check(k):
        chained = chained_states(
            sample, x0, v0, t1, t, n, params, make_stream(seed, 2 * k), restart
        )
        one_call = sample(x0, v0, t, n, params, make_stream(seed, 2 * k + 1))
        return all(
            stats.ks_2samp(u, v, method="asymp").pvalue > 0.01
            for u, v in zip(keys(*chained), keys(*one_call))
        )

    return gate(check)


@SETTINGS
@given(processes, rates, positions, velocities, st.floats(0.0, 1.0), st.floats(0.0, 3.0), seeds)
@example("reflected", ModelParams(math.exp(0.25), 2.0 * math.exp(0.25)), 1.0, -1, 0.5, 1.0, 0)
@example("unreflected", P12, 0.0, 1, 0.5, 1.0, 0)
def test_chained_calls_have_the_one_call_law(process, params, y0, w0, frac, s, seed):
    # t = s/a covers a few flips toward the origin; the first call ends at frac*t
    x0, v0, _ = fold(y0, w0) if process == "reflected" else (y0, w0, 1)
    t = s / params.a
    assert chaining_holds(process, params, x0, v0, frac * t, t, seed)


@pytest.mark.parametrize("process", ["reflected", "unreflected"])
def test_chaining_check_rejects_a_velocity_restart(process):
    assert chaining_holds(process, P12, 1.0, -1, 0.5, 1.5, 5)
    assert not chaining_holds(process, P12, 1.0, -1, 0.5, 1.5, 5, restart=True)


@SETTINGS
@given(rates, horizons, seeds)
def test_reflected_batch_is_the_folded_whole_line_batch(params, t, seed):
    pos, vel = sample_reflected_states(0.0, 1, t, 64, params, make_stream(seed, 0))
    y, w = sample_unreflected_states(0.0, 1, t, 64, params, make_stream(seed, 0))
    assert pos.tobytes() == np.abs(y).tobytes()
    assert np.all(vel[y > 0.0] == w[y > 0.0])
    assert np.all(vel[y < 0.0] == -w[y < 0.0])
    assert np.all(vel[y == 0.0] == 1)


def couple(process, y0, w0, y1, w1, horizon, params, seed, record_paths=True):
    """Coupled run from whole-line starts, folded first for the reflected process."""
    if process == "reflected":
        (y0, w0, _), (y1, w1, _) = fold(y0, w0), fold(y1, w1)
        run = coalescent_couple_reflected
    else:
        run = coalescent_couple_unreflected
    return run(y0, w0, y1, w1, horizon, params, make_stream(seed, 0), record_paths)


def times(res):
    return res.crossing_time, res.crossing_position, res.coalescence_time, res.indep_clock


@SETTINGS
@given(processes, rates, positions, velocities, positions, velocities, coupling_horizons, seeds)
def test_coupled_legs_are_valid_and_equal_after_the_merge(
    process, params, y0, w0, y1, w1, horizon, seed
):
    res = couple(process, y0, w0, y1, w1, horizon, params, seed)
    for path in (res.path_1, res.path_2):
        path.validate(reflected=process == "reflected")
    t_m = res.coalescence_time
    if t_m is None:
        return
    tails = []
    for path in (res.path_1, res.path_2):
        k = np.searchsorted(path.knot_times, t_m)
        tails.append(
            path.knot_times[k:].tobytes()
            + path.knot_positions[k:].tobytes()
            + path.knot_velocities[k:].tobytes()
        )
    assert tails[0] == tails[1]
    grid = np.linspace(t_m, horizon, 32)
    pos_1, vel_1 = res.path_1.eval_many(grid)
    pos_2, vel_2 = res.path_2.eval_many(grid)
    assert pos_1.tobytes() == pos_2.tobytes()
    assert vel_1.tobytes() == vel_2.tobytes()


@SETTINGS
@given(processes, rates, positions, velocities, positions, velocities, coupling_horizons, seeds)
def test_time_only_coupling_gives_the_recorded_times(
    process, params, y0, w0, y1, w1, horizon, seed
):
    recorded = couple(process, y0, w0, y1, w1, horizon, params, seed)
    time_only = couple(process, y0, w0, y1, w1, horizon, params, seed, record_paths=False)
    assert time_only.path_1 is None and time_only.path_2 is None
    assert times(time_only) == times(recorded)


@SETTINGS
@given(rates, positions, velocities, positions, velocities, coupling_horizons, seeds)
def test_whole_line_coupling_runs_over_the_folded_one(params, y0, w0, y1, w1, horizon, seed):
    # mirror starts skip the crossing report, so they are left out here
    assume(not (y1 == -y0 and w1 == w0 and y0 != 0.0))
    whole = couple("unreflected", y0, w0, y1, w1, horizon, params, seed, record_paths=False)
    half = couple("reflected", y0, w0, y1, w1, horizon, params, seed, record_paths=False)
    assert whole.crossing_time == half.crossing_time
    assert whole.crossing_position == half.crossing_position
    assert whole.indep_clock == half.indep_clock
    if half.coalescence_time is None:
        assert whole.coalescence_time is None
    else:
        assert whole.coalescence_time is None or whole.coalescence_time >= half.coalescence_time
