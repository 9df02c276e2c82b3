"""Property tests of the reflected event kernel and the folding built on it.

Rates are drawn with log a in [-1, 1] and b/a in (1 + 1e-3, 10], starts
anywhere on the line and horizons up to 30.  The walk properties are
exact: the whole-line simulators, the excursion simulators, the reflected
batch sampler and both coalescent couplings all run on the one reflected
walk, so equal streams must give equal bits.  The excursion trees are
checked for their structure; the batched hitting times against the event
walk; and, for excursion lengths, hitting times and the origin-visit
functional, a batch of one against a batch of 1,024.  The batch endpoint
sampler is pinned bit for bit to its earlier uncompacted loop, also on a
generator stub that hands out zero draws, its grid calls to the loop
before each round did only its leg's work, its array starts to its scalar
ones, and two chained calls and its grid call to one call in law.  The
array couplings follow the scalar time-only route in law, a check that
rejects a sign repair without its Exp(2b) wait, and end at a == b within a
small node budget.  The laws are compared with a two-sample test under the
usual reseeded gate.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import gate
from telegraph_kit import coupling, excursions
from telegraph_kit.coupling import (
    coalescence_times,
    coalescent_couple_reflected,
    coalescent_couple_unreflected,
)
from telegraph_kit.excursions import (
    RecursionBudgetError,
    _capped_hitting,
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
    _start_arrays,
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


class ZeroDraws:
    """A generator whose exponential draws are each replaced by 0.0 with probability q.

    Two stubs with the same seed hand out the same sequence.  Draws of
    exactly 0.0 have probability about 2**-53 from the real generator, so
    only a stub reaches the loop's one break in the phase alternation: an
    away leg at the origin that lasts no time is followed by another away
    leg.
    """

    def __init__(self, seed: int, q: float):
        self._rng = make_stream(seed, 0)
        self._zeros = make_stream(seed, 1)
        self._q = q

    def standard_exponential(self, size):
        e = self._rng.standard_exponential(size)
        e[self._zeros.random(size) < self._q] = 0.0
        return e

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self):
        return self._rng.random()


@pytest.mark.parametrize("y0", [0.0, -0.0, 1.0, -0.5])
@pytest.mark.parametrize("w0", [-1, 1, None])
@pytest.mark.parametrize("t", [0.0, -0.0, 1.0, 3.0])
@pytest.mark.parametrize("q", [0.1, 0.6])
def test_zero_draws_at_the_origin_keep_the_old_loop_bits(y0, w0, t, q):
    # starts at the origin, and walkers that return to it, meet zero draws
    # on away legs there; t = +-0 and a start at -0.0 pin the sign of a zero
    # output as well
    seed = 1000 + int(100 * q)
    stub, twin = ZeroDraws(seed, q), ZeroDraws(seed, q)
    y, w = sample_unreflected_states(y0, w0, t, 200, P12, stub)
    y_ref, w_ref = reference_unreflected_states(y0, w0, t, 200, P12, twin)
    assert y.tobytes() == y_ref.tobytes()
    assert np.array_equal(w, w_ref)
    assert stub.random() == twin.random()


def reference_folded_walk(y0, w0, grid, a, b, rng):
    """The folded round of the grid sampler before each round did only its leg's work.

    Every round treats each walker by its signed rate, whatever the legs'
    directions; kept verbatim but for this docstring, to pin the draws, the
    output bits and the generator state of the rewritten loop on grids.
    """
    n, n_times = y0.size, grid.size
    total = n * n_times
    gaps = np.diff(grid)
    y_out = np.empty(total, dtype=np.float64)
    w_out = np.empty(total, dtype=np.int64)
    at_origin = y0 == 0.0
    x = np.where(at_origin, y0, np.abs(y0))
    neg = np.where(at_origin, w0 < 0, y0 < 0.0)
    toward = y0 * w0 < 0.0
    rates = [np.where(toward, a, -b), np.where(toward, -b, a)]
    rem = np.full(n, grid[0], dtype=np.float64)
    slot = np.arange(n)
    no_walkers = slot[:0]
    parity = 0
    while x.size:
        rate = rates[parity]
        e = rng.standard_exponential(x.size)
        d = e / rate
        crossing = x <= d
        step = np.minimum(x, d)
        event = np.abs(step)
        passing = event > rem
        stuck = no_walkers
        if e[e.argmin()] == 0.0:
            # the one break in the alternation: a zero draw on an away leg at
            # the origin leaves the walker there, its velocity flipped, with
            # another away leg to come (the rate sign makes it a "crossing")
            stuck = (crossing & (rate < 0.0)).nonzero()[0]
            origin = x[stuck] + np.where(neg[stuck], -0.0, 0.0)
        some = passing.any()
        if some:
            hit = passing.nonzero()[0]
            x_h, rem_h, at = x[hit], rem[hit], slot[hit]
            sign = np.where(neg[hit], -1.0, 1.0)
            w_h = np.where(rate[hit] < 0.0, sign, -sign)
            y_h = np.where(x_h == 0.0, x_h, sign * x_h)
            y_out[at] = y_h + w_h * rem_h
            w_out[at] = w_h
            if n_times == 1:
                # the grid path below gives the same, but in one-time calls
                # it made the sampler 4-9% slower at scales 4 and 16
                live = ~passing
            else:
                # an event longer than a grid gap passes several grid times
                at += n
                ev_h = event[hit]
                more = (at < total).nonzero()[0]
                while more.size:
                    rem_h[more] += gaps[at[more] // n - 1]
                    more = more[ev_h[more] > rem_h[more]]
                    y_out[at[more]] = y_h[more] + w_h[more] * rem_h[more]
                    w_out[at[more]] = w_h[more]
                    at[more] += n
                    more = more[at[more] < total]
                slot[hit] = at
                rem[hit] = rem_h
                live = slot < total
        x -= step
        neg ^= crossing
        rem -= event
        if stuck.size:
            x[stuck] = origin
            rates[0][stuck], rates[1][stuck] = rates[1][stuck], rates[0][stuck]
        if some and not live.all():
            x, neg, rem, slot = x[live], neg[live], rem[live], slot[live]
            rates = [rates[0][live], rates[1][live]]
        parity ^= 1
    return y_out.reshape(n_times, n), w_out.reshape(n_times, n)


def folded_walks_agree(y0, w0, grid, n, params, make_rng):
    """The sampler's grid call against the old loop on twin generators, bit for bit."""
    rng, twin = make_rng(), make_rng()
    y, w = sample_unreflected_states(y0, w0, grid, n, params, rng)
    y0_arr, w0_arr = _start_arrays(y0, w0, n, twin)
    y_ref, w_ref = reference_folded_walk(y0_arr, w0_arr, np.array(grid), params.a, params.b, twin)
    return (
        y.tobytes() == y_ref.tobytes()
        and w.tobytes() == w_ref.tobytes()
        and rng.random() == twin.random()
    )


grid_starts = st.one_of(
    starts,
    st.lists(starts, min_size=8, max_size=8).map(lambda ys: np.resize(ys, 64)),
)
grid_velocities = st.one_of(
    start_velocities,
    st.lists(velocities, min_size=8, max_size=8).map(lambda ws: np.resize(ws, 64)),
)


@SETTINGS
@given(
    rates,
    grid_starts,
    grid_velocities,
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    st.floats(0.0, 20.0),
    seeds,
)
@example(P12, 0.0, None, [0.5, 0.5, 0.51, 0.52], 8.0, 1)
@example(ModelParams(99.0, 101.0), np.resize([0.0, -1.0, 2.0], 64), None, [0.1, 0.2, 0.3], 99.0, 2)
def test_grid_calls_keep_every_draw_of_the_old_loop(params, y0, w0, fracs, s, seed):
    # grid times are fractions of t = s/a and often share an event; array
    # starts mix legs toward and away from the origin in one round
    t = s / params.a
    grid = sorted(f * t for f in fracs) + [t]
    assert folded_walks_agree(y0, w0, grid, 64, params, lambda: make_stream(seed, 0))


@pytest.mark.parametrize("y0", [0.0, 1.0, -0.5])
@pytest.mark.parametrize("w0", [-1, 1, None])
@pytest.mark.parametrize("q", [0.1, 0.6])
def test_zero_draws_on_grids_keep_the_old_loop_bits(y0, w0, q):
    # a zero draw at the origin puts walkers a round out of step with the rest
    seed = 2000 + int(100 * q)
    grid = [0.0, 0.5, 0.5, 1.0, 3.0]
    assert folded_walks_agree(y0, w0, grid, 200, P12, lambda: ZeroDraws(seed, q))


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
    # a nan walker never passes its time, so these must be refused before the loop
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            sample_reflected_states(np.array([1.0, bad]), 1, 1.0, 2, P12, rng)
        with pytest.raises(ValueError, match="finite"):
            sample_unreflected_states(np.array([bad, 1.0]), None, [1.0, 2.0], 2, P12, rng)
        with pytest.raises(ValueError, match="finite"):
            sample_unreflected_states(bad, 1, 1.0, 4, P12, rng)
    for t in (math.inf, math.nan, -1.0, [1.0, math.inf], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_unreflected_states(0.0, 1, t, 4, P12, rng)
    with pytest.raises(ValueError, match="sorted"):
        sample_unreflected_states(0.0, 1, [2.0, 1.0], 4, P12, rng)
    for t in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="one-dimensional"):
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


def redrawn_grid_states(sample, x0, v0, grid, n, params, rng):
    """The mutant grid call: walkers carried across the grid by one-time calls
    that redraw every velocity after the first grid time."""
    rows_pos, rows_vel = [], []
    pos, vel, t_prev = x0, v0, 0.0
    for t in grid:
        pos, vel = sample(pos, vel if t_prev == 0.0 else None, t - t_prev, n, params, rng)
        rows_pos.append(pos)
        rows_vel.append(vel)
        t_prev = t
    return np.array(rows_pos), np.array(rows_vel)


def grid_law_holds(process, params, x0, v0, grid, seed, mutant=False):
    """Gated two-sample KS of each grid row against a one-time call at its time.

    Keys and rounding as in :func:`chaining_holds`; each of the grid's
    times is tested at level 0.01 / len(grid).
    """
    sample = sample_reflected_states if process == "reflected" else sample_unreflected_states
    n = 2000
    level = 0.01 / len(grid)

    def keys(pos, vel):
        pos = np.round(pos, 9)
        return pos, pos * vel

    def check(k):
        rng = make_stream(seed, 2 * k)
        if mutant:
            rows = redrawn_grid_states(sample, x0, v0, grid, n, params, rng)
        else:
            rows = sample(x0, v0, np.array(grid), n, params, rng)
        one_time = make_stream(seed, 2 * k + 1)
        for j, t in enumerate(grid):
            single = sample(x0, v0, t, n, params, one_time)
            for u, v in zip(keys(rows[0][j], rows[1][j]), keys(*single)):
                if stats.ks_2samp(u, v, method="asymp").pvalue <= level:
                    return False
        return True

    return gate(check)


fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)
grid_times = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4)


@SETTINGS
@given(processes, rates, positions, velocities, fractions, st.floats(0.0, 3.0), seeds)
@example("unreflected", P12, 0.0, 1, [0.2, 0.21, 0.9], 2.0, 0)
def test_grid_call_rows_have_the_one_time_law(process, params, y0, w0, fracs, s, seed):
    # grid times are fractions of t = s/a; close ones make an event pass
    # several grid times at once
    x0, v0, _ = fold(y0, w0) if process == "reflected" else (y0, w0, 1)
    t = s / params.a
    grid = sorted(f * t for f in fracs) + [t]
    assert grid_law_holds(process, params, x0, v0, grid, seed)


@SETTINGS
@given(processes, rates, starts, start_velocities, grid_times, st.integers(1, 50), seeds)
def test_grid_call_shapes_and_its_one_point_grid(process, params, y0, w0, times, n, seed):
    if process == "reflected":
        y0 = abs(y0)
        w0 = 1 if y0 == 0.0 else w0
        sample = sample_reflected_states
    else:
        sample = sample_unreflected_states
    grid = sorted(times)
    pos, vel = sample(y0, w0, grid, n, params, make_stream(seed, 0))
    assert pos.shape == vel.shape == (len(grid), n) and vel.dtype == np.int64
    assert np.all(np.abs(pos) <= abs(y0) + np.array(grid)[:, None] + 1e-9)
    one, one_vel = sample(y0, w0, [grid[0]], n, params, make_stream(seed, 1))
    single, single_vel = sample(y0, w0, grid[0], n, params, make_stream(seed, 1))
    assert one.shape == (1, n) and single.shape == (n,)
    assert one[0].tobytes() == single.tobytes() and one_vel[0].tobytes() == single_vel.tobytes()


@pytest.mark.parametrize("process", ["reflected", "unreflected"])
def test_grid_law_check_rejects_a_velocity_redraw(process):
    grid = [0.5, 1.0, 1.5]
    assert grid_law_holds(process, P12, 1.0, -1, grid, 5)
    assert not grid_law_holds(process, P12, 1.0, -1, grid, 5, mutant=True)


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


def scalar_coupling_times(process, start_1, start_2, horizon, n, params, rng):
    """n time-only runs of the scalar route, as :func:`coalescence_times` reports them."""
    run = coalescent_couple_reflected if process == "reflected" else coalescent_couple_unreflected
    results = [run(*start_1, *start_2, horizon, params, rng, record_paths=False) for _ in range(n)]

    def column(name, missing):
        values = (getattr(res, name) for res in results)
        return np.array([missing if value is None else value for value in values])

    return (
        column("coalescence_time", math.inf),
        column("crossing_time", math.nan),
        column("crossing_position", math.nan),
    )


def kernel_law_holds(process, params, start_1, start_2, horizon, seed, n=1000):
    """Gated two-sample KS of the kernel's three columns against the scalar route's.

    Whole-line starts are folded for the reflected process.  A run that
    never merges counts as 2*horizon and a missing crossing as -1; each
    column is tested at level 0.01 / 3.
    """
    if process == "reflected":
        start_1, start_2 = fold(*start_1)[:2], fold(*start_2)[:2]

    def keys(merge, cross_t, cross_x):
        merge = np.where(np.isinf(merge), 2.0 * horizon, merge)
        return merge, np.nan_to_num(cross_t, nan=-1.0), np.nan_to_num(cross_x, nan=-1.0)

    def check(k):
        batch = coalescence_times(
            n, start_1, start_2, horizon, process, params, make_stream(seed, 2 * k)
        )
        scalar = scalar_coupling_times(
            process, start_1, start_2, horizon, n, params, make_stream(seed, 2 * k + 1)
        )
        return all(
            stats.ks_2samp(u, v, method="asymp").pvalue > 0.01 / 3
            for u, v in zip(keys(*batch), keys(*scalar))
        )

    return gate(check)


# a generic pair, identical folded starts with equal and with unequal signs,
# a head-on pair and the mirror pair; folded, the last two meet head-on
KERNEL_PAIRS = {
    "generic": ((1.5, 1), (0.25, -1)),
    "same folded, same sign": ((1.0, -1), (1.0, -1)),
    "same folded, signs differ": ((1.0, 1), (-1.0, -1)),
    "head-on": ((1.0, 1), (1.0, -1)),
    "mirror": ((1.0, 1), (-1.0, 1)),
}


@pytest.mark.parametrize("pair", list(KERNEL_PAIRS))
@settings(max_examples=10, deadline=None, database=None)
@given(processes, rates, seeds)
def test_coalescence_times_follow_the_scalar_route(pair, process, params, seed):
    # starts and horizon in units of 1/a: a few flips toward the origin
    (y1, w1), (y2, w2) = KERNEL_PAIRS[pair]
    a = params.a
    assert kernel_law_holds(process, params, (y1 / a, w1), (y2 / a, w2), 4.0 / a, seed, n=500)


def no_wait_repair(t, x, v, horizon, params, rng):
    """The mutant sign repair: the legs stick again at once, with no Exp(2b) wait."""
    t = _capped_hitting(t, x, (v == 1) & (x > 0.0), horizon, params, rng)
    return coupling._merge_times(t, np.zeros(t.size), horizon, params, rng)[0]


@pytest.mark.parametrize("pair", ["same folded, signs differ", "head-on"])
def test_kernel_law_check_rejects_a_sign_repair_without_its_wait(pair, monkeypatch):
    starts = KERNEL_PAIRS[pair]
    assert kernel_law_holds("unreflected", P12, *starts, 4.0, 11)
    monkeypatch.setattr(coupling, "_repair_times", no_wait_repair)
    assert not kernel_law_holds("unreflected", P12, *starts, 4.0, 11)


@pytest.mark.parametrize("process", ["reflected", "unreflected"])
def test_critical_coalescence_times_end_within_a_small_node_budget(process, monkeypatch):
    # at a == b the hitting trees are critical; a run's tree stops growing
    # once it passes the horizon, so no call comes near the budget
    monkeypatch.setattr(excursions, "NODE_BUDGET", 4096)
    params = ModelParams(1.0, 1.0)
    merge, _, _ = coalescence_times(
        300, (2.0, 1), (0.5, 1), 20.0, process, params, make_stream(13, 0)
    )
    assert merge.shape == (300,) and 0 < np.isfinite(merge).sum() < 300
    # unpruned, one batch of as many critical trees passes the budget
    with pytest.raises(RecursionBudgetError, match="4096 nodes"):
        sample_hitting(0.5, 1, params, make_stream(13, 1), size=300)


@pytest.mark.parametrize("process", ["reflected", "unreflected"])
def test_descents_past_the_horizon_grow_no_trees(process):
    # the lower leg's descent from 1e9 alone passes the horizon, so every
    # run aborts; its Poisson(a*x) roots would pass the node budget
    merge, cross, _ = coalescence_times(
        100, (1e9, -1), (1e9 - 1.0, -1), 5.0, process, P12, make_stream(3, 0)
    )
    assert np.all(np.isinf(merge)) and np.all(np.isnan(cross))
