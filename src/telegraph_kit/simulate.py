"""Exact event-driven simulation of the telegraph particle.

All simulators consume a counter-based numpy generator built from a 64-bit
(seed, stream_id) pair, so independent runs come from explicit stream splits
and every output is reproducible bit for bit.  Between events the motion is
deterministic at unit speed; event times are drawn from the appropriate
exponential clock and origin hits are computed algebraically, never by
time-stepping, so reflected positions are exactly nonnegative.

One scalar event loop, :func:`walk_reflected`, runs the reflected particle
for every path simulator in the package: whole paths, excursions and return
times, and the merged tails of the couplings.  The whole-line process is its
unfolding: the walk runs on (|Y|, sign(Y)*W) and a signed
:class:`~telegraph_kit.paths.KnotRecorder` maps each knot back, flipping the
sign at every origin visit.  The start rule, the fold and the recorder are
owned by :mod:`telegraph_kit.paths` and imported here; the batch samplers
apply that start rule to every walker.  The reflected endpoint sampler is
likewise the fold of the vectorised whole-line one.  Folding is exact in
floating point, because s*(x + v*d) equals s*x + (s*v)*d bit for bit when s
is a sign.

The vectorised whole-line sampler, :func:`sample_unreflected_states`, runs
its walkers folded as well.  Each round is one leg of every live walker,
and the legs alternate strictly: a leg toward the origin, whether it ends
in a flip or on the origin, is followed by a leg away from it, and the
reverse.  So a walker's rate is known from the round's parity, and a round
is a handful of array operations on its height and fold sign.  The one
break in the alternation, a draw of exactly 0.0 on an away leg at the
origin, which leaves the walker on the origin with another away leg to
come, is detected and followed.  The sampler takes one time or a sorted
grid of times; on a grid the walkers run once and are recorded as they
pass each time.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams
from .paths import KnotRecorder, PiecewisePath, check_start, fold

__all__ = [
    "make_stream",
    "split_streams",
    "ExpSource",
    "simulate_unreflected",
    "simulate_reflected",
    "sample_unreflected_states",
    "sample_reflected_states",
]

_MASK64 = (1 << 64) - 1


def make_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream_id), both 64-bit."""
    ss = np.random.SeedSequence(entropy=[int(seed) & _MASK64, int(stream_id) & _MASK64])
    return np.random.Generator(np.random.Philox(ss))


def split_streams(seed: int, n: int, base: int = 0) -> list[np.random.Generator]:
    """n independent streams for one seed, ids base..base+n-1."""
    return [make_stream(seed, base + i) for i in range(n)]


# first and largest refill of an ExpSource; refills double in between
_FIRST_REFILL = 32
_MAX_REFILL = 4096


class ExpSource:
    """Buffered standard-exponential draws for scalar event loops.

    Pulling blocks through ``tolist`` roughly halves the per-draw cost
    compared to scalar generator calls, which dominates the event loops.
    The first refill holds 32 draws and each later one twice the last, up to
    4,096, so a short call (an excursion, a coupling) throws away a few
    dozen read-ahead draws rather than thousands.  The draws it hands out
    are the generator's own ``standard_exponential`` sequence whatever the
    refill sizes.
    """

    __slots__ = ("_rng", "_refill", "_buf", "_i")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._refill = _FIRST_REFILL
        self._buf: list[float] = []
        self._i = 0

    def draw(self) -> float:
        i = self._i
        if i >= len(self._buf):
            size = self._refill
            self._buf = self._rng.standard_exponential(size).tolist()
            self._refill = min(2 * size, _MAX_REFILL)
            i = 0
        self._i = i + 1
        return self._buf[i]

    def uniform(self) -> float:
        # sparse consumers; a scalar call keeps the exponential buffer intact
        return float(self._rng.random())


def walk_reflected(x, v, t, horizon, a, b, src, add, stop_at_zero=False):
    """The reflected event loop: every path simulator in the package runs on it.

    From (x, v) at time t, a down leg lasts Exp(a) and an up leg Exp(b); a
    down leg that reaches the origin first is reflected there to velocity +1,
    at a knot whose position is exactly 0.0.  Each knot up to the horizon is
    passed to add(t, x, v).  With stop_at_zero the walk ends at the next
    origin knot and returns its time; otherwise it returns None at the
    horizon.
    """
    draw = src.draw
    while True:
        if v == -1:
            d = draw() / a
            if x <= d:
                t_hit = t + x
                if t_hit > horizon:
                    return None
                add(t_hit, 0.0, 1)
                if stop_at_zero:
                    return t_hit
                t = t_hit
                x = 0.0
                v = 1
                continue
        else:
            d = draw() / b
        t_next = t + d
        if t_next > horizon:
            return None
        t = t_next
        x = x + v * d
        v = -v
        add(t, x, v)


def simulate_unreflected(
    y0: float,
    w0: int,
    horizon: float,
    params: ModelParams,
    rng: np.random.Generator,
) -> PiecewisePath:
    """Whole-line trajectory on [0, horizon] started from (y0, w0).

    The flip rate is b while y*w > 0 and a while y*w < 0; at the origin the
    outgoing segment always moves away, so rate b applies.  Runs the folded
    walk from (|y0|, sign(y0)*w0) and unfolds it with a sign that flips at
    every origin visit.  Returns the exact path; memory is proportional to
    the number of flips.
    """
    y, w = check_start(y0, w0)
    horizon = float(horizon)
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    rec = KnotRecorder(y, w, signed=True)
    x, v, _ = fold(y, w)
    walk_reflected(x, v, 0.0, horizon, params.a, params.b, ExpSource(rng), rec.add)
    return rec.build(horizon)


def simulate_reflected(
    x0: float,
    v0: int,
    horizon: float,
    params: ModelParams,
    rng: np.random.Generator,
) -> PiecewisePath:
    """Half-line trajectory on [0, horizon] started from (x0, v0).

    Rate b going up, a going down; a down segment that survives to the origin
    is reflected there to velocity +1 and that knot stores position 0.0
    exactly.  A start at the origin must carry velocity +1.
    """
    x, v = check_start(x0, v0, reflected=True)
    horizon = float(horizon)
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    rec = KnotRecorder(x, v)
    walk_reflected(x, v, 0.0, horizon, params.a, params.b, ExpSource(rng), rec.add)
    return rec.build(horizon)


def _start_arrays(y0, w0, n, rng: np.random.Generator, reflected: bool = False):
    """Start positions and velocities of n walkers, each a scalar or one per walker.

    Every walker's start must pass :func:`~telegraph_kit.paths.check_start`;
    the first that fails raises its error.  ``w0=None`` draws velocities
    uniformly from {-1, +1}, and a drawn velocity at the origin folds to +1.
    """
    n = int(n)
    if n <= 0:
        raise ValueError("n must be positive")
    y = np.array(y0, dtype=np.float64)
    w = rng.integers(0, 2, size=n) * 2 - 1 if w0 is None else np.asarray(w0)
    if y.shape not in ((), (n,)) or w.shape not in ((), (n,)):
        raise ValueError(f"starts must be scalars or one per walker ({n})")
    y, w = np.broadcast_to(y, (n,)), np.broadcast_to(w, (n,))
    ok = np.isfinite(y) & ((w == 1) | (w == -1))
    if reflected:
        ok &= (y > 0.0) | ((y == 0.0) & ((w == 1) | (w0 is None)))
    if not ok.all():
        k = int(ok.argmin())
        check_start(y[k], w[k], reflected)
    return y, w.astype(np.int64)


def _time_grid(t) -> np.ndarray:
    grid = np.array(t, dtype=np.float64, ndmin=1)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t must be one time or a one-dimensional grid of times")
    if not (np.all(grid >= 0.0) and np.all(grid < math.inf)):
        raise ValueError("t must be finite and nonnegative")
    if np.any(grid[1:] < grid[:-1]):
        raise ValueError("a grid of times must be sorted")
    return grid


def _folded_walk(y0, w0, grid, a, b, rng):
    """Whole-line states of n walkers at every time of a sorted grid: (G, n) arrays.

    The folded round of :func:`sample_unreflected_states`.  A walker is held
    as its height x = |y| and its fold sign (``neg``: y < 0).  While every
    live walker is on a leg of the same direction, which holds from starts
    that share one and changes only at a zero draw, a round does that
    direction's work alone: an away leg lasts d = e/b and adds d to x; a
    toward leg lasts min(x, e/a), and one that reaches the origin (x <= e/a)
    lands on x - x = 0.0 and flips the fold sign.  Otherwise each walker
    holds a signed rate per round parity, +a toward and -b away, so d = e/rate
    is negative exactly on away legs and the event is |min(x, d)|.

    ``rem`` is the time left to the walker's next grid time, less each
    event; a walker whose new remainder is negative has an event longer
    than the old one, and records y + w*rem at the flat output position
    ``slot`` of that grid time.  It carries on towards the next grid time
    or, past the last, leaves the compacted live arrays.  At the origin x
    keeps the sign of the whole-line zero, which a zero output can show.
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
    heading = bool(toward[0])  # this round's legs head for the origin, while all agree
    rates = None  # the signed rates per round parity, once the walkers' directions differ
    if toward.any() != toward.all():
        rates = [np.where(toward, a, -b), np.where(toward, -b, a)]
    rem = np.full(n, grid[0], dtype=np.float64)
    slot = np.arange(n)
    no_walkers = slot[:0]
    parity = 0
    while x.size:
        e = rng.standard_exponential(x.size)
        if rates is not None:
            rate = rates[parity]
            d = e / rate
            crossing = x <= d
            step = np.minimum(x, d)
            event = np.abs(step)
        elif heading:
            d = e / a
            event = np.minimum(x, d)
        else:
            event = e / b
        stuck = no_walkers
        if (rates is not None or not heading) and e[e.argmin()] == 0.0:
            # the one break in the alternation: a zero draw on an away leg at
            # the origin leaves the walker there, its velocity flipped, with
            # another away leg to come (the rate sign makes it a "crossing")
            if rates is None:
                stuck = ((e == 0.0) & (x == 0.0)).nonzero()[0]
            else:
                stuck = (crossing & (rate < 0.0)).nonzero()[0]
            origin = x[stuck] + np.where(neg[stuck], -0.0, 0.0)
        left = rem - event
        some = left[left.argmin()] < 0.0
        if some:
            passing = left < 0.0
            hit = passing.nonzero()[0]
            x_h, rem_h, at = x[hit], rem[hit], slot[hit]
            sign = np.where(neg[hit], -1.0, 1.0)
            if rates is None:
                w_h = -sign if heading else sign
            else:
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
                left[hit] = rem_h - ev_h
                live = slot < total
        rem = left
        if rates is not None:
            x -= step
            neg ^= crossing
        elif heading:
            neg ^= x <= d
            x -= event
        else:
            x += event
        if stuck.size:
            x[stuck] = origin
            if rates is None:
                # this round was an away one for every walker; from here on
                # the stuck walkers are a round out of step with the others
                neg[stuck] ^= True
                away, next_leg = np.full(x.size, -b), np.full(x.size, a)
                rates = [away, next_leg] if parity == 0 else [next_leg, away]
            rates[0][stuck], rates[1][stuck] = rates[1][stuck], rates[0][stuck]
        if some and not live.all():
            x, neg, rem, slot = x[live], neg[live], rem[live], slot[live]
            if rates is not None:
                rates = [rates[0][live], rates[1][live]]
        parity ^= 1
        heading = not heading
    return y_out.reshape(n_times, n), w_out.reshape(n_times, n)


def sample_unreflected_states(
    y0,
    w0,
    t,
    n: int,
    params: ModelParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n independent endpoint states (positions, velocities) at time t.

    Same law as evaluating :func:`simulate_unreflected` paths at t, but the
    event loop runs across all walkers at once.  ``y0`` and ``w0`` are
    scalars or arrays of shape (n,), one start per walker, so a batch can
    be advanced from where an earlier call left it; ``w0=None`` draws the
    initial velocities uniformly from {-1, +1}.

    ``t`` is one time, giving arrays of shape (n,), or a sorted
    one-dimensional grid of times, giving arrays of shape (len(t), n) whose
    row j holds the states at t[j].  A grid runs the walkers once: a walker
    whose event passes a grid time is recorded there, at y + w*(time left
    to it), and carries on with the same event, so each row has the
    one-time law.

    Each round is one leg of every live walker, and legs alternate: a leg
    toward the origin (rate a) is always followed by a leg away from it
    (rate b), including a toward leg that ends on the origin, and an away
    leg by a toward one.  So the loop holds each walker folded, as |y| and
    a sign that flips at each origin crossing, with its rate known from the
    round's parity.  The one exception, a draw of exactly 0.0 on an away
    leg at the origin, leaves the walker on the origin, velocity flipped,
    and is followed by a second away leg.

    Live walkers are held as compacted arrays in index order and leave them
    only in rounds where some pass their last time.  Every round draws
    ``standard_exponential(live count)``, and a walker takes the draw at
    its rank among the live ones, so the draws, the output bits and the
    generator state after a one-time call do not depend on how the loop
    stores them.
    """
    grid = _time_grid(t)
    y0, w0 = _start_arrays(y0, w0, n, rng)
    y, w = _folded_walk(y0, w0, grid, params.a, params.b, rng)
    if np.ndim(t) == 0:
        return y[0], w[0]
    return y, w


def sample_reflected_states(
    x0,
    v0,
    t,
    n: int,
    params: ModelParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n independent reflected endpoint states at time t, vectorised.

    The fold of :func:`sample_unreflected_states` from (x0, v0): position
    |Y| and velocity sign(Y)*W, or +1 where Y is 0.  Starts may be scalars
    or arrays of shape (n,) and ``t`` one time or a sorted grid, as there;
    the fold of a batch is a valid start for the next call.
    """
    x0, v0 = _start_arrays(x0, v0, n, rng, reflected=True)
    y, w = sample_unreflected_states(x0, v0, t, n, params, rng)
    return np.abs(y), np.where(y > 0.0, w, np.where(y < 0.0, -w, 1))
