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
unfolding: the walk runs on (|Y|, sign(Y)*W) and a :class:`KnotRecorder`
with a sign maps each knot back, flipping the sign at every origin visit.
The reflected endpoint sampler is likewise the fold of the vectorised
whole-line one.  Folding is exact in floating point, because s*(x + v*d)
equals s*x + (s*v)*d bit for bit when s is a sign.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams
from .paths import PiecewisePath

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


def _check_velocity(v: int) -> int:
    if v not in (-1, 1):
        raise ValueError(f"velocity must be -1 or +1, got {v}")
    return int(v)


def fold(y: float, w: int) -> tuple[float, int, int]:
    """Folded state (|y|, sign(y) * w) of a whole-line state, and its sign.

    The origin folds to (0, +1) and takes the sign of its velocity, which is
    the side the particle leaves toward.
    """
    if y > 0.0:
        return y, w, 1
    if y < 0.0:
        return -y, -w, -1
    return 0.0, 1, w


class KnotRecorder:
    """Knots of one leg, fed folded knots by every walk and coupling phase.

    An unsigned recorder (``sign`` 0) stores the folded knots as they come.
    A signed recorder holds a whole-line leg: an origin knot flips its sign
    and vanishes (the unfolded velocity is continuous there), and every other
    knot is stored as (t, sign*x, sign*v); the couplings' sign repair, too,
    reaches the whole line only through these flips.  With ``store=False``
    only the sign is kept, :attr:`stores` is False and :meth:`build` returns
    None.
    """

    __slots__ = ("sign", "t", "x", "v")

    def __init__(self, x0: float, v0: int, signed: bool = False, store: bool = True):
        self.sign = fold(x0, v0)[2] if signed else 0
        if store:
            self.t, self.x, self.v = [0.0], [float(x0)], [int(v0)]
        else:
            self.t = self.x = self.v = None

    def add(self, t: float, x: float, v: int) -> None:
        s = self.sign
        if s:
            if x == 0.0:
                self.sign = -s
                return
            x = s * x
            v = s * v
        if self.t is not None:
            self.t.append(t)
            self.x.append(x)
            self.v.append(v)

    @property
    def stores(self) -> bool:
        return self.t is not None

    def build(self, horizon: float) -> PiecewisePath | None:
        """The recorded path on [0, horizon].

        A knot that shares its time with the next one is dropped (the later
        state wins) and knots past the horizon are cut.
        """
        if self.t is None:
            return None
        t = np.asarray(self.t, dtype=np.float64)
        keep = t <= horizon
        keep[:-1] &= t[1:] != t[:-1]
        if keep.all():
            return PiecewisePath.from_lists(t, self.x, self.v, horizon)
        return PiecewisePath.from_lists(
            t[keep], np.asarray(self.x)[keep], np.asarray(self.v)[keep], horizon
        )


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
    w = _check_velocity(w0)
    y = float(y0)
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
    v = _check_velocity(v0)
    x = float(x0)
    horizon = float(horizon)
    if x < 0.0:
        raise ValueError("reflected start must be nonnegative")
    if x == 0.0 and v != 1:
        raise ValueError("start at the origin requires velocity +1")
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    rec = KnotRecorder(x, v)
    walk_reflected(x, v, 0.0, horizon, params.a, params.b, ExpSource(rng), rec.add)
    return rec.build(horizon)


def _velocity_array(v0, n: int, rng: np.random.Generator) -> np.ndarray:
    if v0 is None:
        return rng.integers(0, 2, size=n) * 2 - 1
    v = np.asarray(v0)
    if v.ndim == 0:
        return np.full(n, _check_velocity(v0), dtype=np.int64)
    if v.shape != (n,) or not np.all((v == 1) | (v == -1)):
        raise ValueError(f"velocities must be -1 or +1, one per walker ({n})")
    return v.astype(np.int64)


def _start_array(y0, n: int) -> np.ndarray:
    y = np.array(y0, dtype=np.float64)
    if y.ndim == 0:
        return np.full(n, float(y), dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"start positions must be a scalar or one per walker ({n})")
    return y


def sample_unreflected_states(
    y0,
    w0,
    t: float,
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

    Live walkers are held as compacted arrays in index order and leave them
    only in rounds where some finish.  Every round draws
    ``standard_exponential(live count)``, and a walker takes the draw at its
    rank among the live ones, so the draws, the output bits and the
    generator state after the call do not depend on how the loop stores
    them.
    """
    n = int(n)
    t = float(t)
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    a, b = params.a, params.b
    y_out = _start_array(y0, n)
    w_out = _velocity_array(w0, n, rng)
    # live walkers: position, velocity (as +-1.0, so products need no cast),
    # time left and output index
    y = y_out.copy()
    w = w_out.astype(np.float64)
    rem = np.full(n, t, dtype=np.float64)
    idx = np.arange(n)
    while y.size:
        yw = y * w
        toward = yw < 0.0
        d = rng.standard_exponential(y.size) / np.where(toward, a, b)
        # a walker moving toward the origin reaches it after |y| = -y*w
        dist = -yw
        crossing = toward & (dist <= d)
        event = np.where(crossing, dist, d)
        done = event > rem
        if done.any():
            y_out[idx[done]] = y[done] + w[done] * rem[done]
            w_out[idx[done]] = w[done]
            live = ~done
            y, w, rem, idx = y[live], w[live], rem[live], idx[live]
            crossing, event = crossing[live], event[live]
        # a crossing walker lands on y + w*|y| = 0.0 exactly and keeps its
        # velocity; the others move y + w*d and flip
        y = y + w * event
        w = np.where(crossing, w, -w)
        rem = rem - event
    return y_out, w_out


def sample_reflected_states(
    x0,
    v0,
    t: float,
    n: int,
    params: ModelParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """n independent reflected endpoint states at time t, vectorised.

    The fold of :func:`sample_unreflected_states` from (x0, v0): position
    |Y| and velocity sign(Y)*W, or +1 where Y is 0.  Starts may be scalars
    or arrays of shape (n,), as there; the fold of a batch is a valid start
    for the next call.
    """
    x = np.asarray(x0, dtype=np.float64)
    if np.any(x < 0.0):
        raise ValueError("reflected start must be nonnegative")
    if v0 is not None and np.any((x == 0.0) & (np.asarray(v0) != 1)):
        raise ValueError("start at the origin requires velocity +1")
    y, w = sample_unreflected_states(x0, v0, t, n, params, rng)
    return np.abs(y), np.where(y > 0.0, w, np.where(y < 0.0, -w, 1))
