"""Piecewise-linear unit-speed trajectories and the folding correspondence.

A trajectory is stored as knot arrays: time, position and velocity at t=0 and
at every event.  Between knots the position moves linearly at the knot's
velocity.  Generators write origin-hit knots with position exactly 0.0, so
the nonnegativity of reflected paths and the zero-detection used when
unfolding are both exact float comparisons, not tolerance checks.

This module owns what every simulator and coupling shares: the start rule
(:func:`check_start`), the fold of a whole-line state (:func:`fold`) and the
recorder of a leg from folded knots (:class:`KnotRecorder`), which unfolds
it when signed; :func:`unreflect_path` feeds that recorder a path's knots.
Every table the package writes goes through :func:`write_csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewisePath",
    "reflect_path",
    "unreflect_path",
    "write_path_csv",
]


def check_start(x: float, v: int, reflected: bool = False) -> tuple[float, int]:
    """The start rule of every simulator and coupling: returns (float(x), int(v)).

    The velocity must be -1 or +1 and the position finite; a reflected start
    must also be nonnegative, with velocity +1 at the origin.
    """
    if v not in (-1, 1):
        raise ValueError(f"velocity must be -1 or +1, got {v}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"start position must be finite, got {x}")
    if reflected and (x < 0.0 or (x == 0.0 and v != 1)):
        raise ValueError(
            f"a reflected start must be nonnegative, with velocity +1 at the origin; got ({x}, {v})"
        )
    return x, int(v)


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


@dataclass
class PiecewisePath:
    """Unit-speed trajectory with one knot per event.

    knot_times[0] == 0.0 and times are strictly increasing, all <= horizon.
    knot_velocities[k] is the velocity in force on [knot_times[k],
    knot_times[k+1]); evaluation is right-continuous.  A knot may repeat the
    previous velocity (couplings insert one synchronisation knot at
    coalescence so merged paths share interpolation bases bit for bit).
    """

    knot_times: np.ndarray
    knot_positions: np.ndarray
    knot_velocities: np.ndarray
    horizon: float

    @classmethod
    def from_lists(cls, times, positions, velocities, horizon) -> "PiecewisePath":
        return cls(
            np.asarray(times, dtype=np.float64),
            np.asarray(positions, dtype=np.float64),
            np.asarray(velocities, dtype=np.int8),
            float(horizon),
        )

    @property
    def initial_state(self) -> tuple[float, int]:
        return float(self.knot_positions[0]), int(self.knot_velocities[0])

    @property
    def events(self) -> list[tuple[float, int]]:
        """(time, new velocity) pairs, excluding the t=0 knot."""
        return [
            (float(t), int(v))
            for t, v in zip(self.knot_times[1:], self.knot_velocities[1:])
        ]

    def eval(self, t: float) -> tuple[float, int]:
        """Position and velocity at time t (right-continuous at events), a batch of one."""
        pos, vel = self.eval_many([t])
        return float(pos[0]), int(vel[0])

    def eval_many(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities at an array of query times in [0, horizon]; nan is refused."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= self.horizon):
            raise ValueError(f"query times outside [0, {self.horizon}]")
        idx = np.searchsorted(self.knot_times, ts, side="right") - 1
        v = self.knot_velocities[idx].astype(np.float64)
        pos = self.knot_positions[idx] + v * (ts - self.knot_times[idx])
        return pos, self.knot_velocities[idx].copy()

    def validate(self, reflected: bool = False) -> None:
        """Check structural invariants; raises ValueError on the first failure.

        Speed is checked segment by segment: each knot position must equal
        the previous one advanced at the previous velocity, up to one
        rounding of that arithmetic (reflection knots are written as exact
        zeros rather than accumulated, which costs at most a few ulps).
        Each test negates what a valid path meets, so a NaN fails it.
        """
        t = self.knot_times
        x = self.knot_positions
        v = self.knot_velocities
        if not (len(t) == len(x) == len(v)):
            raise ValueError("knot arrays must share a length")
        if not (len(t) and t[0] == 0.0 and math.isfinite(x[0])):
            raise ValueError("first knot must sit at t=0, at a finite position")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("knot times must be strictly increasing")
        if not t[-1] <= self.horizon:
            raise ValueError("knot beyond the horizon")
        if not np.all(np.isin(v, (-1, 1))):
            raise ValueError("velocities must be -1 or +1")
        dt = np.diff(t)
        drift = x[1:] - (x[:-1] + v[:-1].astype(np.float64) * dt)
        scale = np.maximum(1.0, np.maximum(np.abs(x[1:]), t[1:]))
        bad = ~(np.abs(drift) <= 1e-9 * scale)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            raise ValueError(f"speed violated between knots {k} and {k + 1}")
        if reflected:
            if not np.all(x >= 0.0):
                raise ValueError("reflected path with a negative knot")
            at_zero = x == 0.0
            if np.any(v[at_zero] != 1):
                raise ValueError("origin knot must carry velocity +1")


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


def reflect_path(path: PiecewisePath) -> PiecewisePath:
    """Fold a whole-line path to the half line: position |Y|, sign-fixed velocity.

    Every knot is folded as :func:`fold` folds it, and interior zero
    crossings of Y become origin knots with velocity +1, each placed right
    after the knot whose segment it ends.  Crossing times are found
    algebraically from the unit speed, so a path produced by unfolding a
    generated reflected path folds back to it exactly.
    """
    t, y, w = path.knot_times, path.knot_positions, path.knot_velocities
    up, down = y > 0.0, y < 0.0
    x = np.where(up, y, np.where(down, -y, 0.0))
    v = np.where(up, w, np.where(down, -w, 1))
    # a segment heading to the origin reaches it strictly inside (a zero
    # exactly at the next knot is that knot's own), or on the horizon itself
    tz = t + x
    cross = (v == -1) & (tz < np.append(t[1:], path.horizon))
    cross[-1:] |= (v[-1:] == -1) & (tz[-1:] <= path.horizon)
    after = cross.nonzero()[0] + 1
    t, x, v = np.insert(t, after, tz[cross]), np.insert(x, after, 0.0), np.insert(v, after, 1)
    return PiecewisePath.from_lists(t, x, v, path.horizon)


def unreflect_path(path: PiecewisePath, y0: float) -> PiecewisePath:
    """Unfold a half-line path to the whole line with initial position y0.

    The path must start at a valid reflected start equal to |y0|, and every
    origin knot must carry velocity +1.  Its knots are fed to a signed
    :class:`KnotRecorder`; a start at the origin unfolds with positive sign.
    """
    x0, v0 = check_start(*path.initial_state, reflected=True)
    y0 = float(y0)
    if abs(y0) != x0:
        raise ValueError(f"|y0|={abs(y0)} does not match the path start {x0}")
    x = path.knot_positions
    v = path.knot_velocities
    if np.any(v[x == 0.0] != 1):
        raise ValueError("origin knot must carry velocity +1")
    sign = -1 if y0 < 0.0 else 1
    rec = KnotRecorder(sign * x0, sign * v0, signed=True)
    for knot in zip(path.knot_times[1:].tolist(), x[1:].tolist(), v[1:].tolist()):
        rec.add(*knot)
    return rec.build(path.horizon)


def write_csv(dest, header: str, columns) -> None:
    """Write a header row, then one row per index of the equal-length ``columns``.

    The one table format of the package: every cell is written as str gives
    it, an array column through ``tolist()``, so a float is a Python float,
    whose str is its repr and a re-read round-trips bit for bit.  ``dest``
    is a filename, opened here with ``newline=""`` and closed here, or a
    text file object, which stays open.
    """
    if isinstance(dest, (str, bytes)):
        with open(dest, "w", newline="") as fh:
            write_csv(fh, header, columns)
        return
    cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if len(set(map(len, cells))) > 1:
        raise ValueError("table columns must share a length")
    dest.write(header + "\n")
    dest.writelines(map((",".join(["{}"] * len(cells)) + "\n").format, *cells))


def write_path_csv(path: PiecewisePath, dest) -> None:
    """Write ``t,position,velocity`` rows: t=0, every event, and the horizon.

    ``dest`` is a filename or a text file object, as :func:`write_csv` takes.
    """
    t, x, v = path.knot_times, path.knot_positions, path.knot_velocities
    if t[-1] < path.horizon:
        x_end, v_end = path.eval_many([path.horizon])
        t, x, v = np.append(t, path.horizon), np.append(x, x_end), np.append(v, v_end)
    write_csv(dest, "t,position,velocity", (t, x, v))
